//! Centralized `LLBP_*` environment-knob parsing.
//!
//! Every tunable in the workspace reads its override from one
//! environment variable, and historically each reader rolled its own
//! `var().ok().and_then(parse().ok())` chain — which silently swallows
//! typos. `LLBP_WORKERS=sixteen` ran on the default pool while
//! `LLBP_FAULT_SPEC=garbage` failed typed, an inconsistency that cost
//! real debugging time. This module is the single policy point:
//!
//! * unset or empty/whitespace variables mean "use the default"
//!   ([`Ok(None)`]);
//! * set-but-unparsable variables are a configuration mistake and fail
//!   with [`SimError::Config`] naming the variable, the offending
//!   value, and the parse error — surfacing as exit code 2 like every
//!   other config error.
//!
//! All `LLBP_*` readers (engine retries/timeout/workers, lock wait, the
//! serve client's poll cadence) go through [`parse_env`] /
//! [`parse_env_or`]. Constructors that must stay infallible (e.g.
//! [`SweepEngine::new`]) capture the error and defer it to the first
//! fallible entry point instead of dropping it.
//!
//! [`SweepEngine::new`]: crate::engine::SweepEngine::new

use crate::error::SimError;
use std::fmt::Display;
use std::str::FromStr;

/// Reads and parses `name`, distinguishing "unset" from "set to
/// garbage".
///
/// Returns `Ok(None)` when the variable is unset (or set to an
/// empty/whitespace value), `Ok(Some(parsed))` when it parses.
///
/// # Errors
///
/// [`SimError::Config`] when the variable is set but does not parse as
/// `T`; the message names the variable and the raw value so the fix is
/// obvious from the error alone.
pub fn parse_env<T>(name: &'static str) -> Result<Option<T>, SimError>
where
    T: FromStr,
    T::Err: Display,
{
    let Ok(raw) = std::env::var(name) else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    trimmed
        .parse::<T>()
        .map(Some)
        .map_err(|e| SimError::Config { detail: format!("{name} `{trimmed}`: {e}") })
}

/// [`parse_env`] with a default for the unset case.
///
/// # Errors
///
/// As [`parse_env`].
pub fn parse_env_or<T>(name: &'static str, default: T) -> Result<T, SimError>
where
    T: FromStr,
    T::Err: Display,
{
    Ok(parse_env(name)?.unwrap_or(default))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; each test uses its own variable
    // name so the suite stays parallel-safe.

    #[test]
    fn unset_and_blank_mean_default() {
        std::env::remove_var("LLBP_TEST_KNOB_UNSET");
        assert_eq!(parse_env::<u32>("LLBP_TEST_KNOB_UNSET").unwrap(), None);
        std::env::set_var("LLBP_TEST_KNOB_BLANK", "   ");
        assert_eq!(parse_env::<u32>("LLBP_TEST_KNOB_BLANK").unwrap(), None);
        assert_eq!(parse_env_or("LLBP_TEST_KNOB_BLANK", 7u32).unwrap(), 7);
        std::env::remove_var("LLBP_TEST_KNOB_BLANK");
    }

    #[test]
    fn valid_values_parse_with_whitespace_trimmed() {
        std::env::set_var("LLBP_TEST_KNOB_OK", " 42 ");
        assert_eq!(parse_env::<u64>("LLBP_TEST_KNOB_OK").unwrap(), Some(42));
        assert_eq!(parse_env_or("LLBP_TEST_KNOB_OK", 7u64).unwrap(), 42);
        std::env::remove_var("LLBP_TEST_KNOB_OK");
    }

    #[test]
    fn garbage_is_a_typed_config_error_naming_the_variable() {
        std::env::set_var("LLBP_TEST_KNOB_BAD", "sixteen");
        let err = parse_env::<usize>("LLBP_TEST_KNOB_BAD").unwrap_err();
        assert_eq!(err.class(), "config");
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("LLBP_TEST_KNOB_BAD"), "message names the variable: {msg}");
        assert!(msg.contains("sixteen"), "message shows the raw value: {msg}");
        std::env::remove_var("LLBP_TEST_KNOB_BAD");
    }
}
