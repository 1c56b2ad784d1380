//! Bit-exact text codec for [`SweepSpec`] over the serve protocol.
//!
//! The memo store fingerprints a cell by hashing the *debug form* of
//! its predictor, workload spec and sim config
//! ([`MemoStore::result_fingerprint`](crate::memo::MemoStore::result_fingerprint)),
//! so the daemon must reconstruct a submitted spec **field-exactly**:
//! any drift — a float formatted through decimal and back, a reordered
//! map — would fork the cell fingerprints between client and server,
//! silently defeating both cross-campaign dedup and the byte-identity
//! guarantee. Two rules keep the roundtrip exact:
//!
//! * every `f64` travels as the hex of its IEEE-754 bit pattern
//!   ([`f64::to_bits`]), never through decimal formatting;
//! * every struct is encoded field-by-field in declaration order with
//!   an explicit version header, so a field added later bumps the
//!   version instead of silently misparsing.
//!
//! The format is line-oriented text (one `sim` line, one `workload`
//! line per workload, one `predictor` line per predictor), strings
//! percent-escaped, lists comma-joined — debuggable with `xxd` on a
//! packet capture, which matters more than byte-count here (specs are
//! tiny next to the cells they describe).

use crate::backend::BackendKind;
use crate::config::{PredictorKind, SimConfig};
use crate::engine::SweepSpec;
use crate::error::SimError;
use llbp_core::{CancelPolicy, CdReplacement, ContextHistoryKind, LlbpParams};
use llbp_tage::{StorageKind, TageConfig, TslConfig};
use llbp_trace::{WorkloadParams, WorkloadSpec};
use std::fmt::Write as _;

/// Format header; bump on any field change.
const HEADER: &str = "llbp-sweep-wire 1";

/// Sentinel token for an empty list (a bare comma-join of zero items
/// would be indistinguishable from a missing token).
const EMPTY_LIST: &str = "-";

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes a spec for [`Op::SubmitSweep`](super::proto::Op).
#[must_use]
pub fn encode_spec(spec: &SweepSpec) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    let _ = writeln!(
        out,
        "sim {} {} {}",
        fbits(spec.sim.warmup_fraction),
        u8::from(spec.sim.track_per_branch),
        spec.sim.backend.label(),
    );
    for workload in &spec.workloads {
        let mut line = format!("workload {} {}", esc(workload.name()), workload.branches());
        push_workload_params(&mut line, workload.params());
        out.push_str(&line);
        out.push('\n');
    }
    for predictor in &spec.predictors {
        let mut line = String::from("predictor ");
        push_predictor(&mut line, predictor);
        out.push_str(&line);
        out.push('\n');
    }
    out.into_bytes()
}

fn push_workload_params(line: &mut String, p: &WorkloadParams) {
    let _ = write!(
        line,
        " {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        p.functions,
        p.shared_functions,
        p.request_types,
        p.call_span,
        p.conds_min,
        p.conds_max,
        p.calls_min,
        p.calls_max,
        p.mean_block_insts,
        p.loop_permille,
        p.shared_call_permille,
        p.icall_permille,
        fbits(p.icall_entropy),
        fbits(p.call_fanout),
        fbits(p.noise_fraction),
        fbits(p.hard_global_fraction),
        fbits(p.context_fraction),
        p.ctx_max_len,
        p.seed,
    );
}

fn push_predictor(line: &mut String, kind: &PredictorKind) {
    match kind {
        PredictorKind::Tsl64K => line.push_str("tsl64k"),
        PredictorKind::TslScaled(f) => {
            let _ = write!(line, "scaled {f}");
        }
        PredictorKind::InfTage => line.push_str("inf-tage"),
        PredictorKind::InfTsl => line.push_str("inf-tsl"),
        PredictorKind::Gshare { index_bits, history_bits } => {
            let _ = write!(line, "gshare {index_bits} {history_bits}");
        }
        PredictorKind::TwoLevelLocal { bht_bits, local_bits } => {
            let _ = write!(line, "two-level {bht_bits} {local_bits}");
        }
        PredictorKind::HashedPerceptron { tables, index_bits, segment_bits } => {
            let _ = write!(line, "perceptron {tables} {index_bits} {segment_bits}");
        }
        PredictorKind::CustomTsl(cfg) => {
            line.push_str("custom-tsl");
            push_tsl(line, cfg);
        }
        PredictorKind::Llbp(p) => {
            line.push_str("llbp");
            push_llbp(line, p);
        }
    }
}

fn push_tsl(line: &mut String, cfg: &TslConfig) {
    let _ = write!(
        line,
        " {} {} {} {} {} {}",
        u8::from(cfg.sc_enabled),
        cfg.sc_index_bits,
        join_usizes(&cfg.sc_history_lengths),
        u8::from(cfg.loop_enabled),
        cfg.loop_index_bits,
        esc(&cfg.label),
    );
    let t = &cfg.tage;
    let _ = write!(
        line,
        " {} {} {} {} {} {} {} {} {} {} {}",
        join_usizes(&t.history_lengths),
        join_u32s(&t.tag_bits),
        t.index_bits,
        t.bimodal_bits,
        t.counter_bits,
        t.useful_bits,
        t.path_bits,
        t.alloc_tries,
        match t.storage {
            StorageKind::Finite => "finite",
            StorageKind::Infinite => "infinite",
        },
        u8::from(t.track_useful),
        t.seed,
    );
}

fn push_llbp(line: &mut String, p: &LlbpParams) {
    let _ = write!(
        line,
        " {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        join_usizes(&p.history_lengths),
        p.patterns_per_set,
        p.num_buckets,
        p.tag_bits,
        p.counter_bits,
        p.cd_index_bits,
        p.cd_ways,
        p.cid_bits,
        p.pb_index_bits,
        p.pb_ways,
        p.window,
        p.prefetch_distance,
        p.prefetch_delay,
        p.fetch_width,
        match p.history_kind {
            ContextHistoryKind::Unconditional => "unconditional",
            ContextHistoryKind::CallReturn => "call-return",
            ContextHistoryKind::All => "all",
        },
        p.confidence_threshold,
        match p.cd_replacement {
            CdReplacement::Confidence => "confidence",
            CdReplacement::Lru => "lru",
        },
        match p.cancel_policy {
            CancelPolicy::Never => "never",
            CancelPolicy::OnDisagree => "on-disagree",
            CancelPolicy::Always => "always",
        },
        u8::from(p.weak_override_gate),
        esc(&p.label),
    );
    push_tsl(line, &p.tsl);
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Decodes a spec submitted over the wire.
///
/// # Errors
///
/// [`SimError::Config`] describing the first malformed line — the
/// daemon turns this into a protocol-level `Err` response, so a client
/// speaking a different format version gets a readable refusal.
pub fn decode_spec(bytes: &[u8]) -> Result<SweepSpec, SimError> {
    decode_inner(bytes)
        .map_err(|detail| SimError::Config { detail: format!("sweep wire: {detail}") })
}

fn decode_inner(bytes: &[u8]) -> Result<SweepSpec, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty spec")?;
    if header.trim() != HEADER {
        return Err(format!("unsupported header `{}` (expected `{HEADER}`)", header.trim()));
    }
    let mut sim = None;
    let mut workloads = Vec::new();
    let mut predictors = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = Toks::new(line);
        match toks.next("line kind")? {
            "sim" => {
                let warmup_fraction = parse_fbits(toks.next("warmup bits")?)?;
                let track_per_branch = parse_bool(toks.next("track flag")?)?;
                let backend: BackendKind = toks.parse("backend")?;
                sim = Some(SimConfig { warmup_fraction, track_per_branch, backend });
            }
            "workload" => {
                let name = unesc(toks.next("workload name")?)?;
                let branches: usize = toks.parse("branches")?;
                let params = parse_workload_params(&mut toks)?;
                workloads.push(WorkloadSpec::custom(name, params).with_branches(branches));
            }
            "predictor" => predictors.push(parse_predictor(&mut toks)?),
            other => return Err(format!("unknown line kind `{other}`")),
        }
        toks.finish()?;
    }
    let sim = sim.ok_or("missing `sim` line")?;
    if workloads.is_empty() || predictors.is_empty() {
        return Err("spec needs at least one workload and one predictor".into());
    }
    Ok(SweepSpec::new(predictors, workloads, sim))
}

fn parse_workload_params(toks: &mut Toks<'_>) -> Result<WorkloadParams, String> {
    Ok(WorkloadParams {
        functions: toks.parse("functions")?,
        shared_functions: toks.parse("shared_functions")?,
        request_types: toks.parse("request_types")?,
        call_span: toks.parse("call_span")?,
        conds_min: toks.parse("conds_min")?,
        conds_max: toks.parse("conds_max")?,
        calls_min: toks.parse("calls_min")?,
        calls_max: toks.parse("calls_max")?,
        mean_block_insts: toks.parse("mean_block_insts")?,
        loop_permille: toks.parse("loop_permille")?,
        shared_call_permille: toks.parse("shared_call_permille")?,
        icall_permille: toks.parse("icall_permille")?,
        icall_entropy: parse_fbits(toks.next("icall_entropy")?)?,
        call_fanout: parse_fbits(toks.next("call_fanout")?)?,
        noise_fraction: parse_fbits(toks.next("noise_fraction")?)?,
        hard_global_fraction: parse_fbits(toks.next("hard_global_fraction")?)?,
        context_fraction: parse_fbits(toks.next("context_fraction")?)?,
        ctx_max_len: toks.parse("ctx_max_len")?,
        seed: toks.parse("seed")?,
    })
}

fn parse_predictor(toks: &mut Toks<'_>) -> Result<PredictorKind, String> {
    Ok(match toks.next("predictor variant")? {
        "tsl64k" => PredictorKind::Tsl64K,
        "scaled" => PredictorKind::TslScaled(toks.parse("scale factor")?),
        "inf-tage" => PredictorKind::InfTage,
        "inf-tsl" => PredictorKind::InfTsl,
        "gshare" => PredictorKind::Gshare {
            index_bits: toks.parse("index_bits")?,
            history_bits: toks.parse("history_bits")?,
        },
        "two-level" => PredictorKind::TwoLevelLocal {
            bht_bits: toks.parse("bht_bits")?,
            local_bits: toks.parse("local_bits")?,
        },
        "perceptron" => PredictorKind::HashedPerceptron {
            tables: toks.parse("tables")?,
            index_bits: toks.parse("index_bits")?,
            segment_bits: toks.parse("segment_bits")?,
        },
        "custom-tsl" => PredictorKind::CustomTsl(parse_tsl(toks)?),
        "llbp" => PredictorKind::Llbp(parse_llbp(toks)?),
        other => return Err(format!("unknown predictor variant `{other}`")),
    })
}

fn parse_tsl(toks: &mut Toks<'_>) -> Result<TslConfig, String> {
    Ok(TslConfig {
        sc_enabled: parse_bool(toks.next("sc_enabled")?)?,
        sc_index_bits: toks.parse("sc_index_bits")?,
        sc_history_lengths: split_usizes(toks.next("sc_history_lengths")?)?,
        loop_enabled: parse_bool(toks.next("loop_enabled")?)?,
        loop_index_bits: toks.parse("loop_index_bits")?,
        label: unesc(toks.next("tsl label")?)?,
        tage: TageConfig {
            history_lengths: split_usizes(toks.next("history_lengths")?)?,
            tag_bits: split_u32s(toks.next("tag_bits")?)?,
            index_bits: toks.parse("index_bits")?,
            bimodal_bits: toks.parse("bimodal_bits")?,
            counter_bits: toks.parse("counter_bits")?,
            useful_bits: toks.parse("useful_bits")?,
            path_bits: toks.parse("path_bits")?,
            alloc_tries: toks.parse("alloc_tries")?,
            storage: match toks.next("storage")? {
                "finite" => StorageKind::Finite,
                "infinite" => StorageKind::Infinite,
                other => return Err(format!("unknown storage kind `{other}`")),
            },
            track_useful: parse_bool(toks.next("track_useful")?)?,
            seed: toks.parse("tage seed")?,
        },
    })
}

fn parse_llbp(toks: &mut Toks<'_>) -> Result<LlbpParams, String> {
    Ok(LlbpParams {
        history_lengths: split_usizes(toks.next("history_lengths")?)?,
        patterns_per_set: toks.parse("patterns_per_set")?,
        num_buckets: toks.parse("num_buckets")?,
        tag_bits: toks.parse("tag_bits")?,
        counter_bits: toks.parse("counter_bits")?,
        cd_index_bits: toks.parse("cd_index_bits")?,
        cd_ways: toks.parse("cd_ways")?,
        cid_bits: toks.parse("cid_bits")?,
        pb_index_bits: toks.parse("pb_index_bits")?,
        pb_ways: toks.parse("pb_ways")?,
        window: toks.parse("window")?,
        prefetch_distance: toks.parse("prefetch_distance")?,
        prefetch_delay: toks.parse("prefetch_delay")?,
        fetch_width: toks.parse("fetch_width")?,
        history_kind: match toks.next("history_kind")? {
            "unconditional" => ContextHistoryKind::Unconditional,
            "call-return" => ContextHistoryKind::CallReturn,
            "all" => ContextHistoryKind::All,
            other => return Err(format!("unknown history kind `{other}`")),
        },
        confidence_threshold: toks.parse("confidence_threshold")?,
        cd_replacement: match toks.next("cd_replacement")? {
            "confidence" => CdReplacement::Confidence,
            "lru" => CdReplacement::Lru,
            other => return Err(format!("unknown cd replacement `{other}`")),
        },
        cancel_policy: match toks.next("cancel_policy")? {
            "never" => CancelPolicy::Never,
            "on-disagree" => CancelPolicy::OnDisagree,
            "always" => CancelPolicy::Always,
            other => return Err(format!("unknown cancel policy `{other}`")),
        },
        weak_override_gate: parse_bool(toks.next("weak_override_gate")?)?,
        label: unesc(toks.next("llbp label")?)?,
        tsl: parse_tsl(toks)?,
    })
}

// ---------------------------------------------------------------------
// Token plumbing
// ---------------------------------------------------------------------

struct Toks<'a> {
    iter: std::str::SplitWhitespace<'a>,
}

impl<'a> Toks<'a> {
    fn new(line: &'a str) -> Self {
        Self { iter: line.split_whitespace() }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        self.iter.next().ok_or_else(|| format!("missing token `{what}`"))
    }

    fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let tok = self.next(what)?;
        tok.parse().map_err(|e| format!("bad {what} `{tok}`: {e}"))
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.iter.next() {
            Some(extra) => Err(format!("trailing token `{extra}`")),
            None => Ok(()),
        }
    }
}

/// `f64` as the hex of its bit pattern — the only formatting that
/// roundtrips every value (including negative zero and subnormals)
/// bit-exactly.
fn fbits(f: f64) -> String {
    format!("{:016x}", f.to_bits())
}

fn parse_fbits(tok: &str) -> Result<f64, String> {
    let bits = u64::from_str_radix(tok, 16).map_err(|e| format!("bad f64 bits `{tok}`: {e}"))?;
    Ok(f64::from_bits(bits))
}

fn parse_bool(tok: &str) -> Result<bool, String> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad flag `{other}` (expected 0/1)")),
    }
}

fn join_usizes(list: &[usize]) -> String {
    if list.is_empty() {
        return EMPTY_LIST.into();
    }
    list.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}

fn join_u32s(list: &[u32]) -> String {
    if list.is_empty() {
        return EMPTY_LIST.into();
    }
    list.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}

fn split_usizes(tok: &str) -> Result<Vec<usize>, String> {
    if tok == EMPTY_LIST {
        return Ok(Vec::new());
    }
    tok.split(',').map(|t| t.parse().map_err(|e| format!("bad list item `{t}`: {e}"))).collect()
}

fn split_u32s(tok: &str) -> Result<Vec<u32>, String> {
    if tok == EMPTY_LIST {
        return Ok(Vec::new());
    }
    tok.split(',').map(|t| t.parse().map_err(|e| format!("bad list item `{t}`: {e}"))).collect()
}

/// Percent-escapes whitespace, `%` and control bytes so any string is
/// one whitespace-delimited token.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for byte in s.bytes() {
        if byte.is_ascii_graphic() && byte != b'%' {
            out.push(byte as char);
        } else {
            let _ = write!(out, "%{byte:02x}");
        }
    }
    if out.is_empty() {
        // An empty label must still be a token.
        out.push_str("%00");
    }
    out
}

fn unesc(tok: &str) -> Result<String, String> {
    let bytes = tok.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).ok_or_else(|| format!("torn escape in `{tok}`"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in `{tok}`"))?;
            let byte = u8::from_str_radix(hex, 16)
                .map_err(|_| format!("bad escape `%{hex}` in `{tok}`"))?;
            if byte != 0 {
                out.push(byte);
            }
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|e| format!("escaped string not UTF-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::MemoStore;

    fn kitchen_sink_spec() -> SweepSpec {
        let llbp = LlbpParams {
            label: "LLBP with spaces %and% escapes".into(),
            cancel_policy: CancelPolicy::OnDisagree,
            history_kind: ContextHistoryKind::All,
            cd_replacement: CdReplacement::Lru,
            ..LlbpParams::default()
        };
        let mut custom = TslConfig::cbp64k();
        custom.sc_history_lengths = Vec::new();
        custom.label = String::new();
        custom.tage.storage = StorageKind::Infinite;
        let predictors = vec![
            PredictorKind::Tsl64K,
            PredictorKind::TslScaled(8),
            PredictorKind::InfTage,
            PredictorKind::InfTsl,
            PredictorKind::Gshare { index_bits: 14, history_bits: 12 },
            PredictorKind::TwoLevelLocal { bht_bits: 10, local_bits: 11 },
            PredictorKind::HashedPerceptron { tables: 8, index_bits: 12, segment_bits: 9 },
            PredictorKind::CustomTsl(custom),
            PredictorKind::Llbp(llbp),
        ];
        let params = WorkloadParams {
            // Not representable in short decimal; pins the bit-exact
            // f64 encoding. Negative zero pins sign preservation.
            noise_fraction: 0.1f64.next_up(),
            icall_entropy: -0.0,
            ..WorkloadParams::default()
        };
        let workloads = vec![
            llbp_trace::WorkloadSpec::named(llbp_trace::Workload::Http).with_branches(5_000),
            WorkloadSpec::custom("custom workload", params).with_branches(7_777),
        ];
        let sim = SimConfig {
            warmup_fraction: 1.0 / 3.0,
            track_per_branch: true,
            backend: BackendKind::Batch,
        };
        SweepSpec::new(predictors, workloads, sim)
    }

    #[test]
    fn spec_roundtrips_field_exactly() {
        let spec = kitchen_sink_spec();
        let back = decode_spec(&encode_spec(&spec)).expect("decodes");
        assert_eq!(back.predictors, spec.predictors);
        assert_eq!(back.workloads, spec.workloads);
        assert_eq!(back.sim, spec.sim);
        // The property the whole codec exists for: identical debug
        // forms, hence identical memo fingerprints.
        assert_eq!(format!("{:?}", back.workloads), format!("{:?}", spec.workloads));
    }

    #[test]
    fn roundtrip_preserves_memo_fingerprints() {
        let spec = kitchen_sink_spec();
        let back = decode_spec(&encode_spec(&spec)).expect("decodes");
        let root = std::env::temp_dir().join(format!("llbp-wire-fp-{}", std::process::id()));
        let store = MemoStore::open(&root).expect("store opens");
        for (kind, kind_back) in spec.predictors.iter().zip(&back.predictors) {
            for (w, w_back) in spec.workloads.iter().zip(&back.workloads) {
                assert_eq!(
                    store.result_fingerprint(kind, w, &spec.sim),
                    store.result_fingerprint(kind_back, w_back, &back.sim),
                    "fingerprint forked for {kind:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn malformed_specs_reject_with_config_errors() {
        for bad in [
            &b""[..],
            b"llbp-sweep-wire 999\nsim 0 0 auto",
            b"llbp-sweep-wire 1\nsim zz 0 auto\nworkload a 1",
            b"llbp-sweep-wire 1\nwormhole x",
            b"llbp-sweep-wire 1\nsim 3fd5555555555555 0 auto",
            b"llbp-sweep-wire 1\nsim 3fd5555555555555 0 auto\npredictor warp",
        ] {
            let err = decode_spec(bad).expect_err("must reject");
            assert_eq!(err.class(), "config");
        }
        // Trailing tokens are torn frames, not silently ignored.
        let mut wire = encode_spec(&kitchen_sink_spec());
        wire.extend_from_slice(b" extra");
        assert!(decode_spec(&wire).is_err());
    }
}
