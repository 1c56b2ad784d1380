//! The benchmark's result: named metrics with units, printed as a
//! human-readable report followed by one JSON line.

use std::fmt::Write as _;

/// One measured quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
    /// Extra context for the report line (empty when none).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Self { name: name.into(), value, unit, samples, note: String::new() }
    }

    /// The same metric with a note for the report line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What one run of the benchmark established.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output checked out: no cell failed or mismatched, and the
    /// workload did the work it claims (`problems` is empty).
    pub correct: bool,
    /// Grid cells attempted in the timed campaigns.
    pub attempted: u64,
    /// Cells that failed or mismatched the reference.
    pub failed: u64,
    /// The metrics of the JSON line (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Further quantities printed in the report only.
    pub info: Vec<Metric>,
    /// Free-form report lines (sanity comparisons, diagnostics).
    pub lines: Vec<String>,
    /// Why the run is not correct, one entry per broken check.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The human-readable report: one line per metric, then notes.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = write!(out, "{:<34} {:>16.6} {:<14} n={}", m.name, m.value, m.unit, m.samples);
            if !m.note.is_empty() {
                let _ = write!(out, "  {}", m.note);
            }
            out.push('\n');
        }
        for line in self.lines.iter().chain(&self.problems) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value, which no measurement here can
    /// produce without a bug.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_digits() {
        let outcome = Outcome {
            correct: true,
            attempted: 56,
            failed: 0,
            metrics: vec![
                Metric::new("campaign_wall_s", 10.123_456_789_012, "s", 2),
                Metric::new("cells_per_s", 5.5, "1/s", 2),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 56, \"failed\": 0, \"metrics\": {\
             \"campaign_wall_s\": {\"value\": 10.123456789012, \"unit\": \"s\"}, \
             \"cells_per_s\": {\"value\": 5.5, \"unit\": \"1/s\"}}}"
        );
    }
}
