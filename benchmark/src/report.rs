//! What one run of one workload yields, and how it is printed.

use crate::gen::Shape;
use crate::spec::Metric;
use crate::stats::{supported_percentile, Slo};

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// The per-layer pass instead of the end-to-end one.
    pub trace: bool,
    /// Correctness and schema only: a quarter of every length, one set-up,
    /// two oracle samples.
    pub smoke: bool,
}

impl Opts {
    /// Times set-up runs; `setup_s` is the median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Requests recomputed by the solo-session oracle.
    pub fn oracle_n(&self) -> usize {
        if self.smoke {
            2
        } else {
            8
        }
    }

    pub fn shape(&self, shape: &Shape) -> Shape {
        if self.smoke {
            shape.shrunk(4)
        } else {
            *shape
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64)>,
    /// Human-readable lines (stderr): counts per phase, digest, warnings.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((name, value));
    }

    /// Set a percentile of an ascending sample, or 0 where fewer than ten
    /// samples lie beyond it (the percentile rule).
    pub fn set_supported(&mut self, name: &'static str, sorted: &[f64], p: f64) {
        self.set(name, supported_percentile(sorted, p).unwrap_or(0.0));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|x| x.1)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The contract's result line: every metric of `table` by name with its
    /// unit. An end-to-end metric that was not measured, or any value that is
    /// not a finite number, makes the run incorrect rather than silently 0.
    pub fn json_line(&mut self, table: &[Metric], per_layer: bool) -> String {
        let mut body = String::new();
        for (i, m) in table.iter().enumerate() {
            let value = match self.get(m.name) {
                Some(v) if v.is_finite() => v,
                // A layer the workload does not reach did no work.
                None if per_layer => 0.0,
                other => {
                    self.notes
                        .push(format!("metric {} has no finite value: {other:?}", m.name));
                    self.correct = false;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            body.push_str(&format!(
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// One request as its client saw it: `latency_ms` is `None` when it failed
/// or was refused.
#[derive(Debug, Clone, Copy)]
pub struct Seen {
    pub n_tokens: usize,
    pub latency_ms: Option<f64>,
}

/// A refused or failed request never completes; where a percentile lands on
/// one, this stands in for "never" so the line stays a finite number.
pub const NEVER_MS: f64 = 1e9;

/// Share of `seen` (every request sent) that completed within the SLO.
pub fn slo_share(seen: &[Seen], slo: &Slo) -> f64 {
    let met = seen
        .iter()
        .filter(|s| slo.met(s.latency_ms, s.n_tokens))
        .count();
    met as f64 / seen.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut r = Report {
            correct: true,
            attempted: 12,
            ..Report::default()
        };
        for m in &END_TO_END {
            r.set(m.name, 1.25);
        }
        let line = r.json_line(&END_TO_END, false);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(12));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["tok_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["tok_s"]["unit"].as_str(), Some("tok/s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn unmeasured_layer_is_zero_but_unmeasured_end_to_end_is_incorrect() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Report::default()
        };
        let line = r.json_line(&PER_LAYER, true);
        assert!(r.correct);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["metrics"]["zero.hit_ratio"]["value"].as_f64(), Some(0.0));
        r.json_line(&END_TO_END, false);
        assert!(!r.correct);
    }

    #[test]
    fn refused_requests_miss_the_slo() {
        let slo = Slo {
            first_ms: 100.0,
            per_token_ms: 10.0,
        };
        let mut seen: Vec<Seen> = (0..8)
            .map(|i| Seen {
                n_tokens: 10,
                latency_ms: Some(100.0 + i as f64),
            })
            .collect();
        seen.push(Seen {
            n_tokens: 10,
            latency_ms: Some(500.0),
        }); // late
        seen.push(Seen {
            n_tokens: 10,
            latency_ms: None,
        }); // refused
        assert_eq!(slo_share(&seen, &slo), 0.8);
    }
}
