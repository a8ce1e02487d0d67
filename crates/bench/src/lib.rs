//! # dsi-bench — the benchmark harness
//!
//! Three binaries. Speed (decode, serving, the weight tier) is measured by
//! the frozen `benchmark/` package, not here; see `benchmark/README.md`.
//!
//! * `figures <name> [args]` / `figures all` — the paper's evaluation
//!   (Sec. VII) regenerated from the cost models: Tables I–II, Figs. 6–13,
//!   the ablations, the planner and the sensitivity report, one function
//!   each in [`figures`] (each module's doc says what it regenerates).
//!   Every figure prints a human-readable table and writes JSON rows to
//!   `results/<name>.jsonl`; a test holds the committed files to what the
//!   figures print.
//! * `check_claims` — recomputes the paper's headline numbers and checks
//!   them against the acceptance bands of `EXPERIMENTS.md`.
//! * `bench_robustness` — what the frozen benchmark deliberately leaves
//!   out: fault storms, overload shedding and the cost of armed-but-idle
//!   fault hooks, for the TP engine, the server and the offload tier,
//!   all under the one measurement protocol below.
//!
//! Criterion micro-benchmarks of the functional kernels live under
//! `benches/`.

pub mod figures;

use dsi_core::percentile;
use dsi_core::report::Row;
use serde::Serialize;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Write rows to `<dir>/<experiment>.jsonl` (overwrites) and echo a
/// summary line.
pub fn emit(dir: &Path, experiment: &str, rows: &[Row]) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{experiment}.jsonl"));
    match fs::File::create(&path) {
        Ok(mut f) => {
            for r in rows {
                let _ = writeln!(f, "{}", r.json());
            }
            println!("[{} rows -> {}]", rows.len(), path.display());
        }
        Err(e) => eprintln!("warn: cannot write {}: {e}", path.display()),
    }
}

/// Fixed-width table printing for the human-readable view.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(headers.iter().map(|s| s.to_string()).collect()));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Milliseconds formatter.
pub fn ms(t: f64) -> String {
    format!("{:.2}", t * 1e3)
}

// ---------------------------------------------------------------------------
// The robustness measurement protocol: interleaved reps, medians with their
// quartile spread, and the two gates every section of `bench_robustness`
// shares. A shared 2-vCPU runner drifts by more than any fixed bar, so a
// bar is stated against what the runs themselves show.
// ---------------------------------------------------------------------------

/// `reps` runs of each of `configs` configurations (`run(i)` is one run of
/// configuration `i`), one rep of each per round with the order reversed
/// every other round, so drift on a shared runner biases none of them.
pub fn measure_interleaved<S>(
    configs: usize,
    reps: usize,
    mut run: impl FnMut(usize) -> S,
) -> Vec<Vec<S>> {
    let mut samples: Vec<Vec<S>> = (0..configs).map(|_| Vec::with_capacity(reps)).collect();
    for round in 0..reps {
        for k in 0..configs {
            let i = if round % 2 == 1 { configs - 1 - k } else { k };
            samples[i].push(run(i));
        }
    }
    samples
}

/// `(first quartile, median, third quartile)` of a sample (nearest rank,
/// so each is one of the reps).
pub fn quartiles(sample: &[f64]) -> (f64, f64, f64) {
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    (percentile(&v, 0.25), percentile(&v, 0.5), percentile(&v, 0.75))
}

/// What arming a fault hook with nothing scripted costs, from interleaved
/// wall times of the unarmed and the armed configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ArmedIdle {
    pub unarmed_median_s: f64,
    pub armed_median_s: f64,
    /// How much slower the armed median is, percent of the unarmed median.
    pub overhead_pct: f64,
    /// The unarmed configuration's own rep-to-rep spread: distance between
    /// its quartiles, percent of its median.
    pub spread_pct: f64,
    /// The bar `overhead_pct` was held under: `max(2, spread_pct)`.
    pub bar_pct: f64,
}

pub fn armed_idle(unarmed_s: &[f64], armed_s: &[f64]) -> ArmedIdle {
    let (q1, med, q3) = quartiles(unarmed_s);
    let (_, armed_med, _) = quartiles(armed_s);
    let spread_pct = (q3 - q1) / med * 100.0;
    ArmedIdle {
        unarmed_median_s: med,
        armed_median_s: armed_med,
        overhead_pct: (armed_med - med) / med * 100.0,
        spread_pct,
        bar_pct: spread_pct.max(2.0),
    }
}

/// The armed-idle gate: an armed, empty injector may cost 2%, or whatever
/// the unarmed configuration's own reps differ by when that is more — a
/// bar inside the noise floor gates the runner, not the hook.
pub fn assert_armed_idle(what: &str, a: &ArmedIdle) {
    println!(
        "{what}: armed-idle overhead {:+.2}% (unarmed rep-to-rep spread {:.2}%, bar {:.2}%)",
        a.overhead_pct, a.spread_pct, a.bar_pct
    );
    assert!(
        a.overhead_pct < a.bar_pct,
        "{what}: armed-idle overhead {:.2}% exceeds the {:.2}% gate",
        a.overhead_pct,
        a.bar_pct
    );
}

/// Goodput under a storm relative to the clean run, net of what the storm
/// injected: the injector's sleeps are the experiment's input, so the
/// system is charged only with time beyond `clean + injected` — what
/// noticing, waiting out and recovering from the faults cost. All three
/// arguments are seconds for the same work.
fn net_goodput_ratio(clean_s: f64, storm_s: f64, injected_s: f64) -> f64 {
    clean_s / (storm_s - injected_s).max(clean_s)
}

/// A storm's median time against the clean median for the same work.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Recovered {
    pub clean_s: f64,
    pub storm_s: f64,
    pub injected_s: f64,
    /// `clean / storm`, sleeps included — reported, not gated (it falls
    /// whenever the clean run gets faster).
    pub raw_ratio: f64,
    /// `clean / max(clean, storm − injected)`. Bar: ≥ 0.25.
    pub net_ratio: f64,
}

/// The recovered-goodput gate: under a fault storm the system keeps at
/// least a quarter of its clean goodput, net of the injected sleep. A
/// failure names its inputs: the three times and the caller's `inputs`
/// (what the arms ran and what the storm left).
pub fn assert_recovered_goodput(what: &str, clean_s: f64, storm_s: f64, injected_s: f64, inputs: &str) -> Recovered {
    let r = Recovered {
        clean_s,
        storm_s,
        injected_s,
        raw_ratio: clean_s / storm_s,
        net_ratio: net_goodput_ratio(clean_s, storm_s, injected_s),
    };
    println!(
        "{what}: recovered goodput {:.2} net of {:.1} ms injected ({:.2} raw, bar 0.25)",
        r.net_ratio,
        injected_s * 1e3,
        r.raw_ratio
    );
    assert!(
        r.net_ratio >= 0.25,
        "{what}: recovered goodput {:.2} below the 0.25 gate (clean {:.2} ms, storm {:.2} ms, {:.2} ms injected \
         per unit of work; {inputs})",
        r.net_ratio,
        clean_s * 1e3,
        storm_s * 1e3,
        injected_s * 1e3
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formats() {
        assert_eq!(ms(0.00123), "1.23");
    }

    #[test]
    fn interleaving_reverses_every_other_round() {
        let mut order = Vec::new();
        let samples = measure_interleaved(3, 2, |i| {
            order.push(i);
            i
        });
        assert_eq!(order, [0, 1, 2, 2, 1, 0]);
        assert_eq!(samples, [[0, 0], [1, 1], [2, 2]]);
    }

    #[test]
    fn armed_idle_bar_is_the_wider_of_two_percent_and_the_spread() {
        let quiet = armed_idle(&[1.0, 1.0, 1.0, 1.0], &[1.01, 1.01, 1.01, 1.01]);
        assert!((quiet.overhead_pct - 1.0).abs() < 1e-9 && quiet.bar_pct == 2.0);
        let noisy = armed_idle(&[0.9, 1.0, 1.0, 1.1], &[1.05, 1.05, 1.05, 1.05]);
        assert!(noisy.spread_pct > 2.0 && noisy.bar_pct == noisy.spread_pct);
        assert_armed_idle("noisy", &noisy);
    }

    #[test]
    fn injected_sleep_is_not_charged_to_the_recovery() {
        assert_eq!(net_goodput_ratio(1.0, 5.0, 4.0), 1.0);
        assert_eq!(net_goodput_ratio(1.0, 5.0, 3.0), 0.5);
        assert_eq!(net_goodput_ratio(1.0, 0.5, 0.0), 1.0);
    }
}
