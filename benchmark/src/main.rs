//! The repo's benchmark: one command runs one workload, checks its outputs,
//! and prints every metric by name with its unit.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --workload <name> --repeat <N> [--seed <n>] [--seconds <s>]
//! benchmark --smoke
//! ```
//!
//! The last line of standard output is the result object; everything meant
//! for people (counts per phase, the token digest, noise warnings) goes to
//! standard error. See `README.md` beside this package for the workloads,
//! the metric definitions and the frozen surface the benchmark may call.

mod closed;
mod engine;
mod gen;
mod oracle;
mod probe;
mod repeat;
mod replica;
mod report;
mod serve;
mod span;
mod spec;
mod stats;

use report::{Opts, Report};
use spec::{Kind, Workload, END_TO_END, PER_LAYER, WORKLOADS};

pub fn run_workload(w: &Workload, opts: &Opts) -> Report {
    match &w.kind {
        Kind::Engine(spec) => engine::run(spec, opts),
        Kind::Serve(spec) => serve::run(spec, opts),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => a.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {}", a.seconds));
    }
    Ok(a)
}

fn usage(err: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("error: {err}");
    eprintln!("usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       benchmark --workload <name> --repeat <N> [--seed <n>] [--seconds <s>]");
    eprintln!("       benchmark --smoke");
    eprintln!("workloads: {}", names.join(", "));
    std::process::exit(2);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage(&e));
    if args.smoke {
        std::process::exit(if repeat::smoke() { 0 } else { 1 });
    }
    let name = args
        .workload
        .as_deref()
        .unwrap_or_else(|| usage("--workload is required"));
    let w = spec::workload(name).unwrap_or_else(|| usage(&format!("no workload named {name}")));
    if let Some(n) = args.repeat {
        std::process::exit(if repeat::repeat(w, n, args.seed, args.seconds) {
            0
        } else {
            1
        });
    }

    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: false,
    };
    let mut report = run_workload(w, &opts);
    let line = if opts.trace {
        report.json_line(&PER_LAYER, true)
    } else {
        report.json_line(&END_TO_END, false)
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        w.name, opts.seed, opts.seconds, opts.trace as u8
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
    println!("{line}");
}
