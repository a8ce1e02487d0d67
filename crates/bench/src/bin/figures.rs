//! `figures <name> [args]` regenerates one table, figure or ablation of the
//! paper's evaluation; `figures all` regenerates every one, in-process.
//! JSON rows go to `results/`, or to `$DSI_RESULTS_DIR` when it is set.

use dsi_bench::figures::{run_all, FIGURES};
use std::path::PathBuf;

fn main() {
    let dir = std::env::var_os("DSI_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((name, [])) if name == "all" => run_all(&dir),
        Some((name, rest)) => match FIGURES.iter().find(|(n, _)| n == name) {
            Some((_, figure)) => figure(&dir, rest),
            None => usage(&format!("unknown figure `{name}`")),
        },
        None => usage("no figure named"),
    }
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    eprintln!("{problem}\nusage: figures <name> [args] | figures all\nnames: {}", names.join(" "));
    std::process::exit(2);
}
