//! `--repeat N`: the spread of a workload's end-to-end metrics over N runs,
//! computed the way the driver computes it; and `--smoke`: every workload at
//! a fraction of the work, checking correctness and the result schema only.

use std::process::Command;

use serde_json::Value;

use crate::report::Opts;
use crate::spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};

/// Run `w` `n` times, each in a process of its own (peak memory is per
/// process) with seeds `seed, seed+1, …`, and print for every end-to-end
/// metric the median, the quartiles, (Q3 − Q1) ÷ median and
/// (max − min) ÷ median. Returns whether every run was correct.
pub fn repeat(w: &Workload, n: usize, seed: u64, seconds: f64) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(n); END_TO_END.len()];
    let mut all_correct = true;
    for i in 0..n {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "0"])
            .args(["--seed", &(seed + i as u64).to_string()])
            .args(["--seconds", &seconds.to_string()])
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed: Option<Value> = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok());
        let Some(v) = parsed.filter(|_| out.status.success()) else {
            eprintln!("run {i} gave no result (exit {:?})", out.status.code());
            all_correct = false;
            continue;
        };
        let correct = v["correct"].as_bool() == Some(true) && v["failed"].as_u64() == Some(0);
        all_correct &= correct;
        eprintln!("run {i}: seed {} correct {correct}", seed + i as u64);
        if !correct {
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
        }
        for (col, m) in columns.iter_mut().zip(&END_TO_END) {
            col.extend(v["metrics"][m.name]["value"].as_f64());
        }
    }
    println!(
        "workload {} · {n} runs · seeds {seed}.. · {seconds} s",
        w.name
    );
    println!("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median | (max-min)/median | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    for (col, m) in columns.iter().zip(&END_TO_END) {
        if col.len() < 2 {
            println!("| {} | {} | too few results |", m.name, m.unit);
            continue;
        }
        let med = median(col);
        let (q1, q3) = quartiles(col);
        let (min, max) = col
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
        println!(
            "| {} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:.2} % | {:.0} % |",
            m.name,
            m.unit,
            med,
            q1,
            q3,
            (q3 - q1) / med * 100.0,
            (max - min) / med * 100.0,
            m.bound * 100.0
        );
    }
    all_correct
}

/// Every workload, both passes, at a tenth of the work: a quarter of every
/// length, one set-up, a window of half a second (or one request per
/// client, whichever is longer), two oracle samples. Checks that each run is correct and that each
/// result line parses and carries exactly the metrics of its table.
pub fn smoke() -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seed: 1,
                seconds: if trace { 1.0 } else { 0.5 },
                trace,
                smoke: true,
            };
            let mut report = crate::run_workload(w, &opts);
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let line = report.json_line(table, trace);
            let schema_ok = serde_json::from_str::<Value>(&line).is_ok_and(|v| {
                table
                    .iter()
                    .all(|m| v["metrics"][m.name]["value"].as_f64().is_some())
                    && v["attempted"].as_u64().is_some_and(|n| n >= 1)
            });
            let pass = report.correct && schema_ok;
            println!(
                "{} trace {}: {}",
                w.name,
                trace as u8,
                if pass { "ok" } else { "FAILED" }
            );
            if !pass {
                for note in &report.notes {
                    println!("  {note}");
                }
                ok = false;
            }
        }
    }
    ok
}
