//! Workspace task runner (the cargo-xtask pattern): plain `cargo run`
//! binaries invoked through the `cargo xtask` alias in `.cargo/config.toml`,
//! so CI and developers share one entry point with no extra tooling.
//!
//! Subcommands:
//! * `verify` — run the sweep (`dsi_verify::sweep::verify_all`) over the
//!   passes live groups recorded (each record's launches and phases
//!   printed, its arena protocol checked, the engine's page tables checked
//!   after it, each member's joins held to the records') and over what the
//!   offload store recorded (printed per run; a recorder that wrapped fails
//!   the sweep), the breaker explorer over the real serving circuit
//!   breaker, then the negative controls. Exit code 1 if a check finds a
//!   defect **or** any seeded defect goes undetected.
//! * `unsafe-audit` — walk every crate's sources and enforce the unsafe
//!   hygiene contract (`// SAFETY:` on blocks, `# Safety` on fns).
//! * `all` — both.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "verify" => run_verify(),
        "unsafe-audit" => run_audit(),
        "all" => {
            let v = run_verify();
            let a = run_audit();
            if v == ExitCode::SUCCESS && a == ExitCode::SUCCESS {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown xtask `{other}`; available: verify, unsafe-audit, all");
            ExitCode::FAILURE
        }
    }
}

fn run_verify() -> ExitCode {
    let recorded = dsi_verify::sweep::record_live();
    let report = dsi_verify::sweep::verify_all(&recorded);
    println!(
        "xtask verify: {} live pass records, {} live page-table sets, {} collective programs checked",
        report.records, report.page_tables, report.collective_programs
    );
    println!("  live pass records, launches/phases per M:");
    for (i, &(pass, _)) in recorded.groups.first().map_or(&[][..], |r| &r.passes[..]).iter().enumerate() {
        for runs in recorded.groups.chunk_by(|a, b| (a.tp, a.int8) == (b.tp, b.int8)) {
            let per_m: Vec<String> =
                runs.iter().map(|r| format!("M={} {}/{}", r.m, r.passes[i].1.launches.len(), r.passes[i].1.phases())).collect();
            println!("    {} {pass}: {}", runs[0].label(), per_m.join(", "));
        }
    }
    println!("  live members' joins through a group's passes per M (the records' joins in brackets):");
    for runs in recorded.groups.chunk_by(|a, b| (a.tp, a.int8) == (b.tp, b.int8)).filter(|runs| runs[0].tp > 1) {
        let per_m: Vec<String> = runs.iter().map(|r| format!("M={} {:?} ({})", r.m, r.joins.live, r.joins.trace)).collect();
        println!("    {}: {}", runs[0].label(), per_m.join(", "));
    }
    let runs: Vec<String> =
        recorded.offload.iter().map(|((l, d, b), ev)| format!("{l}/{d}/{b}: {}", ev.len())).collect();
    println!("  live offload recording, events per layers/depth/budget run: {}", runs.join(", "));
    let mut ok = true;
    if !report.is_clean() {
        ok = false;
        eprintln!("sweep found {} defect(s):", report.diagnostics.len());
        for d in &report.diagnostics {
            eprintln!("  {d}");
        }
    }
    // The exhaustive explorer over the real serving circuit breaker.
    let breaker_diags = dsi_serve::breaker_explorer_check();
    if breaker_diags.is_empty() {
        println!("  breaker explorer: the real Breaker is clean at (1,1), (2,2), (3,1), depth 6");
    } else {
        ok = false;
        eprintln!("breaker explorer found violations:");
        for d in &breaker_diags {
            eprintln!("  {d}");
        }
    }
    let controls = dsi_verify::sweep::negative_controls(&recorded);
    for c in &controls {
        if c.fired() {
            println!("  control fired: {}", c.name);
        } else {
            ok = false;
            eprintln!(
                "  CONTROL DEAD: `{}` expected `{}`, got {:?}",
                c.name, c.expect_code, c.diagnostics
            );
        }
    }
    if ok {
        println!("xtask verify: clean ({} negative controls fired)", controls.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_audit() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_rs(&root.join(dir), &mut files);
    }
    files.sort();
    let mut diags = Vec::new();
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask unsafe-audit: cannot read {}: {e}", f.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = f.strip_prefix(&root).unwrap_or(f);
        diags.extend(dsi_verify::audit::scan_unsafe(&rel.display().to_string(), &text));
    }
    println!("xtask unsafe-audit: {} files scanned", files.len());
    if diags.is_empty() {
        println!("xtask unsafe-audit: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("unsafe hygiene violations:");
        for d in &diags {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Recursively collect `.rs` files, skipping `target/` and `third_party`
/// vendor code (vendored subsets keep their upstream style).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "third_party" {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
