//! The paper's evaluation (Sec. VII), one function per table, figure and
//! ablation. Each prints a human-readable table and writes its JSON rows to
//! `<dir>/<name>.jsonl`; all of them are deterministic cost-model sweeps.

use std::path::Path;

/// A figure: the results directory, then the arguments after its name.
type Figure = fn(&Path, &[String]);

macro_rules! figures {
    ($($name:ident),*) => {
        $(mod $name;)*
        /// Every target, in the order `figures all` runs them.
        pub const FIGURES: &[(&str, Figure)] = &[$((stringify!($name), $name::run)),*];
    };
}

figures!(
    table1, table2, fig6, fig7, fig8, fig9a, fig9b, fig9c, fig10a, fig10b, fig10c, fig11, fig12, fig13,
    ablate_sbi, ablate_pcc, ablate_fusion, ablate_offload, ablate_capacity, breakdown, planner,
    sensitivity
);

/// Run every figure with its default arguments, writing into `dir`.
pub fn run_all(dir: &Path) {
    for (name, figure) in FIGURES {
        println!("\n================================================================");
        println!("== {name}");
        println!("================================================================");
        figure(dir, &[]);
    }
    println!("\n================================================================");
    println!("all {} targets regenerated; JSON rows in {}", FIGURES.len(), dir.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn rows(path: &Path) -> Vec<Value> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        text.lines().map(|l| serde_json::from_str(l).expect("a JSON row")).collect()
    }

    /// The committed `results/*.jsonl` are what the figures print today:
    /// every field exact, except `value` to 1e-9 relative.
    #[test]
    fn committed_results_match_the_figures() {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let dir = std::env::temp_dir().join(format!("dsi_figures_golden_{}", std::process::id()));
        run_all(&dir);
        for (name, _) in FIGURES {
            let file = format!("{name}.jsonl");
            let (got, want) = (rows(&dir.join(&file)), rows(&golden.join(&file)));
            assert_eq!(got.len(), want.len(), "{file}: row count");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let (Value::Object(g), Value::Object(w)) = (g, w) else { panic!("{file}:{}: not an object", i + 1) };
                assert_eq!(g.len(), w.len(), "{file}:{}: field count", i + 1);
                for ((gk, gv), (wk, wv)) in g.iter().zip(w) {
                    let same = match (gv.as_f64(), wv.as_f64()) {
                        (Some(a), Some(b)) if gk == "value" => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
                        _ => gv == wv,
                    };
                    assert!(gk == wk && same, "{file}:{}: {gk} is {gv:?}, results/ has {wk} = {wv:?}", i + 1);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
