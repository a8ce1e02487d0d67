//! Ablation: PCC all-to-all vs flat all-to-all across cluster scale and
//! tensor-slicing degree — the `O(p)` → `O(p/L) + O(L)` rewrite of
//! Sec. V-B, including where it does *not* help (L = 1, small p).

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_sim::collectives::Collectives;
use dsi_sim::hw::ClusterSpec;
use dsi_sim::topology::Topology;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Ablation — PCC vs flat all-to-all (64 KiB per rank)\n");
    let bytes = 64.0 * 1024.0;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for gpus in [16usize, 32, 64, 128, 256] {
        let topo = Topology::new(ClusterSpec::dgx_a100(gpus.div_ceil(8)));
        let group: Vec<usize> = (0..gpus).collect();
        let flat = Collectives::alltoall(&topo, &group, bytes).time;
        let mut row = vec![gpus.to_string(), format!("{:.1}", flat * 1e6)];
        json.push(Row::new("ablate_pcc", "flat", "alltoall", "gpus", gpus as f64, flat * 1e6, "us"));
        for l in [2usize, 4, 8] {
            if gpus % l == 0 {
                let (pcc, _, _) = Collectives::pcc_alltoall(&topo, &group, l, bytes);
                row.push(format!("{:.1} ({:.2}x)", pcc.time * 1e6, flat / pcc.time));
                json.push(Row::new(
                    "ablate_pcc",
                    &format!("pcc_l{l}"),
                    "alltoall",
                    "gpus",
                    gpus as f64,
                    pcc.time * 1e6,
                    "us",
                ));
            } else {
                row.push("-".into());
            }
        }
        rows.push(row);
    }
    print_table(
        &["GPUs", "flat us", "PCC L=2", "PCC L=4", "PCC L=8"],
        &rows,
    );
    println!(
        "\npaper (Sec. V-B): at 128 GPUs with 8-way slicing the overhead drops from\n\
         (128 C1 + C2) to (16 C1 + C2); the L=8 column shows that ~8x trend."
    );
    emit(dir, "ablate_pcc", &json);
}
