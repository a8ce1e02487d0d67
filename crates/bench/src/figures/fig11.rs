//! Fig. 11: aggregate memory bandwidth scalability of DeepSpeed-MoE vs the
//! PyTorch baseline, 52B MoE model, 8 → 128 GPUs.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::table2;
use dsi_moe::system::{MoeSystem, MoeSystemKind};

const BATCH_PER_GPU: usize = 8;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 11 — aggregate memory bandwidth, 52B MoE (1.3B+MoE-128), weak scaling\n");
    let cfg = table2().into_iter().next().unwrap(); // 1.3B+MoE-128
    let ds = MoeSystem::new(cfg.clone(), MoeSystemKind::DeepSpeed);
    let base = MoeSystem::new(cfg, MoeSystemKind::PyTorchBaseline);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for gpus in [8usize, 16, 32, 64, 128] {
        let bds = ds.weak_scaling_bandwidth(gpus, BATCH_PER_GPU);
        let bb = base.weak_scaling_bandwidth(gpus, BATCH_PER_GPU);
        rows.push(vec![
            gpus.to_string(),
            format!("{:.2}", bb / 1e12),
            format!("{:.2}", bds / 1e12),
            format!("{:.2}x", bds / bb),
        ]);
        json.push(Row::new("fig11", "PyTorch-MoE", "1.3B+MoE-128", "gpus", gpus as f64, bb / 1e12, "TB/s"));
        json.push(Row::new("fig11", "DeepSpeed-MoE", "1.3B+MoE-128", "gpus", gpus as f64, bds / 1e12, "TB/s"));
    }
    print_table(&["GPUs", "baseline TB/s", "DeepSpeed TB/s", "advantage"], &rows);
    emit(dir, "fig11", &json);
}
