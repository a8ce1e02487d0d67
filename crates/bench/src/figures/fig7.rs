//! Fig. 7: MoE latency and per-GPU throughput, DeepSpeed-MoE vs the
//! PyTorch baseline, on up to 256 GPUs.
//!
//! Workload (Sec. VII-A3): batch 8, per-token generation latency.

use crate::{emit, ms, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::table2;
use dsi_moe::system::{MoeSystem, MoeSystemKind};

const BATCH: usize = 8;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 7 — MoE token latency & throughput vs PyTorch baseline (batch {BATCH})\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for cfg in table2() {
        let ds = MoeSystem::new(cfg.clone(), MoeSystemKind::DeepSpeed);
        let base = MoeSystem::new(cfg.clone(), MoeSystemKind::PyTorchBaseline);
        let lds = ds.token_latency(BATCH);
        let lb = base.token_latency(BATCH);
        let tds = ds.throughput_per_gpu(BATCH);
        let tb = base.throughput_per_gpu(BATCH);
        rows.push(vec![
            cfg.name.clone(),
            format!("{:.0}", cfg.total_params() / 1e9),
            cfg.gpus.to_string(),
            ms(lb.total),
            ms(lds.total),
            format!("{:.2}x", lb.total / lds.total),
            format!("{:.2}", tb),
            format!("{:.2}", tds),
        ]);
        for (sys, lat, thr) in [
            ("PyTorch-MoE", &lb, tb),
            ("DeepSpeed-MoE", &lds, tds),
        ] {
            json.push(Row::new("fig7", sys, &cfg.name, "gpus", cfg.gpus as f64, lat.total * 1e3, "ms"));
            json.push(Row::new(
                "fig7",
                sys,
                &cfg.name,
                "gpus",
                cfg.gpus as f64,
                thr,
                "tokens/s/gpu",
            ));
        }
    }
    print_table(
        &[
            "model",
            "size(B)",
            "GPUs",
            "baseline ms",
            "DS ms",
            "speedup",
            "base tok/s/gpu",
            "DS tok/s/gpu",
        ],
        &rows,
    );
    println!("\nheadline: the 1T model row must sit under 25 ms (Sec. VII-B2).");
    emit(dir, "fig7", &json);
}
