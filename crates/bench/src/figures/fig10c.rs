//! Fig. 10(c): impact of prefetching on ZeRO-Inference throughput on a
//! single V100 — large at small batch, diminishing as compute hides the
//! fetch (Sec. VII-E5).

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::NodeSpec;
use dsi_zero::engine::ZeroInference;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 10(c) — prefetching impact on ZeRO-Inference (GPT-50B, 1×V100)\n");
    let model = dense_by_name("GPT-50B").unwrap();
    let node = NodeSpec::dgx2_v100();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut z = ZeroInference::new(model, node, 1);
    let max = z.max_batch();
    for b in [1usize, 2, 4, 8, 16, max] {
        z.prefetch = 0;
        let off = z.run(b).expect("fits");
        z.prefetch = 2;
        let on = z.run(b).expect("fits");
        rows.push(vec![
            b.to_string(),
            format!("{:.1}", off.flops_per_gpu / 1e12),
            format!("{:.1}", on.flops_per_gpu / 1e12),
            format!("{:.2}x", on.flops_per_gpu / off.flops_per_gpu),
        ]);
        json.push(Row::new("fig10c", "no-prefetch", "GPT-50B", "batch", b as f64, off.flops_per_gpu / 1e12, "TFLOPS"));
        json.push(Row::new("fig10c", "prefetch-2", "GPT-50B", "batch", b as f64, on.flops_per_gpu / 1e12, "TFLOPS"));
    }
    print_table(&["batch", "no prefetch TFLOPS", "prefetch TFLOPS", "gain"], &rows);
    emit(dir, "fig10c", &json);
}
