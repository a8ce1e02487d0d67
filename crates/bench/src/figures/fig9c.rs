//! Fig. 9(c): ZeRO-Inference scalability of GPT-50B over 1–16 V100s on a
//! DGX-2, exploiting aggregate PCIe bandwidth (Sec. VI-B).

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::NodeSpec;
use dsi_zero::engine::ZeroInference;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 9(c) — GPT-50B scaling on a DGX-2 (V100), ZeRO-Inference\n");
    let node = NodeSpec::dgx2_v100();
    let model = dense_by_name("GPT-50B").unwrap();
    let base = ZeroInference::new(model.clone(), node.clone(), 1);
    let b1 = base.max_batch();
    let r1 = base.run(b1).expect("fits");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for gpus in [1usize, 2, 4, 8, 16] {
        let z = ZeroInference::new(model.clone(), node.clone(), gpus);
        let r = z.run(b1 * gpus).expect("fits");
        let total = r.flops_per_gpu * gpus as f64;
        let speedup = total / r1.flops_per_gpu;
        rows.push(vec![
            gpus.to_string(),
            format!("{:.1}", r.flops_per_gpu / 1e12),
            format!("{:.1}", total / 1e12),
            format!("{:.2}x", speedup),
            format!("{:.0}%", 100.0 * speedup / gpus as f64),
        ]);
        json.push(Row::new(
            "fig9c",
            "ZeRO-Inference",
            "GPT-50B",
            "gpus",
            gpus as f64,
            total / 1e12,
            "TFLOPS",
        ));
    }
    print_table(
        &["GPUs", "TFLOPS/GPU", "total TFLOPS", "speedup", "efficiency"],
        &rows,
    );
    println!("\nheadline: single GPU ≈67 TFLOPS (53% of V100 peak), near-linear to 16 GPUs.");
    emit(dir, "fig9c", &json);
}
