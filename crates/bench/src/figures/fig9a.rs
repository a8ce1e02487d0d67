//! Fig. 9(a): ZeRO-Inference throughput of GPT-NeoX-20B across batch sizes
//! on a single A6000.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::NodeSpec;
use dsi_zero::engine::ZeroInference;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 9(a) — GPT-NeoX-20B throughput vs batch size (1×A6000, ZeRO-Inference)\n");
    let z = ZeroInference::new(
        dense_by_name("GPT-NeoX-20B").unwrap(),
        NodeSpec::lambda_a6000(),
        1,
    );
    let max = z.max_batch();
    let mut batches: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&b| b < max)
        .collect();
    batches.push(max);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for b in batches {
        let r = z.run(b).expect("fits");
        rows.push(vec![
            b.to_string(),
            format!("{:.1}", r.flops_per_gpu / 1e12),
            format!("{:.0}%", 100.0 * r.flops_per_gpu / 158.4e12),
            format!("{:.0}%", 100.0 * r.stall_fraction),
        ]);
        json.push(Row::new(
            "fig9a",
            "ZeRO-Inference",
            "GPT-NeoX-20B",
            "batch",
            b as f64,
            r.flops_per_gpu / 1e12,
            "TFLOPS",
        ));
    }
    print_table(&["batch", "TFLOPS", "% of peak", "fetch stall"], &rows);
    emit(dir, "fig9a", &json);
}
