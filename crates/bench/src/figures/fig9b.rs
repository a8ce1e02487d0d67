//! Fig. 9(b): throughput across model scales on a single A6000 — the
//! model-scale democratization result (25× larger than GPU-only, 10× larger
//! than CPU-only, >50% of peak).

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_model::zoo::table1;
use dsi_sim::hw::NodeSpec;
use dsi_zero::engine::ZeroInference;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 9(b) — throughput across models on 1×A6000\n");
    let node = NodeSpec::lambda_a6000();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for e in table1() {
        if !e.fig9 && e.config.total_params() < 19e9 {
            continue; // Fig. 9 covers the 20B+ models
        }
        let z = ZeroInference::new(e.config.clone(), node.clone(), 1);
        let name = &e.config.name;
        let zero = z.run_max_batch();
        let gpu = z.gpu_only();
        let cpu = zero.and_then(|r| z.cpu_only(r.batch));
        let fmt = |r: Option<dsi_zero::engine::ZeroReport>| {
            r.map(|r| format!("{:.1} (b={})", r.flops_per_gpu / 1e12, r.batch))
                .unwrap_or_else(|| "OOM".into())
        };
        rows.push(vec![
            name.clone(),
            format!("{:.0}", e.config.total_params() / 1e9),
            fmt(gpu),
            fmt(cpu),
            fmt(zero),
            zero.map(|r| format!("{:?}", r.tier)).unwrap_or_default(),
        ]);
        for (sys, r) in [("GPU-only", gpu), ("CPU-only", cpu), ("ZeRO-Inference", zero)] {
            if let Some(r) = r {
                json.push(Row::new(
                    "fig9b",
                    sys,
                    name,
                    "params_B",
                    e.config.total_params() / 1e9,
                    r.flops_per_gpu / 1e12,
                    "TFLOPS",
                ));
            }
        }
    }
    print_table(
        &["model", "params(B)", "GPU-only TFLOPS", "CPU-only TFLOPS", "ZeRO TFLOPS", "tier"],
        &rows,
    );
    println!(
        "\nheadlines: ZeRO-Inference serves 530B (25x the GPU-only 20B limit, 10x the\n\
         CPU-only 50B limit) at >50% of the A6000's 158.4 TFLOPS peak."
    );
    emit(dir, "fig9b", &json);
}
