//! Fig. 10(a): dense kernel performance breakdown for GPT-2 — PyTorch
//! (Megatron) baseline, +Deep-Fusion, +Deep-Fusion+SBI-GeMM (= DeepSpeed).

use dsi_baselines::exec::ExecStyle;
use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_kernels::cost::ExecConfig;
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::ClusterSpec;
use dsi_sim::topology::Topology;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 10(a) — GPT-2 kernel breakdown: token-generation latency (prompt 128)\n");
    let topo = Topology::new(ClusterSpec::dgx_a100(1));
    let model = dense_by_name("GPT-2-1.5B").unwrap();
    let cfg = ExecConfig::fp16(true);
    let styles = [
        ("PyTorch", ExecStyle::pytorch()),
        ("+Deep-Fusion", ExecStyle::megatron_deepfusion()),
        ("+SBI-GeMM (DeepSpeed)", ExecStyle::deepspeed()),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for b in [1usize, 2, 4, 8] {
        let mut row = vec![b.to_string()];
        let mut base = 0.0;
        for (name, style) in &styles {
            // Single-token generation forward at context 128.
            let t = style.forward_time(&topo, &model, 1, b, 1, 128, &cfg);
            if base == 0.0 {
                base = t;
            }
            row.push(format!("{:.2} ({:.2}x)", t * 1e3, base / t));
            json.push(Row::new("fig10a", name, &model.name, "batch", b as f64, t * 1e3, "ms"));
        }
        rows.push(row);
    }
    print_table(
        &["batch", "PyTorch ms", "+Deep-Fusion ms", "+SBI-GeMM ms"],
        &rows,
    );
    emit(dir, "fig10a", &json);
}
