//! Hardware sensitivity report: for representative deployments, which knob
//! (HBM, FLOPs, launch overhead, NVLink, network) actually governs latency —
//! the roofline attributions of the paper, made explicit per configuration.

use crate::{emit, print_table};
use dsi_core::engine::EngineConfig;
use dsi_core::report::Row;
use dsi_core::whatif::{sensitivities, ALL_KNOBS};
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::ClusterSpec;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Hardware sensitivity — latency elasticity per knob (2x probe)\n");
    let cases: [(&str, &str, usize, usize, usize, usize); 5] = [
        ("GPT-2 b=1 FT (launch-heavy)", "GPT-2-1.5B", 1, 1, 1, 1),
        ("GPT-J b=1 (HBM-bound)", "GPT-J-6B", 1, 1, 1, 1),
        ("GPT-J b=64 (compute-bound)", "GPT-J-6B", 1, 1, 1, 64),
        ("175B TP8xPP2 (balanced)", "LM-175B", 8, 2, 2, 8),
        ("175B TP16 cross-node (network)", "LM-175B", 16, 1, 2, 8),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, model, tp, pp, nodes, batch) in cases {
        // The launch-heavy case is only visible without CUDA graphs: use the
        // FasterTransformer configuration for it.
        let mk = if label.contains("launch") {
            EngineConfig::faster_transformer
        } else {
            EngineConfig::deepspeed
        };
        let cfg = mk(
            dense_by_name(model).unwrap(),
            ClusterSpec::dgx_a100(nodes),
            tp,
            pp,
        );
        let s = sensitivities(&cfg, batch, 128, 8, 2.0);
        let mut row = vec![label.to_string()];
        for (knob, sv) in ALL_KNOBS.iter().zip(&s) {
            row.push(format!("{:.2}", sv.elasticity));
            json.push(Row::new(
                "sensitivity",
                &format!("{knob:?}"),
                label,
                "batch",
                batch as f64,
                sv.elasticity,
                "elasticity",
            ));
        }
        rows.push(row);
    }
    print_table(
        &["deployment", "HBM", "FLOPs", "launch", "NVLink", "network"],
        &rows,
    );
    println!(
        "\nreading: 1.0 = the knob fully governs latency; 0 = irrelevant.\n\
         the attributions match the paper's: HBM at small batch, FLOPs at large,\n\
         launch overhead for tiny models, the network only for cross-node TP."
    );
    emit(dir, "sensitivity", &json);
}
