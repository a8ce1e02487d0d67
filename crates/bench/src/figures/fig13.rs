//! Fig. 13: prompt-processing latency with hybrid scheduling vs
//! FasterTransformer for GPT-3 175B on 2×8 A100, batch 24 (Sec. VII-E3).

use crate::{emit, ms, print_table};
use dsi_core::engine::{EngineConfig, InferenceEngine};
use dsi_core::report::Row;
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::ClusterSpec;

const BATCH: usize = 24;
const PROMPT: usize = 512;
const GEN: usize = 8;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 13 — 175B prompt latency, hybrid scheduling vs FT (batch {BATCH})\n");
    let model = dense_by_name("LM-175B").unwrap();
    let cluster = ClusterSpec::dgx_a100(2);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, tp, pp) in [("PP+MP (TP8xPP2)", 8usize, 2usize), ("MP-only (TP16)", 16, 1)] {
        let ds = InferenceEngine::new(EngineConfig::deepspeed(model.clone(), cluster.clone(), tp, pp));
        let ft = InferenceEngine::new(EngineConfig::faster_transformer(
            model.clone(),
            cluster.clone(),
            tp,
            pp,
        ));
        let rds = ds.generation(BATCH, PROMPT, GEN);
        let rft = ft.generation(BATCH, PROMPT, GEN);
        // Prompt TFLOPS = prompt FLOPs / prompt latency, per GPU.
        let flops = model.forward_flops((BATCH * PROMPT) as f64);
        let gpus = (tp * pp) as f64;
        rows.push(vec![
            label.into(),
            ms(rft.prompt_latency),
            ms(rds.prompt_latency),
            format!("{:.2}x", rft.prompt_latency / rds.prompt_latency),
            format!("{:.1}", flops / rft.prompt_latency / gpus / 1e12),
            format!("{:.1}", flops / rds.prompt_latency / gpus / 1e12),
        ]);
        json.push(Row::new("fig13", "FT", label, "batch", BATCH as f64, rft.prompt_latency * 1e3, "ms"));
        json.push(Row::new("fig13", "DS-hybrid", label, "batch", BATCH as f64, rds.prompt_latency * 1e3, "ms"));
    }
    print_table(
        &[
            "config",
            "FT prompt ms",
            "DS prompt ms",
            "speedup",
            "FT TFLOPS/GPU",
            "DS TFLOPS/GPU",
        ],
        &rows,
    );
    println!(
        "\npaper: 1.18x (PP+MP) and 3.06x (MP-only; inflated by a PyTorch AllReduce\n\
         issue the authors flag as future work — our roofline model reproduces the\n\
         ordering, not that anomaly)."
    );
    emit(dir, "fig13", &json);
}
