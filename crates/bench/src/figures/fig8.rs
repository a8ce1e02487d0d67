//! Fig. 8: throughput of DeepSpeed Transformer vs FasterTransformer for
//! 175B (16 GPUs, TP8×PP2) and 530B (40 GPUs, TP8×PP5).
//!
//! Workload (Sec. VII-A3): prompt 512, generate 50 tokens, best batch per
//! configuration.

use crate::{emit, print_table};
use dsi_core::engine::{EngineConfig, InferenceEngine};
use dsi_core::report::Row;
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::ClusterSpec;

const PROMPT: usize = 512;
const GEN: usize = 50;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 8 — massive-model throughput vs FT (prompt {PROMPT}, gen {GEN}, best batch)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, nodes, tp, pp) in [("LM-175B", 2usize, 8usize, 2usize), ("LM-530B", 5, 8, 5)] {
        let model = dense_by_name(name).unwrap();
        let cluster = ClusterSpec::dgx_a100(nodes);
        let ds = InferenceEngine::new(EngineConfig::deepspeed(model.clone(), cluster.clone(), tp, pp));
        let ft = InferenceEngine::new(EngineConfig::faster_transformer(model, cluster, tp, pp));
        let rds = ds.best_throughput(PROMPT, GEN).expect("DS fits");
        let rft = ft.best_throughput(PROMPT, GEN).expect("FT fits");
        rows.push(vec![
            name.into(),
            format!("{}x{}={} GPUs", tp, pp, tp * pp),
            format!("{} (b={})", rft.tokens_per_s.round(), rft.batch),
            format!("{} (b={})", rds.tokens_per_s.round(), rds.batch),
            format!("{:.2}x", rds.tokens_per_s / rft.tokens_per_s),
        ]);
        json.push(Row::new("fig8", "FT", name, "gpus", (tp * pp) as f64, rft.tokens_per_s, "tokens/s"));
        json.push(Row::new("fig8", "DeepSpeed", name, "gpus", (tp * pp) as f64, rds.tokens_per_s, "tokens/s"));
    }
    print_table(&["model", "mapping", "FT tok/s", "DS tok/s", "gain"], &rows);
    println!(
        "\nnote: FT TP-only on 8 GPUs cannot hold 530B at all (133 GB/GPU needed);\n\
         the paper likewise could not run FT with TP+PP without crashing (Sec. VII-C)."
    );
    emit(dir, "fig8", &json);
}
