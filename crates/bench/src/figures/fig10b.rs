//! Fig. 10(b): throughput improvement of the 530B model under the pipeline
//! optimizations of Sec. IV, enabled cumulatively.

use crate::{emit, print_table};
use dsi_core::engine::{EngineConfig, InferenceEngine};
use dsi_core::report::Row;
use dsi_model::zoo::dense_by_name;
use dsi_sim::hw::ClusterSpec;

const PROMPT: usize = 512;
const GEN: usize = 50;

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 10(b) — 530B (TP8×PP5, 40 GPUs) pipeline-optimization ablation\n");
    let model = dense_by_name("LM-530B").unwrap();
    let cluster = ClusterSpec::dgx_a100(5);

    // Cumulative flag sets, in the paper's narrative order.
    let steps: [(&str, [bool; 4]); 5] = [
        ("training-style schedule", [false, false, false, false]),
        ("+inference schedule", [true, false, false, false]),
        ("+hybrid micro-batching", [true, true, false, false]),
        ("+KV offload (bigger batch)", [true, true, true, false]),
        ("+odd/even offload", [true, true, true, true]),
    ];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut base = 0.0;
    for (name, [sched, hybrid, offload, odd_even]) in steps {
        let mut cfg = EngineConfig::deepspeed(model.clone(), cluster.clone(), 8, 5);
        cfg.inference_schedule = sched;
        cfg.hybrid_schedule = hybrid;
        cfg.kv_offload = offload;
        cfg.odd_even_offload = odd_even;
        let engine = InferenceEngine::new(cfg);
        let r = engine.best_throughput(PROMPT, GEN).expect("fits");
        if base == 0.0 {
            base = r.tokens_per_s;
        }
        rows.push(vec![
            name.into(),
            r.batch.to_string(),
            format!("{:.0}", r.tokens_per_s),
            format!("{:.2}x", r.tokens_per_s / base),
            format!("{:.0}%", 100.0 * r.bubble_fraction),
        ]);
        json.push(Row::new(
            "fig10b",
            name,
            "LM-530B",
            "step",
            rows.len() as f64,
            r.tokens_per_s,
            "tokens/s",
        ));
    }
    print_table(
        &["configuration", "best batch", "tokens/s", "vs base", "bubble"],
        &rows,
    );
    emit(dir, "fig10b", &json);
}
