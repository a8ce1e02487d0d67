//! Fig. 6: latency and throughput of DeepSpeed Transformer vs
//! FasterTransformer across models and batch sizes.
//!
//! Workload (Sec. VII-A3): prompt of 128 tokens, generate 8 tokens. Systems:
//! FT-FP16 (baseline), DeepSpeed-FP16, DeepSpeed-INT8, each under the Table I
//! tensor-parallel mapping.

use dsi_baselines::exec::ExecStyle;
use crate::{emit, ms, print_table};
use dsi_core::report::Row;
use dsi_kernels::cost::ExecConfig;
use dsi_model::zoo::table1;
use dsi_sim::hw::ClusterSpec;
use dsi_sim::topology::Topology;

const PROMPT: usize = 128;
const GEN: usize = 8;
const BATCHES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Fig. 6 — dense latency/throughput vs FasterTransformer");
    println!("workload: prompt {PROMPT}, generate {GEN} tokens\n");
    let topo = Topology::new(ClusterSpec::dgx_a100(2)); // up to TP=16
    let ft = ExecStyle::faster_transformer();
    let ds = ExecStyle::deepspeed();
    let cfg_ft = ExecConfig::fp16(false);
    let cfg16 = ExecConfig::fp16(true);
    let cfg8 = ExecConfig::int8(true);

    let mut json = Vec::new();
    for e in table1().into_iter().filter(|e| e.fig6_tp > 0) {
        let m = &e.config;
        let tp = e.fig6_tp;
        println!("\n{} (TP={tp})", m.name);
        let mut rows = Vec::new();
        for &b in &BATCHES {
            let rft = ft.generation_latency(&topo, m, tp, b, PROMPT, GEN, &cfg_ft);
            let r16 = ds.generation_latency(&topo, m, tp, b, PROMPT, GEN, &cfg16);
            let r8 = ds.generation_latency(&topo, m, tp, b, PROMPT, GEN, &cfg8);
            rows.push(vec![
                b.to_string(),
                ms(rft.total),
                ms(r16.total),
                ms(r8.total),
                format!("{:.2}x", rft.total / r16.total),
                format!("{:.2}x", rft.total / r8.total),
                format!("{:.0}", r16.tokens_per_s),
            ]);
            for (sys, r) in [
                ("FT-FP16", &rft),
                ("DeepSpeed-FP16", &r16),
                ("DeepSpeed-INT8", &r8),
            ] {
                json.push(Row::new("fig6", sys, &m.name, "batch", b as f64, r.total * 1e3, "ms"));
                json.push(Row::new(
                    "fig6",
                    sys,
                    &m.name,
                    "batch",
                    b as f64,
                    r.tokens_per_s,
                    "tokens/s",
                ));
            }
        }
        print_table(
            &[
                "batch",
                "FT-FP16 ms",
                "DS-FP16 ms",
                "DS-INT8 ms",
                "fp16 speedup",
                "int8 speedup",
                "DS tok/s",
            ],
            &rows,
        );
    }
    emit(dir, "fig6", &json);
}
