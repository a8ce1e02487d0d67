//! Ablation: what each Deep-Fusion region contributes.
//!
//! Starting from the unfused layer, enable the Fig. 1(c) fusion regions one
//! at a time and measure the per-layer token-generation time — separating
//! the launch-overhead savings from the activation-traffic savings.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_kernels::cost::{self, gemm_policy, mem_policy, ExecConfig, GemmImpl};
use dsi_kernels::fusion::{fuse, FusionPlan};
use dsi_kernels::graph::transformer_layer_ops;
use dsi_sim::hw::{DType, GpuSpec};

fn layer_time(gpu: &GpuSpec, plan: &FusionPlan, cuda_graph: bool) -> f64 {
    let ops = transformer_layer_ops(1, 1, 128, 4096, 32, DType::Fp16);
    let kernels = fuse(&ops, plan, DType::Fp16).expect("legal plan");
    let cfg = ExecConfig::fp16(cuda_graph);
    let mut t = 0.0;
    let mut launches = 0;
    for k in &kernels {
        let (ce, be) = if let Some(m) = k.gemm_rows {
            (
                gemm_policy::compute_efficiency(GemmImpl::Sbi, m as f64),
                gemm_policy::bw_efficiency(GemmImpl::Sbi, m as f64),
            )
        } else if k.has_attention {
            (mem_policy::ATTENTION_COMPUTE_EFF, mem_policy::ATTENTION_BW_EFF)
        } else {
            (0.3, mem_policy::ELEMENTWISE_BW_EFF)
        };
        t += cost::exec_time(gpu, &k.cost, DType::Fp16, ce, be);
        launches += k.launches;
    }
    t + cost::launch_time(gpu, launches, &cfg)
}

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Ablation — Deep-Fusion region contributions (GPT-J layer, batch 1, ctx 128)\n");
    let gpu = GpuSpec::a100_40gb();
    // Cumulative plans: each adds one Fig. 1(c) region.
    let stages: Vec<(&str, FusionPlan, bool)> = vec![
        ("unfused", FusionPlan::unfused(12), false),
        (
            "+ln+QKV region",
            FusionPlan {
                regions: vec![(0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12)],
            },
            false,
        ),
        (
            "+attention region",
            FusionPlan {
                regions: vec![(0, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12)],
            },
            false,
        ),
        (
            "+output regions",
            FusionPlan {
                regions: vec![(0, 3), (3, 5), (5, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12)],
            },
            false,
        ),
        ("+FFN regions (full Deep-Fusion)", FusionPlan::deepspeed_small_batch(), false),
        ("+CUDA graph", FusionPlan::deepspeed_small_batch(), true),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut base = 0.0;
    for (name, plan, graph) in &stages {
        let t = layer_time(&gpu, plan, *graph);
        if base == 0.0 {
            base = t;
        }
        rows.push(vec![
            name.to_string(),
            plan.regions.len().to_string(),
            format!("{:.1}", t * 1e6),
            format!("{:.2}x", base / t),
        ]);
        json.push(Row::new(
            "ablate_fusion",
            name,
            "GPT-J layer",
            "step",
            rows.len() as f64,
            t * 1e6,
            "us",
        ));
    }
    print_table(&["configuration", "kernels", "us/layer", "vs unfused"], &rows);
    emit(dir, "ablate_fusion", &json);
}
