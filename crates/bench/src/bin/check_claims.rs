//! Automated claim validation: recompute every headline number of the paper
//! from the library (not from stored JSON) and check it against the
//! acceptance band recorded in EXPERIMENTS.md. Exits non-zero if any claim
//! regresses — the repository's "did the reproduction drift?" gate.

use dsi_baselines::exec::ExecStyle;
use dsi_core::engine::{EngineConfig, InferenceEngine};
use dsi_kernels::cost::ExecConfig;
use dsi_model::zoo;
use dsi_moe::system::{MoeSystem, MoeSystemKind};
use dsi_sim::hw::{ClusterSpec, NodeSpec};
use dsi_sim::topology::Topology;
use dsi_zero::engine::ZeroInference;

struct Claim {
    id: &'static str,
    description: &'static str,
    paper: f64,
    lo: f64,
    hi: f64,
    /// What this reproduction computes for the claim.
    ours: f64,
}

fn check(claims: &mut Vec<Claim>, id: &'static str, description: &'static str, paper: f64, lo: f64, hi: f64, ours: f64) {
    claims.push(Claim {
        id,
        description,
        paper,
        lo,
        hi,
        ours,
    });
}

fn main() {
    let mut claims = Vec::new();

    // --- Fig. 6: dense kernel speedups -------------------------------------
    let topo = Topology::new(ClusterSpec::dgx_a100(2));
    let ft = ExecStyle::faster_transformer();
    let ds = ExecStyle::deepspeed();
    let gpt2 = zoo::dense_by_name("GPT-2-1.5B").unwrap();
    let t_ft = ft
        .generation_latency(&topo, &gpt2, 1, 1, 128, 8, &ExecConfig::fp16(false))
        .total;
    let t16 = ds
        .generation_latency(&topo, &gpt2, 1, 1, 128, 8, &ExecConfig::fp16(true))
        .total;
    let t8 = ds
        .generation_latency(&topo, &gpt2, 1, 1, 128, 8, &ExecConfig::int8(true))
        .total;
    check(&mut claims, "fig6-fp16", "max DS-FP16 speedup over FT (batch 1, GPT-2)", 1.55, 1.3, 2.3, t_ft / t16);
    check(&mut claims, "fig6-int8", "max DS-INT8 speedup over FT-FP16", 1.95, 1.5, 2.6, t_ft / t8);

    // --- Fig. 7: MoE ---------------------------------------------------------
    let t2 = zoo::table2();
    let one_t = &t2[3];
    let lat_1t = MoeSystem::new(one_t.clone(), MoeSystemKind::DeepSpeed)
        .token_latency(8)
        .total;
    check(&mut claims, "fig7-25ms", "1T MoE token latency on 256 GPUs (ms)", 25.0, 5.0, 25.0, lat_1t * 1e3);
    let two_t = &t2[4];
    let s = MoeSystem::new(two_t.clone(), MoeSystemKind::PyTorchBaseline)
        .token_latency(8)
        .total
        / MoeSystem::new(two_t.clone(), MoeSystemKind::DeepSpeed)
            .token_latency(8)
            .total;
    check(&mut claims, "fig7-speedup", "max MoE speedup vs PyTorch (2T, 256 GPUs)", 7.3, 2.5, 9.0, s);
    let ds_sys = MoeSystem::new(one_t.clone(), MoeSystemKind::DeepSpeed);
    let frac = ds_sys.aggregate_bandwidth(8) / ds_sys.cluster.aggregate_mem_bw();
    check(&mut claims, "fig7-bandwidth", "1T aggregate bandwidth fraction of peak", 0.33, 0.15, 0.55, frac);

    // --- Fig. 8: throughput ---------------------------------------------------
    let m175 = zoo::dense_by_name("LM-175B").unwrap();
    let c16 = ClusterSpec::dgx_a100(2);
    let g175 = {
        let dse = InferenceEngine::new(EngineConfig::deepspeed(m175.clone(), c16.clone(), 8, 2));
        let fte = InferenceEngine::new(EngineConfig::faster_transformer(m175, c16, 8, 2));
        dse.best_throughput(512, 50).unwrap().tokens_per_s
            / fte.best_throughput(512, 50).unwrap().tokens_per_s
    };
    check(&mut claims, "fig8-175b", "175B throughput gain vs FT (16 GPUs)", 1.51, 1.25, 2.2, g175);

    // --- Fig. 9: ZeRO-Inference ----------------------------------------------
    let node = NodeSpec::lambda_a6000();
    let z530 = ZeroInference::new(zoo::dense_by_name("LM-530B").unwrap(), node.clone(), 1);
    let r530 = z530.run_max_batch().unwrap();
    check(&mut claims, "fig9-tflops", "530B on one A6000 (TFLOPS)", 84.0, 65.0, 100.0, r530.flops_per_gpu / 1e12);
    let models: Vec<_> = zoo::table1().into_iter().map(|e| e.config).collect();
    let (gmax, cmax, zmax) = dsi_zero::tiers::max_model_per_strategy(
        &models,
        &node,
        dsi_sim::hw::DType::Fp16,
        2048,
    );
    check(&mut claims, "fig9-25x", "ZeRO model scale vs GPU-only", 25.0, 20.0, 30.0,
        zmax.unwrap().total_params() / gmax.unwrap().total_params());
    check(&mut claims, "fig9-10x", "ZeRO model scale vs CPU-only", 10.0, 8.0, 13.0,
        zmax.unwrap().total_params() / cmax.unwrap().total_params());
    let z50 = ZeroInference::new(zoo::dense_by_name("GPT-50B").unwrap(), NodeSpec::dgx2_v100(), 1);
    let r50 = z50.run_max_batch().unwrap();
    check(&mut claims, "fig9c-67tf", "GPT-50B on one V100 (TFLOPS)", 67.0, 55.0, 80.0, r50.flops_per_gpu / 1e12);

    // --- Fig. 12: E.T. ---------------------------------------------------------
    let gpu = dsi_sim::hw::GpuSpec::a100_40gb();
    let enc = zoo::encoders();
    let s_distil = ExecStyle::et().encoder_forward_time(&gpu, &enc[0], 1, 128, &ExecConfig::fp16(true))
        / ExecStyle::deepspeed().encoder_forward_time(&gpu, &enc[0], 1, 128, &ExecConfig::fp16(true));
    check(&mut claims, "fig12-distil", "DistilBERT speedup vs E.T.", 1.7, 1.2, 2.2, s_distil);

    // --- Sec. V-C: MoE kernel reduction ----------------------------------------
    let k = dsi_moe::kernels::kernel_speedup(&gpu, 8, 128, 4096, 8);
    check(&mut claims, "sec5c-6x", "MoE routing kernel latency reduction", 6.0, 6.0, 30.0, k);

    // --- report ------------------------------------------------------------------
    println!(
        "{:<16} {:>8} {:>10} {:>16} {:>7}  description",
        "claim", "paper", "measured", "accept band", "status"
    );
    let mut failures = 0;
    for c in &claims {
        let ok = c.ours >= c.lo && c.ours <= c.hi;
        if !ok {
            failures += 1;
        }
        println!(
            "{:<16} {:>8.2} {:>10.2} {:>7.2}–{:<8.2} {:>7}  {}",
            c.id,
            c.paper,
            c.ours,
            c.lo,
            c.hi,
            if ok { "ok" } else { "FAIL" },
            c.description
        );
    }
    println!(
        "\n{} / {} claims inside their acceptance bands",
        claims.len() - failures,
        claims.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
