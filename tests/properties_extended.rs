//! Property tests for the extension subsystems: tiled fused execution,
//! pipeline-parallel functional execution,
//! checkpoints, precision emulation, sampling, and the serving simulator.

use deepspeed_inference::kernels::exec::{layer_forward_tiled, layer_forward_whole, LayerTensors};
use deepspeed_inference::kernels::fusion::FusionPlan;
use deepspeed_inference::kernels::precision::{to_bf16, to_fp16};
use deepspeed_inference::kernels::tensor::Tensor;
use deepspeed_inference::model::io;
use deepspeed_inference::model::reference::GptModel;
use deepspeed_inference::model::sampling::{Sampler, SamplerConfig};
use deepspeed_inference::model::zoo;
use deepspeed_inference::parallel::pipeline::PipelineSchedule;
use deepspeed_inference::parallel::pp_exec::PipelinedModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled execution of fused regions equals whole-tensor execution for
    /// any legal plan, tile width, and layer geometry.
    #[test]
    fn tiled_fusion_equivalence(
        tokens in 1usize..10,
        heads_pow in 0u32..3,
        tile in 1usize..6,
        seed in 0u64..300,
        plan_idx in 0usize..4,
    ) {
        let heads = 1usize << heads_pow;
        let hidden = heads * 8;
        let w = LayerTensors::random(hidden, heads, seed);
        let x = Tensor::randn(&[tokens, hidden], 1.0, seed + 1);
        let plan = match plan_idx {
            0 => FusionPlan::unfused(12),
            1 => FusionPlan::deepspeed_small_batch(),
            2 => FusionPlan::deepspeed_large_batch(),
            _ => FusionPlan::faster_transformer(),
        };
        let want = layer_forward_whole(&w, &x);
        let got = layer_forward_tiled(&w, &x, &plan, tile, false);
        prop_assert!(
            got.allclose(&want, 1e-3),
            "diff {}", got.max_abs_diff(&want)
        );
    }

    /// Pipeline-parallel scheduled execution equals unpipelined generation
    /// for any stage count / micro-batch mix.
    #[test]
    fn pp_exec_equivalence(
        stages_idx in 0usize..3,
        mbs in 1usize..4,
        gen in 1usize..4,
        seed in 0u64..50,
    ) {
        let stages = [1usize, 2, 4][stages_idx];
        let m = GptModel::random(zoo::tiny(4), seed);
        let pm = PipelinedModel::new(&m, stages);
        let prompts: Vec<Vec<usize>> = (0..mbs)
            .map(|i| vec![(i * 3 + 1) % 101, (i * 5 + 2) % 101])
            .collect();
        let got = pm.generate_scheduled(&prompts, gen, PipelineSchedule::InferenceQueue);
        for (i, p) in prompts.iter().enumerate() {
            prop_assert_eq!(&got[i], &m.generate(p, gen), "mb {}", i);
        }
    }

    /// Checkpoints round-trip byte-exactly and every strict prefix is
    /// rejected without panicking.
    #[test]
    fn checkpoint_roundtrip_and_truncation(
        layers in 1usize..4,
        seed in 0u64..100,
        cut_frac in 0.01f64..0.999,
    ) {
        let m = GptModel::random(zoo::tiny(layers), seed);
        let bytes = io::to_bytes(&m);
        let back = io::from_bytes(&bytes).expect("roundtrip");
        prop_assert!(back.wte.allclose(&m.wte, 0.0));
        prop_assert_eq!(back.layers.len(), layers);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(io::from_bytes(&bytes[..cut]).is_err());
    }

    /// FP16 rounding: bounded error, idempotent, monotone.
    #[test]
    fn fp16_rounding_properties(a in -6e4f32..6e4, b in -6e4f32..6e4) {
        for v in [a, b] {
            let r = to_fp16(v);
            prop_assert_eq!(to_fp16(r), r, "idempotent");
            if v.abs() > 1e-4 {
                prop_assert!(((r - v) / v).abs() <= 1.0 / 1024.0, "v={v} r={r}");
            }
            let rb = to_bf16(v);
            prop_assert_eq!(to_bf16(rb), rb);
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(to_fp16(lo) <= to_fp16(hi), "monotone");
    }

    /// Sampling with any filter always returns a token the filter admits,
    /// and greedy equals temperature→0 behavior.
    #[test]
    fn sampler_support_and_greedy(
        vocab in 2usize..20,
        k in 1usize..6,
        seed in 0u64..200,
    ) {
        let logits: Vec<f32> = (0..vocab).map(|i| ((i * 37 + seed as usize) % 11) as f32 * 0.3).collect();
        let k = k.min(vocab);
        let mut s = Sampler::new(SamplerConfig::top_k(k, 0.8), seed);
        // Determine the admissible set: the k highest logits.
        let mut idx: Vec<usize> = (0..vocab).collect();
        idx.sort_by(|&a, &b| logits[b].partial_cmp(&logits[a]).unwrap().then(a.cmp(&b)));
        let admissible: std::collections::HashSet<usize> = idx[..k].iter().copied().collect();
        for _ in 0..32 {
            let t = s.sample(&logits);
            prop_assert!(admissible.contains(&t), "token {} outside top-{}", t, k);
        }
        let mut greedy = Sampler::new(SamplerConfig::greedy(), seed);
        prop_assert_eq!(greedy.sample(&logits), idx[0]);
    }
}

#[test]
fn serving_invariants() {
    use deepspeed_inference::serving::{simulate_serving, BatchPolicy, Workload};
    use deepspeed_inference::{ClusterSpec, EngineConfig, InferenceEngine};
    let engine = InferenceEngine::new(EngineConfig::deepspeed(
        zoo::dense_by_name("GPT-2-1.5B").unwrap(),
        ClusterSpec::dgx_a100(1),
        1,
        1,
    ));
    let exec_floor = engine.generation(1, 64, 4).total_latency;
    for (rate, max_batch) in [(5.0, 1usize), (50.0, 4), (500.0, 32)] {
        let r = simulate_serving(
            &engine,
            &Workload {
                arrival_rate: rate,
                prompt: 64,
                gen: 4,
                requests: 120,
                seed: 3,
            },
            BatchPolicy {
                max_batch,
                max_wait: 0.01,
            },
        );
        assert_eq!(r.completed, 120);
        assert!(r.p50 <= r.p95 && r.p95 <= r.p99);
        // Nothing completes faster than a batch-1 execution.
        assert!(r.p50 >= exec_floor * 0.99, "p50 {} below floor {exec_floor}", r.p50);
        assert!(r.mean_batch >= 1.0 && r.mean_batch <= max_batch as f64);
        assert!(r.utilization <= 1.0 + 1e-9);
    }
}
