//! Property tests for the extension subsystems: pipeline-parallel
//! functional execution, checkpoints, and the serving simulator.

use deepspeed_inference::model::io;
use deepspeed_inference::model::reference::GptModel;
use deepspeed_inference::model::zoo;
use deepspeed_inference::parallel::pipeline::PipelineSchedule;
use deepspeed_inference::parallel::pp_exec::PipelinedModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
