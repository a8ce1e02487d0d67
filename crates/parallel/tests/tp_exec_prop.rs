//! Property test for the executed tensor-parallel engine: over random model
//! shapes (layer count, head count, random weights) and every legal TP
//! degree, the threaded [`TpSession`] must emit *exactly* the greedy tokens
//! of the single-thread fast path. This is the engine's whole correctness
//! contract — sharding, the shared-memory all-reduce, and the lock-step
//! command protocol are all on the hook for every sampled case.

use dsi_model::fast::PackedModel;
use dsi_model::reference::GptModel;
use dsi_model::GptConfig;
use dsi_parallel::tp_exec::TpPackedModel;
use proptest::prelude::*;
use std::sync::Arc;

fn config(layers: usize, heads: usize) -> GptConfig {
    GptConfig {
        name: format!("prop-l{layers}-h{heads}"),
        hidden: heads * 16,
        layers,
        heads,
        vocab: 61,
        max_seq: 32,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn tp_session_matches_fast_session(
        seed in 0u64..10_000,
        layers in 1usize..4,
        heads_sel in 0usize..2,
    ) {
        let heads = [2usize, 4][heads_sel];
        let model = GptModel::random(config(layers, heads), seed);
        let pm = PackedModel::pack(&model);
        let prompt = [1usize, 2, 3];
        let want = pm.session(prompt.len()).generate(&prompt, 8);
        // Every TP degree dividing the head count is legal; test them all.
        for tp in [1usize, 2, 4].into_iter().filter(|&tp| heads.is_multiple_of(tp)) {
            let tpm = Arc::new(TpPackedModel::shard(&model, tp));
            let got = tpm.session(prompt.len()).generate(&prompt, 8);
            prop_assert_eq!(
                &got, &want,
                "tp={} diverged (layers={}, heads={}, seed={})", tp, layers, heads, seed
            );
        }
    }
}

/// The wide model the robustness bench decodes (h=256, 6 layers, 8 heads:
/// per-layer GEMM work dominates the two all-reduces) at tp ∈ {1, 2, 4},
/// over a 32-token sequence.
#[test]
fn wide_model_is_token_identical_at_every_tp_degree() {
    let config =
        GptConfig { name: "bench-tp".into(), hidden: 256, layers: 6, heads: 8, vocab: 512, max_seq: 128 };
    let model = GptModel::random(config, 42);
    let prompt = [1usize, 2, 3, 4];
    let want = PackedModel::pack(&model).session(prompt.len()).generate(&prompt, 28);
    for tp in [1usize, 2, 4] {
        let got = Arc::new(TpPackedModel::shard(&model, tp)).session(prompt.len()).generate(&prompt, 28);
        assert_eq!(got, want, "tp={tp} diverged from the fast path");
    }
}
