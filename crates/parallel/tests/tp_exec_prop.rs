//! Property test for the executed tensor-parallel engine: over random model
//! shapes (layer count, head count, random weights) and every legal TP
//! degree, the threaded [`TpEngine`] must emit *exactly* the greedy tokens
//! of the single-thread fast path, through ragged multi-slot passes: two
//! seats in one pass, a seat beside advancing residents, then decode passes
//! over every slot. This is the engine's whole correctness contract —
//! sharding, the shared-memory all-reduce, and the pass command that keeps
//! every rank's page tables identical are all on the hook for every
//! sampled case. Ranks are 16 columns wide at `tp = heads`, so every
//! column window starts inside a panel; the INT8 case quantizes in groups
//! of 16, so every row range starts on a group.

use dsi_kernels::blocked::PanelWeights;
use dsi_model::fast::{PackedModel, QuantizedPackedModel};
use dsi_model::reference::GptModel;
use dsi_model::GptConfig;
use dsi_parallel::tp_exec::{SharedModel, TpEngine};
use dsi_sim::shmem::CommConfig;
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

/// Serve `prompts` (at least two) on one engine — the first two seated in
/// one pass, the rest each seated beside the residents advancing — then
/// decode every slot until each stream has `n` tokens.
fn serve<B: PanelWeights + Send + Sync + 'static>(
    eng: &mut TpEngine<B>,
    prompts: &[Vec<usize>],
    n: usize,
) -> Vec<Vec<usize>> {
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
    let mut out = Vec::new();
    eng.pass(&[(0, &prompts[0]), (1, &prompts[1])], &[], &mut out).unwrap();
    for (s, t) in out.drain(..).enumerate() {
        streams[s].push(t);
    }
    for (s, prompt) in prompts.iter().enumerate().skip(2) {
        let resident: Vec<usize> = (0..s).collect();
        eng.pass(&[(s, prompt)], &resident, &mut out).unwrap();
        for (&r, t) in [s].iter().chain(&resident).zip(out.drain(..)) {
            streams[r].push(t);
        }
    }
    let all: Vec<usize> = (0..prompts.len()).collect();
    while streams.iter().any(|t| t.len() < n) {
        eng.pass(&[], &all, &mut out).unwrap();
        for (s, t) in out.drain(..).enumerate() {
            streams[s].push(t);
        }
    }
    streams
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn tp_engine_matches_fast_session(
        seed in 0u64..10_000,
        layers in 1usize..4,
        heads_sel in 0usize..2,
    ) {
        let heads = [2usize, 4][heads_sel];
        let model = Arc::new(GptModel::random(config(layers, heads), seed));
        let pm = PackedModel::pack(&model);
        let prompts: Vec<Vec<usize>> = (0..3).map(|i| (0..2 + i).map(|j| (seed as usize + 7 * i + j) % 61).collect()).collect();
        // Every TP degree dividing the head count is legal; test them all.
        for tp in [1usize, 2, 4].into_iter().filter(|&tp| heads.is_multiple_of(tp)) {
            let mut eng = TpEngine::new(Arc::clone(&model), tp, CommConfig::default(), 3, 24, 4);
            let got = serve(&mut eng, &prompts, 8);
            for (p, got) in prompts.iter().zip(&got) {
                let want = pm.session(p.len()).generate(p, got.len());
                prop_assert_eq!(
                    got, &want,
                    "tp={} diverged on {:?} (layers={}, heads={}, seed={})", tp, p, layers, heads, seed
                );
            }
        }
    }

    /// The same contract over INT8 panels: every legal degree emits the
    /// greedy tokens of the resident INT8 session.
    #[test]
    fn int8_tp_engine_matches_resident_int8(
        seed in 0u64..10_000,
        layers in 1usize..4,
        heads_sel in 0usize..2,
    ) {
        let heads = [2usize, 4][heads_sel];
        let model = Arc::new(GptModel::random(config(layers, heads), seed));
        let qm = QuantizedPackedModel::quantize_pack(&model, 16);
        let shared = SharedModel::with_packing(Arc::clone(&model), |m| QuantizedPackedModel::quantize_pack(m, 16));
        let prompts: Vec<Vec<usize>> = (0..3).map(|i| (0..2 + i).map(|j| (seed as usize + 7 * i + j) % 61).collect()).collect();
        for tp in [1usize, 2, 4].into_iter().filter(|&tp| heads.is_multiple_of(tp)) {
            let mut eng = TpEngine::with_model(shared.clone(), tp, CommConfig::default(), 3, 24, 4);
            let got = serve(&mut eng, &prompts, 8);
            for (p, got) in prompts.iter().zip(&got) {
                let want = qm.session(p.len()).generate(p, got.len());
                prop_assert_eq!(
                    got, &want,
                    "int8 tp={} diverged on {:?} (layers={}, heads={}, seed={})", tp, p, layers, heads, seed
                );
            }
        }
    }
}

/// The wide model the robustness bench decodes (h=256, 6 layers, 8 heads:
/// per-layer GEMM work dominates the two all-reduces) at tp ∈ {1, 2, 4},
/// over 32-token sequences.
#[test]
fn wide_model_is_token_identical_at_every_tp_degree() {
    let config =
        GptConfig { name: "bench-tp".into(), hidden: 256, layers: 6, heads: 8, vocab: 512, max_seq: 128 };
    let model = Arc::new(GptModel::random(config, 42));
    let prompts = [vec![1usize, 2, 3, 4], vec![9, 8, 7]];
    let pm = PackedModel::pack(&model);
    for tp in [1usize, 2, 4] {
        let mut eng = TpEngine::new(Arc::clone(&model), tp, CommConfig::default(), 2, 16, 16);
        let got = serve(&mut eng, &prompts, 28);
        for (p, got) in prompts.iter().zip(&got) {
            assert_eq!(got, &pm.session(p.len()).generate(p, 28), "tp={tp} diverged from the fast path");
        }
    }
}
