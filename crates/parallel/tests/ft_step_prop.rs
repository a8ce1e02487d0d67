//! Property tests for the supervisor's step-wise generation surface: the
//! contract the serving runtime (`dsi-serve`) builds on. Over random model
//! shapes × seeds × TP degrees:
//!
//! 1. `begin` + N × `generate_step` emits exactly the tokens of the
//!    one-shot `generate` — the lazy token-feeding refactor must be
//!    invisible at every degree;
//! 2. stopping after a random number of steps leaves the exact token
//!    prefix, and a post-`reset` generation on a fresh prompt is again
//!    oracle-identical — the property that makes the scheduler's
//!    between-step cancellations and retirements safe. (That a *served*
//!    partial is an exact prefix is held by `dsi-serve`'s chaos sweeps.)

use dsi_parallel::supervisor::{FtConfig, FtSession};
use dsi_model::reference::GptModel;
use dsi_model::GptConfig;
use proptest::prelude::*;
use std::sync::Arc;

fn config(layers: usize, heads: usize) -> GptConfig {
    GptConfig {
        name: format!("ft-prop-l{layers}-h{heads}"),
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
    fn stepwise_generation_matches_one_shot(
        seed in 0u64..10_000,
        layers in 1usize..4,
        heads_sel in 0usize..2,
        prompt_len in 1usize..5,
    ) {
        let heads = [2usize, 4][heads_sel];
        let model = Arc::new(GptModel::random(config(layers, heads), seed));
        let prompt: Vec<usize> = (0..prompt_len).map(|i| (seed as usize + i) % 61).collect();
        let n = 8;
        for tp in [1usize, 2, 4].into_iter().filter(|&tp| heads.is_multiple_of(tp)) {
            let mut oracle = FtSession::new(Arc::clone(&model), prompt.len(), FtConfig::new(tp));
            let want = oracle.generate(&prompt, n).unwrap();

            let mut sess = FtSession::new(Arc::clone(&model), prompt.len(), FtConfig::new(tp));
            sess.begin(&prompt).unwrap();
            let got: Vec<usize> = (0..n).map(|_| sess.generate_step().unwrap()).collect();
            prop_assert_eq!(
                &got, &want,
                "step-wise diverged (tp={}, layers={}, heads={}, seed={})",
                tp, layers, heads, seed
            );
        }
    }

    #[test]
    fn stopping_early_leaves_exact_prefix_and_session_is_reusable(
        seed in 0u64..10_000,
        layers in 1usize..3,
        heads_sel in 0usize..2,
        stop_at in 0usize..8,
    ) {
        let heads = [2usize, 4][heads_sel];
        let model = Arc::new(GptModel::random(config(layers, heads), seed));
        let prompt = [1usize, 2, 3];
        let n = 8;
        for tp in [1usize, 2].into_iter().filter(|&tp| heads.is_multiple_of(tp)) {
            let mut oracle = FtSession::new(Arc::clone(&model), prompt.len(), FtConfig::new(tp));
            let want = oracle.generate(&prompt, n).unwrap();

            // Stop after `stop_at` emitted tokens.
            let mut sess = FtSession::new(Arc::clone(&model), prompt.len(), FtConfig::new(tp));
            sess.begin(&prompt).unwrap();
            let partial: Vec<usize> = (0..stop_at).map(|_| sess.generate_step().unwrap()).collect();
            prop_assert_eq!(&partial[..], &want[..stop_at], "prefix diverged before the stop");

            // After reset, the session serves a fresh prompt oracle-identically.
            sess.reset();
            let fresh = [4usize, 5];
            let mut oracle2 = FtSession::new(Arc::clone(&model), fresh.len(), FtConfig::new(tp));
            let want2 = oracle2.generate(&fresh, 4).unwrap();
            let got2 = sess.generate(&fresh, 4).unwrap();
            prop_assert_eq!(got2, want2, "post-reset generation diverged (tp={})", tp);
        }
    }
}
