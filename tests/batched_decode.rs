//! Batched decode equivalence: the M-row fast path must be an
//! *implementation detail* — no batching configuration (ragged prompt
//! lengths, any M, shared prefixes, where the weights live) may change a
//! single emitted token.
//!
//! The oracle is a solo `FastSession` per prompt — the batch-of-one packed
//! path, which the M-row kernels are bit-identical to by construction
//! (every output element accumulates over k sequentially in one register
//! lane); the batched packed engine held to it is `paged::Engine`, over a
//! resident packed model (`PagedEngine`) and over the offload tier.
//! `BatchSession` is the reference-level serial loop; its seeded sampling
//! is pinned at the bottom.

use deepspeed_inference::model::batched::BatchSession;
use deepspeed_inference::model::fast::PackedModel;
use deepspeed_inference::model::reference::GptModel;
use deepspeed_inference::model::sampling::{Sampler, SamplerConfig};
use deepspeed_inference::zero::offload::{OffloadConfig, OffloadStore};
use deepspeed_inference::zoo;
use proptest::prelude::*;

mod common;
use common::{build_family_prompts, build_prompts, paged_decode, shared_prefix_churn};

fn model(layers: usize, seed: u64) -> GptModel {
    GptModel::random(zoo::tiny(layers), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `PagedEngine` (packed weights end to end, ragged M-row steps over
    /// paged KV) is token-identical to running each prompt alone through
    /// `FastSession`: every dispatcher row count M ∈ 1..=16, ragged prompt
    /// lengths, and a page size that misaligns with the 8-lane block.
    #[test]
    fn paged_engine_matches_per_sequence(
        batch in 1usize..17,
        seed in 0u64..500,
        max_new in 1usize..8,
        pi in 0usize..3,
        lens in prop::collection::vec(1usize..7, 8..9),
        tokens in prop::collection::vec(0usize..101, 24..49),
    ) {
        let page_tokens = [3usize, 5, 7][pi];
        let prompts = build_prompts(batch, &lens, &tokens);
        let m = model(2, seed);
        let pm = PackedModel::pack(&m);
        let got = paged_decode(&pm, &prompts, max_new, page_tokens);
        for (i, p) in prompts.iter().enumerate() {
            let want = pm.session(p.len()).generate(p, max_new);
            prop_assert_eq!(&got[i], &want, "sequence {} diverged", i);
        }
    }

    /// Prefix sharing is invisible to the numerics and to the books, with
    /// the weights resident or streamed from the offload tier: 2–8
    /// prompts from 1–3 shared-prefix families (suffixes from empty to over
    /// a page, prompts ending exactly on a page boundary or shorter than a
    /// page) joined, decoded, retired, replayed and recovered in a random
    /// order stay bitwise equal to their solo `FastSession`s, with the pool
    /// identity, distinct-page accounting and the sharing discipline held
    /// after every transition.
    #[test]
    fn shared_prefix_churn_matches_per_sequence(
        n in 2usize..9,
        families in 1usize..4,
        seed in 0u64..500,
        max_new in 2usize..7,
        pi in 0usize..3,
        picks in prop::collection::vec(0usize..1000, 12..13),
        tokens in prop::collection::vec(0usize..101, 40..60),
        ops in prop::collection::vec(0usize..1000, 10..40),
    ) {
        let page_tokens = [3usize, 5, 16][pi];
        let prompts = build_family_prompts(n, families, page_tokens, &picks, &tokens);
        let m = model(2, seed);
        let pm = PackedModel::pack(&m);
        shared_prefix_churn(&pm, &pm, &prompts, page_tokens, max_new, &ops);
        // The same churn with the weights streamed from the tier under a
        // one-panel budget: every layer of every pass is a fetch.
        let path = std::env::temp_dir()
            .join(format!("dsi_churn_{}_{seed}.bin", std::process::id()));
        deepspeed_inference::model::io::save(&m, &path).expect("save weight file");
        let panel = OffloadStore::open(&path, OffloadConfig::default()).expect("probe").panel_bytes();
        let tight = OffloadConfig { resident_budget_bytes: panel, ..OffloadConfig::default() };
        let store = OffloadStore::open(&path, tight).expect("open");
        shared_prefix_churn(store, &pm, &prompts, page_tokens, max_new, &ops);
        let _ = std::fs::remove_file(path);
    }
}

/// Sampled (non-greedy) decoding runs the serial reference loop — RNG
/// consumption order is observable, so `run` with temperature > 0 matches
/// `prompt` + `step`s driven by hand with an identically-seeded sampler.
#[test]
fn sampled_path_still_uses_reference_loop() {
    let m = model(2, 77);
    let prompts = vec![vec![1, 2, 3], vec![9, 8]];
    let cfg = SamplerConfig { temperature: 0.8, top_k: 0, top_p: 1.0 };

    let mut a = BatchSession::new(&m, &prompts, 4);
    let mut sa = Sampler::new(cfg, 42);
    a.run(&mut sa);

    let mut b = BatchSession::new(&m, &prompts, 4);
    let mut sb = Sampler::new(cfg, 42);
    b.prompt(&mut sb);
    while b.step(&mut sb) > 0 {}

    for i in 0..prompts.len() {
        assert_eq!(a.output(i), b.output(i), "sequence {i}");
    }
}
