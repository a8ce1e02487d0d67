//! Batched decode equivalence: the M-row fast path must be an
//! *implementation detail* — no batching configuration (ragged prompt
//! lengths, early EOS, any M) may change a single emitted token.
//!
//! Two oracles anchor the property:
//! * `BatchSession::step_reference` — the original serial per-sequence
//!   reference loop the greedy route retired;
//! * a solo `FastSession` per prompt — the batch-of-one packed path, which
//!   the M-row kernels are bit-identical to by construction (every output
//!   element accumulates over k sequentially in one register lane); the
//!   batched packed engine held to it is `PagedEngine`.

use deepspeed_inference::model::batched::BatchSession;
use deepspeed_inference::model::fast::PackedModel;
use deepspeed_inference::model::reference::GptModel;
use deepspeed_inference::model::sampling::{Sampler, SamplerConfig};
use deepspeed_inference::zoo;
use proptest::prelude::*;

mod common;
use common::{build_family_prompts, build_prompts, paged_decode, shared_prefix_churn};

fn model(layers: usize, seed: u64) -> GptModel {
    GptModel::random(zoo::tiny(layers), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The greedy fast route through `BatchSession::step` emits exactly the
    /// tokens of the retired serial reference loop, across ragged lengths,
    /// batch sizes M ∈ {1, 2, 4, 8}, and early EOS termination.
    #[test]
    fn batch_session_greedy_matches_reference_loop(
        mi in 0usize..4,
        seed in 0u64..500,
        max_new in 1usize..6,
        use_eos in 0usize..2,
        lens in prop::collection::vec(1usize..7, 8..9),
        tokens in prop::collection::vec(0usize..101, 24..49),
    ) {
        let batch = [1usize, 2, 4, 8][mi];
        let prompts = build_prompts(batch, &lens, &tokens);
        let m = model(2, seed);
        // Pick an EOS the model can actually hit: the first greedy token of
        // prompt 0 (forces at least one sequence to terminate early).
        let eos = if use_eos == 1 {
            Some(m.generate(&prompts[0], 1)[0])
        } else {
            None
        };

        let mut fast = BatchSession::new(&m, &prompts, max_new);
        fast.eos = eos;
        let mut sampler = Sampler::new(SamplerConfig::greedy(), 0);
        fast.run(&mut sampler); // step() routes greedy through the M-row fast path

        let mut refr = BatchSession::new(&m, &prompts, max_new);
        refr.eos = eos;
        let mut sampler = Sampler::new(SamplerConfig::greedy(), 0);
        refr.prompt(&mut sampler);
        let mut guard = 0;
        while refr.step_reference(&mut sampler) > 0 {
            guard += 1;
            prop_assert!(guard <= max_new + 1, "runaway reference loop");
        }

        for i in 0..prompts.len() {
            prop_assert_eq!(
                fast.output(i),
                refr.output(i),
                "sequence {} diverged (eos={:?})",
                i,
                eos
            );
        }
    }

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

    /// Prefix sharing is invisible to the numerics and to the books: 2–8
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
        shared_prefix_churn(&pm, &prompts, page_tokens, max_new, &ops);
    }
}

/// Sampled (non-greedy) decoding must keep using the reference loop — RNG
/// consumption order is observable, so `step` with temperature > 0 matches
/// `step_reference` with an identically-seeded sampler.
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
    while b.step_reference(&mut sb) > 0 {}

    for i in 0..prompts.len() {
        assert_eq!(a.output(i), b.output(i), "sequence {i}");
    }
}
