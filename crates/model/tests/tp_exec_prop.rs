//! Property test for the executed tensor-parallel group (`Engine::group`):
//! over random model shapes (layer count, head count, random weights) and
//! every degree `1..=4`, the group's every pass must compute **bitwise**
//! the logits of the one-member pass, through ragged multi-slot passes: two
//! seats in one pass, a seat beside advancing residents, then decode passes
//! over every slot — and so emit exactly the fast path's greedy tokens. Member parts
//! of 16-column heads and of the 61-token vocabulary start inside a panel,
//! and six heads split unevenly over four members; the INT8 case quantizes
//! in groups of 16.

use dsi_kernels::blocked::PanelWeights;
use dsi_model::fast::{PackedModel, QuantizedPackedModel};
use dsi_model::paged::{Engine, PagedEngine};
use dsi_model::reference::GptModel;
use dsi_model::GptConfig;
use dsi_sim::shmem::CommConfig;
use proptest::prelude::*;

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

/// Serve `prompts` (at least two) on a group of `tp` members and on a
/// one-member group over the same packing — the first two seated in one
/// pass, the rest each seated beside the residents advancing — then decode
/// every slot until each stream has `n` tokens. Every pass's logits must be
/// the one-member pass's, bit for bit. Returns the group's streams.
fn serve<B: PanelWeights>(pm: &PackedModel<'_, B>, tp: usize, prompts: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
    let mut group = Engine::group(pm, tp, CommConfig::default(), 3, 24, 4);
    let mut solo = Engine::group(pm, 1, CommConfig::default(), 3, 24, 4);
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
    let mut pass = |seats: &[(usize, &[usize])], advance: &[usize]| -> Vec<usize> {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        group.pass(seats, advance, &mut a).unwrap();
        solo.pass(seats, advance, &mut b).unwrap();
        let bits = |e: &PagedEngine<'_, '_, B>| e.logits().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&group), bits(&solo), "tp {tp}: seats {seats:?}, advance {advance:?}");
        a
    };
    let out = pass(&[(0, &prompts[0]), (1, &prompts[1])], &[]);
    for (s, t) in out.into_iter().enumerate() {
        streams[s].push(t);
    }
    for (s, prompt) in prompts.iter().enumerate().skip(2) {
        let resident: Vec<usize> = (0..s).collect();
        let out = pass(&[(s, prompt)], &resident);
        for (&r, t) in [s].iter().chain(&resident).zip(out) {
            streams[r].push(t);
        }
    }
    let all: Vec<usize> = (0..prompts.len()).collect();
    while streams.iter().any(|t| t.len() < n) {
        for (s, t) in pass(&[], &all).into_iter().enumerate() {
            streams[s].push(t);
        }
    }
    streams
}

fn prompts(seed: u64) -> Vec<Vec<usize>> {
    (0..3).map(|i| (0..2 + i).map(|j| (seed as usize + 7 * i + j) % 61).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn group_is_bitwise_the_one_member_pass(
        seed in 0u64..10_000,
        layers in 1usize..4,
        heads_sel in 0usize..2,
    ) {
        let heads = [4usize, 6][heads_sel];
        let model = GptModel::random(config(layers, heads), seed);
        let pm = PackedModel::pack(&model);
        let prompts = prompts(seed);
        for tp in 1..=4 {
            let got = serve(&pm, tp, &prompts, 8);
            for (p, got) in prompts.iter().zip(&got) {
                let want = pm.session(p.len()).generate(p, got.len());
                prop_assert_eq!(
                    got, &want,
                    "tp={} diverged on {:?} (layers={}, heads={}, seed={})", tp, p, layers, heads, seed
                );
            }
        }
    }

    /// The same contract over INT8 panels: every degree computes the
    /// one-member pass's logits and emits the resident INT8 session's
    /// greedy tokens.
    #[test]
    fn int8_group_is_bitwise_the_one_member_pass(
        seed in 0u64..10_000,
        layers in 1usize..4,
        heads_sel in 0usize..2,
    ) {
        let heads = [4usize, 6][heads_sel];
        let model = GptModel::random(config(layers, heads), seed);
        let qm = QuantizedPackedModel::quantize_pack(&model, 16);
        let prompts = prompts(seed);
        for tp in 1..=4 {
            let got = serve(&qm, tp, &prompts, 8);
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

/// The wide model the robustness bench decodes (h=256, 6 layers, 8 heads)
/// at tp ∈ {1, 2, 3, 4}, over 32-token sequences.
#[test]
fn wide_model_is_bitwise_the_one_member_pass_at_every_tp_degree() {
    let config =
        GptConfig { name: "bench-tp".into(), hidden: 256, layers: 6, heads: 8, vocab: 512, max_seq: 128 };
    let model = GptModel::random(config, 42);
    let prompts = [vec![1usize, 2, 3, 4], vec![9, 8, 7]];
    let pm = PackedModel::pack(&model);
    for tp in 1..=4 {
        let got = serve(&pm, tp, &prompts, 28);
        for (p, got) in prompts.iter().zip(&got) {
            assert_eq!(got, &pm.session(p.len()).generate(p, 28), "tp={tp} diverged from the fast path");
        }
    }
}
