//! INT8 fidelity: the dequant-in-register fast path
//! (`QuantizedPackedModel`) against the FP32 packed path and the portable
//! scalar oracle.
//!
//! Four layers of guarantee, strongest first:
//! * **Bit-exactness** — the AVX2 INT8 microkernels round identically to
//!   the scalar oracle `matmul_quantized` (per group, one FMA per weight
//!   into a partial sum, then one FMA by the group scale; groups in order),
//!   so vectorization adds zero error on top of quantization.
//! * **Logit drift** — quantization error through a full forward stays
//!   under a fixed bound vs the FP32 packed path.
//! * **Cross-entropy** — next-token loss under INT8 weights stays within a
//!   fixed distance of the FP32 reference model's (quantization is a
//!   performance technique; the distribution must survive it).
//! * **Greedy agreement** — decoded tokens mostly agree with FP32; decode
//!   never crashes or stalls regardless of seed.

use deepspeed_inference::kernels::blocked::{Epilogue, PanelWeights};
use deepspeed_inference::kernels::ops;
use deepspeed_inference::kernels::quant::{matmul_quantized, QuantizedMatrix, QuantizedPackedB};
use deepspeed_inference::kernels::tensor::Tensor;
use deepspeed_inference::model::fast::{PackedModel, QuantizedPackedModel};
use deepspeed_inference::model::reference::GptModel;
use deepspeed_inference::zoo;
use proptest::prelude::*;

mod common;
use common::{build_family_prompts, build_prompts, paged_decode, shared_prefix_churn};

/// Max absolute logit drift FP32 → INT8 on the tiny zoo model. Calibrated
/// at 0.6 for one forward at group 32.
const MAX_LOGIT_DRIFT: f32 = 0.6;

/// Minimum aggregate greedy-token agreement rate FP32 vs INT8, pooled over
/// many random models. Per-seed agreement can legitimately drop to zero on
/// a near-flat logit tie (random weights have no real signal), so the gate
/// is on the pooled rate — a systematic quantization bug (wrong scale,
/// wrong group indexing) drags the pool far below this line.
const MIN_AGREE_RATE: f64 = 0.5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// AVX2 INT8 GEMM is bit-exact with the scalar oracle for every shape,
    /// group size, and batch size the dispatcher can choose.
    #[test]
    fn packed_int8_gemm_bit_exact_with_oracle(
        seed in 0u64..1000,
        m in 1usize..10,
        k in 1usize..48,
        n in 1usize..70,
        gi in 0usize..4,
    ) {
        let group = [7usize, 16, 32, 64][gi];
        let x = Tensor::randn(&[m, k], 1.0, seed);
        let w = Tensor::randn(&[k, n], 0.5, seed.wrapping_add(1));
        let q = QuantizedMatrix::quantize(&w, group);
        let b = QuantizedPackedB::from_matrix(&q);

        let want = matmul_quantized(&x, &q); // portable oracle
        let mut got = vec![0.0f32; m * n];
        b.gemm(x.data(), m, &mut got, Epilogue::None);
        for (i, (g, w)) in got.iter().zip(want.data()).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "element {} differs bitwise: {} vs {}",
                i, g, w
            );
        }
    }

    /// Full-model logit drift: INT8 packed forward vs FP32 packed forward
    /// stays under the calibrated bound for any random tiny model.
    #[test]
    fn int8_logit_drift_bounded(seed in 0u64..200) {
        let m = GptModel::random(zoo::tiny(2), seed);
        let fp = PackedModel::pack(&m);
        let q = QuantizedPackedModel::quantize_pack(&m, 32);
        let ids = [4usize, 8, 15, 16, 23];

        let mut fs = fp.session(ids.len());
        let want = fs.forward(&ids).to_vec();
        let mut qs = q.session(ids.len());
        let got = qs.forward(&ids).to_vec();

        let drift = want
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(
            drift < MAX_LOGIT_DRIFT,
            "logit drift {} exceeds {}",
            drift, MAX_LOGIT_DRIFT
        );
    }

}

/// Greedy agreement rate gate: pooled over many random tiny models, INT8
/// decode emits mostly the same tokens as FP32, and always runs to
/// completion.
#[test]
fn int8_greedy_agreement_rate() {
    let prompt = [1usize, 2, 3, 4];
    let gen = 12usize;
    let mut agree = 0usize;
    let mut total = 0usize;
    for seed in 0..24u64 {
        let m = GptModel::random(zoo::tiny(2), seed);
        let fp = PackedModel::pack(&m);
        let q = QuantizedPackedModel::quantize_pack(&m, 32);
        let a = fp.session(prompt.len()).generate(&prompt, gen);
        let b = q.session(prompt.len()).generate(&prompt, gen);
        assert_eq!(b.len(), gen, "seed {seed}: INT8 decode under-generated");
        agree += a.iter().zip(&b).filter(|(x, y)| x == y).count();
        total += gen;
    }
    let rate = agree as f64 / total as f64;
    assert!(
        rate >= MIN_AGREE_RATE,
        "pooled greedy agreement {rate:.2} below {MIN_AGREE_RATE}"
    );
}

/// Mean next-token cross-entropy of `targets` under `[n, vocab]` logits.
fn cross_entropy(logits: &Tensor, targets: &[usize]) -> f32 {
    assert_eq!(logits.rows(), targets.len());
    let mut total = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        let mut row = Tensor::from_vec(&[1, logits.cols()], logits.row(r).to_vec());
        ops::softmax_rows(&mut row);
        total -= row.row(0)[t].max(1e-9).ln();
    }
    total / targets.len() as f32
}

#[test]
fn cross_entropy_prefers_correct_targets() {
    let l = Tensor::from_vec(&[2, 3], vec![5.0, 0.0, 0.0, 0.0, 5.0, 0.0]);
    let good = cross_entropy(&l, &[0, 1]);
    let bad = cross_entropy(&l, &[2, 2]);
    assert!(good < bad);
    assert!(good < 0.1);
}

/// Next-token cross-entropy over a short sequence: the INT8 packed forward
/// against the FP32 *reference* model (not the packed path), at the bound
/// the reference INT8 model was held to.
#[test]
fn int8_cross_entropy_close() {
    let m = GptModel::random(zoo::tiny(2), 31);
    let q = QuantizedPackedModel::quantize_pack(&m, 32);
    let ids = [2usize, 4, 6, 8, 10, 12];
    let targets = &ids[1..];
    let l_fp = m.forward_full(&ids);
    let l_q = Tensor::from_vec(&[ids.len(), m.config.vocab], q.session(ids.len()).forward(&ids).to_vec());
    let ce_fp = cross_entropy(&l_fp.row_slice(0, 5), targets);
    let ce_q = cross_entropy(&l_q.row_slice(0, 5), targets);
    assert!((ce_fp - ce_q).abs() < 0.1, "cross-entropy drift: fp {ce_fp} int8 {ce_q}");
}

/// The INT8 weight stream is under half the FP32 stream — the Sec. III-D
/// bandwidth claim INT8 decode throughput rests on.
#[test]
fn int8_stream_bytes_under_half_of_fp32() {
    let m = GptModel::random(zoo::tiny(4), 9);
    let fp = PackedModel::pack(&m);
    let q = QuantizedPackedModel::quantize_pack(&m, 64);
    let ratio = q.weight_stream_bytes() as f64 / fp.weight_stream_bytes() as f64;
    assert!(ratio < 0.5, "INT8/FP32 stream ratio {ratio:.3}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched INT8 decode is step-for-step identical to solo INT8 decode —
    /// the batching invariant holds per dtype, not just for FP32: every
    /// dispatcher row count M ∈ 1..=16 through `PagedEngine`, ragged
    /// prompts, pages that misalign with the 8-lane block.
    #[test]
    fn batched_int8_matches_per_sequence_int8(
        batch in 1usize..17,
        seed in 0u64..500,
        max_new in 1usize..8,
        pi in 0usize..3,
        lens in prop::collection::vec(1usize..7, 8..9),
        tokens in prop::collection::vec(0usize..101, 24..49),
    ) {
        let page_tokens = [3usize, 5, 7][pi];
        let m = GptModel::random(zoo::tiny(2), seed);
        let q = QuantizedPackedModel::quantize_pack(&m, 32);
        let prompts = build_prompts(batch, &lens, &tokens);
        let got = paged_decode(&q, &prompts, max_new, page_tokens);
        for (i, p) in prompts.iter().enumerate() {
            let want = q.session(p.len()).generate(p, max_new);
            prop_assert_eq!(&got[i], &want, "sequence {} diverged", i);
        }
    }

    /// Prefix sharing holds per dtype too: the shared-prefix churn of
    /// `tests/batched_decode.rs` over INT8 weights, every stream bitwise
    /// equal to its solo INT8 session, the books held after every
    /// transition.
    #[test]
    fn shared_prefix_churn_matches_per_sequence_int8(
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
        let m = GptModel::random(zoo::tiny(2), seed);
        let q = QuantizedPackedModel::quantize_pack(&m, 32);
        shared_prefix_churn(&q, &q, &prompts, page_tokens, max_new, &ops);
    }
}
