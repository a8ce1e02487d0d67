//! Numerical equivalence tests across the parallel implementations: the
//! reproductions of the paper's *correctness-preserving* transformations
//! must be bit-compatible (up to f32 accumulation order) with the reference.

use deepspeed_inference::kernels::quant::{matmul_quantized, QuantizedMatrix};
use deepspeed_inference::kernels::tensor::Tensor;
use deepspeed_inference::kernels::ops;
use deepspeed_inference::model::reference::{GptModel, KvCache};
use deepspeed_inference::model::zoo;
use deepspeed_inference::moe::layer::{ep_forward, MoeLayer};

/// The executed (threaded) TP group decodes token-identically to the
/// single-thread fast path, which itself matches the reference — closing
/// the loop reference → fast → `Engine::group` at every TP degree, through
/// ragged multi-slot passes: a second sequence seated while the first
/// advances.
#[test]
fn tp_exec_session_matches_fast_session_tokens() {
    use deepspeed_inference::model::fast::PackedModel;
    use deepspeed_inference::model::paged::Engine;
    use deepspeed_inference::sim::shmem::CommConfig;

    let model = GptModel::random(zoo::tiny(2), 123);
    let pm = PackedModel::pack(&model);
    let (a, b) = ([3usize, 14, 15, 92], [27usize, 18]);
    let want = pm.session(4).generate(&a, 12);
    assert_eq!(want, model.generate(&a, 12));
    let want_b = pm.session(2).generate(&b, 11);
    for tp in 1..=4 {
        let mut eng = Engine::group(&pm, tp, CommConfig::default(), 2, 16, 4);
        let (mut got, mut got_b, mut out) = (Vec::new(), Vec::new(), Vec::new());
        eng.pass(&[(0, &a)], &[], &mut out).unwrap();
        got.push(out[0]);
        out.clear();
        eng.pass(&[(1, &b)], &[0], &mut out).unwrap();
        got_b.push(out[0]);
        got.push(out[1]);
        while got.len() < 12 {
            out.clear();
            eng.pass(&[], &[0, 1], &mut out).unwrap();
            got.push(out[0]);
            got_b.push(out[1]);
        }
        assert_eq!(got, want, "tp {tp}");
        assert_eq!(got_b, want_b, "tp {tp}, the sequence seated second");
    }
}

/// KV-cached generation equals full recomputation across multiple steps.
#[test]
fn kv_cache_multi_step_equivalence() {
    let cfg = zoo::tiny(2);
    let model = GptModel::random(cfg.clone(), 7);
    let seq = [5usize, 9, 13, 21, 34, 55];
    let mut cache = KvCache::new(cfg.layers, cfg.hidden);
    // Incremental: one token at a time.
    let mut last_inc = None;
    for &t in &seq {
        last_inc = Some(model.forward(&[t], &mut cache));
    }
    // Full recompute.
    let full = model.forward_full(&seq);
    let want = full.row_slice(seq.len() - 1, seq.len());
    let got = last_inc.unwrap();
    assert!(
        got.allclose(&want, 5e-3),
        "incremental diverges: {}",
        got.max_abs_diff(&want)
    );
}

/// Expert parallelism with real all-to-alls equals the single-device MoE
/// layer for multiple world sizes.
#[test]
fn moe_expert_parallel_equivalence_scaling() {
    let layer = MoeLayer::random(24, 8, 2, 41);
    let x = Tensor::randn(&[24, 24], 1.0, 42);
    let reference = layer.forward(&x, 24);
    for ranks in [1usize, 2, 4, 8] {
        let got = ep_forward(&layer, &x, ranks, 24 / ranks);
        assert!(
            got.allclose(&reference, 1e-3),
            "EP={ranks} diverges by {}",
            got.max_abs_diff(&reference)
        );
    }
}

/// INT8 generation pipeline: quantized GEMMs keep greedy decoding stable on
/// a small model (the INT8 path's correctness story).
#[test]
fn int8_quantized_projection_preserves_argmax() {
    let cfg = zoo::tiny(1);
    let model = GptModel::random(cfg.clone(), 77);
    let x = Tensor::randn(&[4, cfg.hidden], 1.0, 78);
    // Quantize the first layer's FFN weight and compare outputs.
    let w = &model.layers[0].w_ff1;
    let q = QuantizedMatrix::quantize(w, 64);
    let exact = ops::matmul(&x, w);
    let approx = matmul_quantized(&x, &q);
    assert!(
        exact.max_abs_diff(&approx) < 0.05,
        "INT8 error too large: {}",
        exact.max_abs_diff(&approx)
    );
    // Relative error of the whole projection stays under 1%.
    let rel = deepspeed_inference::kernels::quant::quantized_gemm_rel_error(&x, w, 64);
    assert!(rel < 0.01, "relative INT8 GEMM error {rel}");
    // Where the exact output has a clear winner (not a near-tie), INT8 must
    // pick the same one — the decision-stability property greedy decoding
    // relies on.
    for r in 0..x.rows() {
        let row = exact.row(r);
        let arg = ops::argmax_rows(&exact.row_slice(r, r + 1))[0];
        let top = row[arg];
        let runner_up = row
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != arg)
            .map(|(_, &v)| v)
            .fold(f32::NEG_INFINITY, f32::max);
        if top - runner_up > 2.0 * q.max_error_bound() * (x.cols() as f32).sqrt() {
            let arg8 = ops::argmax_rows(&approx.row_slice(r, r + 1))[0];
            assert_eq!(arg, arg8, "clear winner flipped under INT8 in row {r}");
        }
    }
}
