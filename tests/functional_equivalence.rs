//! Numerical equivalence tests across the parallel implementations: the
//! reproductions of the paper's *correctness-preserving* transformations
//! must be bit-compatible (up to f32 accumulation order) with the reference.

use deepspeed_inference::kernels::quant::{matmul_quantized, QuantizedMatrix};
use deepspeed_inference::kernels::tensor::Tensor;
use deepspeed_inference::kernels::ops;
use deepspeed_inference::model::reference::{layer_forward, GptModel, KvCache, LayerKv};
use deepspeed_inference::model::zoo;
use deepspeed_inference::moe::layer::{ep_forward, MoeLayer};
use deepspeed_inference::parallel::tp::{shard_layer, tp_layer_forward, tp_layer_forward_into};
use deepspeed_inference::parallel::tp_exec::TpPackedModel;

/// Full-model tensor parallelism: shard every layer, run the whole stack
/// with functional all-reduces, and compare logits with the reference.
#[test]
fn tensor_parallel_full_model_equivalence() {
    let cfg = zoo::tiny(3);
    let model = GptModel::random(cfg.clone(), 99);
    let prompt = [3usize, 14, 15, 92];

    // Reference.
    let mut cache = KvCache::new(cfg.layers, cfg.hidden);
    let want = model.forward(&prompt, &mut cache);

    // TP=4: shard each layer, run embeddings replicated.
    let tp = 4;
    let shards: Vec<_> = model
        .layers
        .iter()
        .map(|lw| shard_layer(lw, cfg.heads, tp))
        .collect();
    let mut kvs: Vec<Vec<LayerKv>> = (0..cfg.layers)
        .map(|_| (0..tp).map(|_| LayerKv::empty(cfg.hidden / tp)).collect())
        .collect();

    let mut x = ops::embedding(&model.wte, &prompt);
    for (i, row) in (0..prompt.len()).enumerate() {
        let pos = model.wpe.row(row).to_vec();
        for (a, b) in x.row_mut(i).iter_mut().zip(pos) {
            *a += b;
        }
    }
    // Ping-pong between `x` and one caller-owned output buffer: the layer
    // reduces into `out` in place, no per-layer CommGroup or clone.
    let mut out = Tensor::zeros(x.shape());
    for l in 0..cfg.layers {
        tp_layer_forward_into(&shards[l], &x, &mut kvs[l], &mut out);
        std::mem::swap(&mut x, &mut out);
    }
    let x = ops::layernorm(&x, &model.lnf_g, &model.lnf_b, 1e-5);
    let got = ops::matmul_transb(&x, &model.wte);

    assert!(
        got.allclose(&want, 2e-3),
        "TP full-model logits diverge: {}",
        got.max_abs_diff(&want)
    );
    // Greedy decisions must agree exactly.
    assert_eq!(ops::argmax_rows(&got), ops::argmax_rows(&want));
}

/// The executed (threaded) TP engine decodes token-identically to the
/// single-thread fast path, which itself matches the reference — closing
/// the loop reference → fast → tp_exec at every TP degree.
#[test]
fn tp_exec_session_matches_fast_session_tokens() {
    use deepspeed_inference::model::fast::PackedModel;
    use std::sync::Arc;

    let model = GptModel::random(zoo::tiny(2), 123);
    let pm = PackedModel::pack(&model);
    let want = pm.session(4).generate(&[3, 14, 15, 92], 12);
    assert_eq!(want, model.generate(&[3, 14, 15, 92], 12));
    for tp in [1usize, 2, 4] {
        let tpm = Arc::new(TpPackedModel::shard(&model, tp));
        let got = tpm.session(4).generate(&[3, 14, 15, 92], 12);
        assert_eq!(got, want, "tp {tp}");
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

/// Sharded-layer KV caches jointly hold exactly the reference cache.
#[test]
fn tp_kv_cache_partitions_reference_cache() {
    let lw = deepspeed_inference::model::reference::LayerWeights::random(64, 3);
    let shards = shard_layer(&lw, 4, 2);
    let x = Tensor::randn(&[3, 64], 1.0, 4);
    let mut kv_ref = LayerKv::empty(64);
    layer_forward(&lw, &x, &mut kv_ref, 4);
    let mut kvs = vec![LayerKv::empty(32), LayerKv::empty(32)];
    tp_layer_forward(&shards, &x, &mut kvs);
    let joint_k = Tensor::cat_cols(&[&kvs[0].k, &kvs[1].k]);
    assert!(
        joint_k.allclose(&kv_ref.k, 1e-4),
        "sharded K caches must concatenate to the reference"
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
