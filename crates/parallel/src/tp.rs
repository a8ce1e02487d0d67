//! Tensor (model) parallelism — Megatron-style layer sharding (Sec. IV-A).
//!
//! Column-parallel first GEMMs (QKV, FF1), row-parallel second GEMMs
//! (attention output, FF2). Each rank computes attention over its own subset
//! of heads, so the only cross-rank communication is the two all-reduces per
//! layer that sum the row-parallel partial outputs — exactly the
//! communication structure DeepSpeed Inference inherits from Megatron-LM
//! ("using NCCL all-reduce collectives to perform the necessary across GPU
//! communication").
//!
//! The implementation is functional: [`shard_layer`] really splits the
//! weight tensors, [`tp_layer_forward_into`] really runs every rank's shard
//! and really sums the partials through an in-place
//! [`allreduce_sum_slices`] all-reduce, and the test suite proves the result
//! equals the unsharded reference. It remains the sequential correctness
//! oracle; the *executed* group is `dsi_model::paged::Engine::group`.

use dsi_kernels::ops;
use dsi_kernels::tensor::Tensor;
use dsi_model::reference::{LayerKv, LayerWeights};
use dsi_sim::collectives::allreduce_sum_slices;
use dsi_sim::hw::DType;

/// One rank's shard of a transformer layer: `w_qkv` is the `[h, 3h/tp]`
/// column shard (this rank's q | k | v columns), `w_ff1` the `[h, 4h/tp]`
/// column shard, `w_o`/`w_ff2` the `[h/tp, h]`/`[4h/tp, h]` row shards, and
/// the two row-parallel biases are divided by `tp` so the all-reduce
/// applies each exactly once.
#[derive(Debug, Clone)]
pub struct TpLayer {
    /// Heads owned by this rank.
    pub heads: usize,
    pub w: LayerWeights,
}

/// Split a layer's weights across `tp` ranks.
pub fn shard_layer(lw: &LayerWeights, total_heads: usize, tp: usize) -> Vec<TpLayer> {
    let h = lw.w_o.rows();
    assert!(h.is_multiple_of(tp), "hidden {h} not divisible by tp {tp}");
    assert!(total_heads.is_multiple_of(tp), "heads {total_heads} not divisible by tp {tp}");
    let hs = h / tp; // hidden shard width
    let f = 4 * h;
    let fs = f / tp;

    (0..tp)
        .map(|r| {
            // Column shard of QKV: take this rank's column range from each of
            // the Q, K, V blocks so attention heads stay contiguous per rank.
            let q = lw.w_qkv.col_slice(r * hs, (r + 1) * hs);
            let k = lw.w_qkv.col_slice(h + r * hs, h + (r + 1) * hs);
            let v = lw.w_qkv.col_slice(2 * h + r * hs, 2 * h + (r + 1) * hs);
            let w_qkv = Tensor::cat_cols(&[&q, &k, &v]);
            let bq = lw.b_qkv.data();
            let mut b_qkv = Vec::with_capacity(3 * hs);
            b_qkv.extend_from_slice(&bq[r * hs..(r + 1) * hs]);
            b_qkv.extend_from_slice(&bq[h + r * hs..h + (r + 1) * hs]);
            b_qkv.extend_from_slice(&bq[2 * h + r * hs..2 * h + (r + 1) * hs]);

            let mut scaled_bo = lw.b_o.clone();
            ops::scale_inplace(&mut scaled_bo, 1.0 / tp as f32);
            let mut scaled_bff2 = lw.b_ff2.clone();
            ops::scale_inplace(&mut scaled_bff2, 1.0 / tp as f32);

            let w = LayerWeights {
                ln1_g: lw.ln1_g.clone(),
                ln1_b: lw.ln1_b.clone(),
                w_qkv,
                b_qkv: Tensor::from_vec(&[3 * hs], b_qkv),
                w_o: lw.w_o.row_slice(r * hs, (r + 1) * hs),
                b_o: scaled_bo,
                ln2_g: lw.ln2_g.clone(),
                ln2_b: lw.ln2_b.clone(),
                w_ff1: lw.w_ff1.col_slice(r * fs, (r + 1) * fs),
                b_ff1: Tensor::from_vec(&[fs], lw.b_ff1.data()[r * fs..(r + 1) * fs].to_vec()),
                w_ff2: lw.w_ff2.row_slice(r * fs, (r + 1) * fs),
                b_ff2: scaled_bff2,
            };
            TpLayer { heads: total_heads / tp, w }
        })
        .collect()
}

/// One rank's partial attention-block output (pre-all-reduce).
fn rank_attention_partial(shard: &TpLayer, x: &Tensor, kv: &mut LayerKv) -> Tensor {
    let (heads, shard) = (shard.heads, &shard.w);
    let hs = shard.w_o.rows();
    let offset = kv.len();
    let normed = ops::layernorm(x, &shard.ln1_g, &shard.ln1_b, 1e-5);
    let mut qkv = ops::matmul(&normed, &shard.w_qkv);
    ops::add_bias(&mut qkv, &shard.b_qkv);
    let q = qkv.col_slice(0, hs);
    let k = qkv.col_slice(hs, 2 * hs);
    let v = qkv.col_slice(2 * hs, 3 * hs);
    kv.append(&k, &v);
    let attn = ops::attention(&q, &kv.k, &kv.v, heads, offset);
    let mut out = ops::matmul(&attn, &shard.w_o);
    ops::add_bias(&mut out, &shard.b_o);
    out
}

/// One rank's partial FFN-block output (pre-all-reduce).
fn rank_ffn_partial(shard: &TpLayer, x: &Tensor) -> Tensor {
    let shard = &shard.w;
    let normed = ops::layernorm(x, &shard.ln2_g, &shard.ln2_b, 1e-5);
    let mut ff = ops::matmul(&normed, &shard.w_ff1);
    ops::add_bias(&mut ff, &shard.b_ff1);
    ops::gelu(&mut ff);
    let mut y = ops::matmul(&ff, &shard.w_ff2);
    ops::add_bias(&mut y, &shard.b_ff2);
    y
}

/// Execute a tensor-parallel layer across all shards, reducing into the
/// caller-provided `out` tensor (`x`'s shape, overwritten). The two
/// per-layer all-reduces run in place over the rank partials via
/// [`allreduce_sum_slices`] — no `CommGroup` construction (which would move
/// every partial into its buffer list) and no `buffers[0].clone()` back out,
/// the double copy per block the sequential path used to pay. `kvs[r]` is
/// rank `r`'s KV cache shard (each rank caches only its heads — the memory
/// saving that lets TP hold longer contexts).
///
/// This stays the slow *reference oracle* for the executed group
/// (`Engine::group`): internally it still runs every rank sequentially through
/// the allocating reference ops.
pub fn tp_layer_forward_into(shards: &[TpLayer], x: &Tensor, kvs: &mut [LayerKv], out: &mut Tensor) {
    assert_eq!(shards.len(), kvs.len());
    assert_eq!(out.shape(), x.shape(), "out must match x's shape");

    // Attention block: every rank computes its partial, then all-reduce in
    // place and add the replicated residual into `out`.
    let mut partials: Vec<Vec<f32>> = shards
        .iter()
        .zip(kvs.iter_mut())
        .map(|(s, kv)| rank_attention_partial(s, x, kv).into_data())
        .collect();
    let mut views: Vec<&mut [f32]> = partials.iter_mut().map(|p| p.as_mut_slice()).collect();
    allreduce_sum_slices(&mut views);
    for ((o, &p), &xv) in out.data_mut().iter_mut().zip(&partials[0]).zip(x.data()) {
        *o = p + xv;
    }

    // FFN block: partials + in-place all-reduce + residual.
    let mut partials: Vec<Vec<f32>> = shards
        .iter()
        .map(|s| rank_ffn_partial(s, out).into_data())
        .collect();
    let mut views: Vec<&mut [f32]> = partials.iter_mut().map(|p| p.as_mut_slice()).collect();
    allreduce_sum_slices(&mut views);
    for (o, &p) in out.data_mut().iter_mut().zip(&partials[0]) {
        *o += p;
    }
}

/// Allocating convenience wrapper around [`tp_layer_forward_into`].
pub fn tp_layer_forward(shards: &[TpLayer], x: &Tensor, kvs: &mut [LayerKv]) -> Tensor {
    let mut out = Tensor::zeros(x.shape());
    tp_layer_forward_into(shards, x, kvs, &mut out);
    out
}

/// Bytes all-reduced per layer per forward: two reduces of the `[tokens, h]`
/// activation (the communication the cost model charges per layer).
pub fn tp_layer_comm_bytes(tokens: usize, hidden: usize, act_dtype: DType) -> f64 {
    2.0 * tokens as f64 * hidden as f64 * act_dtype.bytes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_model::reference::layer_forward;

    fn reference_and_shards(tp: usize) -> (LayerWeights, Vec<TpLayer>) {
        let lw = LayerWeights::random(64, 9);
        let shards = shard_layer(&lw, 4, tp);
        (lw, shards)
    }

    #[test]
    fn tp1_is_identity_sharding() {
        let (lw, shards) = reference_and_shards(1);
        let x = Tensor::randn(&[3, 64], 1.0, 1);
        let mut kv_ref = LayerKv::empty(64);
        let mut kvs = vec![LayerKv::empty(64)];
        let want = layer_forward(&lw, &x, &mut kv_ref, 4);
        let got = tp_layer_forward(&shards, &x, &mut kvs);
        assert!(got.allclose(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn tp2_matches_reference() {
        let (lw, shards) = reference_and_shards(2);
        let x = Tensor::randn(&[5, 64], 1.0, 2);
        let mut kv_ref = LayerKv::empty(64);
        let mut kvs = vec![LayerKv::empty(32), LayerKv::empty(32)];
        let want = layer_forward(&lw, &x, &mut kv_ref, 4);
        let got = tp_layer_forward(&shards, &x, &mut kvs);
        assert!(got.allclose(&want, 1e-3), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn tp4_matches_reference_with_kv_cache_steps() {
        // Multi-step generation through the sharded layer must track the
        // reference including causal attention over the cached context.
        let (lw, shards) = reference_and_shards(4);
        let mut kv_ref = LayerKv::empty(64);
        let mut kvs: Vec<LayerKv> = (0..4).map(|_| LayerKv::empty(16)).collect();
        // Prompt step.
        let x0 = Tensor::randn(&[4, 64], 1.0, 3);
        let w0 = layer_forward(&lw, &x0, &mut kv_ref, 4);
        let g0 = tp_layer_forward(&shards, &x0, &mut kvs);
        assert!(g0.allclose(&w0, 1e-3), "prompt diff {}", g0.max_abs_diff(&w0));
        // Generation step.
        let x1 = Tensor::randn(&[1, 64], 1.0, 4);
        let w1 = layer_forward(&lw, &x1, &mut kv_ref, 4);
        let g1 = tp_layer_forward(&shards, &x1, &mut kvs);
        assert!(g1.allclose(&w1, 1e-3), "gen diff {}", g1.max_abs_diff(&w1));
    }

    #[test]
    fn shards_partition_parameters() {
        let (lw, shards) = reference_and_shards(4);
        // Total sharded GEMM parameters equal the unsharded layer's.
        let shard_params: usize = shards
            .iter()
            .map(|s| s.w.w_qkv.len() + s.w.w_o.len() + s.w.w_ff1.len() + s.w.w_ff2.len())
            .sum();
        let full = lw.w_qkv.len() + lw.w_o.len() + lw.w_ff1.len() + lw.w_ff2.len();
        assert_eq!(shard_params, full);
    }

    #[test]
    fn kv_cache_is_sharded() {
        let (_, shards) = reference_and_shards(4);
        let mut kvs: Vec<LayerKv> = (0..4).map(|_| LayerKv::empty(16)).collect();
        let x = Tensor::randn(&[2, 64], 1.0, 5);
        tp_layer_forward(&shards, &x, &mut kvs);
        // Each rank caches only hidden/tp = 16 columns.
        for kv in &kvs {
            assert_eq!(kv.k.cols(), 16);
            assert_eq!(kv.len(), 2);
        }
    }

    #[test]
    fn comm_bytes_formula() {
        assert_eq!(tp_layer_comm_bytes(8, 512, DType::Fp16), 2.0 * 8.0 * 512.0 * 2.0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_tp_rejected() {
        let lw = LayerWeights::random(64, 9);
        shard_layer(&lw, 4, 3);
    }
}
