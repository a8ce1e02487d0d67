//! Kernel IR: the operator list of a transformer layer annotated with
//! iteration-space tiling axes and resource costs.
//!
//! Deep-Fusion (Sec. III-B) reasons about *tiles*: "Deep-Fusion tiles the
//! computation-space along dimensions of the iteration space which incur no
//! cross-tile data-dependencies ... two operators can be fused if each tile
//! of the second operator depends on exactly one output tile of the first."
//! Each [`OpDesc`] therefore declares the axes along which it can be tiled
//! without cross-tile dependencies; [`crate::fusion`] checks that adjacent
//! ops in a fusion region share such an axis.

use crate::cost::KernelCost;
use dsi_sim::hw::DType;
use serde::Serialize;

/// Iteration-space axes a kernel can be tiled along without cross-tile data
/// dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Axis {
    /// One tile per token (row of the activation matrix). Layer-norm's
    /// reductions are *within* a token, so it tiles here (Sec. III-B).
    Token,
    /// One tile per slice of output features (the GEMM output-dimension
    /// tiling of Sec. III-C1).
    OutputCol,
    /// One tile per attention head.
    Head,
}

/// What an operator computes, with enough shape information to derive its
/// cost.
#[derive(Debug, Clone, Copy, Serialize)]
pub enum OpKind {
    /// `[m, k] × [k, n]` GEMM against resident weights of `weight_dtype`.
    Gemm {
        m: usize,
        k: usize,
        n: usize,
        weight_dtype: DType,
    },
    /// Streaming element-wise op over `elems` activations (bias add, GeLU,
    /// residual). `extra_input` marks a second streamed operand (the
    /// residual), which stays an external read even under fusion.
    Elementwise { elems: usize, extra_input: bool },
    /// Row-wise reduction + normalization over `rows × cols` (layer-norm,
    /// standalone softmax).
    Reduction { rows: usize, cols: usize },
    /// Pure data-layout transform over `elems` activations (head
    /// transposition).
    DataLayout { elems: usize },
    /// Fused multi-head attention for `batch` sequences: `t_new` query
    /// tokens each attending to `t_ctx` context tokens (KV cache included).
    Attention {
        batch: usize,
        heads: usize,
        t_new: usize,
        t_ctx: usize,
        head_dim: usize,
    },
}

/// One operator of a layer's dataflow.
#[derive(Debug, Clone, Serialize)]
pub struct OpDesc {
    pub name: &'static str,
    pub kind: OpKind,
    /// Axes with no cross-tile dependencies (fusion legality).
    pub tile_axes: &'static [Axis],
    /// Kernel launches this op costs when executed by an eager framework
    /// (PyTorch decomposes layer-norm into mean/var/normalize/affine, etc.).
    /// Optimized runtimes pay 1 per fused region instead.
    pub micro_launches: usize,
}

impl OpDesc {
    /// Resource cost of this op executed standalone with activations of
    /// `act_dtype`.
    pub fn cost(&self, act_dtype: DType) -> KernelCost {
        let ab = act_dtype.bytes() as f64;
        match self.kind {
            OpKind::Gemm {
                m,
                k,
                n,
                weight_dtype,
            } => KernelCost {
                flops: 2.0 * m as f64 * k as f64 * n as f64,
                weight_bytes: k as f64 * n as f64 * weight_dtype.bytes() as f64,
                act_read: m as f64 * k as f64 * ab,
                act_write: m as f64 * n as f64 * ab,
            },
            OpKind::Elementwise { elems, extra_input } => KernelCost {
                flops: 4.0 * elems as f64,
                weight_bytes: 0.0,
                act_read: elems as f64 * ab * if extra_input { 2.0 } else { 1.0 },
                act_write: elems as f64 * ab,
            },
            OpKind::Reduction { rows, cols } => {
                let elems = (rows * cols) as f64;
                KernelCost {
                    flops: 8.0 * elems,
                    weight_bytes: 0.0,
                    act_read: elems * ab,
                    act_write: elems * ab,
                }
            }
            OpKind::DataLayout { elems } => KernelCost {
                flops: 0.0,
                weight_bytes: 0.0,
                act_read: elems as f64 * ab,
                act_write: elems as f64 * ab,
            },
            OpKind::Attention {
                batch,
                heads,
                t_new,
                t_ctx,
                head_dim,
            } => {
                let h = (heads * head_dim) as f64;
                let (b, tn, tc) = (batch as f64, t_new as f64, t_ctx as f64);
                KernelCost {
                    // Q·Kᵀ and P·V, per head.
                    flops: 4.0 * b * heads as f64 * tn * tc * head_dim as f64,
                    weight_bytes: 0.0,
                    // Read Q for new tokens plus K and V for the whole
                    // context (this is where the KV cache's bandwidth cost
                    // lives), write the context output.
                    act_read: b * (tn + 2.0 * tc) * h * ab,
                    act_write: b * tn * h * ab,
                }
            }
        }
    }
}

/// Canonical operator list for one GPT-style transformer layer processing
/// `batch` sequences of `t_new` tokens each, with `t_ctx` total context
/// tokens (prompt: `t_ctx == t_new`; generation: `t_ctx = prompt + generated`
/// with `t_new == 1`). Weight GEMMs use `weight_dtype`.
///
/// The list matches Fig. 1(c): layer-norm → QKV GEMM (+bias) → head
/// transposition → attention → output GEMM (+bias+residual) → layer-norm →
/// FF1 GEMM (+GeLU+bias) → FF2 GEMM (+bias+residual).
pub fn transformer_layer_ops(
    batch: usize,
    t_new: usize,
    t_ctx: usize,
    hidden: usize,
    heads: usize,
    weight_dtype: DType,
) -> Vec<OpDesc> {
    assert!(hidden.is_multiple_of(heads));
    let m = batch * t_new;
    let h = hidden;
    let ffn = 4 * hidden;
    use Axis::*;
    vec![
        OpDesc {
            name: "ln_1",
            kind: OpKind::Reduction { rows: m, cols: h },
            tile_axes: &[Token],
            micro_launches: 4,
        },
        OpDesc {
            name: "qkv_gemm",
            kind: OpKind::Gemm {
                m,
                k: h,
                n: 3 * h,
                weight_dtype,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 1,
        },
        OpDesc {
            name: "qkv_bias",
            kind: OpKind::Elementwise {
                elems: m * 3 * h,
                extra_input: false,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 1,
        },
        OpDesc {
            name: "head_transpose",
            kind: OpKind::DataLayout { elems: m * 3 * h },
            tile_axes: &[Token, Head],
            micro_launches: 3,
        },
        OpDesc {
            name: "attention",
            kind: OpKind::Attention {
                batch,
                heads,
                t_new,
                t_ctx,
                head_dim: h / heads,
            },
            tile_axes: &[Head],
            micro_launches: 6,
        },
        OpDesc {
            name: "attn_out_gemm",
            kind: OpKind::Gemm {
                m,
                k: h,
                n: h,
                weight_dtype,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 1,
        },
        OpDesc {
            name: "attn_bias_residual",
            kind: OpKind::Elementwise {
                elems: m * h,
                extra_input: true,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 2,
        },
        OpDesc {
            name: "ln_2",
            kind: OpKind::Reduction { rows: m, cols: h },
            tile_axes: &[Token],
            micro_launches: 4,
        },
        OpDesc {
            name: "ff1_gemm",
            kind: OpKind::Gemm {
                m,
                k: h,
                n: ffn,
                weight_dtype,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 1,
        },
        OpDesc {
            name: "gelu_bias",
            kind: OpKind::Elementwise {
                elems: m * ffn,
                extra_input: false,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 2,
        },
        OpDesc {
            name: "ff2_gemm",
            kind: OpKind::Gemm {
                m,
                k: ffn,
                n: h,
                weight_dtype,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 1,
        },
        OpDesc {
            name: "ff2_bias_residual",
            kind: OpKind::Elementwise {
                elems: m * h,
                extra_input: true,
            },
            tile_axes: &[Token, OutputCol],
            micro_launches: 2,
        },
    ]
}

/// Operator list for one layer under `tp`-way tensor slicing (Sec. IV-A):
/// column-parallel QKV/FF1, row-parallel attn-out/FF2, heads split `tp`
/// ways; layer-norms and the post-all-reduce bias/residual adds stay
/// replicated at full width. The two per-layer all-reduces are charged
/// separately by the caller.
pub fn transformer_layer_ops_tp(
    batch: usize,
    t_new: usize,
    t_ctx: usize,
    hidden: usize,
    heads: usize,
    tp: usize,
    weight_dtype: DType,
) -> Vec<OpDesc> {
    assert!(hidden.is_multiple_of(tp) && heads.is_multiple_of(tp), "tp must divide hidden and heads");
    let mut ops = transformer_layer_ops(batch, t_new, t_ctx, hidden, heads, weight_dtype);
    if tp == 1 {
        return ops;
    }
    let m = batch * t_new;
    let h = hidden;
    for op in &mut ops {
        match (op.name, &mut op.kind) {
            ("qkv_gemm", OpKind::Gemm { n, .. }) => *n = 3 * h / tp,
            ("attn_out_gemm", OpKind::Gemm { k, .. }) => *k = h / tp,
            ("ff1_gemm", OpKind::Gemm { n, .. }) => *n = 4 * h / tp,
            ("ff2_gemm", OpKind::Gemm { k, .. }) => *k = 4 * h / tp,
            ("qkv_bias", OpKind::Elementwise { elems, .. }) => *elems = m * 3 * h / tp,
            ("head_transpose", OpKind::DataLayout { elems }) => *elems = m * 3 * h / tp,
            ("gelu_bias", OpKind::Elementwise { elems, .. }) => *elems = m * 4 * h / tp,
            ("attention", OpKind::Attention { heads: hh, .. }) => *hh = heads / tp,
            _ => {}
        }
    }
    ops
}

/// Total weight bytes of one layer at the given precision (the quantity the
/// small-batch roofline reads every token).
pub fn layer_weight_bytes(hidden: usize, weight_dtype: DType) -> f64 {
    let h = hidden as f64;
    // QKV (h×3h) + attn-out (h×h) + FF1 (h×4h) + FF2 (4h×h) = 12 h².
    12.0 * h * h * weight_dtype.bytes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_has_twelve_ops_and_four_gemms() {
        let ops = transformer_layer_ops(1, 1, 128, 512, 8, DType::Fp16);
        assert_eq!(ops.len(), 12);
        let gemms = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Gemm { .. }))
            .count();
        assert_eq!(gemms, 4);
    }

    #[test]
    fn weight_bytes_match_op_costs() {
        let hidden = 512;
        let ops = transformer_layer_ops(2, 4, 4, hidden, 8, DType::Fp16);
        let total: f64 = ops.iter().map(|o| o.cost(DType::Fp16).weight_bytes).sum();
        assert_eq!(total, layer_weight_bytes(hidden, DType::Fp16));
    }

    #[test]
    fn int8_weights_halve_layer_bytes() {
        assert_eq!(
            layer_weight_bytes(1024, DType::Int8) * 2.0,
            layer_weight_bytes(1024, DType::Fp16)
        );
    }

    #[test]
    fn generation_attention_reads_full_context() {
        // t_new=1 but t_ctx=1024: KV-cache reads dominate attention traffic.
        let ops = transformer_layer_ops(1, 1, 1024, 512, 8, DType::Fp16);
        let attn = ops.iter().find(|o| o.name == "attention").unwrap();
        let c = attn.cost(DType::Fp16);
        // 2 * t_ctx * hidden * 2 bytes of KV reads, plus q/out.
        assert!(c.act_read > 2.0 * 1024.0 * 512.0 * 2.0);
    }

    #[test]
    fn gemm_flops_scale_with_tokens() {
        let ops1 = transformer_layer_ops(1, 1, 1, 256, 4, DType::Fp16);
        let ops8 = transformer_layer_ops(8, 1, 1, 256, 4, DType::Fp16);
        let f1: f64 = ops1.iter().map(|o| o.cost(DType::Fp16).flops).sum();
        let f8: f64 = ops8.iter().map(|o| o.cost(DType::Fp16).flops).sum();
        assert!(f8 > 7.0 * f1 && f8 < 9.0 * f1);
    }

    #[test]
    fn weight_bytes_independent_of_batch() {
        let ops1 = transformer_layer_ops(1, 1, 1, 256, 4, DType::Fp16);
        let ops8 = transformer_layer_ops(64, 1, 1, 256, 4, DType::Fp16);
        let w1: f64 = ops1.iter().map(|o| o.cost(DType::Fp16).weight_bytes).sum();
        let w8: f64 = ops8.iter().map(|o| o.cost(DType::Fp16).weight_bytes).sum();
        assert_eq!(w1, w8);
    }

    /// The shape chain of a tensor-sliced layer at Table I's widths: every
    /// op consumes the activation the op before it produced. Each GEMM
    /// contracts over the incoming width, each element-wise or layout op
    /// covers `batch · t_new` rows of it, each layer-norm normalises it, and
    /// attention takes the transposed QKV block of its own heads.
    #[test]
    fn tp_layer_ops_chain_their_shapes() {
        // (hidden, heads) of Table I's models, GPT-2 1.5B through LM-530B.
        let widths: [(usize, usize); 8] = [(1600, 25), (2560, 20), (4096, 32), (5120, 40), (6144, 64), (8192, 64), (12288, 96), (20480, 128)];
        for (hidden, heads) in widths {
            for tp in [1, 2, 4, 8, 16].into_iter().filter(|&tp| heads.is_multiple_of(tp)) {
                for batch in [1, 8, 32] {
                    // Prompt ingestion and one decode step.
                    for (t_new, t_ctx) in [(128, 128), (1, 136)] {
                        let m = batch * t_new;
                        let site = format!("hidden={hidden} heads={heads} tp={tp} batch={batch} t_new={t_new}");
                        let mut width = hidden;
                        for op in transformer_layer_ops_tp(batch, t_new, t_ctx, hidden, heads, tp, DType::Fp16) {
                            width = match op.kind {
                                OpKind::Gemm { m: rows, k, n, .. } => {
                                    assert_eq!((rows, k), (m, width), "{site}: {}", op.name);
                                    n
                                }
                                OpKind::Elementwise { elems, .. } | OpKind::DataLayout { elems } => {
                                    assert_eq!(elems, m * width, "{site}: {}", op.name);
                                    width
                                }
                                OpKind::Reduction { rows, cols } => {
                                    assert_eq!((rows, cols), (m, width), "{site}: {}", op.name);
                                    width
                                }
                                OpKind::Attention { batch: b, heads: hh, t_new: tn, head_dim, .. } => {
                                    assert_eq!((b * tn, 3 * hh * head_dim), (m, width), "{site}: {}", op.name);
                                    hh * head_dim
                                }
                            };
                        }
                        assert_eq!(width, hidden, "{site}: the layer's output width");
                    }
                }
            }
        }
    }
}
