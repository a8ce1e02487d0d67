//! # dsi-kernels — transformer kernels: functional CPU implementations and
//! GPU cost models
//!
//! Sec. III of the paper introduces inference-optimized transformer kernels
//! built from three techniques: Deep-Fusion (Sec. III-B), the SBI-GeMM
//! skinny-matrix GEMM (Sec. III-C), and CUDA-graph launch elision
//! (Sec. III-D). This crate reproduces all three at two levels:
//!
//! * **Functional** — every operator of a transformer layer (GEMM,
//!   layer-norm, softmax, attention with KV caching, GeLU, bias/residual,
//!   quantize/dequantize) is implemented on CPU with `rayon`
//!   data-parallelism, so the numerical claims (fused dataflow ≡ unfused,
//!   sharded ≡ unsharded, INT8 error bounds) are *tested*, not assumed.
//! * **Cost** — each operator carries a [`cost::KernelCost`] (FLOPs, bytes
//!   moved, launch class). [`fusion`] partitions a layer's op-list into fused
//!   regions under the paper's tile-dependency legality rule and recomputes
//!   traffic with interior tensors held in registers/shared memory;
//!   [`cost::gemm_policy`] supplies the batch-size-dependent efficiency
//!   curves that distinguish cuBLAS from SBI-GeMM from CUTLASS-INT8.

//!
//! The *executed* counterpart of the fusion planner is the fast functional
//! path: [`blocked`] provides cache-blocked GEMM over panel-packed (pack
//! once, reuse every token) weights with fused epilogues, and [`fused`]
//! provides single-pass kernels for the four Fig. 1(c) small-batch fusion
//! regions, including a zero-allocation streaming-softmax attention. Both
//! write into caller-provided scratch so steady-state decode allocates
//! nothing per token. SBI-GeMM's ideas run here as that path's layout and
//! dispatch: weights packed once into panels every row of a skinny GEMM
//! streams in full cache lines, M-row microkernels bit-identical to the
//! batch-1 kernel, and a [`dispatch`] cap per kernel tier and dtype on the
//! row block, set from measurement on the benchmark model's shapes instead
//! of assuming the crossover.

// Unsafe hygiene contract (enforced by `cargo xtask unsafe-audit` on the
// comment side): every unsafe *operation* must sit in an explicit `unsafe`
// block with a `// SAFETY:` justification, even inside `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod blocked;
pub mod simd;
pub mod cost;
#[cfg(test)]
mod differential;
pub mod dispatch;
pub mod exec;
pub mod fused;
pub mod fusion;
pub mod graph;
pub mod ops;
pub mod quant;
pub mod tensor;

pub use blocked::{PackedB, PanelWeights};
pub use quant::QuantizedPackedB;
pub use cost::{ExecConfig, GemmImpl, KernelCost};
pub use fusion::{FusedKernel, FusionPlan};
pub use graph::{Axis, OpDesc, OpKind};
pub use tensor::Tensor;
