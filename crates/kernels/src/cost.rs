//! Kernel cost model: rooflines plus calibrated efficiency curves.
//!
//! Sec. III frames small-batch inference as a memory-bandwidth problem
//! ("inference latency of a model is lower bounded by the time it takes to
//! load all the model parameters") and large-batch inference as a compute
//! problem. Accordingly a kernel's execution time is
//!
//! ```text
//! t = max( flops / (peak_flops · compute_eff),
//!          bytes / (mem_bw    · bw_eff) )        (+ launch overhead)
//! ```
//!
//! The efficiency curves in [`gemm_policy`] are the calibration layer of the
//! reproduction. They encode the paper's qualitative statements — "neither
//! cuBLAS nor CUTLASS GeMM libraries are well tuned for extremely small
//! batch sizes" (Sec. III-A), SBI-GeMM "achieving maximum memory bandwidth
//! utilization" (Sec. III-C), CUTLASS INT8 "tuned for different batch sizes"
//! (Sec. III-D) — as %-of-peak numbers chosen so the end-to-end harness
//! lands in the speedup bands of Fig. 6/10 (≈1.5× FP16, ≈1.9× INT8).

use dsi_sim::hw::{DType, GpuSpec};
use serde::Serialize;

/// Resource usage of one kernel (or fused region).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct KernelCost {
    /// Floating-point (or INT8 MAC) operations.
    pub flops: f64,
    /// Model-weight bytes read from HBM. Never elided by fusion: weights are
    /// resident in global memory.
    pub weight_bytes: f64,
    /// Activation bytes read from HBM. Fusion elides interior reads.
    pub act_read: f64,
    /// Activation bytes written to HBM. Fusion elides interior writes.
    pub act_write: f64,
}

impl KernelCost {
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.act_read + self.act_write
    }

    pub fn add(&mut self, other: &KernelCost) {
        self.flops += other.flops;
        self.weight_bytes += other.weight_bytes;
        self.act_read += other.act_read;
        self.act_write += other.act_write;
    }
}

/// Which GEMM implementation executes a (fused) GEMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GemmImpl {
    /// Vendor BLAS, tuned for large square problems (the training-oriented
    /// default the baselines use).
    CuBlas,
    /// The paper's custom small-batch-inference GEMM (Sec. III-C).
    Sbi,
    /// CUTLASS INT8 with fused quantize/dequantize epilogues (Sec. III-D).
    CutlassInt8,
}

/// Per-run execution configuration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ExecConfig {
    /// Weight precision for GEMMs.
    pub weight_dtype: DType,
    /// Activation precision (bandwidth of non-weight traffic).
    pub act_dtype: DType,
    /// CUDA-graph capture (Sec. III-D): per-kernel launch overhead collapses
    /// to a single graph-replay overhead per forward pass.
    pub cuda_graph: bool,
}

impl ExecConfig {
    pub fn fp16(cuda_graph: bool) -> Self {
        ExecConfig {
            weight_dtype: DType::Fp16,
            act_dtype: DType::Fp16,
            cuda_graph,
        }
    }

    pub fn int8(cuda_graph: bool) -> Self {
        ExecConfig {
            weight_dtype: DType::Int8,
            act_dtype: DType::Fp16,
            cuda_graph,
        }
    }

    pub fn fp32() -> Self {
        ExecConfig {
            weight_dtype: DType::Fp32,
            act_dtype: DType::Fp32,
            cuda_graph: false,
        }
    }
}

/// Piecewise-linear interpolation over `(x, y)` points sorted by `x`;
/// clamps outside the range.
fn interp(points: &[(f64, f64)], x: f64) -> f64 {
    debug_assert!(points.windows(2).all(|w| w[0].0 < w[1].0));
    if x <= points[0].0 {
        return points[0].1;
    }
    for w in points.windows(2) {
        if x <= w[1].0 {
            let t = (x - w[0].0) / (w[1].0 - w[0].0);
            return w[0].1 + t * (w[1].1 - w[0].1);
        }
    }
    points.last().unwrap().1
}

/// Calibrated GEMM efficiency curves, keyed by the number of activation rows
/// `m` (tokens in flight) — the "batch" of Sec. III.
pub mod gemm_policy {
    use super::*;

    /// Fraction of peak HBM bandwidth a GEMM's weight read achieves.
    pub fn bw_efficiency(imp: GemmImpl, m: f64) -> f64 {
        match imp {
            // "cuBLAS ... cannot achieve good memory-bandwidth utilization"
            // for skinny problems (Sec. III-A).
            GemmImpl::CuBlas => interp(
                &[
                    (1.0, 0.63),
                    (4.0, 0.65),
                    (8.0, 0.67),
                    (16.0, 0.71),
                    (32.0, 0.75),
                    (128.0, 0.82),
                    (512.0, 0.86),
                ],
                m,
            ),
            // SBI-GeMM reads weights at near peak via the full-cache-line
            // layout; loses a little ground as m grows (register pressure),
            // which is why DeepSpeed falls back to cuBLAS at large batch.
            GemmImpl::Sbi => interp(
                &[(1.0, 0.92), (8.0, 0.91), (16.0, 0.88), (32.0, 0.82), (64.0, 0.74)],
                m,
            ),
            // INT8 halves the bytes but the fused quantize/dequantize
            // epilogues cost bandwidth headroom, so utilization sits well
            // below SBI's — this is why DS-INT8 lands at ~1.9x over the FP16
            // baseline rather than a clean 2x on top of DS-FP16 (Fig. 6).
            GemmImpl::CutlassInt8 => interp(
                &[(1.0, 0.60), (8.0, 0.59), (16.0, 0.58), (32.0, 0.56), (512.0, 0.52)],
                m,
            ),
        }
    }

    /// Fraction of peak math throughput achieved once compute-bound.
    pub fn compute_efficiency(imp: GemmImpl, m: f64) -> f64 {
        match imp {
            GemmImpl::CuBlas => interp(
                &[
                    (1.0, 0.02),
                    (16.0, 0.10),
                    (32.0, 0.18),
                    (64.0, 0.25),
                    (128.0, 0.33),
                    (256.0, 0.45),
                    (1024.0, 0.60),
                    (4096.0, 0.70),
                    (16384.0, 0.75),
                    (65536.0, 0.78),
                ],
                m,
            ),
            // SBI is a bandwidth kernel; its math pipeline saturates early.
            GemmImpl::Sbi => interp(&[(1.0, 0.02), (32.0, 0.20), (64.0, 0.30)], m),
            GemmImpl::CutlassInt8 => interp(
                &[
                    (1.0, 0.015),
                    (32.0, 0.13),
                    (128.0, 0.25),
                    (256.0, 0.36),
                    (1024.0, 0.50),
                    (16384.0, 0.62),
                    (65536.0, 0.66),
                ],
                m,
            ),
        }
    }

    /// *End-to-end* efficiency of a whole transformer stack (GEMMs plus
    /// attention, normalization, and framework glue folded in) as a function
    /// of total tokens in flight. Saturates far more slowly than a lone GEMM
    /// and plateaus near the fractions of peak the paper reports for its
    /// throughput runs: 54% on A6000 (84/158.4 TFLOPS, Sec. VII-D2), 53% on
    /// V100 (67/125, Fig. 9c). Used by the ZeRO-Inference engine, whose
    /// compute term covers the full layer.
    pub fn end_to_end_efficiency(rows: f64, hidden: usize) -> f64 {
        let m = rows * (hidden as f64 / 12288.0).sqrt();
        interp(
            &[
                (1.0, 0.02),
                (16.0, 0.10),
                (64.0, 0.25),
                (256.0, 0.35),
                (1024.0, 0.40),
                (4096.0, 0.42),
                (16384.0, 0.50),
                (65536.0, 0.575),
                (262144.0, 0.60),
            ],
            m,
        )
    }

    /// Compute efficiency adjusted for GEMM width: a token row of a
    /// hidden=20480 model carries more work per thread-block than one of a
    /// hidden=768 model, so utilization saturates at fewer rows. Rows are
    /// rescaled by `sqrt(hidden / 12288)` (GPT-3's width as the reference)
    /// before the lookup — sub-linear because only one of the two GEMM tile
    /// dimensions grows with the hidden size.
    pub fn compute_efficiency_scaled(imp: GemmImpl, rows: f64, hidden: usize) -> f64 {
        compute_efficiency(imp, rows * (hidden as f64 / 12288.0).sqrt())
    }

    /// The GEMM implementation DeepSpeed Inference selects for `m` activation
    /// rows at the given weight precision (Sec. III-D): SBI below the
    /// crossover, cuBLAS/CUTLASS above.
    pub fn deepspeed_select(m: usize, weight_dtype: DType) -> GemmImpl {
        match weight_dtype {
            DType::Int8 => GemmImpl::CutlassInt8,
            _ if m <= 32 => GemmImpl::Sbi,
            _ => GemmImpl::CuBlas,
        }
    }
}

/// Bandwidth efficiency of non-GEMM kernels.
pub mod mem_policy {
    /// Element-wise / reduction kernels stream well.
    pub const ELEMENTWISE_BW_EFF: f64 = 0.78;
    /// Attention does strided KV reads; worse locality. The Deep-Fusion
    /// attention region (transpose fused with the score/context kernels,
    /// Fig. 1c region 2) keeps the layout coalesced.
    pub const ATTENTION_BW_EFF: f64 = 0.60;
    /// FasterTransformer/E.T.-class fused attention without the layout
    /// co-design.
    pub const ATTENTION_BW_EFF_BASELINE: f64 = 0.45;
    /// Eager (decomposed) attention with materialized intermediates.
    pub const ATTENTION_BW_EFF_EAGER: f64 = 0.40;
    /// Attention math efficiency (small GEMMs per head).
    pub const ATTENTION_COMPUTE_EFF: f64 = 0.25;
}

/// Execution-time roofline for one kernel, excluding launch overhead.
pub fn exec_time(gpu: &GpuSpec, cost: &KernelCost, dtype: DType, compute_eff: f64, bw_eff: f64) -> f64 {
    let t_compute = if cost.flops > 0.0 {
        cost.flops / (gpu.peak_flops(dtype) * compute_eff.max(1e-6))
    } else {
        0.0
    };
    let t_mem = cost.total_bytes() / (gpu.mem_bw * bw_eff.max(1e-6));
    t_compute.max(t_mem)
}

/// Launch-overhead time for `launches` kernels under an [`ExecConfig`]:
/// CUDA graphs replace per-kernel overhead by a single replay cost that the
/// caller adds once per forward pass via [`graph_replay_overhead`].
pub fn launch_time(gpu: &GpuSpec, launches: usize, cfg: &ExecConfig) -> f64 {
    if cfg.cuda_graph {
        0.0
    } else {
        launches as f64 * gpu.kernel_launch_overhead
    }
}

/// One-time cost of replaying a captured CUDA graph for a whole forward
/// pass (Sec. III-D); roughly the cost of a handful of launches.
pub fn graph_replay_overhead(gpu: &GpuSpec) -> f64 {
    4.0 * gpu.kernel_launch_overhead
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_clamps_and_interpolates() {
        let pts = [(1.0, 0.0), (3.0, 1.0)];
        assert_eq!(interp(&pts, 0.5), 0.0);
        assert_eq!(interp(&pts, 2.0), 0.5);
        assert_eq!(interp(&pts, 10.0), 1.0);
    }

    #[test]
    fn sbi_beats_cublas_bandwidth_at_small_batch() {
        for m in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            assert!(
                gemm_policy::bw_efficiency(GemmImpl::Sbi, m)
                    > gemm_policy::bw_efficiency(GemmImpl::CuBlas, m),
                "SBI should win at m={m}"
            );
        }
    }

    #[test]
    fn cublas_bandwidth_recovers_at_large_batch() {
        assert!(
            gemm_policy::bw_efficiency(GemmImpl::CuBlas, 512.0)
                > gemm_policy::bw_efficiency(GemmImpl::Sbi, 64.0)
        );
    }

    #[test]
    fn deepspeed_gemm_selection_crossover() {
        assert_eq!(gemm_policy::deepspeed_select(1, DType::Fp16), GemmImpl::Sbi);
        assert_eq!(gemm_policy::deepspeed_select(32, DType::Fp16), GemmImpl::Sbi);
        assert_eq!(gemm_policy::deepspeed_select(64, DType::Fp16), GemmImpl::CuBlas);
        assert_eq!(
            gemm_policy::deepspeed_select(1, DType::Int8),
            GemmImpl::CutlassInt8
        );
    }

    #[test]
    fn small_batch_gemm_is_bandwidth_bound() {
        // Batch-1 GEMM on an A100: time must equal the memory roofline.
        let gpu = GpuSpec::a100_40gb();
        let (k, n) = (4096.0, 12288.0);
        let cost = KernelCost {
            flops: 2.0 * k * n,
            weight_bytes: k * n * 2.0,
            act_read: k * 2.0,
            act_write: n * 2.0,
        };
        let t = exec_time(&gpu, &cost, DType::Fp16, 0.02, 0.9);
        let t_mem = cost.total_bytes() / (gpu.mem_bw * 0.9);
        assert!((t - t_mem).abs() / t_mem < 1e-9);
    }

    #[test]
    fn large_batch_gemm_is_compute_bound() {
        let gpu = GpuSpec::a100_40gb();
        let m = 8192.0;
        let (k, n) = (4096.0, 12288.0);
        let cost = KernelCost {
            flops: 2.0 * m * k * n,
            weight_bytes: k * n * 2.0,
            act_read: m * k * 2.0,
            act_write: m * n * 2.0,
        };
        let t = exec_time(&gpu, &cost, DType::Fp16, 0.66, 0.85);
        let t_comp = cost.flops / (gpu.peak_flops(DType::Fp16) * 0.66);
        assert!((t - t_comp).abs() / t_comp < 1e-9);
    }

    #[test]
    fn cuda_graph_eliminates_launch_overhead() {
        let gpu = GpuSpec::a100_40gb();
        let no_graph = launch_time(&gpu, 100, &ExecConfig::fp16(false));
        let graph = launch_time(&gpu, 100, &ExecConfig::fp16(true));
        assert!(no_graph > 0.0);
        assert_eq!(graph, 0.0);
        assert!(graph_replay_overhead(&gpu) < no_graph);
    }

    #[test]
    fn int8_weights_halve_bytes() {
        // The INT8 speedup at small batch comes purely from byte reduction.
        let gpu = GpuSpec::a100_40gb();
        let (k, n) = (4096.0, 12288.0);
        let mk_cost = |wbytes: f64| KernelCost {
            flops: 2.0 * k * n,
            weight_bytes: wbytes,
            act_read: k * 2.0,
            act_write: n * 2.0,
        };
        let t16 = exec_time(&gpu, &mk_cost(k * n * 2.0), DType::Fp16, 0.02, 0.9);
        let t8 = exec_time(&gpu, &mk_cost(k * n * 1.0), DType::Int8, 0.015, 0.86);
        let speedup = t16 / t8;
        assert!(speedup > 1.7 && speedup < 2.2, "speedup {speedup}");
    }
}
