//! Criterion micro-benchmarks of the functional CPU kernels: the numerical
//! substrate every equivalence test runs on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dsi_kernels::blocked::{Epilogue, PackedB, PanelWeights};
use dsi_kernels::ops;
use dsi_kernels::quant::{matmul_quantized, QuantizedMatrix, QuantizedPackedB};
use dsi_kernels::tensor::Tensor;

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &(m, k, n) in &[(1usize, 512usize, 1536usize), (8, 512, 1536), (64, 512, 2048)] {
        let a = Tensor::randn(&[m, k], 1.0, 1);
        let b = Tensor::randn(&[k, n], 0.1, 2);
        g.bench_with_input(BenchmarkId::from_parameter(format!("{m}x{k}x{n}")), &(), |bch, _| {
            bch.iter(|| ops::matmul(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let x = Tensor::randn(&[64, 1024], 1.0, 5);
    let gamma = Tensor::from_vec(&[1024], vec![1.0; 1024]);
    let beta = Tensor::zeros(&[1024]);
    let mut g = c.benchmark_group("elementwise");
    g.bench_function("layernorm 64x1024", |b| {
        b.iter(|| ops::layernorm(black_box(&x), &gamma, &beta, 1e-5))
    });
    g.bench_function("softmax 64x1024", |b| {
        b.iter(|| {
            let mut y = x.clone();
            ops::softmax_rows(&mut y);
            y
        })
    });
    g.bench_function("gelu 64x1024", |b| {
        b.iter(|| {
            let mut y = x.clone();
            ops::gelu(&mut y);
            y
        })
    });
    g.finish();
}

fn bench_attention(c: &mut Criterion) {
    let mut g = c.benchmark_group("attention");
    for &(t_new, ctx) in &[(128usize, 128usize), (1, 512)] {
        let h = 512;
        let q = Tensor::randn(&[t_new, h], 1.0, 6);
        let k = Tensor::randn(&[ctx, h], 1.0, 7);
        let v = Tensor::randn(&[ctx, h], 1.0, 8);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("t{t_new}_ctx{ctx}")),
            &(),
            |b, _| b.iter(|| ops::attention(black_box(&q), &k, &v, 8, ctx - t_new)),
        );
    }
    g.finish();
}

/// Quantization and the portable oracle `matmul_quantized`, not the executed
/// kernel (that is `int8_gemv`). The oracle fuses each multiply-add with
/// `f32::mul_add`; a build without the `fma` target feature turns each into
/// a libm `fmaf` call, so this reads the oracle's cost on a portable build.
fn bench_quantization(c: &mut Criterion) {
    let w = Tensor::randn(&[512, 1536], 0.1, 9);
    let x = Tensor::randn(&[4, 512], 1.0, 10);
    let q = QuantizedMatrix::quantize(&w, 64);
    let mut g = c.benchmark_group("int8");
    g.bench_function("quantize 512x1536", |b| {
        b.iter(|| QuantizedMatrix::quantize(black_box(&w), 64))
    });
    g.bench_function("matmul_quantized 4x512x1536", |b| {
        b.iter(|| matmul_quantized(black_box(&x), black_box(&q)))
    });
    g.finish();
}

/// The benchmark model's (bench-256's) five GEMM shapes `[k, n]`: QKV,
/// W_o, FF1, FF2 and the logits.
const SHAPES: [(usize, usize); 5] = [(256, 768), (256, 256), (256, 1024), (1024, 256), (256, 512)];

/// The executed INT8 kernel (`PanelWeights::gemm`, group 32) on the five
/// shapes at M = 1, 8 and 16: whatever tier and row blocks the host
/// dispatches to. Each id ends in the operand's streamed bytes, so GB/s is
/// bytes over time per iteration. One operand timed alone stays
/// cache-resident, so those rows read the kernel's issue rate, not DRAM
/// bandwidth. The `step33` row runs the 33 GEMVs of one bench-256 decode
/// step (8 layers × QKV, W_o, FF1, FF2, then the logits) over distinct
/// operands, ≈ 7 MiB in all: past a 2 MiB per-core L2, so it reads the
/// bandwidth regime a decode step runs in.
fn bench_int8_gemv(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_gemv");
    for &(k, n) in &SHAPES {
        let b = QuantizedPackedB::quantize_pack(&Tensor::randn(&[k, n], 0.1, 11), 32);
        for m in [1usize, 8, 16] {
            let a = Tensor::randn(&[m, k], 1.0, 12);
            let mut out = vec![0.0f32; m * n];
            let id = BenchmarkId::new(format!("{k}x{n}/m{m}"), format!("{}B", b.storage_bytes()));
            g.bench_with_input(id, &(), |bch, _| {
                bch.iter(|| b.gemm(black_box(a.data()), m, black_box(&mut out), Epilogue::None))
            });
        }
    }
    let mut step: Vec<QuantizedPackedB> = (0..8u64)
        .flat_map(|layer| {
            SHAPES[..4].iter().zip(0u64..).map(move |(&(k, n), i)| {
                QuantizedPackedB::quantize_pack(&Tensor::randn(&[k, n], 0.1, 100 + 4 * layer + i), 32)
            })
        })
        .collect();
    let (k, n) = SHAPES[4];
    step.push(QuantizedPackedB::quantize_pack(&Tensor::randn(&[k, n], 0.1, 140), 32));
    let bytes: usize = step.iter().map(|b| b.storage_bytes()).sum();
    let a = Tensor::randn(&[1, 1024], 1.0, 12);
    let mut out = vec![0.0f32; 1024];
    let id = BenchmarkId::new("step33", format!("{bytes}B"));
    g.bench_with_input(id, &(), |bch, _| {
        bch.iter(|| {
            for b in &step {
                b.gemm(black_box(&a.data()[..b.k()]), 1, black_box(&mut out[..b.n()]), Epilogue::None);
            }
        })
    });
    g.finish();
}

/// The executed f32 kernel (`PanelWeights::gemm` on `PackedB`) on the same
/// five shapes at M = 1, 8 and 16: whatever tier and row blocks the host
/// dispatches to. Ids end in the operand's streamed bytes, as in
/// `int8_gemv`; the operand stays cache-resident, so this reads issue rate.
fn bench_f32_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("f32_gemm");
    for &(k, n) in &SHAPES {
        let b = PackedB::pack(&Tensor::randn(&[k, n], 0.1, 13));
        for m in [1usize, 8, 16] {
            let a = Tensor::randn(&[m, k], 1.0, 14);
            let mut out = vec![0.0f32; m * n];
            let id = BenchmarkId::new(format!("{k}x{n}/m{m}"), format!("{}B", b.storage_bytes()));
            g.bench_with_input(id, &(), |bch, _| {
                bch.iter(|| b.gemm(black_box(a.data()), m, black_box(&mut out), Epilogue::None))
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_elementwise,
    bench_attention,
    bench_quantization,
    bench_int8_gemv,
    bench_f32_gemm
);
criterion_main!(benches);
