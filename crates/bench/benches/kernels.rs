//! Criterion micro-benchmarks of the functional CPU kernels: the numerical
//! substrate every equivalence test runs on.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dsi_kernels::ops;
use dsi_kernels::quant::{matmul_quantized, QuantizedMatrix};
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

criterion_group!(
    benches,
    bench_matmul,
    bench_elementwise,
    bench_attention,
    bench_quantization
);
criterion_main!(benches);
