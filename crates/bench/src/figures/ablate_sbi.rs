//! Ablation: where is the SBI-GeMM / cuBLAS crossover?
//!
//! DeepSpeed Inference switches from SBI-GeMM to cuBLAS past a batch
//! threshold (Sec. III-D); this sweep shows the modeled GEMM time for both
//! implementations across batch sizes and locates the crossover the
//! selection policy hard-codes.

use crate::{emit, print_table};
use dsi_core::report::Row;
use dsi_kernels::cost::{exec_time, gemm_policy, GemmImpl, KernelCost};
use dsi_sim::hw::{DType, GpuSpec};

pub fn run(dir: &std::path::Path, _args: &[String]) {
    println!("Ablation — SBI-GeMM vs cuBLAS crossover (A100, 4096x12288 GEMM)\n");
    let gpu = GpuSpec::a100_40gb();
    let (k, n) = (4096.0, 12288.0);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut crossover: Option<usize> = None;
    for m in [1usize, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128] {
        let cost = KernelCost {
            flops: 2.0 * m as f64 * k * n,
            weight_bytes: k * n * 2.0,
            act_read: m as f64 * k * 2.0,
            act_write: m as f64 * n * 2.0,
        };
        let t = |imp: GemmImpl| {
            exec_time(
                &gpu,
                &cost,
                DType::Fp16,
                gemm_policy::compute_efficiency(imp, m as f64),
                gemm_policy::bw_efficiency(imp, m as f64),
            )
        };
        let sbi = t(GemmImpl::Sbi);
        let cublas = t(GemmImpl::CuBlas);
        let selected = gemm_policy::deepspeed_select(m, DType::Fp16);
        if crossover.is_none() && cublas < sbi {
            crossover = Some(m);
        }
        rows.push(vec![
            m.to_string(),
            format!("{:.1}", sbi * 1e6),
            format!("{:.1}", cublas * 1e6),
            format!("{:?}", selected),
        ]);
        json.push(Row::new("ablate_sbi", "SBI", "gemm", "m", m as f64, sbi * 1e6, "us"));
        json.push(Row::new("ablate_sbi", "cuBLAS", "gemm", "m", m as f64, cublas * 1e6, "us"));
    }
    print_table(&["batch rows", "SBI us", "cuBLAS us", "DS selects"], &rows);
    println!(
        "\nmodel crossover at m ≈ {:?}; the selection policy switches at m > 32.",
        crossover
    );
    emit(dir, "ablate_sbi", &json);
}
