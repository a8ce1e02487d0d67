//! What the machine can do, and what the process cost: stream-triad
//! bandwidth and peak FMA rate (the ceilings the kernel rows are read
//! against), peak resident memory and CPU time from `/proc`.

use std::hint::black_box;
use std::time::Instant;

use crate::report::Report;

/// Triad arrays: 3 × 16 MiB = 48 MiB, 12× one core's 4 MiB L2 and of the
/// order of the model's own weights (57 MB f32), which is the working set
/// the decode kernels stream. On a machine whose last-level cache holds that
/// (this one's L3 is 260 MiB) the ceiling is that cache's, as it is for the
/// weights; it is not a DRAM figure.
const TRIAD_FLOATS: usize = 4 << 20;
const TRIAD_PASSES: usize = 6;

/// Ceilings before and after a workload that differ by more than this mark
/// the run noisy.
const NOISY_DRIFT: f64 = 0.10;

/// Machine ceilings as one probe saw them.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Best-pass triad rate, counting the three arrays' bytes (GB/s).
    pub stream_gbps: f64,
    /// Best-burst single-core FMA rate (GFLOP/s).
    pub fma_gflops: f64,
}

impl Ceilings {
    pub fn probe() -> Self {
        Ceilings {
            stream_gbps: stream_triad_gbps(),
            fma_gflops: fma_peak_gflops(),
        }
    }

    /// Largest relative difference between two probes' ceilings.
    fn drift(&self, other: &Ceilings) -> f64 {
        let rel = |a: f64, b: f64| (a - b).abs() / a.max(b);
        rel(self.stream_gbps, other.stream_gbps).max(rel(self.fma_gflops, other.fma_gflops))
    }

    /// Print both probes (`self` before the workload, `after` behind it);
    /// ceilings that moved more than [`NOISY_DRIFT`] mean the machine was
    /// not steady while the workload ran.
    pub fn noise_guard(&self, after: &Ceilings, r: &mut Report) {
        r.note(format!(
            "machine: {} x {}; stream {:.2} -> {:.2} GB/s, fma {:.1} -> {:.1} GFLOP/s",
            nproc(),
            cpu_model(),
            self.stream_gbps,
            after.stream_gbps,
            self.fma_gflops,
            after.fma_gflops
        ));
        let drift = self.drift(after);
        if drift > NOISY_DRIFT {
            r.note(format!(
                "NOISY: machine ceilings moved {:.0} % across the run",
                drift * 100.0
            ));
        }
    }

    /// The machine rows every trace pass reports.
    pub fn machine_metrics(&self, after: &Ceilings, r: &mut Report) {
        let drift = self.drift(after);
        r.set(
            "kernels.stream_ceiling_gbps",
            self.stream_gbps.max(after.stream_gbps),
        );
        r.set(
            "kernels.fma_ceiling_gflops",
            self.fma_gflops.max(after.fma_gflops),
        );
        r.set("bench.ceiling_drift_share", drift);
        r.set("bench.noisy", if drift > NOISY_DRIFT { 1.0 } else { 0.0 });
        r.set("bench.nproc", nproc() as f64);
    }
}

fn stream_triad_gbps() -> f64 {
    let n = TRIAD_FLOATS;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut best = f64::MAX;
    for pass in 0..TRIAD_PASSES {
        let s = pass as f32;
        let t0 = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * n * 4) as f64 / best / 1e9
}

/// Ten independent accumulator chains hide the FMA latency (4–5 cycles × 2
/// ports); each burst is short enough to sit inside one scheduler quantum.
fn fma_peak_gflops() -> f64 {
    const ITERS: usize = 200_000;
    const BURSTS: usize = 12;
    let mut best = f64::MAX;
    let mut flops = 0.0;
    for _ in 0..BURSTS {
        let t0 = Instant::now();
        flops = fma_burst(ITERS);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Run `iters` rounds of ten dependent-chain FMAs; returns the FLOPs done.
fn fma_burst(iters: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the `avx2` and `fma` features were detected on this CPU
        // on the line above, which is all `fma_burst_avx2` requires.
        return unsafe { fma_burst_avx2(iters) };
    }
    let mut acc = [1.0f32; 10];
    let (m, a) = (black_box(0.999_999f32), black_box(1e-7f32));
    for _ in 0..iters {
        for x in &mut acc {
            *x = x.mul_add(m, a);
        }
    }
    black_box(acc);
    (iters * 10 * 2) as f64
}

/// # Safety
/// The CPU must support `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_burst_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    let m = _mm256_set1_ps(black_box(0.999_999f32));
    let a = _mm256_set1_ps(black_box(1e-7f32));
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, m, a);
        }
    }
    black_box(acc);
    (iters * 10 * 8 * 2) as f64
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(
        line[key.len()..]
            .trim_start_matches([':', ' ', '\t'])
            .trim()
            .to_string(),
    )
}

/// Peak resident set of this process so far (`VmHWM`), MiB. Read at the end
/// of the timed window, before the oracle and the set-up repetitions run.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) the live threads of this process have used,
/// to the nanosecond, from each thread's `schedstat`. Every interval the
/// benchmark takes a difference over lies inside the life of the threads
/// that work in it. Without `schedstat`, the process's clock ticks.
pub fn cpu_seconds() -> f64 {
    let on_cpu_ns = |task: std::fs::DirEntry| -> Option<f64> {
        let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        stat.split_whitespace().next()?.parse().ok()
    };
    let threads: Option<Vec<f64>> = std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|tasks| tasks.flatten().filter_map(on_cpu_ns).collect());
    match threads {
        Some(ns) if !ns.is_empty() => ns.iter().sum::<f64>() / 1e9,
        _ => cpu_ticks_seconds(),
    }
}

/// `/proc/self/stat` counts user and system time in clock ticks, 100 per
/// second on Linux.
fn cpu_ticks_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, the 12th and 13th after the ')'.
    let Some(rest) = stat.rsplit_once(')').map(|x| x.1) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
