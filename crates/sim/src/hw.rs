//! Hardware descriptions: GPUs, nodes, clusters.
//!
//! Presets correspond to the three testbeds of Sec. VII-A4:
//! * `ClusterSpec::dgx_a100(nodes)` — 8×A100-40GB DGX boxes, NVSwitch
//!   intra-node, HDR InfiniBand inter-node (up to 32 boxes = 256 GPUs),
//! * `NodeSpec::lambda_a6000()` — 2×A6000-48GB workstation, 256 GB DRAM,
//!   2 TB NVMe,
//! * `NodeSpec::dgx2_v100()` — 16×V100-32GB DGX-2, 1.5 TB DRAM, 30 TB NVMe.
//!
//! All bandwidths are bytes/second, all latencies seconds, all capacities
//! bytes. Numbers are public vendor figures; where the paper quotes a peak
//! (e.g. 158.4 TFLOPS FP16 for the A6000 in Sec. VII-D2) we use the paper's
//! number so utilization percentages line up.

use serde::{Deserialize, Serialize};

/// Floating point / integer formats the kernels support (Sec. III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    Fp32,
    Fp16,
    Int8,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            DType::Fp32 => 4,
            DType::Fp16 => 2,
            DType::Int8 => 1,
        }
    }
}

/// A single GPU device model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuSpec {
    pub name: String,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Peak HBM bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Peak dense FP32 throughput, FLOP/s.
    pub peak_fp32: f64,
    /// Peak FP16 tensor-core throughput, FLOP/s.
    pub peak_fp16: f64,
    /// Peak INT8 tensor-core throughput, OP/s.
    pub peak_int8: f64,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// CPU-side kernel launch overhead per kernel, seconds. This is the gap
    /// CUDA graphs eliminate (Sec. III-D).
    pub kernel_launch_overhead: f64,
    /// L1 cache line size in bytes (128 on all modeled parts, Sec. III-C3).
    pub cache_line_bytes: u32,
}

impl GpuSpec {
    /// Peak math throughput for a given data type.
    pub fn peak_flops(&self, dtype: DType) -> f64 {
        match dtype {
            DType::Fp32 => self.peak_fp32,
            DType::Fp16 => self.peak_fp16,
            DType::Int8 => self.peak_int8,
        }
    }

    /// NVIDIA A100-SXM4-40GB (DGX A100 cluster of Sec. VII-A4).
    pub fn a100_40gb() -> Self {
        GpuSpec {
            name: "A100-SXM4-40GB".into(),
            mem_bytes: 40 * (1 << 30),
            mem_bw: 1.555e12,
            peak_fp32: 19.5e12,
            peak_fp16: 312e12,
            peak_int8: 624e12,
            sm_count: 108,
            kernel_launch_overhead: 2.2e-6,
            cache_line_bytes: 128,
        }
    }

    /// NVIDIA RTX A6000 48GB (lambda workstation). The paper quotes a
    /// theoretical FP16 peak of 158.4 TFLOPS (Sec. VII-D2).
    pub fn a6000() -> Self {
        GpuSpec {
            name: "RTX-A6000-48GB".into(),
            mem_bytes: 48 * (1 << 30),
            mem_bw: 0.768e12,
            peak_fp32: 38.7e12,
            peak_fp16: 158.4e12,
            peak_int8: 316.8e12,
            sm_count: 84,
            kernel_launch_overhead: 2.2e-6,
            cache_line_bytes: 128,
        }
    }

    /// NVIDIA A100-SXM4-80GB — the capacity variant (not used by the
    /// paper's testbeds, provided for what-if studies).
    pub fn a100_80gb() -> Self {
        GpuSpec {
            name: "A100-SXM4-80GB".into(),
            mem_bytes: 80 * (1 << 30),
            mem_bw: 2.039e12,
            ..GpuSpec::a100_40gb()
        }
    }

    /// NVIDIA H100-SXM5-80GB — a post-paper part for forward-looking
    /// what-if studies (the paper's techniques are architecture-agnostic;
    /// the rooflines just move).
    pub fn h100_sxm() -> Self {
        GpuSpec {
            name: "H100-SXM5-80GB".into(),
            mem_bytes: 80 * (1 << 30),
            mem_bw: 3.35e12,
            peak_fp32: 66.9e12,
            peak_fp16: 989.4e12,
            peak_int8: 1978.9e12,
            sm_count: 132,
            kernel_launch_overhead: 2.0e-6,
            cache_line_bytes: 128,
        }
    }

    /// NVIDIA V100-SXM3-32GB (DGX-2 server).
    pub fn v100_32gb() -> Self {
        GpuSpec {
            name: "V100-SXM3-32GB".into(),
            mem_bytes: 32 * (1 << 30),
            mem_bw: 0.9e12,
            peak_fp32: 15.7e12,
            peak_fp16: 125e12,
            // V100 has no INT8 tensor cores; DP4A gives ~4x FP32.
            peak_int8: 62.8e12,
            sm_count: 80,
            kernel_launch_overhead: 2.6e-6,
            cache_line_bytes: 128,
        }
    }
}

/// A point-to-point or bus link model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Unidirectional bandwidth per endpoint, bytes/s.
    pub bw: f64,
    /// Base message latency, seconds.
    pub latency: f64,
}

impl LinkSpec {
    pub const fn new(bw: f64, latency: f64) -> Self {
        LinkSpec { bw, latency }
    }

    /// Time to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bw
    }

    /// NVSwitch fabric as seen by one A100 (600 GB/s bidirectional NVLink3,
    /// 300 GB/s each direction).
    pub fn nvswitch_a100() -> Self {
        LinkSpec::new(300e9, 3.0e-6)
    }

    /// NVSwitch fabric as seen by one V100 on a DGX-2 (NVLink2, 150 GB/s per
    /// direction).
    pub fn nvswitch_v100() -> Self {
        LinkSpec::new(150e9, 4.0e-6)
    }

    /// NVLink bridge between the two A6000s of the lambda workstation.
    pub fn nvlink_a6000() -> Self {
        LinkSpec::new(56e9, 4.0e-6)
    }

    /// PCIe 4.0 x16 (A100, A6000 hosts).
    pub fn pcie_gen4() -> Self {
        LinkSpec::new(25e9, 8.0e-6)
    }

    /// PCIe 3.0 x16 (V100 / DGX-2 host links).
    pub fn pcie_gen3() -> Self {
        LinkSpec::new(12.5e9, 8.0e-6)
    }

    /// One HDR InfiniBand rail, 200 Gb/s. The latency is the effective
    /// per-message cost seen by pipelined NCCL exchanges (RDMA small-message
    /// injection), not a first-byte ping-pong latency.
    pub fn ib_hdr() -> Self {
        LinkSpec::new(25e9, 4.0e-6)
    }
}

/// A single multi-GPU server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    pub gpus_per_node: usize,
    pub gpu: GpuSpec,
    /// GPU↔GPU link inside the node (NVLink/NVSwitch).
    pub intra_link: LinkSpec,
    /// GPU↔host link.
    pub pcie: LinkSpec,
    /// Whether two adjacent GPUs share one PCIe link to the host. This is the
    /// contention that the odd/even offload scheduling of Sec. IV-C3 works
    /// around: "Most system architectures do not have a unique PCIe bus for
    /// each GPU and share a single link across two GPUs."
    pub pcie_shared_pairs: bool,
    /// Host DRAM capacity in bytes.
    pub dram_bytes: u64,
    /// Host DRAM bandwidth (for CPU-side compute / staging), bytes/s.
    pub dram_bw: f64,
    /// NVMe capacity in bytes.
    pub nvme_bytes: u64,
    /// Aggregate NVMe sequential read bandwidth, bytes/s.
    pub nvme_read_bw: f64,
    /// Aggregate NVMe sequential write bandwidth, bytes/s.
    pub nvme_write_bw: f64,
    /// Effective CPU FP32 throughput for the CPU-only baseline, FLOP/s.
    pub cpu_flops: f64,
}

impl NodeSpec {
    /// One DGX A100 box: 8×A100-40GB on NVSwitch, PCIe gen4 shared in pairs.
    pub fn dgx_a100() -> Self {
        NodeSpec {
            gpus_per_node: 8,
            gpu: GpuSpec::a100_40gb(),
            intra_link: LinkSpec::nvswitch_a100(),
            pcie: LinkSpec::pcie_gen4(),
            pcie_shared_pairs: true,
            dram_bytes: 1024 * (1 << 30),
            dram_bw: 200e9,
            nvme_bytes: 15 * (1u64 << 40),
            nvme_read_bw: 25e9,
            nvme_write_bw: 12e9,
            cpu_flops: 3e12,
        }
    }

    /// Lambda "Vector" workstation: 2×A6000, 256 GB DRAM, 2 TB NVMe
    /// (Sec. VII-A4).
    pub fn lambda_a6000() -> Self {
        NodeSpec {
            gpus_per_node: 2,
            gpu: GpuSpec::a6000(),
            intra_link: LinkSpec::nvlink_a6000(),
            pcie: LinkSpec::pcie_gen4(),
            pcie_shared_pairs: false,
            dram_bytes: 256 * (1 << 30),
            dram_bw: 100e9,
            nvme_bytes: 2 * (1u64 << 40),
            nvme_read_bw: 6.4e9,
            nvme_write_bw: 3.0e9,
            cpu_flops: 2.5e12,
        }
    }

    /// DGX-2: 16×V100-32GB on NVSwitch, 1.5 TB DRAM, 30 TB NVMe
    /// (Sec. VII-A4).
    pub fn dgx2_v100() -> Self {
        NodeSpec {
            gpus_per_node: 16,
            gpu: GpuSpec::v100_32gb(),
            intra_link: LinkSpec::nvswitch_v100(),
            pcie: LinkSpec::pcie_gen3(),
            pcie_shared_pairs: true,
            dram_bytes: 1536 * (1 << 30),
            dram_bw: 180e9,
            nvme_bytes: 30 * (1u64 << 40),
            nvme_read_bw: 25e9,
            nvme_write_bw: 12e9,
            cpu_flops: 2.5e12,
        }
    }

    /// Effective per-GPU host-link bandwidth when `n_active` GPUs on this
    /// node are pulling from the host simultaneously. With shared pairs, two
    /// concurrently-active neighbors halve each other's bandwidth.
    pub fn pcie_bw_per_gpu(&self, n_active: usize) -> f64 {
        if self.pcie_shared_pairs && n_active > self.gpus_per_node / 2 {
            self.pcie.bw / 2.0
        } else {
            self.pcie.bw
        }
    }
}

/// A cluster of identical nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSpec {
    pub nodes: usize,
    pub node: NodeSpec,
    /// Per-node inter-node network bandwidth (all rails aggregated), bytes/s.
    pub inter_bw: f64,
    /// Inter-node message latency, seconds.
    pub inter_latency: f64,
}

impl ClusterSpec {
    /// `nodes` DGX A100 boxes connected with 8 HDR rails each (the paper's
    /// 256-GPU cluster is 32 such boxes).
    pub fn dgx_a100(nodes: usize) -> Self {
        let rail = LinkSpec::ib_hdr();
        ClusterSpec {
            nodes,
            node: NodeSpec::dgx_a100(),
            inter_bw: 8.0 * rail.bw,
            inter_latency: rail.latency,
        }
    }

    /// `nodes` DGX H100 boxes (NVLink4 NVSwitch, 8 NDR rails) — for
    /// forward-looking what-if studies.
    pub fn dgx_h100(nodes: usize) -> Self {
        let node = NodeSpec {
            gpus_per_node: 8,
            gpu: GpuSpec::h100_sxm(),
            intra_link: LinkSpec::new(450e9, 2.5e-6),
            pcie: LinkSpec::new(50e9, 7.0e-6), // PCIe gen5 x16
            pcie_shared_pairs: true,
            dram_bytes: 2048 * (1 << 30),
            dram_bw: 350e9,
            nvme_bytes: 30 * (1u64 << 40),
            nvme_read_bw: 50e9,
            nvme_write_bw: 25e9,
            cpu_flops: 5e12,
        };
        ClusterSpec {
            nodes,
            node,
            inter_bw: 8.0 * 50e9, // 8× NDR 400 Gb/s
            inter_latency: 3.5e-6,
        }
    }

    /// Single-node cluster wrapper.
    pub fn single(node: NodeSpec) -> Self {
        ClusterSpec {
            nodes: 1,
            node,
            inter_bw: f64::INFINITY,
            inter_latency: 0.0,
        }
    }

    pub fn total_gpus(&self) -> usize {
        self.nodes * self.node.gpus_per_node
    }

    /// Aggregate HBM bandwidth across every GPU in the cluster; the
    /// denominator of the paper's "33% of peak memory bandwidth" claim
    /// (Sec. VII-B2).
    pub fn aggregate_mem_bw(&self) -> f64 {
        self.total_gpus() as f64 * self.node.gpu.mem_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_bytes() {
        assert_eq!(DType::Fp32.bytes(), 4);
        assert_eq!(DType::Fp16.bytes(), 2);
        assert_eq!(DType::Int8.bytes(), 1);
    }

    #[test]
    fn a100_peaks() {
        let g = GpuSpec::a100_40gb();
        assert_eq!(g.peak_flops(DType::Fp16), 312e12);
        assert_eq!(g.peak_flops(DType::Int8), 624e12);
        assert!(g.peak_flops(DType::Int8) > g.peak_flops(DType::Fp16));
    }

    #[test]
    fn cluster_256_gpus() {
        let c = ClusterSpec::dgx_a100(32);
        assert_eq!(c.total_gpus(), 256);
        // Paper: 256 A100s provide ~398 TB/s peak; 128 TB/s achieved = ~33%.
        let agg = c.aggregate_mem_bw();
        assert!((agg - 256.0 * 1.555e12).abs() < 1.0);
        assert!((128e12 / agg - 0.33).abs() < 0.02);
    }

    #[test]
    fn newer_parts_strictly_dominate() {
        let a40 = GpuSpec::a100_40gb();
        let a80 = GpuSpec::a100_80gb();
        let h100 = GpuSpec::h100_sxm();
        assert!(a80.mem_bytes > a40.mem_bytes && a80.mem_bw > a40.mem_bw);
        assert_eq!(a80.peak_fp16, a40.peak_fp16);
        assert!(h100.mem_bw > a80.mem_bw);
        assert!(h100.peak_flops(DType::Fp16) > 3.0 * a40.peak_flops(DType::Fp16));
    }

    #[test]
    fn dgx_h100_cluster_wiring() {
        let c = ClusterSpec::dgx_h100(2);
        assert_eq!(c.total_gpus(), 16);
        assert!(c.node.intra_link.bw > NodeSpec::dgx_a100().intra_link.bw);
        assert!(c.inter_bw > ClusterSpec::dgx_a100(2).inter_bw);
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        let l = LinkSpec::pcie_gen4();
        assert!(l.transfer_time(1e9) < l.transfer_time(2e9));
        assert!(l.transfer_time(0.0) == l.latency);
    }

    #[test]
    fn shared_pcie_pairs_halve_bandwidth() {
        let n = NodeSpec::dgx_a100();
        assert_eq!(n.pcie_bw_per_gpu(8), n.pcie.bw / 2.0);
        assert_eq!(n.pcie_bw_per_gpu(4), n.pcie.bw);
        let lam = NodeSpec::lambda_a6000();
        assert_eq!(lam.pcie_bw_per_gpu(2), lam.pcie.bw);
    }

    #[test]
    fn lambda_fits_530b_on_nvme_only() {
        // MT-NLG 530B at FP16 needs ~1.06 TB: too big for 256 GB DRAM and
        // 48 GB GPU, fits on the 2 TB NVMe (Sec. VII-D1).
        let n = NodeSpec::lambda_a6000();
        let weights = 530e9 * 2.0;
        assert!(weights > n.dram_bytes as f64);
        assert!(weights > n.gpu.mem_bytes as f64);
        assert!(weights < n.nvme_bytes as f64);
    }
}
