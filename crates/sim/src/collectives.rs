//! NCCL-style collectives: α–β cost models over a [`Topology`] and
//! *functional* reference implementations over rank-local buffers.
//!
//! The cost side follows the standard ring/pairwise analyses that the paper
//! itself uses: an all-to-all over `p` ranks costs `(p-1)·α + ((p-1)/p)·S/β`,
//! i.e. grows linearly with `p` at fixed message size — "it is not efficient
//! to scale expert parallelism to hundreds of devices ... as the latency
//! increases linearly with the increase in devices" (Sec. V-B). The PCC
//! rewrite replaces it with an all-to-all over `p/L` ranks plus an all-gather
//! over `L` ranks, turning `O(p)` into `O(p/L) + O(L)`.
//!
//! The functional side ([`CommGroup`]) actually moves `f32` data between the
//! per-rank buffers so that schedule rewrites can be checked for
//! *correctness* (PCC must deliver byte-identical results to the flat
//! all-to-all it replaces), not just speed.

use crate::hw::LinkSpec;
use crate::topology::Topology;
use serde::Serialize;

/// Cost of one collective operation.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CollectiveCost {
    /// Wall-clock seconds.
    pub time: f64,
    /// Bytes crossing links per participating rank (for bandwidth
    /// accounting).
    pub bytes_on_wire: f64,
}

impl CollectiveCost {
    pub const ZERO: CollectiveCost = CollectiveCost {
        time: 0.0,
        bytes_on_wire: 0.0,
    };
}

/// Cost-model entry points. `bytes` is the full tensor size unless stated
/// otherwise; groups are lists of global ranks.
pub struct Collectives;

impl Collectives {
    /// Ring all-reduce over `group` of a `bytes`-sized tensor
    /// (reduce-scatter + all-gather, each `(n-1)` steps of `bytes/n`).
    pub fn allreduce(topo: &Topology, group: &[usize], bytes: f64) -> CollectiveCost {
        let n = group.len();
        if n <= 1 {
            return CollectiveCost::ZERO;
        }
        let link = topo.ring_bottleneck(group);
        let steps = 2 * (n - 1);
        let chunk = bytes / n as f64;
        CollectiveCost {
            time: steps as f64 * (link.latency + chunk / link.bw),
            bytes_on_wire: steps as f64 * chunk,
        }
    }

    /// Ring all-gather: each rank contributes `bytes_per_rank`, everyone ends
    /// with the concatenation.
    pub fn allgather(topo: &Topology, group: &[usize], bytes_per_rank: f64) -> CollectiveCost {
        let n = group.len();
        if n <= 1 {
            return CollectiveCost::ZERO;
        }
        let link = topo.ring_bottleneck(group);
        let steps = n - 1;
        CollectiveCost {
            time: steps as f64 * (link.latency + bytes_per_rank / link.bw),
            bytes_on_wire: steps as f64 * bytes_per_rank,
        }
    }

    /// Flat (pairwise-exchange) all-to-all: each rank holds `bytes_per_rank`
    /// and sends a `1/n` slice to every peer. `(n-1)` rounds; each round's
    /// latency depends on whether the peer is on-node or off-node, which is
    /// what makes this linear in `p` for the small per-token messages of MoE
    /// inference.
    pub fn alltoall(topo: &Topology, group: &[usize], bytes_per_rank: f64) -> CollectiveCost {
        let n = group.len();
        if n <= 1 {
            return CollectiveCost::ZERO;
        }
        let chunk = bytes_per_rank / n as f64;
        // Pairwise exchange: in round r, rank i exchanges with rank i^r
        // (hypercube-style); we cost the worst rank per round, which for a
        // symmetric layout is any fixed rank's view. NCCL keeps several
        // messages in flight, so after the first peer each additional round
        // pays only the pipelined marginal latency.
        const PIPELINE: f64 = 0.25;
        let me = group[0];
        let mut time = 0.0;
        let mut wire = 0.0;
        let mut first = true;
        for &peer in group.iter().skip(1) {
            let link = Self::effective_p2p(topo, group, me, peer);
            if first {
                time += link.latency + chunk / link.bw;
                first = false;
            } else {
                // Steady state: limited by message rate or wire bandwidth,
                // whichever is slower.
                time += (link.latency * PIPELINE).max(chunk / link.bw);
            }
            wire += chunk;
        }
        CollectiveCost {
            time,
            bytes_on_wire: wire,
        }
    }

    /// The PCC (parallelism-coordinated communication) all-to-all of
    /// Sec. V-B: with tensor-parallel degree `tp`, data is replicated across
    /// the `tp` ranks of each TP group, so the all-to-all only needs to run
    /// within the `p/tp` ranks sharing the same TP slot, followed by an
    /// all-gather across the `tp` ranks to restore replication.
    ///
    /// Returns (total, alltoall part, allgather part).
    pub fn pcc_alltoall(
        topo: &Topology,
        group: &[usize],
        tp: usize,
        bytes_per_rank: f64,
    ) -> (CollectiveCost, CollectiveCost, CollectiveCost) {
        let n = group.len();
        assert!(tp >= 1 && n.is_multiple_of(tp), "tp must divide group size");
        // Ranks with the same TP slot: stride-tp subsample of the group.
        let sub: Vec<usize> = group.iter().copied().step_by(tp).collect();
        let a2a = Self::alltoall(topo, &sub, bytes_per_rank);
        // All-gather of the received shard across the TP group (consecutive
        // ranks, typically intra-node).
        let tp_group: Vec<usize> = group.iter().copied().take(tp).collect();
        let ag = if tp > 1 {
            Self::allgather(topo, &tp_group, bytes_per_rank / tp as f64)
        } else {
            CollectiveCost::ZERO
        };
        (
            CollectiveCost {
                time: a2a.time + ag.time,
                bytes_on_wire: a2a.bytes_on_wire + ag.bytes_on_wire,
            },
            a2a,
            ag,
        )
    }

    /// Point-to-point send of `bytes` (pipeline stage boundary, Sec. IV-B).
    pub fn p2p(topo: &Topology, from: usize, to: usize, bytes: f64) -> CollectiveCost {
        let link = topo.p2p_link(from, to);
        CollectiveCost {
            time: link.transfer_time(bytes),
            bytes_on_wire: bytes,
        }
    }

    /// Effective link between `a` and `b` when the whole `group` communicates
    /// simultaneously: cross-node flows share the node's injection bandwidth
    /// with the other group members on the same node.
    fn effective_p2p(topo: &Topology, group: &[usize], a: usize, b: usize) -> LinkSpec {
        let base = topo.p2p_link(a, b);
        if topo.same_node(a, b) {
            base
        } else {
            let (per_node, _) = topo.group_node_span(group);
            let sharers = per_node[topo.placement(a).node].max(1);
            LinkSpec::new(base.bw / sharers as f64, base.latency)
        }
    }
}

/// Functional collectives over per-rank `f32` buffers. Used to *verify* that
/// communication-schedule rewrites (PCC) preserve results.
///
/// ```
/// use dsi_sim::collectives::CommGroup;
/// let mut g = CommGroup::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
/// g.allreduce_sum();
/// assert_eq!(g.buffers[0], vec![4.0, 6.0]);
/// assert_eq!(g.buffers[1], vec![4.0, 6.0]);
/// ```
#[derive(Debug, Clone)]
pub struct CommGroup {
    /// `buffers[r]` is rank `r`'s local data.
    pub buffers: Vec<Vec<f32>>,
}

impl CommGroup {
    pub fn new(buffers: Vec<Vec<f32>>) -> Self {
        CommGroup { buffers }
    }

    pub fn world(&self) -> usize {
        self.buffers.len()
    }

    /// Element-wise sum across ranks; every rank ends with the sum.
    pub fn allreduce_sum(&mut self) {
        let n = self.world();
        if n <= 1 {
            return;
        }
        let len = self.buffers[0].len();
        assert!(
            self.buffers.iter().all(|b| b.len() == len),
            "allreduce requires equal buffer lengths"
        );
        let mut acc = vec![0.0f32; len];
        for b in &self.buffers {
            for (a, x) in acc.iter_mut().zip(b) {
                *a += x;
            }
        }
        for b in &mut self.buffers {
            b.copy_from_slice(&acc);
        }
    }

    /// Every rank ends with the concatenation of all ranks' buffers in rank
    /// order.
    pub fn allgather(&mut self) {
        let n = self.world();
        let mut cat = Vec::new();
        for b in &self.buffers {
            cat.extend_from_slice(b);
        }
        for r in 0..n {
            self.buffers[r] = cat.clone();
        }
    }

    /// All-to-all: rank `r`'s buffer is split into `n` equal chunks; chunk
    /// `j` goes to rank `j`, which concatenates received chunks in source
    /// order. Buffer lengths must be divisible by the world size.
    pub fn alltoall(&mut self) {
        let n = self.world();
        if n <= 1 {
            return;
        }
        let lens: Vec<usize> = self.buffers.iter().map(|b| b.len()).collect();
        assert!(
            lens.iter().all(|&l| l % n == 0),
            "alltoall requires buffer length divisible by world size"
        );
        let mut out: Vec<Vec<f32>> = vec![Vec::new(); n];
        for (dst, o) in out.iter_mut().enumerate() {
            for (src, buf) in self.buffers.iter().enumerate() {
                let chunk = lens[src] / n;
                o.extend_from_slice(&buf[dst * chunk..(dst + 1) * chunk]);
            }
        }
        self.buffers = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::ClusterSpec;

    fn topo(nodes: usize) -> Topology {
        Topology::new(ClusterSpec::dgx_a100(nodes))
    }

    #[test]
    fn allreduce_cost_zero_for_singleton() {
        let t = topo(1);
        let c = Collectives::allreduce(&t, &[0], 1e6);
        assert_eq!(c.time, 0.0);
    }

    #[test]
    fn allreduce_cross_node_slower_than_intra() {
        let t = topo(2);
        let intra = Collectives::allreduce(&t, &(0..8).collect::<Vec<_>>(), 1e8);
        let inter = Collectives::allreduce(&t, &(0..16).collect::<Vec<_>>(), 1e8);
        assert!(inter.time > intra.time);
    }

    #[test]
    fn alltoall_latency_grows_linearly() {
        // Fixed small per-rank payload: latency term dominates and total time
        // grows ~linearly with group size (the Sec. V-B premise).
        let t = topo(32);
        let small = 64.0 * 1024.0;
        let t32 = Collectives::alltoall(&t, &(0..32).collect::<Vec<_>>(), small).time;
        let t128 = Collectives::alltoall(&t, &(0..128).collect::<Vec<_>>(), small).time;
        let t256 = Collectives::alltoall(&t, &(0..256).collect::<Vec<_>>(), small).time;
        assert!(t128 > 3.0 * t32 && t128 < 5.0 * t32, "t128/t32={}", t128 / t32);
        assert!(t256 > 1.7 * t128, "t256/t128={}", t256 / t128);
    }

    #[test]
    fn pcc_beats_flat_alltoall_at_scale() {
        // 128 GPUs with 8-way tensor slicing: paper says latency overhead
        // drops from (128 C1 + C2) to (16 C1 + C2).
        let t = topo(16);
        let group: Vec<usize> = (0..128).collect();
        let bytes = 1e6;
        let flat = Collectives::alltoall(&t, &group, bytes);
        let (pcc, a2a, ag) = Collectives::pcc_alltoall(&t, &group, 8, bytes);
        assert!(pcc.time < flat.time, "pcc {} flat {}", pcc.time, flat.time);
        assert!(a2a.time + ag.time == pcc.time);
    }

    #[test]
    fn pcc_with_tp1_equals_flat() {
        let t = topo(4);
        let group: Vec<usize> = (0..32).collect();
        let flat = Collectives::alltoall(&t, &group, 1e6);
        let (pcc, _, _) = Collectives::pcc_alltoall(&t, &group, 1, 1e6);
        assert!((pcc.time - flat.time).abs() < 1e-12);
    }

    #[test]
    fn functional_allreduce() {
        let mut g = CommGroup::new(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        g.allreduce_sum();
        for b in &g.buffers {
            assert_eq!(b, &vec![9.0, 12.0]);
        }
    }

    #[test]
    fn functional_allgather() {
        let mut g = CommGroup::new(vec![vec![1.0], vec![2.0]]);
        g.allgather();
        assert_eq!(g.buffers[0], vec![1.0, 2.0]);
        assert_eq!(g.buffers[1], vec![1.0, 2.0]);
    }

    #[test]
    fn functional_alltoall_is_transpose() {
        // 2 ranks, 4 elements each: chunk j of rank i lands at rank j.
        let mut g = CommGroup::new(vec![vec![0.0, 1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0, 7.0]]);
        g.alltoall();
        assert_eq!(g.buffers[0], vec![0.0, 1.0, 4.0, 5.0]);
        assert_eq!(g.buffers[1], vec![2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn functional_alltoall_involution_for_equal_chunks() {
        // alltoall twice with equal-size buffers restores the original.
        let orig = vec![vec![0.0, 1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0, 7.0]];
        let mut g = CommGroup::new(orig.clone());
        g.alltoall();
        g.alltoall();
        assert_eq!(g.buffers, orig);
    }
}
