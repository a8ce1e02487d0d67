//! # dsi-verify — static analysis over inference plans
//!
//! The performance argument of the paper rests on plans being *legal*:
//! Deep-Fusion's tile-dependency rule (Sec. III-B), tensor-slicing members
//! that meet each other at the same joins (Sec. IV-A), and pipeline
//! schedules that never deadlock (Sec. IV-B). The rest of the workspace
//! checks those invariants dynamically — at execution time, on the one
//! configuration a test happens to run. This crate checks them over every
//! plan: statically where the plan is a cost model's, and against what the
//! running code recorded where an executed runtime exists:
//!
//! * [`ir`] — shape/dtype inference over [`dsi_kernels::graph::OpDesc`] op
//!   lists: inner-dimension mismatches, element-count breaks, weight-dtype
//!   mixing inside a fused region, and fusion plans violating the
//!   shared-tileable-axis rule all become diagnostics before any kernel runs.
//! * [`scratch`] — buffer aliasing / lifetime analysis of the scratch
//!   arena (`dsi-model::fast`) on live pass records: overlapping
//!   scratch-slice reuse, or a member touching another's columns between
//!   joins, is a verifier error, not a silent wrong answer.
//! * [`collective`] — the joins of a split pass (what a tensor-parallel
//!   group runs), held to a live group's barrier crossings, and pipeline
//!   task graphs, which must be acyclic with matched inter-stage hops.
//! * [`runtime`] — the offload tier's prefetch protocol, checked as a
//!   program on the events a live store recorded. (The serving scheduler is
//!   checked by running it: its recovery protocol — release a faulted slot
//!   before it is replayed — is an assertion in the paged engine, and the
//!   `dsi-serve` chaos sweeps fail on any panic no fault plan scripted; the
//!   serving circuit breaker is explored exhaustively next to its code.)
//! * [`audit`] — unsafe-kernel audit: every `unsafe` block must carry a
//!   `// SAFETY:` comment and every `unsafe fn` a `# Safety` doc section.
//! * [`sweep`] — the `cargo xtask verify` entry point: runs the passes over
//!   every zoo model × figure configuration used by the paper-reproduction
//!   binaries and over what live runtimes recorded, plus negative controls
//!   proving the detectors still detect.
//!
//! Every pass returns a list of [`Diagnostic`]s; an empty list means the
//! plan is proven legal under that pass's model.

use serde::Serialize;
use std::fmt;

pub mod audit;
pub mod collective;
pub mod ir;
pub mod runtime;
pub mod scratch;
pub mod sweep;

/// Which analysis produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Pass {
    /// Shape/dtype/fusion-legality inference over op lists.
    Ir,
    /// Scratch-arena aliasing and lifetime analysis.
    Scratch,
    /// Split-pass joins, pipeline structure and runtime protocols.
    Collective,
    /// Unsafe-block source audit.
    Audit,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Ir => write!(f, "ir"),
            Pass::Scratch => write!(f, "scratch"),
            Pass::Collective => write!(f, "collective"),
            Pass::Audit => write!(f, "audit"),
        }
    }
}

/// One structured verifier finding. `code` is a stable machine-readable
/// defect class (tests and CI gate on it); `site` carries provenance — the
/// op name, rank, file:line, or plan region the defect was found at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    pub pass: Pass,
    pub code: &'static str,
    pub site: String,
    pub message: String,
}

impl Diagnostic {
    pub fn new(pass: Pass, code: &'static str, site: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            pass,
            code,
            site: site.into(),
            message: message.into(),
        }
    }

    /// A runtime recording whose bounded recorder wrapped: it no longer
    /// starts at the beginning of the run, so it cannot be checked.
    pub fn recording_overflow(site: String) -> Self {
        Diagnostic::new(Pass::Collective, "recording-overflow", site, "the recorder wrapped; the recording is truncated")
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}] {}: {}", self.pass, self.code, self.site, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_carries_provenance() {
        let d = Diagnostic::new(Pass::Ir, "inner-dim-mismatch", "qkv_gemm", "k=64 vs cols=32");
        let s = d.to_string();
        assert!(s.contains("ir"), "{s}");
        assert!(s.contains("inner-dim-mismatch"), "{s}");
        assert!(s.contains("qkv_gemm"), "{s}");
    }
}
