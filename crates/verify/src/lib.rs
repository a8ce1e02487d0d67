//! # dsi-verify — checks over what the running code recorded
//!
//! The performance argument of the paper rests on plans being *legal*:
//! Deep-Fusion's tile-dependency rule (Sec. III-B) and tensor-slicing
//! members that meet each other at the same joins (Sec. IV-A). On a CPU
//! the rule is the split pass's arena protocol: between two joins each
//! member writes only its own columns and reads only what no member
//! writes. This crate checks it on what live runtimes recorded, never on
//! plans or programs it builds for itself. (A plan's fusion legality is
//! `dsi_kernels::fusion::validate`, which `fusion::fuse` runs on every plan
//! a figure prices; a pipeline task graph cannot hold a cycle, since
//! `TaskGraph::add` asserts that every dependency names an earlier task.)
//!
//! * [`scratch`] — buffer aliasing / lifetime analysis of the scratch
//!   arena (`dsi-model::fast`) on live pass records, read as recorded:
//!   overlapping scratch-slice reuse, or a member touching another's
//!   columns between joins, is a verifier error, not a silent wrong
//!   answer; and the page tables of live KV pools.
//! * [`collective`] — the joins of a split pass (what a tensor-parallel
//!   group runs), held to a live group's barrier crossings.
//! * [`runtime`] — the offload tier's prefetch protocol, checked as a
//!   program on the events a live store recorded. (The serving scheduler is
//!   checked by running it: its recovery protocol — release a faulted slot
//!   before it is replayed — is an assertion in the paged engine, and the
//!   `dsi-serve` chaos sweeps fail on any panic no fault plan scripted; the
//!   serving circuit breaker is explored exhaustively next to its code,
//!   which reports its own violations and does not link this crate.)
//! * [`audit`] — unsafe-kernel audit: every `unsafe` block must carry a
//!   `// SAFETY:` comment and every `unsafe fn` a `# Safety` doc section.
//! * [`sweep`] — the `cargo xtask verify` entry point: records live groups
//!   and store runs, runs the passes over what they recorded, plus negative
//!   controls proving the detectors still detect.
//!
//! Every pass returns a list of [`Diagnostic`]s; an empty list means the
//! recording is legal under that pass's model.

use std::fmt;

pub mod audit;
pub mod collective;
pub mod runtime;
pub mod scratch;
pub mod sweep;

/// Which analysis produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Scratch-arena aliasing and lifetime analysis.
    Scratch,
    /// Split-pass joins and the offload store's prefetch protocol.
    Collective,
    /// Unsafe-block source audit.
    Audit,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Scratch => write!(f, "scratch"),
            Pass::Collective => write!(f, "collective"),
            Pass::Audit => write!(f, "audit"),
        }
    }
}

/// One structured verifier finding. `code` is a stable machine-readable
/// defect class (tests and CI gate on it); `site` carries provenance — the
/// op name, rank, file:line, or plan region the defect was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        let d = Diagnostic::new(Pass::Scratch, "scratch-alias", "member 0 launch 5 (0 Region)", "write `x`[0..32] overlaps read `x`[16..48]");
        let s = d.to_string();
        assert!(s.starts_with("[scratch:scratch-alias]"), "{s}");
        assert!(s.contains("member 0 launch 5"), "{s}");
    }
}
