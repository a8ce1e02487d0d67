//! Pass 2 — the joins of a split pass.
//!
//! Tensor slicing (Sec. IV-A) only works if every member of a group meets
//! the others at the same points of the layer. On one host a
//! tensor-parallel group is `dsi_model::paged::Engine::group`: each pass
//! split across members that write disjoint columns of one scratch and
//! join at a barrier wherever a region reads whole rows another member
//! wrote. The scratch pass checks what each member writes between joins
//! on the pass's record (`scratch::check_record`); this pass checks that
//! the live members join where that record says they do.
//! `sweep::record_group` records passes on a live group, and
//! [`check_member_joins`] holds each member's barrier crossings to the
//! joins the records lay out: a member that skips or adds a join is a
//! `join-count` diagnostic.

use crate::{Diagnostic, Pass};

/// The joins of a live group's passes at one member count, as the passes'
/// records lay them out and as the barrier counted them.
#[derive(Debug, Clone)]
pub struct MemberJoins {
    pub members: usize,
    /// The joins the records lay out for each member through the passes:
    /// one fewer than each pass's phases (`PassRecord::phases`).
    pub trace: u64,
    /// Each live member's barrier crossings through the same passes
    /// (`Engine::member_joins`).
    pub live: Vec<u64>,
}

/// Hold each live member's crossings to the recorded joins: a `join-count`
/// diagnostic for a member count other than the pass's, and one for each
/// member that crossed more or fewer joins than the trace lays out.
pub fn check_member_joins(j: &MemberJoins) -> Vec<Diagnostic> {
    let site = format!("split pass members={}", j.members);
    let mut diags = Vec::new();
    if j.live.len() != j.members {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "join-count",
            site.clone(),
            format!("{} live members crossed joins; the pass ran on {}", j.live.len(), j.members),
        ));
    }
    for (t, &n) in j.live.iter().enumerate().filter(|&(_, &n)| n != j.trace) {
        diags.push(Diagnostic::new(
            Pass::Collective,
            "join-count",
            format!("{site}, member {t}"),
            format!("crossed {n} joins; the recorded passes join {} times a member", j.trace),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three passes of a 2-layer model: 1 + 4·2 joins each, for every
    /// member, the live crossings as many.
    #[test]
    fn live_joins_match_the_record() {
        for n in [2usize, 4] {
            let j = crate::sweep::record_group(n, false, 2).joins;
            assert_eq!((j.trace, j.live.len()), (3 * (1 + 4 * 2), n), "{j:?}");
            let d = check_member_joins(&j);
            assert!(d.is_empty(), "{n} members: {d:?}");
        }
    }

    #[test]
    fn a_member_off_the_trace_is_detected() {
        // Member 1 crosses one join fewer, member 3 one more, and a member
        // is missing: each is its own diagnostic.
        let mut j = crate::sweep::record_group(4, false, 2).joins;
        j.live[1] -= 1;
        j.live[3] += 1;
        let d = check_member_joins(&j);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.code == "join-count"), "{d:?}");
        assert!(d[0].site.ends_with("member 1") && d[1].site.ends_with("member 3"), "{d:?}");
        j.live.pop();
        assert!(check_member_joins(&j).iter().any(|x| x.message.contains("3 live members")), "{j:?}");
    }
}
