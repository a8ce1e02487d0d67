//! Pass 1 — scratch-arena aliasing and lifetime analysis.
//!
//! The fast decode path (`dsi-model::fast`) runs every fused region out of a
//! preallocated [`Scratch`](dsi_model::fast::Scratch) arena: seven named
//! buffers whose slices are handed to kernels as read and write operands.
//! The whole point of the arena is aggressive reuse — which is exactly what
//! makes it dangerous: a plan that hands one kernel overlapping read and
//! write slices of the same buffer computes a silently wrong answer, not a
//! crash.
//!
//! This pass checks a *step trace* — the sequence of kernel launches with
//! their buffer accesses — for three defect classes:
//! * `scratch-alias` — one step's write range overlaps another operand
//!   (read or write) of the same step on the same buffer;
//! * `use-before-init` — a step reads a range no earlier step (nor the
//!   assumed-initialized set) has fully written;
//! * `scratch-oob` — an access extends past the buffer's reserved capacity
//!   (the arena never reallocates mid-decode, so out-of-bounds here means a
//!   panic — or, for a hand-built plan, a quiet neighbour overwrite).
//!
//! The traces it checks are what a live pass did: [`record_phases`] turns a
//! [`PassRecord`] — every slice `fast::step` handed a kernel on each member
//! of a pass, as `paged::Engine::record_pass` logged it — into [`Phase`]s,
//! the spans between joins, each holding every member's launches, against
//! the arena published by [`dsi_model::fast::scratch_layout`] for the pass's
//! rows. Each member's layer-norm rows are its own buffer, and each
//! sequence's K and V rows are one buffer per layer, addressed by position.
//! [`check_split`] adds one defect class:
//! * `member-overlap` — within one phase, a member writes a range another
//!   member reads or writes (two members' windows overlap, or a member
//!   reads another's output before the join).

use crate::{Diagnostic, Pass};
use dsi_model::config::GptConfig;
use dsi_model::fast::{scratch_layout, Access};
use dsi_model::record::{Buffer, PassRecord, Touch};
use serde::Serialize;
use std::ops::Range;

/// A half-open range of one named buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SliceRef {
    pub buf: String,
    pub lo: usize,
    pub hi: usize,
}

impl SliceRef {
    pub fn new(buf: impl Into<String>, lo: usize, hi: usize) -> Self {
        SliceRef { buf: buf.into(), lo, hi }
    }

    fn overlaps(&self, other: &SliceRef) -> bool {
        self.buf == other.buf && self.lo < other.hi && other.lo < self.hi
    }
}

/// One kernel launch: what it reads and what it writes.
#[derive(Debug, Clone, Serialize)]
pub struct Step {
    pub name: String,
    pub reads: Vec<SliceRef>,
    pub writes: Vec<SliceRef>,
}

impl Step {
    pub fn new(name: impl Into<String>, reads: Vec<SliceRef>, writes: Vec<SliceRef>) -> Self {
        Step { name: name.into(), reads, writes }
    }
}

/// The arena: named buffers with fixed capacities (in elements).
#[derive(Debug, Clone, Serialize)]
pub struct Arena {
    pub buffers: Vec<(String, usize)>,
}

impl Arena {
    fn capacity(&self, buf: &str) -> Option<usize> {
        self.buffers.iter().find(|(n, _)| n == buf).map(|&(_, c)| c)
    }
}

/// Sorted, disjoint initialized intervals of one buffer.
#[derive(Debug, Default)]
struct IntervalSet {
    ivs: Vec<(usize, usize)>,
}

impl IntervalSet {
    fn insert(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        self.ivs.push((lo, hi));
        self.ivs.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(self.ivs.len());
        for &(lo, hi) in &self.ivs {
            match merged.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        self.ivs = merged;
    }

    fn covers(&self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        self.ivs.iter().any(|&(a, b)| a <= lo && hi <= b)
    }
}

/// Check a step trace against an arena. `assume_init` names ranges that are
/// live before the trace starts (e.g. KV rows appended by earlier forward
/// calls). Returns all violations.
pub fn check_trace(arena: &Arena, steps: &[Step], assume_init: &[SliceRef]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut init: std::collections::BTreeMap<&str, IntervalSet> =
        std::collections::BTreeMap::new();
    for s in assume_init {
        init.entry(&s.buf).or_default().insert(s.lo, s.hi);
    }

    let bounds = |site: &str, s: &SliceRef, diags: &mut Vec<Diagnostic>| match arena.capacity(&s.buf) {
        None => {
            diags.push(Diagnostic::new(
                Pass::Scratch,
                "scratch-oob",
                site.to_string(),
                format!("references unknown buffer `{}`", s.buf),
            ));
            false
        }
        Some(cap) if s.hi > cap => {
            diags.push(Diagnostic::new(
                Pass::Scratch,
                "scratch-oob",
                site.to_string(),
                format!("`{}`[{}..{}] exceeds reserved capacity {}", s.buf, s.lo, s.hi, cap),
            ));
            false
        }
        Some(_) => true,
    };

    for step in steps {
        for r in &step.reads {
            if bounds(&step.name, r, &mut diags) {
                let covered = init.get(r.buf.as_str()).map(|s| s.covers(r.lo, r.hi)).unwrap_or(false);
                if !covered {
                    diags.push(Diagnostic::new(
                        Pass::Scratch,
                        "use-before-init",
                        step.name.clone(),
                        format!("reads `{}`[{}..{}] before any step wrote it", r.buf, r.lo, r.hi),
                    ));
                }
            }
        }
        for w in &step.writes {
            bounds(&step.name, w, &mut diags);
        }
        // Intra-step aliasing: a kernel's write operand must not overlap any
        // *other* operand — a fused kernel streams its inputs while writing
        // its output, so overlap means reading half-updated data.
        for (wi, w) in step.writes.iter().enumerate() {
            for r in &step.reads {
                if w.overlaps(r) {
                    diags.push(Diagnostic::new(
                        Pass::Scratch,
                        "scratch-alias",
                        step.name.clone(),
                        format!(
                            "write `{}`[{}..{}] overlaps read `{}`[{}..{}]",
                            w.buf, w.lo, w.hi, r.buf, r.lo, r.hi
                        ),
                    ));
                }
            }
            for w2 in &step.writes[wi + 1..] {
                if w.overlaps(w2) {
                    diags.push(Diagnostic::new(
                        Pass::Scratch,
                        "scratch-alias",
                        step.name.clone(),
                        format!(
                            "writes `{}`[{}..{}] and `{}`[{}..{}] overlap",
                            w.buf, w.lo, w.hi, w2.buf, w2.lo, w2.hi
                        ),
                    ));
                }
            }
        }
        for w in &step.writes {
            init.entry(&w.buf).or_default().insert(w.lo, w.hi);
        }
    }
    diags
}

/// Columns `cols` of `m` rows `ldc` apart in `buf`, from element `base`:
/// a member's strided window (one range per row).
pub fn strided(buf: &str, base: usize, m: usize, ldc: usize, cols: Range<usize>) -> Vec<SliceRef> {
    (0..m).map(|i| SliceRef::new(buf, base + i * ldc + cols.start, base + i * ldc + cols.end)).collect()
}

/// The span of a split pass between two joins: each member's launches, in
/// its own order. Members run concurrently, so no member may write what
/// another member reads or writes in the same phase.
#[derive(Debug, Clone, Serialize)]
pub struct Phase {
    pub name: String,
    pub members: Vec<Vec<Step>>,
}

/// Check a split pass: every member's launches in order against the arena
/// (as [`check_trace`] does, phase by phase), and, per phase, every pair of
/// members for a `member-overlap` — one member writing a range another
/// member reads or writes before the join that ends the phase.
pub fn check_split(arena: &Arena, phases: &[Phase], assume_init: &[SliceRef]) -> Vec<Diagnostic> {
    let sequential: Vec<Step> = phases.iter().flat_map(|p| p.members.iter().flatten().cloned()).collect();
    let mut diags = check_trace(arena, &sequential, assume_init);
    for phase in phases {
        let accesses = |t: usize| {
            let steps = &phase.members[t];
            let writes: Vec<&SliceRef> = steps.iter().flat_map(|s| &s.writes).collect();
            let all: Vec<&SliceRef> = steps.iter().flat_map(|s| s.reads.iter().chain(&s.writes)).collect();
            (writes, all)
        };
        for t in 0..phase.members.len() {
            let (writes, _) = accesses(t);
            for u in (0..phase.members.len()).filter(|&u| u != t) {
                let (_, theirs) = accesses(u);
                if let Some((w, r)) = writes.iter().flat_map(|w| theirs.iter().map(move |r| (*w, *r))).find(|(w, r)| w.overlaps(r)) {
                    diags.push(Diagnostic::new(
                        Pass::Scratch,
                        "member-overlap",
                        phase.name.clone(),
                        format!(
                            "member {t} writes `{}`[{}..{}] while member {u} accesses `{}`[{}..{}] before the join",
                            w.buf, w.lo, w.hi, r.buf, r.lo, r.hi
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// A buffer's name in a record's trace: a scratch buffer by its own name, a
/// member's layer-norm rows as `normed.m{member}`, a K/V buffer as
/// `kv{layer}.s{seq}.{k|v}`.
fn buffer_name(buf: Buffer, member: usize) -> String {
    match buf {
        Buffer::Scratch("normed") => format!("normed.m{member}"),
        Buffer::Scratch(name) => name.to_string(),
        Buffer::Kv { layer, seq, value } => format!("kv{layer}.s{seq}.{}", if value { "v" } else { "k" }),
    }
}

/// One recorded operand as ranges of its buffer: a range per row, or one
/// range when it covers whole rows.
fn slices(t: &Touch, member: usize) -> Vec<SliceRef> {
    let buf = buffer_name(t.buf, member);
    if t.cols.len() == t.stride {
        vec![SliceRef::new(buf, t.rows.start * t.stride, t.rows.end * t.stride)]
    } else {
        strided(&buf, t.rows.start * t.stride, t.rows.len(), t.stride, t.cols.clone())
    }
}

/// The trace of a live pass record for [`check_split`]: the arena of
/// [`scratch_layout`] at the pass's rows, with each member's own `normed`
/// rows and one K and one V buffer of `max_seq` rows per layer per
/// sequence; a [`Phase`] per span between joins, each member's launches in
/// its own order; and the K/V rows earlier passes wrote — every sequence's
/// rows below its first position in this pass.
pub fn record_phases(c: &GptConfig, rec: &PassRecord) -> (Arena, Vec<Phase>, Vec<SliceRef>) {
    let (h, m) = (c.hidden, rec.rows.len());
    let mut buffers: Vec<(String, usize)> =
        scratch_layout(c, m).into_iter().filter(|(b, _)| *b != "normed").map(|(b, n)| (b.to_string(), n)).collect();
    buffers.extend((0..rec.members).map(|t| (buffer_name(Buffer::Scratch("normed"), t), m * h)));
    let mut written = Vec::new();
    let mut seqs: Vec<usize> = rec.rows.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    for layer in 0..c.layers {
        for &seq in &seqs {
            let first = rec.rows.iter().filter(|r| r.seq == seq).map(|r| r.pos).min().unwrap_or(0);
            for value in [false, true] {
                let buf = buffer_name(Buffer::Kv { layer, seq, value }, 0);
                if first > 0 {
                    written.push(SliceRef::new(&buf, 0, first * h));
                }
                buffers.push((buf, c.max_seq * h));
            }
        }
    }
    let mut phases: Vec<Phase> = (0..rec.phases())
        .map(|e| Phase { name: format!("phase {e}"), members: vec![Vec::new(); rec.members] })
        .collect();
    let mut made = vec![0usize; rec.members];
    for launch in &rec.launches {
        let t = launch.member;
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for touch in &launch.touches {
            let to = if touch.access == Access::Read { &mut reads } else { &mut writes };
            to.extend(slices(touch, t));
        }
        let layer = launch.layer.map_or_else(|| "embed".to_string(), |l| format!("l{l}"));
        let name = format!("member {t} launch {} ({layer} {:?})", made[t], launch.kernel);
        made[t] += 1;
        phases[launch.epoch as usize].members[t].push(Step { name, reads, writes });
    }
    (Arena { buffers }, phases, written)
}

/// Check one live pass record ([`record_phases`], [`check_split`]).
pub fn check_record(c: &GptConfig, rec: &PassRecord) -> Vec<Diagnostic> {
    let (arena, phases, written) = record_phases(c, rec);
    check_split(&arena, &phases, &written)
}

/// Paged-KV sharing-discipline check over the page tables of all live
/// sequences, each with its committed length (its write frontier: the next
/// row it writes is `len`). The paged engine's correctness argument ("same
/// FLOPs, different addressing") survives prefix sharing only if a page
/// reachable from two tables is one no holder will ever write and one that
/// means the same context to both, so the check proves exactly that:
///
/// * every page lies inside the pool and appears at most once per table;
/// * a page in several tables sits at the **same index** in each, under an
///   **identical run of preceding pages** (`page-alias` otherwise — two
///   sequences reading or writing one page as different context rows);
/// * a page in several tables lies **wholly below every holder's write
///   frontier** (`write-after-share` otherwise — the holder's next rows
///   would land in a page another sequence attends over).
///
/// The sweep re-proves it over a live allocator's tables after
/// share/release/resurrect churn; the negative controls seed a crossed
/// table and a write-after-share table.
pub fn check_page_tables(
    pages_total: usize,
    page_tokens: usize,
    tables: &[(&[u32], usize)],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // First holder of each page and the index it holds it at.
    let mut owner: std::collections::BTreeMap<u32, (usize, usize)> =
        std::collections::BTreeMap::new();
    let mut flag = |code: &'static str, s: usize, slot: usize, msg: String| {
        diags.push(Diagnostic::new(
            Pass::Scratch,
            code,
            format!("seq {s} table entry {slot}"),
            msg,
        ));
    };
    for (s, &(table, len)) in tables.iter().enumerate() {
        for (slot, &p) in table.iter().enumerate() {
            if p as usize >= pages_total {
                flag(
                    "page-out-of-range",
                    s,
                    slot,
                    format!("page {p} outside pool of {pages_total} pages"),
                );
                continue;
            }
            let Some(&(first, at)) = owner.get(&p) else {
                owner.insert(p, (s, slot));
                continue;
            };
            if first == s {
                flag("page-alias", s, slot, format!("page {p} mapped twice by the same sequence"));
                continue;
            }
            let (other, other_len) = tables[first];
            if at != slot || other[..at] != table[..slot] {
                flag(
                    "page-alias",
                    s,
                    slot,
                    format!(
                        "page {p} already mapped by seq {first} at entry {at} under a different \
                         run of pages: the two read one page as different context rows"
                    ),
                );
                continue;
            }
            let shared_rows = (slot + 1) * page_tokens;
            for (holder, frontier) in [(first, other_len), (s, len)] {
                if frontier < shared_rows {
                    flag(
                        "write-after-share",
                        s,
                        slot,
                        format!(
                            "page {p} is shared with seq {first} but seq {holder} has committed \
                             only {frontier} of its {shared_rows} leading rows: its next write \
                             lands in a page another sequence attends over"
                        ),
                    );
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::record_group;
    use dsi_kernels::fusion::FusionPlan;
    use dsi_model::record::Kernel;

    /// The step's fused regions as `rec`'s member-0 launches ran them,
    /// layer by layer: each launch's region of
    /// `graph::transformer_layer_ops` — the QKV region writes `qkv`,
    /// attention is the K/V calls, W_o reads `attn`, the FF1 region writes
    /// `ff` and FF2 reads it — with a region's consecutive launches (one
    /// per row of attention) taken as one. The embedding and the logits
    /// head belong to no layer.
    fn record_regions(rec: &PassRecord) -> Vec<Vec<(usize, usize)>> {
        let mut layers: Vec<Vec<(usize, usize)>> = Vec::new();
        for launch in rec.launches.iter().filter(|l| l.member == 0) {
            let region = match launch.kernel {
                Kernel::KvWrite | Kernel::Attend => (3, 5),
                Kernel::Region if launch.uses("qkv", Access::Write) => (0, 3),
                Kernel::Region if launch.uses("attn", Access::Read) => (5, 7),
                Kernel::Region if launch.uses("ff", Access::Write) => (7, 10),
                Kernel::Region if launch.uses("ff", Access::Read) => (10, 12),
                Kernel::Region => continue,
            };
            let Some(l) = launch.layer else { continue };
            if layers.len() <= l {
                layers.resize(l + 1, Vec::new());
            }
            if layers[l].last() != Some(&region) {
                layers[l].push(region);
            }
        }
        layers
    }

    /// The record is the plan: split at the step's region starts, every
    /// layer of a live pass — one member or three, f32 or INT8, seating,
    /// mixed or decoding — runs `FusionPlan::deepspeed_small_batch`'s five
    /// regions in its order.
    #[test]
    fn a_record_runs_the_small_batch_plan() {
        let plan = FusionPlan::deepspeed_small_batch().regions;
        for (tp, int8, m) in [(1, false, 1), (3, true, 4)] {
            let run = record_group(tp, int8, m);
            for (pass, rec) in &run.passes {
                assert_eq!(record_regions(rec), vec![plan.clone(); 2], "tp {tp} {pass} M={m}");
            }
        }
    }

    #[test]
    fn aliased_write_is_rejected() {
        // A kernel writing its own residual input: the classic scratch-reuse
        // bug the pass exists for.
        let arena = Arena { buffers: vec![("x".into(), 64), ("y".into(), 64)] };
        let steps = vec![
            Step::new("init", vec![], vec![SliceRef::new("x", 0, 64)]),
            Step::new(
                "bad_residual",
                vec![SliceRef::new("x", 0, 64)],
                vec![SliceRef::new("x", 0, 64)],
            ),
        ];
        let d = check_trace(&arena, &steps, &[]);
        assert!(d.iter().any(|x| x.code == "scratch-alias" && x.site == "bad_residual"), "{d:?}");
    }

    #[test]
    fn partial_overlap_is_rejected() {
        let arena = Arena { buffers: vec![("buf".into(), 100)] };
        let steps = vec![
            Step::new("init", vec![], vec![SliceRef::new("buf", 0, 100)]),
            Step::new(
                "shifted",
                vec![SliceRef::new("buf", 0, 60)],
                vec![SliceRef::new("buf", 40, 100)],
            ),
        ];
        let d = check_trace(&arena, &steps, &[]);
        assert!(d.iter().any(|x| x.code == "scratch-alias"), "{d:?}");
    }

    #[test]
    fn disjoint_reuse_is_legal() {
        let arena = Arena { buffers: vec![("buf".into(), 100)] };
        let steps = vec![
            Step::new("init", vec![], vec![SliceRef::new("buf", 0, 50)]),
            Step::new(
                "pack",
                vec![SliceRef::new("buf", 0, 50)],
                vec![SliceRef::new("buf", 50, 100)],
            ),
        ];
        let d = check_trace(&arena, &steps, &[]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn use_before_init_is_rejected() {
        let arena = Arena { buffers: vec![("a".into(), 10), ("b".into(), 10)] };
        let steps = vec![Step::new("consume", vec![SliceRef::new("a", 0, 10)], vec![SliceRef::new("b", 0, 10)])];
        let d = check_trace(&arena, &steps, &[]);
        assert!(d.iter().any(|x| x.code == "use-before-init"), "{d:?}");
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let arena = Arena { buffers: vec![("a".into(), 10)] };
        let steps = vec![Step::new("w", vec![], vec![SliceRef::new("a", 0, 11)])];
        let d = check_trace(&arena, &steps, &[]);
        assert!(d.iter().any(|x| x.code == "scratch-oob"), "{d:?}");
        let steps = vec![Step::new("w", vec![], vec![SliceRef::new("ghost", 0, 1)])];
        let d = check_trace(&arena, &steps, &[]);
        assert!(d.iter().any(|x| x.code == "scratch-oob"), "{d:?}");
    }

    #[test]
    fn disjoint_page_tables_are_clean() {
        let d = check_page_tables(8, 4, &[(&[0, 3, 6], 9), (&[1, 4], 5), (&[7], 0)]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn a_shared_front_behind_every_frontier_is_clean() {
        // Pages 0 and 1 shared by all three, page 2 by two; every holder has
        // committed past the pages it shares (frontier == page end counts).
        let d = check_page_tables(
            8,
            4,
            &[(&[0, 1, 2, 3], 13), (&[0, 1, 2, 4], 12), (&[0, 1, 5], 8)],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn crossed_and_duplicated_pages_are_flagged() {
        // Page 2 at a different index, page 6 at the same index but under a
        // different front, and an intra-table duplicate (5, 5).
        let d = check_page_tables(
            8,
            4,
            &[(&[0, 2], 8), (&[2, 3], 8), (&[1, 6], 8), (&[4, 6], 8), (&[5, 5], 8)],
        );
        assert_eq!(d.iter().filter(|x| x.code == "page-alias").count(), 3, "{d:?}");
    }

    #[test]
    fn shared_page_at_a_write_frontier_is_flagged() {
        // Seq 1 shares page 1 (rows 4..8) but has committed only 6 rows.
        let d = check_page_tables(8, 4, &[(&[0, 1, 2], 12), (&[0, 1, 5], 6)]);
        assert_eq!(d.iter().filter(|x| x.code == "write-after-share").count(), 1, "{d:?}");
        assert!(d.iter().all(|x| x.code == "write-after-share"), "{d:?}");
    }

    #[test]
    fn out_of_range_page_is_flagged() {
        let d = check_page_tables(4, 4, &[(&[0, 4], 5)]);
        assert!(d.iter().any(|x| x.code == "page-out-of-range"), "{d:?}");
    }
}
