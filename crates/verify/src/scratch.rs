//! Pass 1 — the arena protocol on live pass records, and the page tables of
//! a live KV pool.
//!
//! The fast decode path (`dsi-model::fast`) runs every fused region out of a
//! preallocated [`Scratch`](dsi_model::fast::Scratch) arena: seven named
//! buffers whose slices are handed to kernels as read and write operands.
//! The whole point of the arena is aggressive reuse — which is exactly what
//! makes it dangerous: a plan that hands one kernel overlapping read and
//! write slices of the same buffer computes a silently wrong answer, not a
//! crash.
//!
//! [`check_record`] checks a [`PassRecord`] — every slice `fast::step`
//! handed a kernel on each member of a live pass, as
//! `paged::Engine::record_pass` logged it — as it was recorded: each
//! [`Touch`] is a row × column window of its [`Buffer`], checked against
//! the arena [`dsi_model::fast::scratch_layout`] publishes for the pass's
//! rows. Each member's layer-norm rows are its own buffer, and each
//! sequence's K and V rows are one buffer per layer, `max_seq` rows deep.
//! It flags four defect classes:
//! * `scratch-alias` — one launch's write window overlaps another operand
//!   (read or write) of the same launch on the same buffer;
//! * `use-before-init` — a launch reads a window no earlier launch (nor an
//!   earlier pass, for a sequence's K/V rows below its first position in
//!   this pass) has fully written;
//! * `scratch-oob` — a window extends past its buffer's capacity, or names
//!   a buffer the pass's arena does not have (the arena never reallocates
//!   mid-pass, so out-of-bounds here means a panic or a quiet neighbour
//!   overwrite);
//! * `member-overlap` — between two joins, a member writes a window another
//!   member reads or writes (two members' windows overlap, or a member
//!   reads another's output before the join).

use crate::{Diagnostic, Pass};
use dsi_model::config::GptConfig;
use dsi_model::fast::{scratch_layout, Access};
use dsi_model::record::{Buffer, Launch, PassRecord, Touch};
use std::collections::HashMap;
use std::ops::Range;

/// A buffer of a pass's arena: what a touch names, with the member whose
/// own rows `normed` is (0 for every shared buffer).
type Key = (Buffer, usize);

/// The buffer `member`'s touch `t` lands in.
fn key(t: &Touch, member: usize) -> Key {
    (t.buf, if t.buf == Buffer::Scratch("normed") { member } else { 0 })
}

/// Whether two ranges share an element.
fn meet(a: &Range<usize>, b: &Range<usize>) -> bool {
    a.start.max(b.start) < a.end.min(b.end)
}

/// Window `t` as element ranges of its buffer, one per row.
fn spans(t: &Touch) -> impl Iterator<Item = Range<usize>> + '_ {
    t.rows.clone().map(|r| r * t.stride + t.cols.start..r * t.stride + t.cols.end)
}

/// Whether windows `a` and `b` of one buffer share an element.
fn overlaps(a: &Touch, b: &Touch) -> bool {
    spans(a).any(|x| spans(b).any(|y| meet(&x, &y)))
}

/// `t` as a diagnostic names it.
fn show(t: &Touch) -> String {
    let buf = match t.buf {
        Buffer::Scratch(name) => format!("`{name}`"),
        Buffer::Kv { layer, seq, value } => format!("layer {layer} seq {seq} {}", if value { "V" } else { "K" }),
    };
    format!("{buf} rows {:?} cols {:?}", t.rows, t.cols)
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

/// Check one live pass record against the arena protocol: every launch in
/// phase order (each member's own launches in its order) for the
/// `scratch-oob`, `use-before-init` and `scratch-alias` classes, then, per
/// phase, every pair of members for a `member-overlap`. Returns all
/// violations.
pub fn check_record(c: &GptConfig, rec: &PassRecord) -> Vec<Diagnostic> {
    let (h, m) = (c.hidden, rec.rows.len());
    let layout = scratch_layout(c, m);
    let capacity = |buf: Buffer| match buf {
        Buffer::Scratch(name) => layout.iter().find(|(n, _)| *n == name).map(|&(_, cap)| cap),
        Buffer::Kv { layer, seq, .. } => {
            (layer < c.layers && rec.rows.iter().any(|r| r.seq == seq)).then_some(c.max_seq * h)
        }
    };
    // K/V rows earlier passes wrote: every sequence's rows below its first
    // position in this pass.
    let mut init: HashMap<Key, IntervalSet> = HashMap::new();
    for r in &rec.rows {
        let first = rec.rows.iter().filter(|q| q.seq == r.seq).map(|q| q.pos).min().unwrap_or(0);
        for layer in 0..c.layers {
            for value in [false, true] {
                init.entry((Buffer::Kv { layer, seq: r.seq, value }, 0)).or_default().insert(0, first * h);
            }
        }
    }

    let mut diags = Vec::new();
    let mut order: Vec<&Launch> = rec.launches.iter().collect();
    order.sort_by_key(|l| (l.epoch, l.member));
    let mut made = vec![0usize; rec.members];
    for launch in order {
        let t = launch.member;
        let layer = launch.layer.map_or_else(|| "embed".to_string(), |l| format!("l{l}"));
        let site = format!("member {t} launch {} ({layer} {:?})", made[t], launch.kernel);
        made[t] += 1;
        let flag = |diags: &mut Vec<Diagnostic>, code, msg| diags.push(Diagnostic::new(Pass::Scratch, code, site.clone(), msg));
        let (reads, writes): (Vec<&Touch>, Vec<&Touch>) = launch.touches.iter().partition(|x| x.access == Access::Read);
        for x in &launch.touches {
            let end = if x.rows.is_empty() || x.cols.is_empty() { 0 } else { (x.rows.end - 1) * x.stride + x.cols.end };
            match capacity(x.buf) {
                None => flag(&mut diags, "scratch-oob", format!("{} names a buffer the pass's arena lacks", show(x))),
                Some(cap) if end > cap => flag(&mut diags, "scratch-oob", format!("{} exceeds capacity {cap}", show(x))),
                Some(_) if x.access == Access::Write => {}
                Some(_) => {
                    let set = init.get(&key(x, t));
                    if !spans(x).all(|s| set.is_some_and(|set| set.covers(s.start, s.end))) {
                        flag(&mut diags, "use-before-init", format!("reads {} before any launch wrote it", show(x)));
                    }
                }
            }
        }
        // A fused kernel streams its inputs while writing its output, so a
        // write overlapping another operand reads half-updated data.
        for (i, w) in writes.iter().enumerate() {
            for other in reads.iter().chain(&writes[i + 1..]) {
                if w.buf == other.buf && overlaps(w, other) {
                    flag(&mut diags, "scratch-alias", format!("write {} overlaps {}", show(w), show(other)));
                }
            }
        }
        for w in writes {
            let set = init.entry(key(w, t)).or_default();
            for s in spans(w) {
                set.insert(s.start, s.end);
            }
        }
    }

    for e in 0..rec.phases() {
        let of = |t: usize| rec.launches.iter().filter(move |l| l.epoch == e && l.member == t).flat_map(|l| &l.touches);
        for t in 0..rec.members {
            for u in (0..rec.members).filter(|&u| u != t) {
                let clash = of(t)
                    .filter(|w| w.access == Access::Write)
                    .find_map(|w| of(u).find(|x| key(w, t) == key(x, u) && overlaps(w, x)).map(|x| (w, x)));
                if let Some((w, x)) = clash {
                    diags.push(Diagnostic::new(
                        Pass::Scratch,
                        "member-overlap",
                        format!("phase {e}"),
                        format!("member {t} writes {} while member {u} accesses {} before the join", show(w), show(x)),
                    ));
                }
            }
        }
    }
    diags
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
/// The sweep re-proves it over each recording engine's tables after every
/// pass and over a live allocator's tables after share/release/resurrect
/// churn; the negative controls seed a crossed table and a write-after-share
/// table.
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
    use dsi_model::fast::Row;
    use dsi_model::record::Kernel;
    use dsi_model::zoo;

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

    /// A one-member, one-phase record of `m` decode rows on the tiny
    /// model whose launches touch `launches` in order.
    fn hand_record(m: usize, launches: Vec<Vec<Touch>>) -> PassRecord {
        let launch = |touches| Launch { member: 0, epoch: 0, layer: Some(0), kernel: Kernel::Region, touches };
        PassRecord {
            rows: (0..m).map(|seq| Row { seq, token: 1, pos: 3 }).collect(),
            members: 1,
            joins: vec![0],
            launches: launches.into_iter().map(launch).collect(),
        }
    }

    /// A write of columns `cols` of rows `rows`, `stride` floats apart, of
    /// scratch buffer `buf`; `r` the same read.
    fn w(buf: &'static str, rows: Range<usize>, stride: usize, cols: Range<usize>) -> Touch {
        Touch { buf: Buffer::Scratch(buf), rows, stride, cols, access: Access::Write }
    }

    fn r(buf: &'static str, rows: Range<usize>, stride: usize, cols: Range<usize>) -> Touch {
        Touch { access: Access::Read, ..w(buf, rows, stride, cols) }
    }

    fn codes(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|x| x.code).collect()
    }

    #[test]
    fn aliased_write_is_rejected() {
        // A kernel writing its own residual input: the classic scratch-reuse
        // bug the pass exists for.
        let rec = hand_record(2, vec![vec![w("x", 0..2, 64, 0..64)], vec![r("x", 0..2, 64, 0..64), w("x", 0..2, 64, 0..64)]]);
        let d = check_record(&zoo::tiny(2), &rec);
        assert_eq!(codes(&d), ["scratch-alias"], "{d:?}");
        assert!(d[0].site.starts_with("member 0 launch 1"), "{d:?}");
    }

    #[test]
    fn partial_overlap_is_rejected() {
        // Row 1 of `qkv`: columns 0..120 read while 80..192 are written.
        let rec = hand_record(2, vec![vec![w("qkv", 0..2, 192, 0..192)], vec![r("qkv", 1..2, 192, 0..120), w("qkv", 1..2, 192, 80..192)]]);
        let d = check_record(&zoo::tiny(2), &rec);
        assert_eq!(codes(&d), ["scratch-alias"], "{d:?}");
    }

    #[test]
    fn disjoint_reuse_is_legal() {
        // One buffer, two disjoint column windows of the same rows: the
        // left half written, then read while the right half is written.
        let rec = hand_record(2, vec![vec![w("qkv", 0..2, 192, 0..96)], vec![r("qkv", 1..2, 192, 0..96), w("qkv", 0..2, 192, 96..192)]]);
        let d = check_record(&zoo::tiny(2), &rec);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn use_before_init_is_rejected() {
        let rec = hand_record(2, vec![vec![r("attn", 0..2, 64, 0..64), w("y", 0..2, 64, 0..64)]]);
        let d = check_record(&zoo::tiny(2), &rec);
        assert_eq!(codes(&d), ["use-before-init"], "{d:?}");
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        // A third row of a two-row pass's `x`, and a buffer the arena lacks.
        let d = check_record(&zoo::tiny(2), &hand_record(2, vec![vec![w("x", 0..3, 64, 0..64)]]));
        assert_eq!(codes(&d), ["scratch-oob"], "{d:?}");
        let d = check_record(&zoo::tiny(2), &hand_record(2, vec![vec![w("ghost", 0..1, 64, 0..64)]]));
        assert_eq!(codes(&d), ["scratch-oob"], "{d:?}");
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
