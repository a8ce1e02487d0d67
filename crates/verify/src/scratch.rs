//! Pass 2 — scratch-arena aliasing and lifetime analysis.
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
//! their declared buffer accesses — for three defect classes:
//! * `scratch-alias` — one step's write range overlaps another operand
//!   (read or write) of the same step on the same buffer;
//! * `use-before-init` — a step reads a range no earlier step (nor the
//!   assumed-initialized set) has fully written;
//! * `scratch-oob` — an access extends past the buffer's reserved capacity
//!   (the arena never reallocates mid-decode, so out-of-bounds here means a
//!   panic — or, for a hand-built plan, a quiet neighbour overwrite).
//!
//! [`step_trace`] builds the trace of one `dsi_model::fast::step` pass — the
//! one layer step every engine runs — from the model configuration, a
//! shard degree (the paper's per-GPU widths) and the pass's rows alone, against the arena layout published by
//! [`dsi_model::fast::scratch_layout`], so the verifier and the executor
//! derive buffer capacities from the same source and cannot drift
//! silently. Rows share the row-stacked scratch; each sequence owns its KV,
//! so the trace carries per-sequence KV buffers and one attention launch
//! per row.
//!
//! A pass split across members ([`split_step_trace`]) is a list of
//! [`Phase`]s — the spans between joins — each holding every member's
//! launches over strided windows ([`strided`]: rows at a stride, a column
//! window). [`check_split`] adds one defect class:
//! * `member-overlap` — within one phase, a member writes a range another
//!   member reads or writes (two members' windows overlap, or a member
//!   reads another's output before the join).

use crate::{Diagnostic, Pass};
use dsi_model::config::GptConfig;
use dsi_model::fast::{scratch_layout, Row, Share};
use std::ops::Range;
use serde::Serialize;

/// A half-open range of one named buffer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SliceRef {
    pub buf: &'static str,
    pub lo: usize,
    pub hi: usize,
}

impl SliceRef {
    pub fn new(buf: &'static str, lo: usize, hi: usize) -> Self {
        SliceRef { buf, lo, hi }
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
    pub buffers: Vec<(&'static str, usize)>,
}

impl Arena {
    fn capacity(&self, buf: &str) -> Option<usize> {
        self.buffers.iter().find(|(n, _)| *n == buf).map(|&(_, c)| c)
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
    let mut init: std::collections::BTreeMap<&'static str, IntervalSet> =
        std::collections::BTreeMap::new();
    for s in assume_init {
        init.entry(s.buf).or_default().insert(s.lo, s.hi);
    }

    let bounds = |site: &str, s: &SliceRef, diags: &mut Vec<Diagnostic>| match arena.capacity(s.buf) {
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
                let covered = init.get(r.buf).map(|s| s.covers(r.lo, r.hi)).unwrap_or(false);
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
            init.entry(w.buf).or_default().insert(w.lo, w.hi);
        }
    }
    diags
}

/// Intern a dynamically built buffer name. Trace construction needs
/// `&'static str` names; interning bounds the leak to one copy per distinct
/// name across the whole process, no matter how many traces (batched sweeps
/// build hundreds) are generated.
fn intern(s: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERN: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = INTERN.get_or_init(|| Mutex::new(HashSet::new())).lock().unwrap();
    match set.get(s.as_str()) {
        Some(&got) => got,
        None => {
            let leaked: &'static str = Box::leak(s.into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// Build the step trace of one `dsi_model::fast::step` pass over `rows`,
/// followed by the `fast::logits` head, mirroring its region sequence:
/// embed; per layer one M-row region 1, a K/V write per row, an attention
/// launch per row against that row's sequence's K/V (its query read in
/// place from the QKV scratch at stride `3a`), then M-row regions 3–5 with
/// the x/y double-buffer swap; final layer-norm + logits. The widths are
/// the model's: `a = h` attention columns and `f = 4h` FF neurons. A
/// prompt pass is rows of one `seq` at consecutive positions, a decode step
/// one row for each of m `seq`s.
///
/// The arena combines the scratch buffers of [`scratch_layout`] with one K
/// and one V tensor per layer per sequence (capacity `max_seq × a`,
/// matching `KvCache::with_capacity`) — two sequences touching one KV
/// tensor would be cross-sequence corruption. The third value is the KV
/// rows earlier passes wrote: every sequence's rows below its first
/// position in this pass.
pub fn step_trace(c: &GptConfig, rows: &[Row]) -> (Arena, Vec<Step>, Vec<SliceRef>) {
    let (h, m) = (c.hidden, rows.len());
    assert!(m > 0, "a pass has at least one row");
    let (a, f) = (h, 4 * h);
    let kv = |l: usize, seq: usize, side: &str| intern(format!("kv{l}.s{seq}.{side}"));
    let mut seqs: Vec<usize> = rows.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    let mut buffers: Vec<(&'static str, usize)> = scratch_layout(c, m).to_vec();
    let mut written = Vec::new();
    for l in 0..c.layers {
        for &seq in &seqs {
            let first = rows.iter().filter(|r| r.seq == seq).map(|r| r.pos).min().unwrap_or(0);
            for side in ["k", "v"] {
                buffers.push((kv(l, seq, side), c.max_seq * a));
                if first > 0 {
                    written.push(SliceRef::new(kv(l, seq, side), 0, first * a));
                }
            }
        }
    }
    // `width` floats per row, over all m rows.
    let all = |buf: &'static str, width: usize| SliceRef::new(buf, 0, m * width);
    let mut steps = vec![Step::new("embed", vec![], vec![all("x", h)])];
    // The x/y swap: `cur` holds the live activations, `alt` the spare.
    let (mut cur, mut alt) = ("x", "y");
    for l in 0..c.layers {
        // Region 1: layer-norm → QKV GEMM → bias, one M-row launch.
        steps.push(Step::new(
            format!("l{l}.r1.ln_qkv"),
            vec![all(cur, h)],
            vec![all("normed", h), all("qkv", 3 * a)],
        ));
        // Every row's K/V is written before any row attends.
        for (i, r) in rows.iter().enumerate() {
            let at = |side| SliceRef::new(kv(l, r.seq, side), r.pos * a, (r.pos + 1) * a);
            steps.push(Step::new(
                format!("l{l}.row{i}.kv_write"),
                vec![SliceRef::new("qkv", i * 3 * a, (i + 1) * 3 * a)],
                vec![at("k"), at("v")],
            ));
        }
        // Region 2: attention over positions `0..=pos` of the row's own
        // sequence, the query read in place from the QKV scratch.
        for (i, r) in rows.iter().enumerate() {
            let upto = |side| SliceRef::new(kv(l, r.seq, side), 0, (r.pos + 1) * a);
            steps.push(Step::new(
                format!("l{l}.row{i}.attention"),
                vec![SliceRef::new("qkv", i * 3 * a, i * 3 * a + a), upto("k"), upto("v")],
                vec![SliceRef::new("attn", i * a, (i + 1) * a)],
            ));
        }
        // Region 3: output projection + bias + residual (reads the residual
        // stream from `cur`, writes the spare).
        steps.push(Step::new(format!("l{l}.r3.attn_out"), vec![all("attn", a), all(cur, h)], vec![all(alt, h)]));
        std::mem::swap(&mut cur, &mut alt);
        // Region 4: layer-norm → FF1 GEMM → bias → GeLU.
        steps.push(Step::new(
            format!("l{l}.r4.ln_ff1"),
            vec![all(cur, h)],
            vec![all("normed", h), all("ff", f)],
        ));
        // Region 5: FF2 GEMM + bias + residual.
        steps.push(Step::new(format!("l{l}.r5.ff2"), vec![all("ff", f), all(cur, h)], vec![all(alt, h)]));
        std::mem::swap(&mut cur, &mut alt);
    }
    steps.push(Step::new("final_ln", vec![all(cur, h)], vec![all("normed", h)]));
    steps.push(Step::new("logits", vec![all("normed", h)], vec![all("logits", c.vocab)]));
    (Arena { buffers }, steps, written)
}

/// Check one [`step_trace`] against its own arena.
pub fn verify_step(c: &GptConfig, rows: &[Row]) -> Vec<Diagnostic> {
    let (arena, steps, written) = step_trace(c, rows);
    check_trace(&arena, &steps, &written)
}

/// Verify the fast decode path of one model config for both phases: a
/// `prompt_len`-row prompt pass and the single-row decode step after it.
pub fn verify_decode_plan(c: &GptConfig, prompt_len: usize) -> Vec<Diagnostic> {
    let n = prompt_len.max(1);
    let prompt: Vec<Row> = (0..n).map(|pos| Row { seq: 0, token: 0, pos }).collect();
    let mut diags = verify_step(c, &prompt);
    diags.extend(verify_step(c, &[Row { seq: 0, token: 0, pos: n }]));
    diags
}

/// Verify one batched decode step: one row for each sequence, sequence `i`
/// at its own position `offsets[i]` (ragged contexts).
pub fn verify_batched_decode_plan(c: &GptConfig, offsets: &[usize]) -> Vec<Diagnostic> {
    let rows: Vec<Row> = offsets.iter().enumerate().map(|(seq, &pos)| Row { seq, token: 0, pos }).collect();
    verify_step(c, &rows)
}

/// Seeded negative control for the batched layout: two M-row attention
/// launches whose output slices alias (row stride `h` but write width `2h`,
/// as if a row-pitch bug doubled the write extent). Packaged as a single
/// fused launch — exactly how a real batched kernel would issue it — so the
/// intra-step write/write overlap check must fire `scratch-alias`.
pub fn aliased_batched_rows_trace(h: usize) -> (Arena, Vec<Step>) {
    let m = 2usize;
    let arena = Arena {
        buffers: vec![("qkv", m * 3 * h), ("attn", m * h + h)],
    };
    let steps = vec![
        Step::new("qkv_init", vec![], vec![SliceRef::new("qkv", 0, m * 3 * h)]),
        Step::new(
            "batched_attention_rows",
            vec![SliceRef::new("qkv", 0, m * 3 * h)],
            vec![
                // Row 0 writes [0, 2h) instead of [0, h): spills into row 1.
                SliceRef::new("attn", 0, 2 * h),
                SliceRef::new("attn", h, 3 * h),
            ],
        ),
    ];
    (arena, steps)
}

/// Columns `cols` of `m` rows `ldc` apart in `buf`, from element `base`:
/// a member's strided window (one range per row).
pub fn strided(buf: &'static str, base: usize, m: usize, ldc: usize, cols: Range<usize>) -> Vec<SliceRef> {
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

/// The trace of one `dsi_model::fast::step` pass over `rows` split across
/// `members` members, then the `fast::logits` head, mirroring `step_in`:
/// each member's part of the heads and output columns comes from
/// `Share::part` — the function the step itself calls — its layer norms
/// land in its own rows (`normed.m{t}`), and a phase ends at each join
/// (after the embedding, and per layer after attention, W_o, FF1 and FF2;
/// the logits end the pass). K/V is one buffer per layer per sequence, as
/// in [`step_trace`], each member writing and attending over its heads'
/// columns of it.
pub fn split_step_trace(c: &GptConfig, members: usize, rows: &[Row]) -> (Arena, Vec<Phase>, Vec<SliceRef>) {
    let (h, m, f) = (c.hidden, rows.len(), 4 * c.hidden);
    assert!(m > 0 && (1..=c.heads).contains(&members), "a split pass has rows and at most one member per head");
    let d = h / c.heads;
    let (base, _, written) = step_trace(c, rows);
    let normed = |t: usize| intern(format!("normed.m{t}"));
    let mut buffers: Vec<(&'static str, usize)> = base.buffers.into_iter().filter(|(b, _)| *b != "normed").collect();
    buffers.extend((0..members).map(|t| (normed(t), m * h)));
    let kv = |l: usize, seq: usize, side: &str| intern(format!("kv{l}.s{seq}.{side}"));
    let share = |t: usize| Share { member: t, members };
    let all = |buf: &'static str, width: usize| SliceRef::new(buf, 0, m * width);
    let phase = |name: String, member: &dyn Fn(usize) -> Vec<Step>| Phase { name, members: (0..members).map(member).collect() };
    let mut phases = vec![phase("embed".into(), &|t| {
        vec![Step::new("embed", vec![], strided("x", 0, m, h, share(t).part(h)))]
    })];
    let (mut cur, mut alt) = ("x", "y");
    for l in 0..c.layers {
        phases.push(phase(format!("l{l}.qkv_attention"), &|t| {
            let ac = share(t).part(c.heads);
            let ac = ac.start * d..ac.end * d;
            let qkv = (0..3).flat_map(|j| strided("qkv", j * h, m, 3 * h, ac.clone())).collect();
            let mut steps = vec![Step::new("r1.ln_qkv", vec![all(cur, h)], [vec![all(normed(t), h)], qkv].concat())];
            for (i, r) in rows.iter().enumerate() {
                let at = |side| SliceRef::new(kv(l, r.seq, side), r.pos * h + ac.start, r.pos * h + ac.end);
                let read = (1..3).flat_map(|j| strided("qkv", i * 3 * h + j * h, 1, 0, ac.clone())).collect();
                steps.push(Step::new(format!("row{i}.kv_write"), read, vec![at("k"), at("v")]));
            }
            for (i, r) in rows.iter().enumerate() {
                let upto = |side| strided(kv(l, r.seq, side), 0, r.pos + 1, h, ac.clone());
                let q = strided("qkv", i * 3 * h, 1, 0, ac.clone());
                let out = strided("attn", i * h, 1, 0, ac.clone());
                steps.push(Step::new(format!("row{i}.attention"), [q, upto("k"), upto("v")].concat(), out));
            }
            steps
        }));
        phases.push(phase(format!("l{l}.attn_out"), &|t| {
            let xc = share(t).part(h);
            let reads = [vec![all("attn", h)], strided(cur, 0, m, h, xc.clone())].concat();
            vec![Step::new("r3.attn_out", reads, strided(alt, 0, m, h, xc))]
        }));
        std::mem::swap(&mut cur, &mut alt);
        phases.push(phase(format!("l{l}.ln_ff1"), &|t| {
            let writes = [vec![all(normed(t), h)], strided("ff", 0, m, f, share(t).part(f))].concat();
            vec![Step::new("r4.ln_ff1", vec![all(cur, h)], writes)]
        }));
        phases.push(phase(format!("l{l}.ff2"), &|t| {
            let xc = share(t).part(h);
            let reads = [vec![all("ff", f)], strided(cur, 0, m, h, xc.clone())].concat();
            vec![Step::new("r5.ff2", reads, strided(alt, 0, m, h, xc))]
        }));
        std::mem::swap(&mut cur, &mut alt);
    }
    phases.push(phase("logits".into(), &|t| {
        let writes = [vec![all(normed(t), h)], strided("logits", 0, m, c.vocab, share(t).part(c.vocab))].concat();
        vec![Step::new("final_ln_logits", vec![all(cur, h)], writes)]
    }));
    (Arena { buffers }, phases, written)
}

/// Check one [`split_step_trace`] against its own arena.
pub fn verify_split_step(c: &GptConfig, members: usize, rows: &[Row]) -> Vec<Diagnostic> {
    let (arena, phases, written) = split_step_trace(c, members, rows);
    check_split(&arena, &phases, &written)
}

/// Seeded negative control for split passes: the 2-member trace of a
/// 2-row decode pass whose member 1 starts its FF1 window one column early
/// (an off-by-one in a part boundary), so the two members both write that
/// column of every row before the join — `member-overlap` must fire.
pub fn overlapping_windows_trace(c: &GptConfig) -> (Arena, Vec<Phase>, Vec<SliceRef>) {
    let rows = [Row { seq: 0, token: 0, pos: 0 }, Row { seq: 1, token: 0, pos: 0 }];
    let (arena, mut phases, written) = split_step_trace(c, 2, &rows);
    let ff1 = phases.iter_mut().find(|p| p.name == "l0.ln_ff1").expect("a layer-0 FF1 phase");
    for w in ff1.members[1][0].writes.iter_mut().filter(|w| w.buf == "ff") {
        w.lo -= 1;
    }
    (arena, phases, written)
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
    use dsi_model::zoo;

    /// `m` rows of sequence `seq` at consecutive positions from `from`.
    fn pass(seq: usize, from: usize, m: usize) -> Vec<Row> {
        (from..from + m).map(|pos| Row { seq, token: 0, pos }).collect()
    }

    #[test]
    fn fast_path_trace_is_clean() {
        for (m, off) in [(1usize, 0usize), (4, 0), (1, 7), (8, 0), (3, 5)] {
            let d = verify_step(&zoo::tiny(3), &pass(0, off, m));
            assert!(d.is_empty(), "m={m} off={off}: {d:?}");
        }
    }

    #[test]
    fn verify_decode_plan_clean_for_zoo_models() {
        let d = verify_decode_plan(&zoo::tiny(2), 8);
        assert!(d.is_empty(), "{d:?}");
    }

    /// The windows a split pass's members write are disjoint and nothing
    /// is read before its join, at 2 and 4 members, over a one-row and an
    /// eight-row decode pass at ragged offsets and a prompt pass.
    #[test]
    fn split_traces_are_clean() {
        let c = zoo::tiny(2);
        let decode = |m: usize| (0..m).map(|seq| Row { seq, token: 0, pos: 1 + (seq * 3) % 13 }).collect::<Vec<_>>();
        for members in [2, 4] {
            for rows in [decode(1), decode(8), pass(0, 3, 5)] {
                let d = verify_split_step(&c, members, &rows);
                assert!(d.is_empty(), "members {members}, {} rows: {d:?}", rows.len());
            }
        }
    }

    #[test]
    fn overlapping_member_windows_are_flagged() {
        let (arena, phases, written) = overlapping_windows_trace(&zoo::tiny(1));
        let d = check_split(&arena, &phases, &written);
        assert!(!d.is_empty() && d.iter().all(|x| x.code == "member-overlap" && x.site == "l0.ln_ff1"), "{d:?}");
    }

    #[test]
    fn batched_trace_is_clean_at_ragged_offsets() {
        let c = zoo::tiny(3);
        for offsets in [vec![0], vec![3, 1], vec![5, 0, 2, 9], vec![1; 16]] {
            let d = verify_batched_decode_plan(&c, &offsets);
            assert!(d.is_empty(), "offsets={offsets:?}: {d:?}");
        }
    }

    #[test]
    fn batched_rows_share_no_kv_buffers() {
        // Two rows of the same layer must reference distinct KV buffers —
        // the trace-level statement of per-sequence cache isolation.
        let c = zoo::tiny(1);
        let (arena, _, _) = step_trace(&c, &[pass(0, 4, 1), pass(1, 7, 1)].concat());
        let kv: Vec<&str> =
            arena.buffers.iter().map(|&(n, _)| n).filter(|n| n.starts_with("kv")).collect();
        let unique: std::collections::HashSet<&str> = kv.iter().copied().collect();
        assert_eq!(kv.len(), unique.len());
        assert_eq!(kv.len(), 2 * 2); // 1 layer × 2 rows × {k, v}
    }

    #[test]
    fn aliased_batched_rows_control_fires() {
        let (arena, steps) = aliased_batched_rows_trace(8);
        let d = check_trace(&arena, &steps, &[]);
        assert!(
            d.iter().any(|x| x.code == "scratch-alias" && x.site == "batched_attention_rows"),
            "{d:?}"
        );
    }

    #[test]
    fn interner_returns_stable_pointers() {
        let a = super::intern("kv0.s0.k".to_string());
        let b = super::intern("kv0.s0.k".to_string());
        assert!(std::ptr::eq(a, b), "same name must intern to one allocation");
    }

    #[test]
    fn aliased_write_is_rejected() {
        // A kernel writing its own residual input: the classic scratch-reuse
        // bug the pass exists for.
        let arena = Arena { buffers: vec![("x", 64), ("y", 64)] };
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
        let arena = Arena { buffers: vec![("buf", 100)] };
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
        let arena = Arena { buffers: vec![("buf", 100)] };
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
        let arena = Arena { buffers: vec![("a", 10), ("b", 10)] };
        let steps = vec![Step::new("consume", vec![SliceRef::new("a", 0, 10)], vec![SliceRef::new("b", 0, 10)])];
        let d = check_trace(&arena, &steps, &[]);
        assert!(d.iter().any(|x| x.code == "use-before-init"), "{d:?}");
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let arena = Arena { buffers: vec![("a", 10)] };
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

    #[test]
    fn oversized_prompt_trace_is_flagged_oob() {
        // A prompt longer than the scratch arena was sized for: the trace
        // built with the *small* arena must flag the overflow statically.
        let c = zoo::tiny(1);
        let (small_arena, _, _) = step_trace(&c, &pass(0, 0, 2));
        let (_, big_steps, _) = step_trace(&c, &pass(0, 0, 8));
        let d = check_trace(&small_arena, &big_steps, &[]);
        assert!(d.iter().any(|x| x.code == "scratch-oob"), "{d:?}");
    }
}
