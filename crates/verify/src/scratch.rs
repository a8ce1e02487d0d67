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
//! [`decode_step_trace`] builds the trace of one `FastSession::forward`
//! call from the model configuration alone, against the arena layout
//! published by [`dsi_model::fast::scratch_layout`] — so the verifier and
//! the executor derive buffer capacities from the same source and cannot
//! drift silently. [`batched_decode_step_trace`] does the same for the
//! ragged-batch step (`dsi_model::fast::step` over M sequences): they share the
//! row-stacked scratch but each owns a private KV cache, so the trace
//! carries per-row KV buffers and per-row attention launches at ragged
//! offsets.

use crate::{Diagnostic, Pass};
use dsi_model::config::GptConfig;
use dsi_model::fast::scratch_layout;
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

/// Build the step trace of one `FastSession::forward(ids)` call with `m`
/// tokens entering at KV offset `offset`, mirroring the region sequence of
/// `dsi-model::fast` (embed → per-layer regions 1–5 with the x/y
/// double-buffer swap → final layer-norm + logits). Attention reads its
/// query rows *in place* from the QKV scratch at stride `3h` — there is no
/// gather step and no `m == 1` special case, matching
/// `fused::attention_seq_into`.
///
/// The arena combines the scratch buffers of [`scratch_layout`] with the
/// per-layer KV tensors (capacity `max_seq × hidden` each, matching
/// `KvCache::with_capacity`).
pub fn decode_step_trace(c: &GptConfig, m: usize, offset: usize) -> (Arena, Vec<Step>) {
    let h = c.hidden;
    let mut buffers: Vec<(&'static str, usize)> = scratch_layout(c, m).to_vec();
    // KV tensors: one K and one V per layer.
    for l in 0..c.layers {
        buffers.push((intern(format!("kv{l}.k")), c.max_seq * h));
        buffers.push((intern(format!("kv{l}.v")), c.max_seq * h));
    }
    let kv_name = |l: usize, side: &str| intern(format!("kv{l}.{side}"));

    let mut steps = Vec::new();
    // Embedding writes the first activation buffer.
    steps.push(Step::new(
        "embed",
        vec![],
        vec![SliceRef::new("x", 0, m * h)],
    ));
    // The x/y swap: `cur` holds the live activations, `alt` the spare.
    let (mut cur, mut alt) = ("x", "y");
    for l in 0..c.layers {
        let kn = kv_name(l, "k");
        let vn = kv_name(l, "v");
        // Region 1: layer-norm → QKV GEMM → bias. `normed` holds all m
        // normalized rows (the M-row GEMM consumes them in one launch).
        steps.push(Step::new(
            format!("l{l}.r1.ln_qkv"),
            vec![SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new("normed", 0, m * h), SliceRef::new("qkv", 0, m * 3 * h)],
        ));
        // KV append in place at the context offset.
        steps.push(Step::new(
            format!("l{l}.kv_append"),
            vec![SliceRef::new("qkv", 0, m * 3 * h)],
            vec![
                SliceRef::new(kn, offset * h, (offset + m) * h),
                SliceRef::new(vn, offset * h, (offset + m) * h),
            ],
        ));
        // Region 2: attention over the cache, query rows read in place from
        // the QKV scratch (stride 3h).
        steps.push(Step::new(
            format!("l{l}.r2.attention"),
            vec![
                SliceRef::new("qkv", 0, m * 3 * h),
                SliceRef::new(kn, 0, (offset + m) * h),
                SliceRef::new(vn, 0, (offset + m) * h),
            ],
            vec![SliceRef::new("attn", 0, m * h)],
        ));
        // Region 3: output projection + bias + residual (reads the residual
        // stream from `cur`, writes the spare).
        steps.push(Step::new(
            format!("l{l}.r3.attn_out"),
            vec![SliceRef::new("attn", 0, m * h), SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new(alt, 0, m * h)],
        ));
        std::mem::swap(&mut cur, &mut alt);
        // Region 4: layer-norm → FF1 GEMM → bias → GeLU.
        steps.push(Step::new(
            format!("l{l}.r4.ln_ff1"),
            vec![SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new("normed", 0, m * h), SliceRef::new("ff", 0, m * 4 * h)],
        ));
        // Region 5: FF2 GEMM + bias + residual.
        steps.push(Step::new(
            format!("l{l}.r5.ff2"),
            vec![SliceRef::new("ff", 0, m * 4 * h), SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new(alt, 0, m * h)],
        ));
        std::mem::swap(&mut cur, &mut alt);
    }
    steps.push(Step::new(
        "final_ln",
        vec![SliceRef::new(cur, 0, m * h)],
        vec![SliceRef::new("normed", 0, m * h)],
    ));
    steps.push(Step::new(
        "logits",
        vec![SliceRef::new("normed", 0, m * h)],
        vec![SliceRef::new("logits", 0, m * c.vocab)],
    ));
    (Arena { buffers }, steps)
}

/// Build the step trace of one batched decode step
/// (`dsi_model::fast::step`) over `offsets.len()` sequences, sequence
/// `i` entering at its own KV offset `offsets[i]` (ragged contexts). The
/// dense regions (1, 3, 4, 5 and the final layer-norm + logits) are single
/// M-row launches over the shared row-stacked scratch; the KV append and
/// attention are per-row launches against that row's *private* KV buffers
/// (`kv{l}.r{i}.k/v`), which is exactly the isolation the batched path must
/// preserve — two rows touching the same KV tensor would be cross-sequence
/// corruption.
pub fn batched_decode_step_trace(c: &GptConfig, offsets: &[usize]) -> (Arena, Vec<Step>) {
    let h = c.hidden;
    let m = offsets.len();
    assert!(m > 0, "batched trace needs at least one row");
    let mut buffers: Vec<(&'static str, usize)> = scratch_layout(c, m).to_vec();
    for l in 0..c.layers {
        for i in 0..m {
            buffers.push((intern(format!("kv{l}.r{i}.k")), c.max_seq * h));
            buffers.push((intern(format!("kv{l}.r{i}.v")), c.max_seq * h));
        }
    }
    let kv_name = |l: usize, i: usize, side: &str| intern(format!("kv{l}.r{i}.{side}"));

    let mut steps = Vec::new();
    steps.push(Step::new(
        "embed",
        vec![],
        vec![SliceRef::new("x", 0, m * h)],
    ));
    let (mut cur, mut alt) = ("x", "y");
    for l in 0..c.layers {
        steps.push(Step::new(
            format!("l{l}.r1.ln_qkv"),
            vec![SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new("normed", 0, m * h), SliceRef::new("qkv", 0, m * 3 * h)],
        ));
        for (i, &off) in offsets.iter().enumerate() {
            let kn = kv_name(l, i, "k");
            let vn = kv_name(l, i, "v");
            steps.push(Step::new(
                format!("l{l}.row{i}.kv_append"),
                vec![SliceRef::new("qkv", i * 3 * h, (i + 1) * 3 * h)],
                vec![
                    SliceRef::new(kn, off * h, (off + 1) * h),
                    SliceRef::new(vn, off * h, (off + 1) * h),
                ],
            ));
            steps.push(Step::new(
                format!("l{l}.row{i}.attention"),
                vec![
                    SliceRef::new("qkv", i * 3 * h, i * 3 * h + h),
                    SliceRef::new(kn, 0, (off + 1) * h),
                    SliceRef::new(vn, 0, (off + 1) * h),
                ],
                vec![SliceRef::new("attn", i * h, (i + 1) * h)],
            ));
        }
        steps.push(Step::new(
            format!("l{l}.r3.attn_out"),
            vec![SliceRef::new("attn", 0, m * h), SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new(alt, 0, m * h)],
        ));
        std::mem::swap(&mut cur, &mut alt);
        steps.push(Step::new(
            format!("l{l}.r4.ln_ff1"),
            vec![SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new("normed", 0, m * h), SliceRef::new("ff", 0, m * 4 * h)],
        ));
        steps.push(Step::new(
            format!("l{l}.r5.ff2"),
            vec![SliceRef::new("ff", 0, m * 4 * h), SliceRef::new(cur, 0, m * h)],
            vec![SliceRef::new(alt, 0, m * h)],
        ));
        std::mem::swap(&mut cur, &mut alt);
    }
    steps.push(Step::new(
        "final_ln",
        vec![SliceRef::new(cur, 0, m * h)],
        vec![SliceRef::new("normed", 0, m * h)],
    ));
    steps.push(Step::new(
        "logits",
        vec![SliceRef::new("normed", 0, m * h)],
        vec![SliceRef::new("logits", 0, m * c.vocab)],
    ));
    (Arena { buffers }, steps)
}

/// Assumed-initialized KV rows for a trace entering at `offset > 0`: rows
/// `0..offset` of every layer's K and V were appended by earlier calls.
pub fn kv_preinit(arena: &Arena, c: &GptConfig, offset: usize) -> Vec<SliceRef> {
    if offset == 0 {
        return Vec::new();
    }
    arena
        .buffers
        .iter()
        .filter(|(n, _)| n.starts_with("kv"))
        .map(|&(n, _)| SliceRef::new(n, 0, offset * c.hidden))
        .collect()
}

/// Assumed-initialized KV rows for a batched trace: row `i`'s private K/V
/// buffers hold `0..offsets[i]` context rows from earlier steps.
pub fn batched_kv_preinit(c: &GptConfig, offsets: &[usize]) -> Vec<SliceRef> {
    let mut pre = Vec::new();
    for l in 0..c.layers {
        for (i, &off) in offsets.iter().enumerate() {
            if off == 0 {
                continue;
            }
            pre.push(SliceRef::new(intern(format!("kv{l}.r{i}.k")), 0, off * c.hidden));
            pre.push(SliceRef::new(intern(format!("kv{l}.r{i}.v")), 0, off * c.hidden));
        }
    }
    pre
}

/// Verify the fast decode path of one model config for both phases:
/// multi-row prompt ingestion and steady-state single-token decode.
pub fn verify_decode_plan(c: &GptConfig, prompt_len: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let (arena, steps) = decode_step_trace(c, prompt_len.max(1), 0);
    diags.extend(check_trace(&arena, &steps, &[]));
    let (arena, steps) = decode_step_trace(c, 1, prompt_len);
    let pre = kv_preinit(&arena, c, prompt_len);
    diags.extend(check_trace(&arena, &steps, &pre));
    diags
}

/// Verify one batched decode step at ragged per-row KV offsets.
pub fn verify_batched_decode_plan(c: &GptConfig, offsets: &[usize]) -> Vec<Diagnostic> {
    let (arena, steps) = batched_decode_step_trace(c, offsets);
    let pre = batched_kv_preinit(c, offsets);
    check_trace(&arena, &steps, &pre)
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

    #[test]
    fn fast_path_trace_is_clean() {
        for (m, off) in [(1usize, 0usize), (4, 0), (1, 7), (8, 0)] {
            let c = zoo::tiny(3);
            let (arena, steps) = decode_step_trace(&c, m, off);
            let pre = kv_preinit(&arena, &c, off);
            let d = check_trace(&arena, &steps, &pre);
            assert!(d.is_empty(), "m={m} off={off}: {d:?}");
        }
    }

    #[test]
    fn verify_decode_plan_clean_for_zoo_models() {
        let d = verify_decode_plan(&zoo::tiny(2), 8);
        assert!(d.is_empty(), "{d:?}");
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
        let (arena, _) = batched_decode_step_trace(&c, &[4, 7]);
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
        let a = super::intern("kv0.r0.k".to_string());
        let b = super::intern("kv0.r0.k".to_string());
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
        let (small_arena, _) = decode_step_trace(&c, 2, 0);
        let (_, big_steps) = decode_step_trace(&c, 8, 0);
        let d = check_trace(&small_arena, &big_steps, &[]);
        assert!(d.iter().any(|x| x.code == "scratch-oob"), "{d:?}");
    }
}
