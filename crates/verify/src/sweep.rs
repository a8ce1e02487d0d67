//! The `cargo xtask verify` entry point: run every pass over what live
//! runtimes recorded, plus negative controls proving the detectors still
//! detect.
//!
//! [`verify_all`] sweeps:
//! * **Scratch** — the arena protocol on live pass records
//!   ([`record_live`]): a tiny 2-layer model's `Engine::group` at tp 1–4
//!   (at tp 3 the head parts are uneven, at tp 4 the 16-column parts start
//!   inside a 32-column panel), f32 and INT8, each recording a seat, a
//!   mixed and a decode pass over M ∈ {1, 2, 4, 8, 16} sequences at ragged
//!   offsets ([`record_group`]); the page tables of each of those engines
//!   after every recorded pass, whose seats share a first page inside one
//!   pass; and the page tables of a churned live pool;
//! * **Collective** — each live member's barrier crossings through those
//!   passes held to the joins their records lay out, and the offload
//!   store's recorded events over a grid of layers × prefetch depths ×
//!   budgets;
//! * **Audit** — runs separately in xtask (it needs the source tree).
//!
//! [`negative_controls`] seeds one defect of each class the verifier claims
//! to catch — a live record whose W_o launch writes over its residual
//! input, one whose attention launch writes over its own query, one whose
//! member 1 starts its FF1 window a column early, two sequences mapped to
//! one KV page, a shared page at a holder's write frontier, a live member
//! crossing one join fewer than its record, an undocumented `unsafe`
//! block, and a recorded store run with a panel's first fetch removed — and
//! returns the diagnostics each produced. CI fails if any control comes
//! back clean: a verifier that stops detecting is worse than none.

use crate::collective::{check_member_joins, MemberJoins};
use crate::runtime::{check_prefetch_program, record_offload};
use crate::scratch::check_record;
use crate::Diagnostic;
use dsi_kernels::blocked::PanelWeights;
use dsi_model::fast::{Access, PackedModel, QuantizedPackedModel};
use dsi_model::paged::{Engine, PageStats};
use dsi_model::record::{Buffer, Kernel, Launch, PassRecord, Touch};
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_sim::shmem::CommConfig;
use dsi_zero::offload::StoreEvent;

/// Outcome of one sweep: how much was checked, and everything found.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Number of live pass records checked.
    pub records: usize,
    /// Number of live page-table sets checked: each recording engine's
    /// after every pass, and the churned pool's.
    pub page_tables: usize,
    /// Number of join records and offload recordings checked.
    pub collective_programs: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl SweepReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// A live group's recorded passes at one degree, weight type and sequence
/// count.
#[derive(Debug, Clone)]
pub struct GroupRun {
    pub tp: usize,
    pub int8: bool,
    /// Sequences each pass seats or advances.
    pub m: usize,
    /// Each pass's record by name: the seat, the mixed and the decode pass.
    pub passes: Vec<(&'static str, PassRecord)>,
    /// The engine's page tables after each pass, in `passes` order.
    pub tables: Vec<LiveTables>,
    /// Each member's barrier crossings through the passes, beside the
    /// joins their records lay out.
    pub joins: MemberJoins,
}

impl GroupRun {
    /// The group's degree and weight type.
    pub fn label(&self) -> String {
        format!("tp={} {}", self.tp, if self.int8 { "int8" } else { "f32" })
    }

    /// Where a diagnostic about `pass` was found.
    pub fn site(&self, pass: &str) -> String {
        format!("{} {pass} M={}", self.label(), self.m)
    }
}

/// A live engine's page tables after one pass: its pool's statistics, and
/// each occupied slot's table with its committed length
/// (`Engine::page_tables`).
#[derive(Debug, Clone)]
pub struct LiveTables {
    pub stats: PageStats,
    pub tables: Vec<(Vec<u32>, usize)>,
}

impl LiveTables {
    fn of<W: dsi_model::fast::WeightSource>(eng: &Engine<W>) -> Self {
        LiveTables { stats: eng.pool_stats(), tables: eng.page_tables().into_iter().map(|(p, len)| (p.to_vec(), len)).collect() }
    }

    /// [`check_page_tables`](crate::scratch::check_page_tables) over them.
    fn check(&self) -> Vec<Diagnostic> {
        let tables: Vec<(&[u32], usize)> = self.tables.iter().map(|(p, len)| (&p[..], *len)).collect();
        crate::scratch::check_page_tables(self.stats.pages_total, self.stats.page_tokens, &tables)
    }
}

/// What the running code did: each live group's recorded passes; per
/// offload run `(layers, depth, budget in panels)`, the store's events; and
/// a diagnostic for each offload run that could not be checked because its
/// recorder wrapped.
#[derive(Debug, Clone, Default)]
pub struct Recorded {
    pub groups: Vec<GroupRun>,
    pub offload: Vec<((usize, usize, usize), Vec<StoreEvent>)>,
    pub overflows: Vec<Diagnostic>,
}

/// Prompt `i` of a group's seat pass: 1 to 8 tokens, the longer ones
/// sharing a first page, so a later seat attaches a page an earlier seat of
/// the same pass reserved and computes from position 4.
fn prompt(i: usize) -> Vec<usize> {
    (0..1 + (5 * i + 5) % 8).map(|j| if j < 4 { 1 + j } else { (7 * i + j) % 101 }).collect()
}

/// Record a seat, a mixed and a decode pass on a live `Engine::group` of
/// `tp` members over a tiny 2-layer model (INT8 panels when `int8`), with
/// 4-token pages: the seat pass seats `m` ragged prompts (the first crosses
/// a page boundary), the mixed pass advances them while seating one more
/// that attaches their shared first page, and the decode pass advances the
/// first `m` again, each at its own offset. The engine's page tables are
/// taken after each pass.
pub fn record_group(tp: usize, int8: bool, m: usize) -> GroupRun {
    let model = GptModel::random(zoo::tiny(2), 7);
    if int8 {
        record_passes(&QuantizedPackedModel::quantize_pack(&model, 32), tp, true, m)
    } else {
        record_passes(&PackedModel::pack(&model), tp, false, m)
    }
}

fn record_passes<B: PanelWeights>(pm: &PackedModel<'_, B>, tp: usize, int8: bool, m: usize) -> GroupRun {
    let mut eng = Engine::group(pm, tp, CommConfig::default(), m + 1, 3 * (m + 1) + 2, 4);
    let prompts: Vec<Vec<usize>> = (0..m).map(prompt).collect();
    let seats: Vec<(usize, &[usize])> = prompts.iter().enumerate().map(|(i, p)| (i, &p[..])).collect();
    let newcomer = [1, 2, 3, 4, 50, 51];
    let slots: Vec<usize> = (0..m).collect();
    let mut tables = Vec::new();
    let mut record = |name, seats: &[(usize, &[usize])], advance: &[usize]| {
        let rec = eng.record_pass(seats, advance, &mut Vec::new());
        tables.push(LiveTables::of(&eng));
        (name, rec.unwrap_or_else(|e| panic!("a fault-free {name} pass: {e:?}")))
    };
    let passes = vec![record("seat", &seats, &[]), record("mixed", &[(m, &newcomer)], &slots), record("decode", &[], &slots)];
    let trace = passes.iter().map(|(_, r)| r.phases() - 1).sum();
    GroupRun { tp, int8, m, passes, tables, joins: MemberJoins { members: tp, trace, live: eng.member_joins() } }
}

/// Record every live group — tp 1–4 × f32 and INT8 × M ∈ {1, 2, 4, 8, 16} —
/// and the paged engine over an offload store for layers {2, 3, 5} ×
/// prefetch depth {0, 1, 2} × a budget of {1, 2, 3} panels, and collect
/// what each did.
pub fn record_live() -> Recorded {
    let mut r = Recorded::default();
    for tp in 1..=4 {
        for int8 in [false, true] {
            for m in [1, 2, 4, 8, 16] {
                r.groups.push(record_group(tp, int8, m));
            }
        }
    }
    for layers in [2usize, 3, 5] {
        for depth in [0usize, 1, 2] {
            for budget in [1usize, 2, 3] {
                match record_offload(layers, depth, budget) {
                    Ok(ev) => r.offload.push(((layers, depth, budget), ev)),
                    Err(d) => r.overflows.push(d),
                }
            }
        }
    }
    r
}

/// Run every pass over what the runtimes `recorded` ([`record_live`]).
pub fn verify_all(recorded: &Recorded) -> SweepReport {
    let mut report =
        SweepReport { records: 0, page_tables: 0, collective_programs: 0, diagnostics: recorded.overflows.clone() };

    // --- Pass 1: the arena protocol on every live pass record. ---
    // Between two joins each member writes only its own columns and reads
    // only what nobody writes; within a launch no write overlaps another
    // operand; nothing is read before a launch (or an earlier pass, for
    // K/V rows) wrote it; nothing lies outside the pass's arena.
    for run in &recorded.groups {
        for (pass, rec) in &run.passes {
            report.records += 1;
            report.diagnostics.extend(check_record(&zoo::tiny(2), rec).into_iter().map(|mut x| {
                x.site = format!("{}: {}", run.site(pass), x.site);
                x
            }));
        }
    }

    // --- Pass 1b: paged-KV allocator page-sharing discipline. ---
    // Every live group's page tables after each recorded pass: its seats
    // attach a first page an earlier seat of the same pass reserved. Then
    // share/release/resurrect/re-reserve churn on a real `PagePool` (the
    // continuous scheduler's allocator), then prove every live table maps
    // in-range pages and shares them only as a common front wholly behind
    // every holder's write frontier. Free-list recycling of pages that
    // still carry a prefix-index entry is exactly where an aliasing bug
    // would creep in, so the churn retires the publisher of a shared front,
    // re-attaches to it from the free list, recycles a retired family's
    // pages under a new one, and grows every survivor before checking.
    for run in &recorded.groups {
        for ((pass, _), tables) in run.passes.iter().zip(&run.tables) {
            report.page_tables += 1;
            report.diagnostics.extend(tables.check().into_iter().map(|mut x| {
                x.site = format!("{} page tables after {pass}: {}", run.label(), x.site);
                x
            }));
        }
    }
    {
        use dsi_model::paged::{PagePool, PagedSeq};
        let mut pool = PagePool::new(2, 16, 24, 4);
        let prompt = |family: usize, tail: usize| -> Vec<usize> {
            (0..9).map(|j| 10 * family + j).chain((0..tail).map(|j| 100 + tail + j)).collect()
        };
        let seat = |pool: &mut PagePool, p: &[usize]| {
            let mut s = PagedSeq::new();
            pool.reserve_prompt(&mut s, p).expect("sweep pool sized to fit");
            pool.commit_prompt(&mut s, p);
            s
        };
        let mut seqs: Vec<PagedSeq> = [(1, 1), (1, 3), (2, 2), (1, 6)]
            .iter()
            .map(|&(f, t)| seat(&mut pool, &prompt(f, t)))
            .collect();
        // The publisher of family 1's front and all of family 2 retire...
        let mut gone = seqs.remove(0);
        pool.release(&mut gone);
        let mut gone = seqs.remove(1);
        pool.release(&mut gone);
        // ...family 3 recycles family 2's pages, family 1 gains a sharer.
        seqs.push(seat(&mut pool, &prompt(3, 4)));
        seqs.push(seat(&mut pool, &prompt(1, 2)));
        for s in seqs.iter_mut() {
            pool.reserve(s, 7).expect("recycled pages cover the growth");
        }
        let tables: Vec<(&[u32], usize)> = seqs.iter().map(|s| (s.pages(), s.len())).collect();
        assert!(
            pool.stats().pages_in_use < tables.iter().map(|(t, _)| t.len()).sum(),
            "the churn must leave shared pages to check"
        );
        report.page_tables += 1;
        report.diagnostics.extend(
            crate::scratch::check_page_tables(24, pool.page_tokens(), &tables).into_iter().map(
                |mut x| {
                    x.site = format!("paged-kv pool: {}", x.site);
                    x
                },
            ),
        );
    }

    // --- Pass 2a: the split pass members' joins. ---
    // Through each live group's recorded passes at 2 to 4 members, every
    // member crossed as many barriers as the records lay out joins (a
    // one-member pass crosses none).
    for run in recorded.groups.iter().filter(|r| r.tp > 1) {
        report.collective_programs += 1;
        report.diagnostics.extend(check_member_joins(&run.joins).into_iter().map(|mut x| {
            x.site = format!("{}: {}", run.site("passes"), x.site);
            x
        }));
    }

    // --- Pass 2b: the offload store's recorded events (dsi-zero). ---
    // No run may use a panel before it is resident, evict a pinned panel,
    // or exceed the resident budget, in whatever order the prefetch
    // worker's timing produced. (The serving breaker and recovery protocol
    // are checked on the live code, in `dsi-serve`.)
    for &((layers, depth, budget), ref events) in &recorded.offload {
        report.collective_programs += 1;
        report.diagnostics.extend(check_prefetch_program(layers, budget, events).into_iter().map(
            |mut x| {
                x.site = format!("offload layers={layers} depth={depth} budget={budget}: {}", x.site);
                x
            },
        ));
    }

    report
}

/// One seeded defect and what the verifier said about it.
#[derive(Debug, Clone)]
pub struct Control {
    pub name: &'static str,
    /// The diagnostic code this defect must produce.
    pub expect_code: &'static str,
    pub diagnostics: Vec<Diagnostic>,
}

impl Control {
    /// Did the verifier catch the seeded defect?
    pub fn fired(&self) -> bool {
        self.diagnostics.iter().any(|d| d.code == self.expect_code)
    }
}

/// Seed one defect per class and collect what the passes say. The scratch,
/// join and offload controls mutate `recorded` runs ([`record_live`]).
/// Every control must fire; [`controls_all_fire`] is the CI gate.
pub fn negative_controls(recorded: &Recorded) -> Vec<Control> {
    let mut out = Vec::new();

    // Scratch: live records, each mutated in one launch. The W_o launch
    // writes over the residual stream it reads (an x/y swap gone wrong); an
    // attention launch writes its output over its own query; member 1
    // starts its FF1 window one column early, so both members write that
    // column of every row before the join.
    let solo = live_pass(recorded, 1, "decode");
    // Touch `write` of the launch at `launch` becomes a write of what its
    // touch `to` reads. A W_o launch touches attn, the residual, then its
    // output; an attention launch its query, its output, then K and V.
    let retarget = |rec: &PassRecord, launch: usize, write: usize, to: usize| {
        let mut bad = rec.clone();
        let touches = &mut bad.launches[launch].touches;
        touches[write] = Touch { access: Access::Write, ..touches[to].clone() };
        check_record(&zoo::tiny(2), &bad)
    };
    let wo = solo.and_then(|r| first_launch(r, 0, |l| l.kernel == Kernel::Region && l.uses("attn", Access::Read)).map(|i| (r, i)));
    out.push(Control {
        name: "W_o written over its residual input (live record)",
        expect_code: "scratch-alias",
        diagnostics: wo.map_or_else(Vec::new, |(r, i)| retarget(r, i, 2, 1)),
    });
    let attend = solo.and_then(|r| first_launch(r, 0, |l| l.kernel == Kernel::Attend).map(|i| (r, i)));
    out.push(Control {
        name: "attention written over its own query (live record)",
        expect_code: "scratch-alias",
        diagnostics: attend.map_or_else(Vec::new, |(r, i)| retarget(r, i, 1, 0)),
    });
    let split = live_pass(recorded, 2, "decode");
    let ff1 = split.and_then(|r| first_launch(r, 1, |l| l.kernel == Kernel::Region && l.uses("ff", Access::Write)).map(|i| (r, i)));
    let diagnostics = ff1.map_or_else(Vec::new, |(r, i)| {
        let mut bad = r.clone();
        for t in bad.launches[i].touches.iter_mut().filter(|t| t.buf == Buffer::Scratch("ff")) {
            t.cols = t.cols.start - 1..t.cols.end - 1;
        }
        check_record(&zoo::tiny(2), &bad)
    });
    out.push(Control { name: "overlapping member windows (live split record)", expect_code: "member-overlap", diagnostics });

    // Paged KV: two sequences whose page tables cross — one page at two
    // different indices, i.e. read as two different runs of context rows.
    // Prefix sharing lets tables share a common front and nothing else;
    // both streams would silently corrupt each other's KV rows, so the
    // checker must flag it before any kernel runs.
    out.push(Control {
        name: "two sequences mapped to one page (paged-KV alias)",
        expect_code: "page-alias",
        diagnostics: crate::scratch::check_page_tables(
            8,
            4,
            &[(&[0, 1, 2], 12), (&[3, 2, 4], 12)],
        ),
    });

    // Paged KV: a legitimately placed shared page that one holder has not
    // finished writing — there is no copy-on-write, so the holder's next
    // row would land in a page its sharer attends over.
    out.push(Control {
        name: "shared page at a holder's write frontier (write-after-share)",
        expect_code: "write-after-share",
        diagnostics: crate::scratch::check_page_tables(
            8,
            4,
            &[(&[0, 1, 2], 12), (&[0, 1, 5], 6)],
        ),
    });

    // Joins: a live 4-member group with member 1 crossing one join fewer
    // than its records lay out — it would read W_o inputs the other
    // members are still writing.
    let diagnostics = recorded.groups.iter().find(|r| r.tp == 4).map_or_else(Vec::new, |r| {
        let mut bad = r.joins.clone();
        bad.live[1] -= 1;
        check_member_joins(&bad)
    });
    out.push(Control { name: "split-pass member 1 skips a join", expect_code: "join-count", diagnostics });

    // Audit: an unsafe block with no SAFETY comment.
    out.push(Control {
        name: "undocumented unsafe block",
        expect_code: "missing-safety-comment",
        diagnostics: crate::audit::scan_unsafe(
            "seeded.rs",
            "fn f(x: &[f32]) -> f32 {\n    unsafe { *x.get_unchecked(0) }\n}\n",
        ),
    });

    // Prefetch protocol: a recorded store run with the first fetch of the
    // first acquired panel removed — the decode loop would compute on
    // absent weights, and the offload checker must flag the
    // use-before-resident.
    let diagnostics = recorded.offload.first().map_or_else(Vec::new, |((layers, _, budget), ev)| {
        let mut bad = ev.clone();
        if let Some(&StoreEvent::Acquire { layer }) =
            bad.iter().find(|e| matches!(e, StoreEvent::Acquire { .. }))
        {
            if let Some(i) = bad.iter().position(|e| *e == StoreEvent::Fetch { layer }) {
                bad.remove(i);
            }
        }
        check_prefetch_program(*layers, *budget, &bad)
    });
    out.push(Control {
        name: "recorded store run with a panel's first fetch removed",
        expect_code: "use-before-resident",
        diagnostics,
    });

    out
}

/// `pass` of the f32 two-sequence group at degree `tp`.
fn live_pass<'r>(recorded: &'r Recorded, tp: usize, pass: &str) -> Option<&'r PassRecord> {
    let run = recorded.groups.iter().find(|r| (r.tp, r.int8, r.m) == (tp, false, 2))?;
    run.passes.iter().find(|(p, _)| *p == pass).map(|(_, r)| r)
}

/// The index of `member`'s first launch in `rec` that `is` picks.
fn first_launch(rec: &PassRecord, member: usize, is: impl Fn(&Launch) -> bool) -> Option<usize> {
    rec.launches.iter().position(|l| l.member == member && is(l))
}

/// CI gate: every seeded defect must be detected.
pub fn controls_all_fire(controls: &[Control]) -> bool {
    controls.iter().all(Control::fired)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a page sits in more than one of `t`'s tables.
    fn shares_a_page(t: &LiveTables) -> bool {
        let mut pages: Vec<u32> = t.tables.iter().flat_map(|(p, _)| p.iter().copied()).collect();
        let n = pages.len();
        pages.sort_unstable();
        pages.dedup();
        pages.len() < n
    }

    #[test]
    fn full_sweep_is_clean() {
        let recorded = record_live();
        // Every group's mixed pass seats a prompt on its seats' first page,
        // and from M = 4 two seats of the seat pass share one.
        let shared = |g: &GroupRun| shares_a_page(&g.tables[1]) && (g.m < 4 || shares_a_page(&g.tables[0]));
        assert!(recorded.groups.iter().all(shared), "a group's passes share no page");
        let r = verify_all(&recorded);
        assert!(r.is_clean(), "sweep found defects: {:#?}", r.diagnostics);
        // tp 1-4 × f32 and INT8 × five M × seat, mixed and decode.
        assert_eq!(r.records, 4 * 2 * 5 * 3, "records = {}", r.records);
        // The same engines' tables after each pass, and the churned pool's.
        assert_eq!(r.page_tables, 4 * 2 * 5 * 3 + 1, "page tables = {}", r.page_tables);
        // The joins of tp 2-4 × f32 and INT8 × five M, and 27 offload runs.
        assert_eq!(r.collective_programs, 3 * 2 * 5 + 27, "collective programs = {}", r.collective_programs);
    }

    #[test]
    fn every_negative_control_fires() {
        let recorded = record_live();
        assert!(recorded.overflows.is_empty(), "{:?}", recorded.overflows);
        assert_eq!((recorded.groups.len(), recorded.offload.len()), (40, 27));
        let controls = negative_controls(&recorded);
        assert_eq!(controls.len(), 8);
        for c in &controls {
            assert!(c.fired(), "control `{}` produced {:?}", c.name, c.diagnostics);
        }
        assert!(controls_all_fire(&controls));
    }
}
