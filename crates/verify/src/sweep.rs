//! The `cargo xtask verify` entry point: run every static pass over every
//! configuration the paper-reproduction binaries actually execute, plus
//! negative controls proving the detectors still detect.
//!
//! [`verify_all`] sweeps:
//! * **IR** — every Table I model × {prompt, generation} phase × batch sizes
//!   × the model's TP degrees (1, its Fig. 6 degree, its Fig. 8 degree) ×
//!   all four canonical fusion plans;
//! * **Scratch** — the fast decode path of each dense model (prompt
//!   ingestion + steady-state decode against the real arena layout), plus
//!   the batched ragged-offset step at every dispatcher batch size
//!   M ∈ {1, 2, 4, 8, 16}, and that step split across 2 and 4 pass members
//!   at M ∈ {1, 8} (disjoint member windows between joins);
//! * **Collective** — task-graph structure for the Fig. 8 pipeline
//!   mappings;
//! * **Live** — what the running code did ([`record_live`]): each split-pass
//!   member's barrier crossings at 2 and 4 members — what a tensor-parallel
//!   group executes — held to the joins the split trace lays out, and the
//!   offload store's recorded events over a grid of layers × prefetch
//!   depths × budgets;
//! * **Audit** — runs separately in xtask (it needs the source tree).
//!
//! [`negative_controls`] seeds one defect of each class the verifier claims
//! to catch — a dtype-mixed region, a corrupted GEMM contraction, an illegal
//! fusion boundary, an aliased scratch write, a pair of aliasing M-row
//! attention regions in the batched layout, two split-pass members whose
//! column windows overlap, two sequences mapped to one KV page in the paged
//! allocator, a live split-pass member crossing one join fewer than the
//! trace, a cyclic task graph, an undocumented `unsafe` block, and a
//! recorded store run with a panel's first fetch removed — and returns
//! the diagnostics each produced. CI fails if any control comes back clean:
//! a verifier that stops detecting is worse than none.

use crate::collective::{check_member_joins, check_pipeline, find_cycle, record_member_joins, DiGraph, MemberJoins};
use crate::ir::verify_layer_plan;
use crate::runtime::{check_prefetch_program, record_offload};
use crate::scratch::{check_trace, Arena, SliceRef, Step};
use crate::{Diagnostic, Pass};
use dsi_kernels::fusion::FusionPlan;
use dsi_kernels::graph::{transformer_layer_ops_tp, OpKind};
use dsi_model::fast::Row;
use dsi_model::zoo;
use dsi_parallel::pipeline::{PipelineSchedule, PipelineSpec};
use dsi_sim::hw::DType;
use dsi_zero::offload::StoreEvent;

/// Outcome of one sweep: how much was checked, and everything found.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Number of (model, phase, batch, tp, plan) IR combinations verified.
    pub ir_plans: usize,
    /// Number of decode traces analysed.
    pub scratch_traces: usize,
    /// Number of join records, pipeline graphs and offload recordings
    /// checked.
    pub collective_programs: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl SweepReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// What the running code did: per member count, the split trace's joins
/// and each live member's crossings; per offload run `(layers, depth,
/// budget in panels)`, the store's events; and a diagnostic for each
/// offload run that could not be checked because its recorder wrapped.
#[derive(Debug, Clone, Default)]
pub struct Recorded {
    pub members: Vec<MemberJoins>,
    pub offload: Vec<((usize, usize, usize), Vec<StoreEvent>)>,
    pub overflows: Vec<Diagnostic>,
}

/// Trace and run split passes on 2 and 4 members, and the paged engine
/// over an offload store for layers {2, 3, 5} × prefetch depth {0, 1, 2} ×
/// a budget of {1, 2, 3} panels, and collect what each did.
pub fn record_live() -> Recorded {
    let mut r = Recorded { members: [2, 4].map(record_member_joins).into(), ..Recorded::default() };
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

fn canonical_plans() -> Vec<(&'static str, FusionPlan)> {
    vec![
        ("unfused", FusionPlan::unfused(12)),
        ("deepspeed_small_batch", FusionPlan::deepspeed_small_batch()),
        ("deepspeed_large_batch", FusionPlan::deepspeed_large_batch()),
        ("faster_transformer", FusionPlan::faster_transformer()),
    ]
}

/// TP degrees this entry is actually run at by the figure binaries.
fn tp_degrees(e: &zoo::DenseEntry) -> Vec<usize> {
    let mut tps = vec![1];
    if e.fig6_tp > 1 {
        tps.push(e.fig6_tp);
    }
    if let Some((tp, _)) = e.fig8 {
        if !tps.contains(&tp) {
            tps.push(tp);
        }
    }
    tps.retain(|&tp| e.config.hidden.is_multiple_of(tp) && e.config.heads.is_multiple_of(tp));
    tps
}

/// Pipeline spec used for the Fig. 8 structural checks (representative
/// timings; the structure, not the numbers, is what is verified).
fn fig8_spec(pp: usize) -> PipelineSpec {
    PipelineSpec {
        stages: pp,
        prompt_microbatches: 2 * pp,
        gen_microbatches: pp,
        gen_tokens: 8,
        stage_prompt_time_full: 40e-3,
        stage_gen_time: 2e-3,
        microbatch_overhead: 0.1e-3,
        p2p_time: 0.05e-3,
    }
}

/// Run every static pass over every zoo model × figure configuration, and
/// over what the runtimes `recorded` ([`record_live`]).
pub fn verify_all(recorded: &Recorded) -> SweepReport {
    let mut report = SweepReport {
        ir_plans: 0,
        scratch_traces: 0,
        collective_programs: 0,
        diagnostics: recorded.overflows.clone(),
    };
    let plans = canonical_plans();
    let prompt = 128usize;
    let gen_ctx = prompt + 8;

    for e in zoo::table1() {
        let c = &e.config;
        let site = |what: &str| format!("{} {what}", c.name);

        // --- Pass 1: IR over both phases × batches × TP × plans. ---
        for tp in tp_degrees(&e) {
            for batch in [1usize, 8, 32] {
                // (t_new, t_ctx): prompt ingestion and steady-state decode.
                for (t_new, t_ctx) in [(prompt, prompt), (1, gen_ctx)] {
                    let ops = transformer_layer_ops_tp(
                        batch, t_new, t_ctx, c.hidden, c.heads, tp, DType::Fp16,
                    );
                    for (pname, plan) in &plans {
                        let d = verify_layer_plan(&ops, plan, None);
                        report.ir_plans += 1;
                        report.diagnostics.extend(d.into_iter().map(|mut x| {
                            x.site = format!(
                                "{} tp={tp} b={batch} t=({t_new},{t_ctx}) plan={pname}: {}",
                                c.name, x.site
                            );
                            x
                        }));
                    }
                }
            }
        }

        // --- Pass 2: scratch arena of the fast decode path. ---
        // Trace a 16-row prompt pass (each row attending over its causal
        // prefix) and the decode step after it, over the whole model (a
        // TP group runs the whole model's pass split; pass 2c checks the
        // split): cheap enough to run for the 530B layer count. Then the
        // serving scheduler's mixed pass: the prompt rows of two sequences
        // at different offsets (a newcomer, and a replay past an attached
        // front) beside the decode rows of three others.
        let mixed: Vec<Row> = [(0, 0..5), (1, 8..12)]
            .into_iter()
            .flat_map(|(seq, ps)| ps.map(move |pos| Row { seq, token: 0, pos }))
            .chain((2..5).map(|seq| Row { seq, token: 0, pos: 3 * seq }))
            .collect();
        let mut d = crate::scratch::verify_decode_plan(c, 16);
        d.extend(crate::scratch::verify_step(c, &mixed));
        report.scratch_traces += 3; // prompt + decode + mixed trace
        report.diagnostics.extend(d.into_iter().map(|mut x| {
            x.site = format!("{}: {}", site("decode"), x.site);
            x
        }));

        // --- Pass 2b: batched ragged-offset decode (an M-row `fast::step`). ---
        // Each batch size the M-row dispatcher distinguishes, at staggered
        // per-row offsets so no two rows are at the same context length.
        for m in [1usize, 2, 4, 8, 16] {
            let offsets: Vec<usize> = (0..m).map(|i| 1 + (i * 3) % 13).collect();
            let d = crate::scratch::verify_batched_decode_plan(c, &offsets);
            report.scratch_traces += 1;
            report.diagnostics.extend(d.into_iter().map(|mut x| {
                x.site = format!("{}: {}", site(&format!("batched m={m}")), x.site);
                x
            }));
        }

        // --- Pass 2c: the one step split across pass members. ---
        // Two and four members (at most one per head), over a one-row and
        // an eight-row decode pass at staggered offsets: every member's
        // windows disjoint from every other member's between joins.
        for members in [2usize, 4].into_iter().filter(|&n| n <= c.heads) {
            for m in [1usize, 8] {
                let rows: Vec<Row> = (0..m).map(|seq| Row { seq, token: 0, pos: 1 + (seq * 3) % 13 }).collect();
                let d = crate::scratch::verify_split_step(c, members, &rows);
                report.scratch_traces += 1;
                report.diagnostics.extend(d.into_iter().map(|mut x| {
                    x.site = format!("{}: {}", site(&format!("split members={members} m={m}")), x.site);
                    x
                }));
            }
        }

        // --- Pass 3a: Fig. 8 pipeline task-graph structure. ---
        if let Some((_, pp)) = e.fig8 {
            let spec = fig8_spec(pp);
            for sched in [PipelineSchedule::TrainingStyle, PipelineSchedule::InferenceQueue] {
                report.collective_programs += 1;
                report.diagnostics.extend(check_pipeline(&spec, sched));
            }
        }
    }

    // --- Pass 2d: paged-KV allocator page-sharing discipline. ---
    // Share/release/resurrect/re-reserve churn on a real `PagePool` (the
    // continuous scheduler's allocator), then prove every live table maps
    // in-range pages and shares them only as a common front wholly behind
    // every holder's write frontier. Free-list recycling of pages that
    // still carry a prefix-index entry is exactly where an aliasing bug
    // would creep in, so the churn retires the publisher of a shared front,
    // re-attaches to it from the free list, recycles a retired family's
    // pages under a new one, and grows every survivor before checking.
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
        report.scratch_traces += 1;
        report.diagnostics.extend(
            crate::scratch::check_page_tables(24, pool.page_tokens(), &tables).into_iter().map(
                |mut x| {
                    x.site = format!("paged-kv pool: {}", x.site);
                    x
                },
            ),
        );
    }

    // --- Pass 3b: the split pass members' joins. ---
    // Through a seat, a mixed and a decode pass at 2 and 4 members (a
    // tensor-parallel group's degrees), every live member crossed as many
    // joins as the split trace lays out.
    for joins in &recorded.members {
        report.collective_programs += 1;
        report.diagnostics.extend(check_member_joins(joins));
    }

    // --- Pass 3c: the offload store's recorded events (dsi-zero). ---
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

/// Seed one illegal plan per defect class and collect what the passes say.
/// The join and offload controls mutate `recorded` runs ([`record_live`]).
/// Every control must fire; [`controls_all_fire`] is the CI gate.
pub fn negative_controls(recorded: &Recorded) -> Vec<Control> {
    let mut out = Vec::new();
    let base = || transformer_layer_ops_tp(2, 4, 4, 64, 4, 1, DType::Fp16);

    // IR: corrupted FF2 contraction width (a bad TP shard).
    let mut ops = base();
    if let OpKind::Gemm { k, .. } = &mut ops[10].kind {
        *k += 8;
    }
    out.push(Control {
        name: "inner-dim mismatch (corrupted ff2 k)",
        expect_code: "inner-dim-mismatch",
        diagnostics: verify_layer_plan(&ops, &FusionPlan::unfused(12), None),
    });

    // IR: INT8 and FP16 GEMMs fused into one region.
    let mut ops = base();
    if let OpKind::Gemm { weight_dtype, .. } = &mut ops[8].kind {
        *weight_dtype = DType::Int8; // ff1 INT8, ff2 stays FP16
    }
    let ff_region = FusionPlan {
        regions: vec![(0, 3), (3, 5), (5, 7), (7, 12)],
    };
    out.push(Control {
        name: "dtype mix inside fused region (int8 ff1 + fp16 ff2)",
        expect_code: "dtype-mix",
        diagnostics: verify_layer_plan(&ops, &ff_region, None),
    });

    // IR: fusing attention (Head-tiled) with the output GEMM (Token/OutputCol).
    let bad_fuse = FusionPlan {
        regions: vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (6, 12)],
    };
    out.push(Control {
        name: "no shared tileable axis (attention+attn_out_gemm)",
        expect_code: "no-shared-axis",
        diagnostics: verify_layer_plan(&base(), &bad_fuse, None),
    });

    // Scratch: a kernel writing over its own residual input.
    let arena = Arena { buffers: vec![("x", 64), ("y", 64)] };
    let steps = vec![
        Step::new("init", vec![], vec![SliceRef::new("x", 0, 64)]),
        Step::new(
            "residual_in_place",
            vec![SliceRef::new("x", 0, 64)],
            vec![SliceRef::new("x", 0, 64)],
        ),
    ];
    out.push(Control {
        name: "aliased scratch write (in-place residual)",
        expect_code: "scratch-alias",
        diagnostics: check_trace(&arena, &steps, &[]),
    });

    // Scratch, batched layout: two M-row attention launches whose output
    // rows alias (row pitch h, write width 2h) — the cross-row overwrite
    // class the batched sweep exists to catch.
    let (arena, steps) = crate::scratch::aliased_batched_rows_trace(16);
    out.push(Control {
        name: "aliased M-row regions (attention rows overlap)",
        expect_code: "scratch-alias",
        diagnostics: check_trace(&arena, &steps, &[]),
    });

    // Scratch, split pass: two members whose FF1 windows overlap by one
    // column — both write it before the join, the race the split sweep
    // exists to catch.
    let (arena, phases, written) = crate::scratch::overlapping_windows_trace(&zoo::tiny(1));
    out.push(Control {
        name: "overlapping member windows (split pass)",
        expect_code: "member-overlap",
        diagnostics: crate::scratch::check_split(&arena, &phases, &written),
    });

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

    // Joins: the live 4-member record with member 1 crossing one join
    // fewer than the trace — it would read W_o inputs the other members
    // are still writing.
    let diagnostics = recorded.members.iter().find(|j| j.members == 4).map_or_else(Vec::new, |j| {
        let mut bad = j.clone();
        bad.live[1] -= 1;
        check_member_joins(&bad)
    });
    out.push(Control { name: "split-pass member 1 skips a join", expect_code: "join-count", diagnostics });

    // Pipeline: a cyclic dependency graph.
    let cyclic = DiGraph { n: 4, edges: vec![(0, 1), (1, 2), (2, 0), (2, 3)] };
    let diag = find_cycle(&cyclic)
        .map(|cyc| {
            vec![Diagnostic::new(
                Pass::Collective,
                "pipeline-cycle",
                "seeded digraph",
                format!("dependency cycle through tasks {cyc:?}"),
            )]
        })
        .unwrap_or_default();
    out.push(Control {
        name: "cyclic pipeline task graph",
        expect_code: "pipeline-cycle",
        diagnostics: diag,
    });

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

/// CI gate: every seeded defect must be detected.
pub fn controls_all_fire(controls: &[Control]) -> bool {
    controls.iter().all(Control::fired)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_is_clean() {
        let r = verify_all(&record_live());
        assert!(r.is_clean(), "sweep found defects: {:#?}", r.diagnostics);
        // Sanity: the sweep actually covered things.
        assert!(r.ir_plans >= 9 * 2 * 3 * 4, "ir_plans = {}", r.ir_plans);
        // Per Table-I model: prompt + decode + 5 batched M sweeps.
        assert!(r.scratch_traces >= 9 * 7, "scratch_traces = {}", r.scratch_traces);
        assert!(r.collective_programs >= 10);
    }

    #[test]
    fn every_negative_control_fires() {
        let recorded = record_live();
        assert!(recorded.overflows.is_empty(), "{:?}", recorded.overflows);
        assert_eq!((recorded.members.len(), recorded.offload.len()), (2, 27));
        let controls = negative_controls(&recorded);
        assert_eq!(controls.len(), 12);
        for c in &controls {
            assert!(c.fired(), "control `{}` produced {:?}", c.name, c.diagnostics);
        }
        assert!(controls_all_fire(&controls));
    }
}
