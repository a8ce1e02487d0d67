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
//!   M ∈ {1, 2, 4, 8, 16};
//! * **Collective** — tensor-parallel all-reduce programs for each Fig. 6
//!   mapping, the executed TP engine's barrier-fenced shared-memory
//!   all-reduce schedule at its bench degrees, pipeline p2p programs and
//!   task-graph structure for the Fig. 8 mappings, expert-parallel
//!   all-to-all programs for each Table II model;
//! * **Audit** — runs separately in xtask (it needs the source tree).
//!
//! [`negative_controls`] seeds one defect of each class the verifier claims
//! to catch — a dtype-mixed region, a corrupted GEMM contraction, an illegal
//! fusion boundary, an aliased scratch write, a pair of aliasing M-row
//! attention regions in the batched layout, two sequences mapped to one KV
//! page in the paged allocator, a rank skipping an all-reduce,
//! a rank skipping a shared-memory barrier crossing, a cyclic task graph,
//! an undocumented `unsafe` block, a rank exiting mid-schedule (survivors
//! must abort typed), a recv stranded by a dead sender, a survivor
//! deadlock that an unrelated exit must not mask, and a fault recovery
//! that replays a resident without releasing its poisoned pages — and
//! returns the
//! diagnostics each produced. CI fails if any control comes back clean: a
//! verifier that stops detecting is worse than none.

use crate::collective::{
    check_exit_safety, check_pipeline, check_programs, ep_alltoall_programs, find_cycle,
    pp_p2p_programs, simulate_rendezvous, simulate_rendezvous_with_exits, tp_allreduce_programs,
    tp_exec_allreduce_programs, DiGraph, ExitPlan, Op, Programs,
};
use crate::ir::verify_layer_plan;
use crate::scratch::{check_trace, Arena, SliceRef, Step};
use crate::{Diagnostic, Pass};
use dsi_kernels::fusion::FusionPlan;
use dsi_kernels::graph::{transformer_layer_ops_tp, OpKind};
use dsi_model::zoo;
use dsi_parallel::mapping::Mapping3D;
use dsi_parallel::pipeline::{PipelineSchedule, PipelineSpec};
use dsi_sim::hw::DType;

/// Outcome of one sweep: how much was checked, and everything found.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Number of (model, phase, batch, tp, plan) IR combinations verified.
    pub ir_plans: usize,
    /// Number of decode traces analysed.
    pub scratch_traces: usize,
    /// Number of collective program sets / pipeline graphs checked.
    pub collective_programs: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl SweepReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
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

/// Run every static pass over every zoo model × figure configuration.
pub fn verify_all() -> SweepReport {
    let mut report = SweepReport {
        ir_plans: 0,
        scratch_traces: 0,
        collective_programs: 0,
        diagnostics: Vec::new(),
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
        // Trace a 16-token prompt: long enough to exercise the strided
        // multi-row attention, cheap enough to run for the 530B layer count.
        let d = crate::scratch::verify_decode_plan(c, 16);
        report.scratch_traces += 2; // prompt + decode trace
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

        // --- Pass 3a: Fig. 6 tensor-parallel all-reduce programs. ---
        if e.fig6_tp > 1 {
            let m = Mapping3D::new(1, 1, e.fig6_tp);
            let (groups, progs) = tp_allreduce_programs(&m, c.layers, 2 * c.hidden as u64);
            report.collective_programs += 1;
            report.diagnostics.extend(check_programs(&groups, &progs));
        }

        // --- Pass 3b: Fig. 8 pipeline structure + p2p rendezvous. ---
        if let Some((tp, pp)) = e.fig8 {
            let spec = fig8_spec(pp);
            for sched in [PipelineSchedule::TrainingStyle, PipelineSchedule::InferenceQueue] {
                report.collective_programs += 1;
                report.diagnostics.extend(check_pipeline(&spec, sched));
            }
            let m = Mapping3D::new(1, pp, tp);
            let progs = pp_p2p_programs(&m, spec.prompt_microbatches, 2 * c.hidden as u64);
            report.collective_programs += 1;
            report.diagnostics.extend(simulate_rendezvous(&progs));
        }
    }

    // --- Pass 2c: paged-KV allocator page-sharing discipline. ---
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

    // --- Pass 3c: executed TP engine's barrier-fenced shmem programs. ---
    // The threaded engine (dsi-parallel::tp_exec) runs at the bench degrees
    // {1, 2, 4}; verify its per-step barrier/reduce-scatter/all-gather
    // schedule is deadlock-free at each.
    for world in [1usize, 2, 4] {
        let (groups, progs) = tp_exec_allreduce_programs(world, 4, 4 * 256);
        report.collective_programs += 1;
        report.diagnostics.extend(check_programs(&groups, &progs).into_iter().map(|mut x| {
            x.site = format!("tp_exec world={world}: {}", x.site);
            x
        }));
    }

    // --- Pass 3c': serving-runtime lock model (dsi-serve). ---
    // The multi-threaded control plane in the workspace: submitters, the
    // one scheduler loop, the watchdog, drain. The held-while-acquiring
    // graph must stay acyclic and every condvar wait disciplined. A future
    // second lock ordered inconsistently against the state mutex fails the
    // sweep here.
    let (n_locks, threads) = crate::locks::continuous_scheduler_model();
    report.collective_programs += 1;
    report.diagnostics.extend(
        crate::locks::check_lock_order(n_locks, &threads).into_iter().map(|mut x| {
            x.site = format!("serve scheduler: {}", x.site);
            x
        }),
    );

    // --- Pass 3c'': serving-runtime state machines (dsi-serve). ---
    // The circuit breaker explored exhaustively over every event sequence
    // of bounded depth at the thresholds the serve configs use, and the
    // scheduler's fault-recovery page protocol (release every poisoned
    // slot before any replay reserves) over representative fan-outs.
    for (threshold, window) in [(1u32, 1u64), (2, 2), (3, 1)] {
        report.collective_programs += 1;
        report.diagnostics.extend(
            crate::runtime::check_breaker_model(threshold, window, 6).into_iter().map(|mut x| {
                x.site = format!("breaker t={threshold} w={window}: {}", x.site);
                x
            }),
        );
    }
    for (slots, evict) in [
        (vec![0usize, 1, 2], vec![]),
        (vec![0usize, 2, 5], vec![2usize]),
        (vec![1usize], vec![1usize]),
    ] {
        let prog = crate::runtime::scheduler_recovery_program(&slots, &evict);
        report.collective_programs += 1;
        report.diagnostics.extend(
            crate::runtime::check_recovery_program(8, &prog).into_iter().map(|mut x| {
                x.site = format!("recovery slots={slots:?} evict={evict:?}: {}", x.site);
                x
            }),
        );
    }

    // The streaming weight store's prefetch schedule (dsi-zero offload):
    // the transcribed fetch/acquire/evict/release program must never use a
    // panel before it is resident, evict a pinned panel, or exceed the
    // resident budget, across layer counts × prefetch depths × budgets.
    for layers in [2usize, 3, 5] {
        for depth in [0usize, 1, 2] {
            for capacity in [1usize, 2, 3] {
                let prog = crate::runtime::prefetch_program(layers, depth, capacity);
                report.collective_programs += 1;
                report.diagnostics.extend(
                    crate::runtime::check_prefetch_program(layers, capacity, &prog)
                        .into_iter()
                        .map(|mut x| {
                            x.site = format!(
                                "prefetch layers={layers} depth={depth} cap={capacity}: {}",
                                x.site
                            );
                            x
                        }),
                );
            }
        }
    }

    // --- Pass 3d: Table II expert-parallel all-to-all programs. ---
    for moe in zoo::table2() {
        let bytes = 2 * moe.base.hidden as u64;
        let (groups, progs) =
            ep_alltoall_programs(moe.gpus, moe.ep_degree, moe.moe_layers, bytes);
        report.collective_programs += 1;
        report.diagnostics.extend(check_programs(&groups, &progs).into_iter().map(|mut x| {
            x.site = format!("{}: {}", moe.name, x.site);
            x
        }));
    }

    // --- Pass 3e: exit-safety of the executed TP engine's schedule. ---
    // Model "rank r exits at op e" for every rank × a sample of epochs: the
    // hardened runtime's bounded timeouts must convert every such loss into
    // a typed abort on the survivors — never a silent deadlock. The typed
    // aborts are the expected outcome; `check_exit_safety` returns only
    // what is left silently stuck.
    for world in [2usize, 4] {
        let (_, progs) = tp_exec_allreduce_programs(world, 2, 512);
        let len = progs[&0].len();
        for rank in 0..world {
            for at in [0usize, 1, len / 2, len - 1] {
                let exits = ExitPlan::from([(rank, at)]);
                report.collective_programs += 1;
                report.diagnostics.extend(
                    check_exit_safety(&progs, &exits).into_iter().map(|mut x| {
                        x.site = format!(
                            "tp_exec world={world}, rank {rank} exits at op {at}: {}",
                            x.site
                        );
                        x
                    }),
                );
            }
        }
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
/// Every control must fire; [`controls_all_fire`] is the CI gate.
pub fn negative_controls() -> Vec<Control> {
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

    // Collective: one rank skips its layer-0 FF2 all-reduce.
    let m = Mapping3D::new(1, 1, 4);
    let (groups, mut progs) = tp_allreduce_programs(&m, 2, 4096);
    progs.get_mut(&2).unwrap().remove(1);
    out.push(Control {
        name: "unmatched collective (rank 2 skips an all-reduce)",
        expect_code: "collective-mismatch",
        diagnostics: check_programs(&groups, &progs),
    });

    // Collective: the same defect must also be a deadlock under rendezvous.
    out.push(Control {
        name: "deadlock from skipped all-reduce",
        expect_code: "deadlock",
        diagnostics: check_programs(&groups, &progs),
    });

    // Collective: the executed TP engine with one barrier crossing missing
    // (rank 1 races past the reduce-scatter/all-gather fence).
    let (groups, mut progs) = tp_exec_allreduce_programs(4, 2, 512);
    let victim = progs.get_mut(&1).unwrap();
    let idx = victim
        .iter()
        .position(|op| matches!(op, Op::Coll { tag, .. } if tag == "layer0.attn_out.reduced"))
        .expect("barrier op present");
    victim.remove(idx);
    out.push(Control {
        name: "missing barrier in shmem all-reduce (rank 1 skips the fence)",
        expect_code: "deadlock",
        diagnostics: check_programs(&groups, &progs),
    });

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

    // Locks: the canonical AB/BA inversion must be reported as a cycle.
    {
        use crate::locks::{check_lock_order, LockOp::*, ThreadModel};
        let threads = vec![
            ThreadModel::new("ab", vec![Acquire(0), Acquire(1), Release(1), Release(0)]),
            ThreadModel::new("ba", vec![Acquire(1), Acquire(0), Release(0), Release(1)]),
        ];
        out.push(Control {
            name: "AB/BA lock inversion (two-lock deadlock)",
            expect_code: "lock-cycle",
            diagnostics: check_lock_order(2, &threads),
        });
    }

    // Audit: an unsafe block with no SAFETY comment.
    out.push(Control {
        name: "undocumented unsafe block",
        expect_code: "missing-safety-comment",
        diagnostics: crate::audit::scan_unsafe(
            "seeded.rs",
            "fn f(x: &[f32]) -> f32 {\n    unsafe { *x.get_unchecked(0) }\n}\n",
        ),
    });

    // Exit modelling: a rank dying mid-schedule must surface as a *typed*
    // abort on every survivor (the timeout path), not a hang.
    let (_, progs) = tp_exec_allreduce_programs(2, 1, 512);
    out.push(Control {
        name: "rank exit mid-schedule (survivors abort typed)",
        expect_code: "collective-abort",
        diagnostics: simulate_rendezvous_with_exits(&progs, &ExitPlan::from([(1usize, 3)])),
    });

    // Exit modelling, p2p edge: a receiver stranded by a dead sender must
    // time out typed as well.
    let mut progs = Programs::new();
    progs.insert(0, vec![Op::Recv { from: 1, bytes: 8, tag: "act".into() }]);
    progs.insert(1, vec![Op::Send { to: 0, bytes: 8, tag: "act".into() }]);
    out.push(Control {
        name: "recv from exited sender (typed timeout)",
        expect_code: "collective-abort",
        diagnostics: simulate_rendezvous_with_exits(&progs, &ExitPlan::from([(1usize, 0)])),
    });

    // Recovery protocol: a recovery that replays a victim without first
    // releasing its poisoned pages would double-reserve (leak the old
    // pages and break the replay-fits-by-construction argument); the
    // recovery checker must flag the missing release.
    {
        use crate::runtime::{check_recovery_program, RecoveryOp};
        let bad = vec![
            RecoveryOp::Fault { slots: vec![0, 1] },
            RecoveryOp::Release { slot: 0 },
            RecoveryOp::Replay { slot: 0 },
            // Slot 1 replayed while still holding its poisoned pages.
            RecoveryOp::Replay { slot: 1 },
        ];
        out.push(Control {
            name: "recovery replays without releasing poisoned pages",
            expect_code: "replay-page-leak",
            diagnostics: check_recovery_program(2, &bad),
        });
    }

    // Prefetch protocol: a decode loop that acquires a weight panel before
    // its fetch completed would compute on absent weights — the streaming
    // offload checker must flag the use-before-resident.
    {
        use crate::runtime::{check_prefetch_program, PrefetchOp};
        let bad = vec![PrefetchOp::Acquire { panel: 0 }];
        out.push(Control {
            name: "prefetch acquires a panel before it is resident",
            expect_code: "use-before-resident",
            diagnostics: check_prefetch_program(1, 1, &bad),
        });
    }

    // Exit safety: a genuine deadlock among *survivors* (send/send cycle)
    // must still be reported even when an unrelated rank exits — the abort
    // semantics must not excuse real schedule bugs.
    let mut progs = Programs::new();
    progs.insert(0, vec![Op::Send { to: 1, bytes: 8, tag: "a".into() }]);
    progs.insert(1, vec![Op::Send { to: 0, bytes: 8, tag: "b".into() }]);
    progs.insert(2, vec![Op::Send { to: 3, bytes: 8, tag: "c".into() }]);
    progs.insert(3, vec![Op::Recv { from: 2, bytes: 8, tag: "c".into() }]);
    out.push(Control {
        name: "survivor deadlock not masked by an exit elsewhere",
        expect_code: "deadlock",
        diagnostics: check_exit_safety(&progs, &ExitPlan::from([(2usize, 0)])),
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
        let r = verify_all();
        assert!(r.is_clean(), "sweep found defects: {:#?}", r.diagnostics);
        // Sanity: the sweep actually covered things.
        assert!(r.ir_plans >= 9 * 2 * 3 * 4, "ir_plans = {}", r.ir_plans);
        // Per Table-I model: prompt + decode + 5 batched M sweeps.
        assert!(r.scratch_traces >= 9 * 7, "scratch_traces = {}", r.scratch_traces);
        assert!(r.collective_programs >= 10);
    }

    #[test]
    fn every_negative_control_fires() {
        let controls = negative_controls();
        assert_eq!(controls.len(), 18);
        for c in &controls {
            assert!(c.fired(), "control `{}` produced {:?}", c.name, c.diagnostics);
        }
        assert!(controls_all_fire(&controls));
    }
}
