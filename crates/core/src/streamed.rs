//! Streamed decode: serve a model whose weight file exceeds the resident
//! budget, token-identical to the fully-resident fast path.
//!
//! There is no streamed engine. ZeRO-Inference is the same pipeline with
//! the weights fetched layer by layer, so the engine is
//! `dsi_model::paged::Engine` with an [`OffloadStore`] as its
//! `WeightSource`: per layer the store checks the panel out, queues the
//! next ones for its prefetch worker, and the panel drops before the next
//! is acquired. Slots, page accounting, budget enforcement, prefix sharing
//! and the fault contracts are the engine's, whichever source feeds it, and
//! the file stores each layer as the very floats the resident path packs —
//! so streamed greedy decode is bit-identical to the `FastSession` oracle
//! by construction (`tests/offload_oracle.rs` pins it).
//!
//! What lives here is what is specific to the tier: the [`FaultClass`] of
//! each [`OffloadError`] variant — an exhaustive `match`, so a new variant
//! does not compile until it has a class — which is how a dying tier
//! reaches the scheduler's release-and-replay protocol and per-class
//! breakers like any other engine fault; and the constructor that sizes
//! the page pool from a token budget.

use crate::batch::{EngineError, FaultClass};
use dsi_model::io::IoError;
use dsi_model::paged::Engine;
use dsi_zero::offload::{OffloadError, OffloadStore};

impl From<&OffloadError> for FaultClass {
    fn from(e: &OffloadError) -> Self {
        match e {
            // The tier refused the handle, or lost it under a reader.
            OffloadError::FailedOpen { .. } | OffloadError::HandleLost { .. } => FaultClass::Panic,
            OffloadError::Io(io) => match io {
                IoError::Corrupt(_) | IoError::ChecksumMismatch { .. } => FaultClass::Corruption,
                IoError::Io(_)
                | IoError::BadMagic
                | IoError::BadVersion(_)
                | IoError::PanelWidth { .. } => FaultClass::Panic,
            },
            // Bytes that came back wrong on every bounded re-read.
            OffloadError::ChecksumFailed { .. } | OffloadError::ShortReadFailed { .. } => {
                FaultClass::Corruption
            }
            OffloadError::FetchTimeout { .. } => FaultClass::Timeout,
            OffloadError::BudgetExhausted { .. } => FaultClass::Memory,
        }
    }
}

impl From<OffloadError> for EngineError {
    fn from(e: OffloadError) -> Self {
        EngineError::Fault { class: FaultClass::from(&e), msg: e.to_string() }
    }
}

/// Where the paged engine over an [`OffloadStore`] is built from a token
/// budget instead of a page geometry. Not a type of engine: the name is the
/// spelling callers already use.
pub enum StreamedEngine {}

impl StreamedEngine {
    /// `max_slots` concurrent sequences over `store` with room for
    /// `token_budget` KV tokens between them: `ceil(token_budget / 16)`
    /// pages of 16 tokens (the page size `ContinuousConfig::default()`
    /// serves with), plus one page per slot for the partial page each
    /// resident may end on.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(store: OffloadStore, max_slots: usize, token_budget: usize) -> Engine<OffloadStore> {
        const PAGE_TOKENS: usize = 16;
        let pages = token_budget.div_ceil(PAGE_TOKENS) + max_slots;
        Engine::new(store, max_slots, pages, PAGE_TOKENS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchEngine;
    use dsi_model::fast::PackedModel;
    use dsi_sim::fault::{IoFaultKind, IoFaultPlan, IoFaultSite, IoFaultSpec};
    use dsi_zero::offload::OffloadConfig;
    use std::sync::Arc;
    use dsi_model::reference::GptModel;
    use dsi_model::zoo;

    fn saved(layers: usize, seed: u64, tag: &str) -> (GptModel, std::path::PathBuf) {
        let m = GptModel::random(zoo::tiny(layers), seed);
        let path = std::env::temp_dir().join(format!("dsi_streamed_{tag}_{seed}_{layers}.bin"));
        dsi_model::io::save(&m, &path).expect("save");
        (m, path)
    }

    #[test]
    fn streamed_decode_matches_resident_oracle() {
        let (m, path) = saved(3, 41, "oracle");
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        let mut eng = StreamedEngine::new(store, 1, 4096);
        let pm = PackedModel::pack(&m);
        let mut oracle = pm.session(4);
        let want = oracle.generate(&[1, 2, 3, 4], 8);
        let mut got = vec![eng.prefill(0, &[1, 2, 3, 4]).expect("prefill")];
        for _ in 1..8 {
            eng.decode_step(&[0], &mut got).expect("decode");
        }
        assert_eq!(got, want);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn streamed_batch_matches_solo_sessions_under_tight_budget() {
        let (m, path) = saved(4, 43, "batch");
        let probe = OffloadStore::open(&path, OffloadConfig::default()).expect("probe");
        let budget = probe.panel_bytes() * 2;
        drop(probe);
        let cfg = OffloadConfig { resident_budget_bytes: budget, ..OffloadConfig::default() };
        let store = OffloadStore::open(&path, cfg).expect("open");
        assert!(store.file_bytes() > budget, "model bigger than the budget");
        let mut eng = StreamedEngine::new(store, 3, 4096);
        let prompts = [vec![1usize, 2, 3], vec![9, 8], vec![4, 5, 6, 7]];
        let pm = PackedModel::pack(&m);
        let mut streams: Vec<Vec<usize>> = prompts
            .iter()
            .enumerate()
            .map(|(s, p)| vec![eng.prefill(s, p).expect("prefill")])
            .collect();
        for _ in 1..6 {
            let mut out = Vec::new();
            eng.decode_step(&[0, 1, 2], &mut out).expect("decode");
            for (s, t) in out.into_iter().enumerate() {
                streams[s].push(t);
            }
        }
        for (s, p) in prompts.iter().enumerate() {
            let want = pm.session(p.len()).generate(p, 6);
            assert_eq!(streams[s], want, "slot {s}");
        }
        assert!(eng.weights().stats().evictions > 0, "tight budget must evict");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn release_frees_the_slot_for_reuse() {
        let (m, path) = saved(2, 47, "reuse");
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        let mut eng = StreamedEngine::new(store, 1, 64);
        let pm = PackedModel::pack(&m);
        let first = eng.prefill(0, &[5, 6]).expect("prefill");
        eng.release(0);
        assert_eq!(eng.kv_stats().unwrap().pages_in_use, 0);
        let again = eng.prefill(0, &[5, 6]).expect("prefill again");
        assert_eq!(first, again);
        assert_eq!(again, pm.session(2).generate(&[5, 6], 1)[0]);
        let _ = std::fs::remove_file(path);
    }

    /// The benchmark's shape: four residents of 28 tokens on a budget of
    /// 4 × 28. At 16-token pages each resident ends on a partial page, which
    /// is what the per-slot page of the sizing rule is for; and the budget
    /// is now a pool the engine enforces, not a number it reports.
    #[test]
    fn token_budget_seats_every_slot_and_is_enforced() {
        let (_m, path) = saved(1, 53, "budget");
        let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
        let mut eng = StreamedEngine::new(store, 4, 4 * 28);
        let kv = eng.kv_stats().expect("paged");
        assert_eq!((kv.pages_total, kv.page_tokens), (7 + 4, 16));
        let prompt: Vec<usize> = (0..16).collect();
        let mut out = Vec::new();
        for s in 0..4 {
            eng.prefill(s, &prompt).expect("prefill");
        }
        for _ in 16..28 {
            eng.decode_step(&[0, 1, 2, 3], &mut out).expect("every slot fits its 28 tokens");
        }
        assert_eq!(eng.kv_stats().unwrap().pages_in_use, 8);
        // Two more pages' worth of growth per slot does not fit 11 pages.
        let err = (28..48).find_map(|_| eng.decode_step(&[0, 1, 2, 3], &mut out).err());
        assert!(matches!(err, Some(EngineError::OutOfPages { .. })), "{err:?}");
        let _ = std::fs::remove_file(path);
    }

    /// The contracts release-all-then-replay rests on, under a tier that
    /// fails mid-pass. One-panel budget, two layers, dead prefetcher: every
    /// read is a demand fetch on this thread, so the read calls are layer 0
    /// at the open (call 0) and then each miss in pass order.
    #[test]
    fn tier_faults_mid_pass_commit_nothing_and_leak_nothing() {
        let (m, path) = saved(2, 59, "faults");
        let panel = OffloadStore::open(&path, OffloadConfig::default()).expect("probe").panel_bytes();
        let at = |call, kind| IoFaultSpec { site: IoFaultSite::Read { call }, kind };
        let plan = IoFaultPlan::new(vec![
            // Layer 1 of the joiner's prompt pass: the handle dies.
            at(5, IoFaultKind::FailOpen),
            // Layer 1 of the two-slot decode step: the one read allowed
            // comes back corrupt.
            at(8, IoFaultKind::CorruptPanel),
        ]);
        let cfg = OffloadConfig {
            resident_budget_bytes: panel,
            read_retries: 0,
            faults: Some(Arc::new(plan.injector())),
            ..OffloadConfig::default()
        };
        let store = OffloadStore::open(&path, cfg).expect("open");
        store.kill_prefetcher();
        let mut eng = Engine::new(store, 2, 16, 2);
        let pm = PackedModel::pack(&m);
        let prompts = [vec![3usize, 1, 4, 1, 5], vec![3, 1, 4, 1, 7, 6]];
        let want: Vec<Vec<usize>> =
            prompts.iter().map(|p| pm.session(p.len()).generate(p, 5)).collect();
        let class = |e: EngineError| match e {
            EngineError::Fault { class, .. } => class,
            other => panic!("expected a fault, got {other}"),
        };

        // Reads 1–3: slot 0 prefills (publishing two pages) and steps once.
        let mut streams = [vec![eng.prefill(0, &prompts[0]).expect("prefill")], vec![]];
        eng.decode_step(&[0], &mut streams[0]).expect("decode");
        let books = |e: &Engine<OffloadStore>| {
            let st = e.pool_stats();
            (st.pages_in_use, st.pages_free)
        };
        let before = books(&eng);

        // Reads 4–5: the joiner attaches those two pages, reserves one, and
        // loses the tier at layer 1.
        let err = BatchEngine::prefill(&mut eng, 1, &prompts[1]).unwrap_err();
        assert_eq!(class(err), FaultClass::Panic, "HandleLost");
        assert!(!eng.slot_in_use(1), "the slot stays free");
        assert_eq!(books(&eng), before, "attached and reserved pages all went back");
        // Nothing of the failed pass was published: the retry (reads 6; layer
        // 0 is still resident) attaches exactly what slot 0 had published.
        streams[1].push(BatchEngine::prefill(&mut eng, 1, &prompts[1]).expect("retry"));
        assert_eq!(eng.attached_tokens(1), 4);

        // Reads 7–8: the step reserves, then fails at layer 1.
        let lens = [eng.context_len(0), eng.context_len(1)];
        let mut out = Vec::new();
        let err = eng.decode_step(&[0, 1], &mut out).unwrap_err();
        assert_eq!(class(err), FaultClass::Corruption, "ChecksumFailed");
        assert!(out.is_empty(), "no token emitted");
        assert_eq!([eng.context_len(0), eng.context_len(1)], lens, "no slot advanced");
        let st = eng.pool_stats();
        assert_eq!(st.pages_total, st.pages_in_use + st.pages_free);

        // What the scheduler does next: release everything, replay every
        // committed prefix, carry on — bit-exact, over the shared pages.
        eng.release(0);
        eng.release(1);
        assert_eq!(eng.pool_stats().pages_in_use, 0);
        for (slot, (p, s)) in prompts.iter().zip(&streams).enumerate() {
            let committed = [&p[..], &s[..s.len() - 1]].concat();
            assert_eq!(BatchEngine::prefill(&mut eng, slot, &committed).expect("replay"), s[s.len() - 1]);
        }
        assert_eq!(eng.attached_tokens(1), 4);
        while streams[1].len() < 5 {
            out.clear();
            eng.decode_step(&[0, 1], &mut out).expect("decode");
            streams[0].push(out[0]);
            streams[1].push(out[1]);
        }
        assert_eq!(streams[0][..5], want[0][..]);
        assert_eq!(streams[1], want[1]);
        let _ = std::fs::remove_file(path);
    }
}
