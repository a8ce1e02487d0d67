//! The streamed decode engine: [`BatchEngine`] over an
//! [`OffloadStore`] — serve a model whose weight file exceeds the resident
//! budget, token-identical to the fully-resident fast path.
//!
//! The engine holds **no layer weights of its own**. Each pass is the one
//! `dsi_model::fast::step` every resident engine runs, with the store as
//! its weight source: per layer the store checks the panel out
//! (`acquire(l)`, resident hit or demand fetch), queues `l+1..` for the
//! prefetch worker, and the panel drops before the next layer's is acquired
//! (release-before-refetch). The weight file stores each layer as the very
//! `PackedLayer` floats the resident path packs in memory, copied out
//! bit-exactly — so streamed greedy decode is bit-identical to the
//! [`FastSession`] oracle by construction, at every prefetch depth and
//! budget. The proptest suite pins this.
//!
//! Store failures surface as classified [`EngineError::Fault`]s (the
//! `Display` strings of `OffloadError` land in the right `FaultClass`
//! bins), so the continuous-batching scheduler's release-and-replay
//! protocol and per-class breakers handle a dying weight tier exactly like
//! any other engine fault. A faulted step leaves the slot's KV
//! unspecified; the scheduler's release-all-before-replay makes that
//! unobservable.
//!
//! [`FastSession`]: dsi_model::fast::FastSession
//! [`EngineError::Fault`]: crate::batch::EngineError

use crate::batch::{per_token_stats, BatchEngine, EngineError};
use dsi_model::fast::{self, argmax, Row, Scratch};
use dsi_model::paged::PageStats;
use dsi_model::reference::KvCache;
use dsi_zero::offload::{OffloadError, OffloadStore};

/// One slot's decode state besides its KV context: the greedy token emitted
/// by the last pass (the next pass's input).
struct StreamSlot {
    last: usize,
    busy: bool,
}

/// A multi-slot greedy decode engine streaming weights from an
/// [`OffloadStore`]. Construct with [`StreamedEngine::new`]; drive through
/// the [`BatchEngine`] surface (`dsi-serve` does).
pub struct StreamedEngine {
    store: OffloadStore,
    scratch: Scratch,
    slots: Vec<StreamSlot>,
    /// `caches[s]` is slot `s`'s KV context.
    caches: Vec<KvCache>,
    /// Reused row list of the current pass.
    rows: Vec<Row>,
    /// Token-capacity budget reported through `kv_stats` (admission
    /// metering at `page_tokens = 1`).
    token_budget: usize,
    high_water: usize,
}

impl StreamedEngine {
    /// `max_slots` concurrent sequences over `store`, reporting
    /// `token_budget` total KV tokens to the scheduler's admission math
    /// (single-flight discipline is `max_slots = 1`).
    pub fn new(store: OffloadStore, max_slots: usize, token_budget: usize) -> Self {
        assert!(max_slots > 0);
        let c = store.config().clone();
        StreamedEngine {
            scratch: Scratch::new(&c, max_slots),
            slots: (0..max_slots).map(|_| StreamSlot { last: 0, busy: false }).collect(),
            caches: (0..max_slots)
                .map(|_| KvCache::with_capacity(c.layers, c.hidden, c.max_seq))
                .collect(),
            rows: Vec::with_capacity(max_slots),
            token_budget,
            high_water: 0,
            store,
        }
    }

    /// The underlying store (stats, prefetcher health, test hooks).
    pub fn store(&self) -> &OffloadStore {
        &self.store
    }

    fn tokens_in_use(&self) -> usize {
        self.slots
            .iter()
            .zip(&self.caches)
            .filter(|(s, _)| s.busy)
            .map(|(_, c)| c.context_len() + 1)
            .sum()
    }

    /// One pass of `self.rows`. KV state after an `Err` is unspecified.
    fn pass(&mut self) -> Result<(), OffloadError> {
        fast::step(&self.store, &mut self.caches[..], &mut self.scratch, &self.rows)
    }
}

fn classify(e: OffloadError) -> EngineError {
    EngineError::classified(e.to_string())
}

impl BatchEngine for StreamedEngine {
    fn max_slots(&self) -> usize {
        self.slots.len()
    }

    fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, EngineError> {
        assert!(!prompt.is_empty(), "empty prompt");
        assert!(!self.slots[slot].busy, "prefill into busy slot {slot}");
        self.caches[slot].clear();
        Row::prompt_pass(&mut self.rows, slot, 0, prompt);
        if let Err(e) = self.pass() {
            // Contract: on Err the slot stays free and holds nothing.
            self.caches[slot].clear();
            return Err(classify(e));
        }
        let vocab = self.store.config().vocab;
        let next = argmax(self.scratch.logits_row(prompt.len() - 1, vocab));
        let sq = &mut self.slots[slot];
        sq.last = next;
        sq.busy = true;
        self.high_water = self.high_water.max(self.tokens_in_use());
        Ok(next)
    }

    fn decode_step(&mut self, slots: &[usize], out: &mut Vec<usize>) -> Result<(), EngineError> {
        assert!(!slots.is_empty(), "decode_step: empty batch");
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "decode_step: slots must be strictly ascending"
        );
        self.rows.clear();
        for &s in slots {
            assert!(self.slots[s].busy, "decode_step on free slot {s}");
            self.rows.push(Row {
                seq: s,
                token: self.slots[s].last,
                pos: self.caches[s].context_len(),
            });
        }
        self.pass().map_err(classify)?;
        let vocab = self.store.config().vocab;
        for (r, &i) in slots.iter().enumerate() {
            let next = argmax(self.scratch.logits_row(r, vocab));
            self.slots[i].last = next;
            out.push(next);
        }
        self.high_water = self.high_water.max(self.tokens_in_use());
        Ok(())
    }

    fn release(&mut self, slot: usize) {
        self.caches[slot].clear();
        self.slots[slot] = StreamSlot { last: 0, busy: false };
    }

    fn kv_stats(&self) -> Option<PageStats> {
        Some(per_token_stats(self.token_budget, self.tokens_in_use(), self.high_water))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_zero::offload::OffloadConfig;
    use dsi_model::fast::PackedModel;
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
        assert!(eng.store().stats().evictions > 0, "tight budget must evict");
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
}
