//! Paged KV allocator + multi-slot decode engine — the executed analog of
//! the paper's Sec. IV memory-pressure story, replacing the contiguous
//! per-sequence KV growth of [`crate::reference::KvCache`] with vLLM-style
//! fixed-size token pages.
//!
//! * [`PagePool`] owns per-layer K/V arenas carved into pages of
//!   `page_tokens` context rows. A page id names the same slot in **every**
//!   layer's arena, so one page allocation covers a token's K/V across the
//!   whole stack. Pages are reference-counted and recycled through a LIFO
//!   free list — zero external fragmentation by construction (any free page
//!   serves any sequence), and the always-on accounting identity
//!   `pages_total == pages_in_use + pages_free` (`in_use` = distinct pages
//!   some table references) is asserted on every transition.
//! * [`PagedSeq`] is one sequence's page table: position `j` lives in page
//!   `pages[j / page_tokens]`, slot `j % page_tokens`. Attention reads
//!   resolve through the table via `fused::attention_row_paged_into`, whose
//!   FLOP sequence is shared with the contiguous kernel — paged decode is
//!   **bit-identical** to [`crate::fast::FastSession`], not merely close.
//! * [`Engine`] hosts up to `max_slots` concurrent sequences over one
//!   [`WeightSource`] and one scratch arena — a resident packed model
//!   ([`PagedEngine`], the alias the serving path and the benchmark name) or
//!   an offload tier that hands layer panels out one at a time; the slot
//!   lifecycle is the same code either way: `prefill` admits a prompt into a
//!   free slot (attaching the prompt pages some earlier prompt already
//!   filled and reserving the rest up front, all-or-nothing) and computes
//!   only the rows nobody has computed, `decode` advances any subset of
//!   slots one token through a single ragged M-row pass (reserving at page
//!   granularity *per step*), and `release` drops a retired sequence's
//!   references, returning the pages nobody else holds to the free list.
//!   This is the execution surface `dsi-serve`'s continuous-batching
//!   scheduler drives. A weight fetch that fails mid-pass ([`StepError::Weights`])
//!   commits nothing: see [`Engine::prefill`] and [`Engine::decode`].
//!
//! ## Prefix sharing
//!
//! A K/V row depends only on the tokens at and before its position, and a
//! row computed in an M-row pass is bit-identical to the row a batch-1 pass
//! computes, so a page filled by one prompt *is* the page any other prompt
//! with the same leading tokens would fill. The pool therefore keeps an
//! exact index (token ids compared, never only a hash) from whole-page
//! token chunks to pages, and page tables may share a common front:
//!
//! * **What is shared.** Only whole pages that lie strictly below a
//!   prompt's last token — `(len - 1) / page_tokens` of them. The same
//!   bound governs what a prefill attaches and what it publishes, so the
//!   page holding the last prompt token (whose row the pass must compute to
//!   emit a token) is always private and every shared page is wholly behind
//!   every holder's write frontier: there is no copy-on-write path, and
//!   [`PagePool::write_row`] asserts it never writes a published or
//!   multiply referenced page.
//! * **The generation rule.** A chunk is keyed on (parent page, the
//!   parent's hand-out generation, chunk tokens). Handing a page out for
//!   new content bumps its generation and drops its own entry, so every
//!   entry still keyed under the old generation — its descendants — can
//!   never match again, however the page id is reused.
//! * **Retention.** A page whose count reaches zero goes back on the free
//!   list where it always went and keeps its entry until [`reserve`]
//!   hands it out for something else; a hit in between takes it back off
//!   the free list. That is the only retention mechanism — no cache size,
//!   no LRU list, no accounting category beside in-use and free.
//! * **Publication follows success.** Pages are published only after the
//!   pass that filled them returned, so a faulted pass never published, and
//!   a published page is never written again — which is why fault recovery
//!   may re-attach to them: the fault model poisons state *past* the
//!   committed prefix.
//!
//! [`reserve`]: PagePool::reserve

use crate::fast::{self, argmax, KvSink, PackedModel, Row, Scratch, WeightSource};
use dsi_kernels::blocked::PackedB;
use dsi_kernels::fused::{self, PagedKvView};
use std::collections::HashMap;
use std::sync::Arc;

/// A page reservation failed: the pool has fewer free pages than the
/// request needs. Nothing was allocated (reservations are all-or-nothing),
/// so the caller can evict and retry, or surface typed memory pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagesExhausted {
    /// Pages the reservation needed.
    pub needed: usize,
    /// Pages that were free.
    pub free: usize,
}

impl std::fmt::Display for PagesExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kv pages exhausted: need {}, {} free", self.needed, self.free)
    }
}

impl std::error::Error for PagesExhausted {}

/// Why an [`Engine`] pass did not run to completion: the pool could not seat
/// it (nothing moved — a scheduling signal), or the weight source failed
/// under it (`Infallible` for a resident [`PackedModel`], so that variant
/// does not exist there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError<E> {
    Pages(PagesExhausted),
    Weights(E),
}

/// One sequence's page table plus its committed context length.
#[derive(Debug, Default, Clone)]
pub struct PagedSeq {
    pages: Vec<u32>,
    len: usize,
    /// Leading pages attached from the prefix index rather than filled by
    /// this sequence (it holds a reference, never writes them).
    attached: usize,
}

impl PagedSeq {
    pub fn new() -> Self {
        Self::default()
    }

    /// Context rows committed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page table, in position order.
    pub fn pages(&self) -> &[u32] {
        &self.pages
    }
}

/// Index key of one published page: the `page_tokens` token ids it holds,
/// under the page holding the chunk before it *as of that page's hand-out
/// generation* (`None` for a prompt's first chunk). Equality compares the
/// token ids themselves.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ChunkKey {
    parent: Option<(u32, u64)>,
    tokens: Arc<[usize]>,
}

/// Fixed-size-page KV arena shared by every resident sequence.
///
/// Storage is `layers × 2` arenas of `pages_total × page_tokens` rows of
/// `hidden` floats, allocated once; page allocation/release never touches
/// the heap (the prefix index does, in [`PagePool::reserve_prompt`] and
/// [`PagePool::commit_prompt`] only).
#[derive(Debug)]
pub struct PagePool {
    hidden: usize,
    page_tokens: usize,
    pages_total: usize,
    /// Per-layer K arenas, `[pages_total * page_tokens, hidden]` row-major.
    k: Vec<Vec<f32>>,
    /// Per-layer V arenas, same shape.
    v: Vec<Vec<f32>>,
    /// LIFO free list (most recently released page is reused first — the
    /// warmest rows in cache). Exactly the pages with `refs == 0`.
    free: Vec<u32>,
    /// Distinct pages some table references.
    in_use: usize,
    high_water: usize,
    /// `refs[p]` = page tables holding page `p`.
    refs: Vec<u32>,
    /// `generation[p]` = times `reserve` handed `p` out for new content.
    generation: Vec<u64>,
    /// `published[p]` = the key `p` is indexed under; `None` while private.
    published: Vec<Option<ChunkKey>>,
    /// The prefix index: published chunk → page. See the module docs.
    index: HashMap<ChunkKey, u32>,
}

/// Point-in-time allocator statistics for reports and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageStats {
    pub pages_total: usize,
    pub pages_in_use: usize,
    pub pages_free: usize,
    pub high_water: usize,
    pub page_tokens: usize,
}

impl PagePool {
    pub fn new(layers: usize, hidden: usize, pages_total: usize, page_tokens: usize) -> Self {
        assert!(layers > 0 && hidden > 0 && pages_total > 0 && page_tokens > 0);
        let rows = pages_total * page_tokens;
        let pool = PagePool {
            hidden,
            page_tokens,
            pages_total,
            k: (0..layers).map(|_| vec![0.0; rows * hidden]).collect(),
            v: (0..layers).map(|_| vec![0.0; rows * hidden]).collect(),
            // Reverse order so page 0 is handed out first (LIFO pop).
            free: (0..pages_total as u32).rev().collect(),
            in_use: 0,
            high_water: 0,
            refs: vec![0; pages_total],
            generation: vec![0; pages_total],
            published: vec![None; pages_total],
            index: HashMap::new(),
        };
        pool.assert_identity();
        pool
    }

    /// The always-on accounting identity: every page is exactly one of
    /// in-use or free. Runs on every allocation/release transition.
    fn assert_identity(&self) {
        assert_eq!(
            self.pages_total,
            self.in_use + self.free.len(),
            "page pool identity violated: {} total != {} in_use + {} free",
            self.pages_total,
            self.in_use,
            self.free.len()
        );
        // Debug builds also recount: the free list holds exactly the
        // pages no table references.
        debug_assert_eq!(self.in_use, self.refs.iter().filter(|&&r| r > 0).count());
        debug_assert!(self.free.iter().all(|&p| self.refs[p as usize] == 0));
    }

    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    pub fn stats(&self) -> PageStats {
        PageStats {
            pages_total: self.pages_total,
            pages_in_use: self.in_use,
            pages_free: self.free.len(),
            high_water: self.high_water,
            page_tokens: self.page_tokens,
        }
    }

    /// Pages needed to hold `tokens` context rows.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }

    /// Grow `seq`'s table to cover `additional` more tokens with private
    /// pages. All-or-nothing: on `Err` no page moved and the sequence is
    /// untouched. A handed-out page starts a new generation and loses its
    /// index entry: whatever it held is about to be overwritten.
    pub fn reserve(&mut self, seq: &mut PagedSeq, additional: usize) -> Result<(), PagesExhausted> {
        let target = self.pages_for(seq.len + additional);
        let need = target.saturating_sub(seq.pages.len());
        if need > self.free.len() {
            return Err(PagesExhausted { needed: need, free: self.free.len() });
        }
        for _ in 0..need {
            let p = self.free.pop().expect("checked above");
            let pi = p as usize;
            self.generation[pi] += 1;
            if let Some(key) = self.published[pi].take() {
                self.index.remove(&key);
            }
            self.refs[pi] = 1;
            seq.pages.push(p);
        }
        self.in_use += need;
        self.high_water = self.high_water.max(self.in_use);
        self.assert_identity();
        Ok(())
    }

    /// Whole pages of a `len`-token prompt that may be shared: those lying
    /// strictly below its last token.
    fn shareable(&self, len: usize) -> usize {
        len.saturating_sub(1) / self.page_tokens
    }

    fn chunk_key(&self, parent: Option<u32>, chunk: &[usize]) -> ChunkKey {
        ChunkKey {
            parent: parent.map(|p| (p, self.generation[p as usize])),
            tokens: chunk.into(),
        }
    }

    /// Seat `prompt` into the empty `seq`: attach the longest run of
    /// published pages holding its leading shareable chunks (taking those
    /// nobody holds back off the free list, content and entry intact), then
    /// reserve private pages for the rest. All-or-nothing across both: on
    /// `Err` nothing moved. Returns the number of leading prompt tokens whose
    /// rows are already resident — the offset the prompt pass starts at.
    pub fn reserve_prompt(
        &mut self,
        seq: &mut PagedSeq,
        prompt: &[usize],
    ) -> Result<usize, PagesExhausted> {
        assert!(seq.pages.is_empty(), "reserve_prompt into a seated sequence");
        assert!(!prompt.is_empty(), "empty prompt");
        let mut hits: Vec<u32> = Vec::new();
        for chunk in prompt.chunks_exact(self.page_tokens).take(self.shareable(prompt.len())) {
            let Some(&p) = self.index.get(&self.chunk_key(hits.last().copied(), chunk)) else {
                break;
            };
            hits.push(p);
        }
        let unheld = hits.iter().filter(|&&p| self.refs[p as usize] == 0).count();
        let needed = self.pages_for(prompt.len()) - hits.len() + unheld;
        if needed > self.free.len() {
            return Err(PagesExhausted { needed, free: self.free.len() });
        }
        for &p in &hits {
            if self.refs[p as usize] == 0 {
                // Removing (not swapping) keeps the order of every other
                // free page, so sharing never touches a page the unshared
                // allocator would not have touched.
                let at = self
                    .free
                    .iter()
                    .rposition(|&f| f == p)
                    .expect("an unreferenced page is on the free list");
                self.free.remove(at);
                self.in_use += 1;
            }
            self.refs[p as usize] += 1;
        }
        seq.attached = hits.len();
        seq.pages = hits;
        self.reserve(seq, prompt.len()).expect("attach + reserve pre-checked");
        Ok(seq.attached * self.page_tokens)
    }

    /// The pass over `prompt` succeeded and its rows are written: advance
    /// `seq` to the prompt's length and publish the shareable pages it
    /// filled itself. Each key is new by construction — the first one
    /// missed in [`PagePool::reserve_prompt`], the rest hang under a page
    /// handed out since.
    pub fn commit_prompt(&mut self, seq: &mut PagedSeq, prompt: &[usize]) {
        assert!(seq.len == 0 && self.pages_for(prompt.len()) == seq.pages.len());
        seq.len = prompt.len();
        let pt = self.page_tokens;
        for i in seq.attached..self.shareable(prompt.len()) {
            let parent = i.checked_sub(1).map(|up| seq.pages[up]);
            let key = self.chunk_key(parent, &prompt[i * pt..(i + 1) * pt]);
            let p = seq.pages[i];
            assert!(
                self.refs[p as usize] == 1 && self.published[p as usize].is_none(),
                "page {p} published twice"
            );
            self.published[p as usize] = Some(key.clone());
            let prev = self.index.insert(key, p);
            assert!(prev.is_none(), "chunk of page {p} was already indexed");
        }
    }

    /// Drop `seq`'s reference on every page of its table and reset it; a
    /// page nobody else holds goes back on the free list (reverse order, so
    /// the most recently used page is reallocated first) with its index
    /// entry intact. Rejects foreign pages and double frees in every build:
    /// an unreferenced page in a table means two tables claimed it without
    /// the pool knowing (the recovery/replay path releases whole batches,
    /// so this is exactly where an aliasing bug would corrupt a survivor).
    pub fn release(&mut self, seq: &mut PagedSeq) {
        while let Some(p) = seq.pages.pop() {
            assert!((p as usize) < self.pages_total, "foreign page {p} released");
            let refs = &mut self.refs[p as usize];
            assert!(*refs > 0, "double free: page {p} is already on the free list");
            *refs -= 1;
            if *refs == 0 {
                self.free.push(p);
                self.in_use -= 1;
            }
        }
        seq.len = 0;
        seq.attached = 0;
        self.assert_identity();
    }

    /// Write one context row (`layer`, position `pos`) of `seq` through its
    /// page table. The position must already be reserved, in a page this
    /// sequence alone holds and nobody can attach to (the write-after-share
    /// guard: shared pages are never written, so there is nothing to copy).
    pub fn write_row(&mut self, seq: &PagedSeq, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        let h = self.hidden;
        assert_eq!(k.len(), h);
        assert_eq!(v.len(), h);
        assert!(
            pos < seq.pages.len() * self.page_tokens,
            "write past reservation: pos {pos}, {} pages",
            seq.pages.len()
        );
        let p = seq.pages[pos / self.page_tokens] as usize;
        assert!(
            self.refs[p] == 1 && self.published[p].is_none(),
            "write after share: page {p} is published or multiply referenced"
        );
        let r = p * self.page_tokens + pos % self.page_tokens;
        self.k[layer][r * h..(r + 1) * h].copy_from_slice(k);
        self.v[layer][r * h..(r + 1) * h].copy_from_slice(v);
    }

    /// One layer's K/V arenas (attention read operands).
    pub fn arenas(&self, layer: usize) -> (&[f32], &[f32]) {
        (&self.k[layer], &self.v[layer])
    }
}

/// The paged [`KvSink`]: K/V rows land in the shared pool through the page
/// table `seqs[row.seq]`, and attention reads them back through the same
/// table via `fused::attention_row_paged_into` — the same per-row attention
/// core as the contiguous path, so logits are bit-identical.
struct PagedKv<'a> {
    pool: &'a mut PagePool,
    seqs: &'a [PagedSeq],
}

impl KvSink for PagedKv<'_> {
    #[inline]
    fn write(&mut self, layer: usize, row: Row, k: &[f32], v: &[f32]) {
        self.pool.write_row(&self.seqs[row.seq], layer, row.pos, k, v);
    }

    #[inline]
    fn attend(&self, layer: usize, row: Row, q: &[f32], heads: usize, out: &mut [f32]) {
        let (k, v) = self.pool.arenas(layer);
        let view = PagedKvView {
            k,
            v,
            pages: self.seqs[row.seq].pages(),
            page_tokens: self.pool.page_tokens,
            len: row.pos + 1,
            offset: row.pos,
        };
        fused::attention_row_paged_into(q, &view, heads, out);
    }
}

/// Multi-slot decode engine over one [`WeightSource`] and one [`PagePool`].
/// See the module docs for the slot lifecycle.
pub struct Engine<W> {
    w: W,
    pool: PagePool,
    /// `seqs[slot]` is the slot's page table (empty while the slot is free).
    seqs: Vec<PagedSeq>,
    /// `last[slot]` is the slot's last emitted token, pending feed on the
    /// next decode step; `None` while the slot is free.
    last: Vec<Option<usize>>,
    scratch: Scratch,
    /// Reused row list of the current pass.
    rows: Vec<Row>,
}

/// The engine over a resident packed model, borrowed.
pub type PagedEngine<'p, 'm, B = PackedB> = Engine<&'p PackedModel<'m, B>>;

impl<W: WeightSource> Engine<W> {
    /// An engine with `max_slots` sequence slots over a pool of
    /// `pages_total` pages of `page_tokens` tokens each.
    pub fn new(w: W, max_slots: usize, pages_total: usize, page_tokens: usize) -> Self {
        assert!(max_slots > 0);
        let c = w.config();
        let pool = PagePool::new(c.layers, c.hidden, pages_total, page_tokens);
        let scratch = Scratch::new(c, max_slots);
        Engine {
            pool,
            seqs: vec![PagedSeq::new(); max_slots],
            last: vec![None; max_slots],
            scratch,
            rows: Vec::with_capacity(max_slots),
            w,
        }
    }

    /// The weight source (tier statistics, test hooks).
    pub fn weights(&self) -> &W {
        &self.w
    }

    pub fn max_slots(&self) -> usize {
        self.seqs.len()
    }

    pub fn pool_stats(&self) -> PageStats {
        self.pool.stats()
    }

    /// Pages a `tokens`-long context will pin.
    pub fn pages_for(&self, tokens: usize) -> usize {
        self.pool.pages_for(tokens)
    }

    pub fn slot_in_use(&self, slot: usize) -> bool {
        self.last[slot].is_some()
    }

    /// Committed context length of an occupied slot.
    pub fn context_len(&self, slot: usize) -> usize {
        assert!(self.slot_in_use(slot), "slot not in use");
        self.seqs[slot].len()
    }

    /// Prompt tokens of the sequence in `slot` whose rows its prefill found
    /// resident (attached pages) instead of computing them.
    pub fn attached_tokens(&self, slot: usize) -> usize {
        self.seqs[slot].attached * self.pool.page_tokens
    }

    /// Every occupied slot's page table with its committed length (the
    /// write frontier) — the operand of `dsi-verify`'s page-sharing check:
    /// tables may share a common front, and only wholly behind every
    /// holder's frontier.
    pub fn page_tables(&self) -> Vec<(&[u32], usize)> {
        self.seqs.iter().filter(|s| !s.pages.is_empty()).map(|s| (s.pages(), s.len)).collect()
    }

    /// Admit a prompt into free `slot`: attach the prompt pages already
    /// resident and reserve the rest (all-or-nothing), run the prompt pass
    /// over the rows nobody has computed, and return the first greedy
    /// token. On `Err` — no room, or a weight fetch failed mid-pass — the
    /// slot stays free, every page the prompt reserved or attached is
    /// released, and nothing was published.
    pub fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, StepError<W::Error>> {
        assert!(!self.slot_in_use(slot), "prefill into occupied slot {slot}");
        assert!(!prompt.is_empty(), "empty prompt");
        // The table is published into the slot (and its pages into the
        // prefix index) only once the pass has run: if the pass panics, the
        // slot stays free for the scheduler's replay and nothing can attach
        // to rows that were never finished.
        let mut seq = PagedSeq::new();
        let offset = self.pool.reserve_prompt(&mut seq, prompt).map_err(StepError::Pages)?;
        Row::prompt_pass(&mut self.rows, 0, offset, &prompt[offset..]);
        let mut kv = PagedKv { pool: &mut self.pool, seqs: std::slice::from_ref(&seq) };
        if let Err(e) = fast::step(&self.w, &mut kv, &mut self.scratch, &self.rows) {
            self.pool.release(&mut seq);
            return Err(StepError::Weights(e));
        }
        let tok = argmax(self.scratch.logits_row(self.rows.len() - 1, self.w.config().vocab));
        self.pool.commit_prompt(&mut seq, prompt);
        self.seqs[slot] = seq;
        self.last[slot] = Some(tok);
        Ok(tok)
    }

    /// Advance the given occupied slots (strictly ascending) one token each
    /// in a single ragged M-row pass, pushing each new token to `out` in
    /// `slots` order. Page reservation for the step happens **before any
    /// compute**, atomically across the batch: on `Err(Pages)` no slot
    /// advanced and no page moved, so the scheduler can retire a victim and
    /// retry. On `Err(Weights)` no slot advanced and no token was emitted
    /// either; the step's pages stay reserved in their tables and the rows
    /// at each stepped slot's frontier — its private tail page, never a
    /// published one — are unspecified until the slot is released or
    /// stepped again.
    pub fn decode(
        &mut self,
        slots: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<(), StepError<W::Error>> {
        assert!(!slots.is_empty(), "decode: empty batch");
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "decode: slots must be strictly ascending"
        );
        // Atomic page reservation for the whole step.
        let mut needed = 0;
        self.rows.clear();
        for &si in slots {
            let token = self.last[si].expect("decode of free slot");
            let seq = &self.seqs[si];
            needed += self.pool.pages_for(seq.len + 1).saturating_sub(seq.pages.len());
            self.rows.push(Row { seq: si, token, pos: seq.len });
        }
        if needed > self.pool.free.len() {
            return Err(StepError::Pages(PagesExhausted { needed, free: self.pool.free.len() }));
        }
        for &si in slots {
            self.pool.reserve(&mut self.seqs[si], 1).expect("reservation pre-checked");
        }
        let mut kv = PagedKv { pool: &mut self.pool, seqs: &self.seqs };
        fast::step(&self.w, &mut kv, &mut self.scratch, &self.rows).map_err(StepError::Weights)?;
        let vocab = self.w.config().vocab;
        for (r, &si) in slots.iter().enumerate() {
            let next = argmax(self.scratch.logits_row(r, vocab));
            self.seqs[si].len += 1;
            self.last[si] = Some(next);
            out.push(next);
        }
        Ok(())
    }

    /// Retire `slot`: drop its references; pages nobody else holds return
    /// to the free list.
    pub fn release(&mut self, slot: usize) {
        self.last[slot].take().expect("release of free slot");
        self.pool.release(&mut self.seqs[slot]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::GptModel;
    use crate::zoo;

    fn model(layers: usize, seed: u64) -> GptModel {
        GptModel::random(zoo::tiny(layers), seed)
    }

    /// A page table holding a page that is already back on the free list
    /// (the double-free shape a buggy replay-release would produce) must
    /// trip the refcount assert — in release builds too — instead of
    /// silently aliasing a survivor.
    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught_in_every_build() {
        let mut pool = PagePool::new(1, 4, 4, 2);
        let mut a = PagedSeq::new();
        pool.reserve(&mut a, 3).unwrap(); // 2 pages
        let mut alias = PagedSeq { pages: a.pages().to_vec(), len: a.len(), attached: 0 };
        pool.release(&mut a);
        pool.release(&mut alias);
    }

    /// Seat `prompt` the way `PagedEngine::prefill` does, minus the pass.
    fn seat(pool: &mut PagePool, prompt: &[usize]) -> (PagedSeq, usize) {
        let mut seq = PagedSeq::new();
        let offset = pool.reserve_prompt(&mut seq, prompt).unwrap();
        pool.commit_prompt(&mut seq, prompt);
        (seq, offset)
    }

    #[test]
    fn attach_counts_distinct_pages_and_keeps_the_tail_private() {
        let mut pool = PagePool::new(1, 4, 8, 2);
        let (a, off_a) = seat(&mut pool, &[1, 2, 3, 4, 5]); // pages 0 1 | 2
        assert_eq!((off_a, a.pages()), (0, &[0u32, 1, 2][..]));
        let (b, off_b) = seat(&mut pool, &[1, 2, 3, 4, 9, 9]); // 0 1 attached, 3 private
        assert_eq!((off_b, b.pages()), (4, &[0u32, 1, 3][..]));
        assert_eq!(pool.stats().pages_in_use, 4, "in_use counts distinct pages");
        // Exactly two whole pages: only the first lies strictly below the
        // last token, so the second is recomputed privately, never attached.
        let (c, off_c) = seat(&mut pool, &[1, 2, 3, 4]);
        assert_eq!((off_c, c.pages()), (2, &[0u32, 4][..]));
        // Shorter than a page: nothing to share either way.
        let (d, off_d) = seat(&mut pool, &[1]);
        assert_eq!((off_d, d.pages()), (0, &[5u32][..]));
        assert_eq!(pool.stats().pages_in_use, 6);
        let mut seqs = [a, b, c, d];
        for s in &mut seqs {
            pool.release(s);
        }
        assert_eq!((pool.stats().pages_in_use, pool.stats().pages_free), (0, 8));
    }

    #[test]
    fn released_page_is_resurrected_until_it_is_handed_out() {
        let mut pool = PagePool::new(1, 4, 4, 2);
        let (mut a, _) = seat(&mut pool, &[1, 2, 3]); // page 0 published, 1 private
        pool.release(&mut a);
        assert_eq!(pool.stats().pages_free, 4, "a published page with no holder is a free page");
        // A hit takes it back off the free list: same page, nothing recomputed.
        let (mut b, off) = seat(&mut pool, &[1, 2, 7]);
        assert_eq!((off, b.pages()[0]), (2, 0));
        assert_eq!(pool.stats().pages_in_use, 2);
        pool.release(&mut b);
        // Handing page 0 out for other content drops the entry...
        let mut c = PagedSeq::new();
        pool.reserve(&mut c, 2).unwrap();
        assert_eq!(c.pages(), &[0]);
        assert!(pool.index.is_empty(), "entry dropped on hand-out");
        // ...so the same prompt misses, even once page 0 is free again.
        pool.release(&mut c);
        let (_, off) = seat(&mut pool, &[1, 2, 7]);
        assert_eq!(off, 0);
        assert_eq!(pool.index.len(), 1);
    }

    /// Hazard (1): a child entry outlives its parent's content. Republishing
    /// *other* content under the recycled root page id must not let a prompt
    /// that continues with the old child's tokens match the old child.
    #[test]
    fn recycled_root_page_cannot_match_a_stale_child() {
        let mut pool = PagePool::new(1, 4, 6, 2);
        let (mut a, _) = seat(&mut pool, &[1, 2, 3, 4, 5]); // 0:[1,2] 1:[3,4] published
        let (mut e, _) = seat(&mut pool, &[1, 2, 7]); // page 0 attached, 3 private
        pool.release(&mut a);
        pool.release(&mut e); // free list top: 0, 3, then 1, 2
        // Root page 0 is handed out and republished holding [8, 9]; the old
        // child (page 1, [3, 4] under page 0) is still indexed and free.
        let (b, _) = seat(&mut pool, &[8, 9, 7]);
        assert_eq!(b.pages(), &[0, 3]);
        assert!(pool.published[1].is_some() && pool.refs[1] == 0);
        let (c, off) = seat(&mut pool, &[8, 9, 3, 4, 5]);
        assert_eq!((off, c.attached), (2, 1), "only the new root matches, not the stale child");
    }

    #[test]
    fn attach_and_reserve_are_all_or_nothing() {
        let mut pool = PagePool::new(1, 4, 4, 2);
        let (mut a, _) = seat(&mut pool, &[1, 2, 3, 4, 5]); // 3 pages
        pool.release(&mut a);
        let mut hog = PagedSeq::new();
        pool.reserve(&mut hog, 2).unwrap(); // pops page 0 (and its entry)
        pool.release(&mut hog);
        let (_b, _) = seat(&mut pool, &[1, 2, 3]); // republish [1,2] in page 0; page 1 private
        // Two whole pages to attach ([1,2] held by b; [3,4] is gone with the
        // old root) plus two private: needs 3 from a free list of 2.
        let mut c = PagedSeq::new();
        let before = (pool.stats(), pool.refs.clone(), pool.free.clone());
        let err = pool.reserve_prompt(&mut c, &[1, 2, 3, 4, 5, 6, 7]).unwrap_err();
        assert_eq!(err, PagesExhausted { needed: 3, free: 2 });
        assert!(c.pages().is_empty());
        assert_eq!((pool.stats(), pool.refs.clone(), pool.free.clone()), before);
        // An unheld hit costs a free page like a fresh one: one resurrection
        // plus two private pages do not fit a free list of two.
        let mut small = PagePool::new(1, 4, 3, 2);
        let (mut d, _) = seat(&mut small, &[1, 2, 3]); // page 0 published, 1 private
        let mut hold = PagedSeq::new();
        small.reserve(&mut hold, 1).unwrap(); // page 2
        small.release(&mut d);
        let err = small.reserve_prompt(&mut PagedSeq::new(), &[1, 2, 3, 4, 5]).unwrap_err();
        assert_eq!(err, PagesExhausted { needed: 3, free: 2 });
        assert_eq!((small.refs[0], small.free.clone()), (0, vec![1, 0]), "page 0 stayed free");
    }

    #[test]
    #[should_panic(expected = "write after share")]
    fn write_after_share_is_caught_in_every_build() {
        let mut pool = PagePool::new(1, 4, 4, 2);
        let (a, _) = seat(&mut pool, &[1, 2, 3]);
        let row = [0.0f32; 4];
        pool.write_row(&a, 0, 1, &row, &row); // position 1 lives in the published page
    }

    #[test]
    fn pool_identity_and_lifo_reuse() {
        let mut pool = PagePool::new(2, 8, 6, 4);
        let mut a = PagedSeq::new();
        let mut b = PagedSeq::new();
        pool.reserve(&mut a, 9).unwrap(); // 3 pages
        pool.reserve(&mut b, 4).unwrap(); // 1 page
        assert_eq!(pool.stats().pages_in_use, 4);
        assert_eq!(pool.stats().high_water, 4);
        let a_pages = a.pages().to_vec();
        pool.release(&mut a);
        assert_eq!(pool.stats().pages_in_use, 1);
        assert_eq!(pool.stats().high_water, 4, "high water survives release");
        // LIFO: the next reservation reuses a's first page, released last.
        let mut c = PagedSeq::new();
        pool.reserve(&mut c, 1).unwrap();
        assert_eq!(c.pages()[0], a_pages[0]);
    }

    #[test]
    fn pool_exhaustion_is_all_or_nothing() {
        let mut pool = PagePool::new(1, 8, 3, 4);
        let mut a = PagedSeq::new();
        pool.reserve(&mut a, 8).unwrap(); // 2 of 3 pages
        let mut b = PagedSeq::new();
        let err = pool.reserve(&mut b, 12).unwrap_err(); // needs 3, 1 free
        assert_eq!(err, PagesExhausted { needed: 3, free: 1 });
        assert!(b.pages().is_empty(), "failed reservation must not hold pages");
        assert_eq!(pool.stats().pages_in_use, 2);
        // Growing a into the free page still works (len is 0 until a
        // forward commits rows, so the target is the full 12 tokens).
        pool.reserve(&mut a, 12).unwrap();
        assert_eq!(a.pages().len(), 3);
        assert_eq!(pool.stats().pages_free, 0);
    }

    #[test]
    fn paged_engine_matches_fast_session_tokens() {
        // The tentpole identity: paged decode through scattered page tables
        // is bit-identical (hence token-identical) to solo contiguous runs.
        let m = model(2, 17);
        let pm = PackedModel::pack(&m);
        // page_tokens=3 deliberately misaligns pages with the AVX 8-block.
        let mut eng = PagedEngine::new(&pm, 4, 64, 3);
        let prompts = [vec![1usize, 2, 3], vec![9, 8, 7, 6], vec![4], vec![5, 5]];
        let mut outs: Vec<Vec<usize>> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| vec![eng.prefill(i, p).unwrap()])
            .collect();
        let all = [0usize, 1, 2, 3];
        for _ in 0..5 {
            let mut step = Vec::new();
            eng.decode(&all, &mut step).unwrap();
            for (i, &t) in step.iter().enumerate() {
                outs[i].push(t);
            }
        }
        for (i, p) in prompts.iter().enumerate() {
            let want = pm.session(p.len()).generate(p, 6);
            assert_eq!(outs[i], want, "slot {i}");
        }
    }

    #[test]
    fn ragged_join_and_retire_keep_identity() {
        // Sequences join and leave mid-stream; released pages are recycled
        // by later admissions without perturbing residents.
        let m = model(2, 23);
        let pm = PackedModel::pack(&m);
        let mut eng = PagedEngine::new(&pm, 3, 32, 4);
        let p0 = vec![1usize, 2, 3];
        let p1 = vec![7usize, 6];
        let p2 = vec![11usize, 12, 13, 14];
        let mut o0 = vec![eng.prefill(0, &p0).unwrap()];
        let mut step = Vec::new();
        eng.decode(&[0], &mut step).unwrap();
        o0.push(step[0]);
        // Slot 1 joins; both advance together.
        let mut o1 = vec![eng.prefill(1, &p1).unwrap()];
        step.clear();
        eng.decode(&[0, 1], &mut step).unwrap();
        o0.push(step[0]);
        o1.push(step[1]);
        // Slot 0 retires; its pages go back; slot 2 joins reusing them.
        eng.release(0);
        let mut o2 = vec![eng.prefill(2, &p2).unwrap()];
        for _ in 0..3 {
            step.clear();
            eng.decode(&[1, 2], &mut step).unwrap();
            o1.push(step[0]);
            o2.push(step[1]);
        }
        assert_eq!(o0, pm.session(3).generate(&p0, 3));
        assert_eq!(o1, pm.session(2).generate(&p1, 5));
        assert_eq!(o2, pm.session(4).generate(&p2, 4));
        // Unrelated prompts: all tables disjoint (spot-check final state).
        let tables = eng.page_tables();
        let mut seen = std::collections::HashSet::new();
        for (t, _) in &tables {
            for &p in *t {
                assert!(seen.insert(p), "page {p} aliased across slots");
            }
        }
    }

    #[test]
    fn shared_prefix_prefill_computes_only_the_suffix_and_stays_bit_exact() {
        let m = model(2, 29);
        let pm = PackedModel::pack(&m);
        let mut eng = PagedEngine::new(&pm, 3, 32, 3);
        let prefix = [5usize, 6, 7, 8, 9, 10, 11]; // two whole pages + 1
        let prompts: Vec<Vec<usize>> =
            [&[1usize, 2][..], &[3], &[]].iter().map(|s| [&prefix[..], s].concat()).collect();
        let mut outs: Vec<Vec<usize>> = Vec::new();
        for (i, p) in prompts.iter().enumerate() {
            outs.push(vec![eng.prefill(i, p).unwrap()]);
            assert_eq!(eng.attached_tokens(i), if i == 0 { 0 } else { 6 }, "slot {i}");
        }
        // 3 + 3 + 3 pages unshared; the two prefix pages are held once.
        assert_eq!(eng.pool_stats().pages_in_use, 5);
        let mut step = Vec::new();
        for _ in 0..5 {
            step.clear();
            eng.decode(&[0, 1, 2], &mut step).unwrap();
            for (o, &t) in outs.iter_mut().zip(&step) {
                o.push(t);
            }
        }
        // A replay of slot 1's committed prefix re-attaches by itself.
        eng.release(1);
        let committed = [&prompts[1][..], &outs[1][..5]].concat();
        assert_eq!(eng.prefill(1, &committed).unwrap(), outs[1][5]);
        assert_eq!(eng.attached_tokens(1), 6);
        for (p, o) in prompts.iter().zip(&outs) {
            assert_eq!(o, &pm.session(p.len()).generate(p, 6));
        }
        for s in 0..3 {
            eng.release(s);
        }
        assert_eq!(eng.pool_stats().pages_in_use, 0);
    }

    /// Hazard (3): release-all-then-replay must fit a pool sized to the
    /// *shared* demand, in whatever order the slots replay — including a
    /// sequence whose context ends exactly on a page boundary (its last
    /// page can be neither attached nor published) and a fault that strikes
    /// before the step reserved anything.
    #[test]
    fn recovery_fits_a_pool_sized_to_the_shared_demand() {
        let m = model(1, 43);
        let pm = PackedModel::pack(&m);
        let prefix = [3usize, 1, 4, 1];
        let prompts =
            [prefix.to_vec(), [&prefix[..], &[5]].concat(), [&prefix[..], &[9, 2]].concat()];
        let orders: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for steps in 0usize..3 {
            for order in orders {
                // Seat and decode on a roomy pool to learn the demand...
                let run = |pages: usize| {
                    let mut eng = PagedEngine::new(&pm, 3, pages, 2);
                    let mut outs: Vec<Vec<usize>> = prompts
                        .iter()
                        .enumerate()
                        .map(|(i, p)| vec![eng.prefill(i, p).unwrap()])
                        .collect();
                    let mut step = Vec::new();
                    for _ in 0..steps {
                        step.clear();
                        eng.decode(&[0, 1, 2], &mut step).unwrap();
                        for (o, &t) in outs.iter_mut().zip(&step) {
                            o.push(t);
                        }
                    }
                    (eng, outs)
                };
                let demand = run(32).0.pool_stats().pages_in_use;
                let unshared: usize = prompts.iter().map(|p| (p.len() + steps).div_ceil(2)).sum();
                assert!(demand < unshared, "the pool must be smaller than the unshared demand");
                // ...then run again on exactly that many pages and recover.
                let (mut eng, outs) = run(demand);
                assert_eq!(eng.pool_stats().pages_free, 0);
                for s in 0..3 {
                    eng.release(s);
                }
                for s in order {
                    let ctx = [&prompts[s][..], &outs[s][..outs[s].len() - 1]].concat();
                    let tok = eng
                        .prefill(s, &ctx)
                        .unwrap_or_else(|e| panic!("steps {steps} order {order:?} slot {s}: {e:?}"));
                    assert_eq!(tok, *outs[s].last().unwrap());
                }
                assert!(eng.pool_stats().pages_in_use <= demand);
            }
        }
    }

    /// The scheduler's shed-newest-and-retry loop over sequences whose
    /// pages are mostly shared: releasing a victim returns only its private
    /// pages (the shared front stays pinned by the survivors), and the loop
    /// still terminates because every shed shrinks the batch.
    #[test]
    fn shedding_a_sharer_frees_only_its_private_pages() {
        let m = model(1, 41);
        let pm = PackedModel::pack(&m);
        // 2-token pages; 4 shared + 1 private page per sequence = 7 of 7.
        let mut eng = PagedEngine::new(&pm, 3, 7, 2);
        let prefix = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let prompts: Vec<Vec<usize>> =
            (0..3).map(|i| [&prefix[..], &[20 + i, 7]].concat()).collect();
        for (i, p) in prompts.iter().enumerate() {
            eng.prefill(i, p).unwrap();
        }
        assert_eq!(eng.pool_stats().pages_free, 0);
        // Every resident needs a new page for position 10; none is free.
        let mut active = vec![0usize, 1, 2];
        let mut out = Vec::new();
        let mut shed = 0;
        while let Err(StepError::Pages(e)) = eng.decode(&active, &mut out) {
            assert_eq!(e.free, shed, "a shed sharer frees its one private page, no shared one");
            let victim = active.pop().expect("the loop ends before the batch is empty");
            eng.release(victim);
            shed += 1;
        }
        assert_eq!((shed, active.len()), (2, 1));
        assert_eq!(out, pm.session(10).generate(&prompts[0], 2)[1..]);
        assert_eq!(eng.pool_stats().pages_in_use, 6);
    }

    #[test]
    fn decode_out_of_pages_is_typed_and_non_destructive() {
        let m = model(1, 31);
        let pm = PackedModel::pack(&m);
        // 2 pages of 2 tokens: a 3-token prompt takes both.
        let mut eng = PagedEngine::new(&pm, 2, 2, 2);
        eng.prefill(0, &[1, 2, 3]).unwrap();
        let before = eng.context_len(0);
        let mut out = Vec::new();
        // Position 3 fits page 1 (capacity 4): first decode succeeds.
        eng.decode(&[0], &mut out).unwrap();
        // Position 4 needs a third page: typed failure, nothing advanced.
        let err = eng.decode(&[0], &mut out).unwrap_err();
        assert_eq!(err, StepError::Pages(PagesExhausted { needed: 1, free: 0 }));
        assert_eq!(eng.context_len(0), before + 1);
        assert_eq!(out.len(), 1);
        // Releasing the resident frees everything.
        eng.release(0);
        assert_eq!(eng.pool_stats().pages_in_use, 0);
        assert_eq!(eng.pool_stats().pages_free, 2);
    }

    #[test]
    fn prefill_rejects_oversized_prompt_without_leak() {
        let m = model(1, 37);
        let pm = PackedModel::pack(&m);
        let mut eng = PagedEngine::new(&pm, 1, 2, 2);
        let err = eng.prefill(0, &[1, 2, 3, 4, 5]).unwrap_err();
        assert_eq!(err, StepError::Pages(PagesExhausted { needed: 3, free: 2 }));
        assert!(!eng.slot_in_use(0));
        assert_eq!(eng.pool_stats().pages_in_use, 0);
    }
}
