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
//!   resolve through the table via `fused::attention_heads_paged_into`,
//!   whose FLOP sequence is shared with the contiguous kernel — paged
//!   decode is **bit-identical** to [`crate::fast::FastSession`], not
//!   merely close.
//! * [`Engine`] hosts up to `max_slots` concurrent sequences over one
//!   [`WeightSource`] and one scratch arena — a resident packed model
//!   ([`PagedEngine`], the alias the serving path and the benchmark name) or
//!   an offload tier that hands layer panels out one at a time; the slot
//!   lifecycle is the same code either way. Its one body is
//!   [`Engine::pass`]: a single ragged M-row `fast::step` that seats free
//!   slots with their contexts (attaching the context pages some earlier
//!   prompt already filled, reserving the rest, and computing only the rows
//!   nobody has computed) and advances occupied slots one token, with every
//!   page of the pass reserved up front, all-or-nothing. `prefill` is a
//!   pass that only seats, `decode` one that only advances, and `release`
//!   drops a retired sequence's references, returning the pages nobody else
//!   holds to the free list. This is the execution surface `dsi-serve`'s
//!   continuous-batching scheduler drives, one pass per iteration. A weight
//!   fetch that fails mid-pass ([`StepError::Weights`]) commits nothing:
//!   see [`Engine::pass`]. A pass of two or more rows over a resident model
//!   splits across the calling thread and a helper thread the engine owns
//!   ([`crate::team`]) when the host has a second core, bitwise the same
//!   pass.
//! * A tensor-parallel group is this engine at a degree:
//!   [`Engine::group`] runs every pass, one-row passes included, on `tp`
//!   members under the group's [`CommConfig`]. A split pass that loses
//!   members narrows the engine by them, down to one, and the
//!   [`GroupReport`] logs it.
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
//!   multiply referenced page, save a pending page of its own (below).
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
//! * **Publication follows success.** A prompt's own shareable pages enter
//!   the index when [`PagePool::reserve_prompt`] reserves them, *pending*
//!   until [`PagePool::commit_prompt`] records that the pass filling them
//!   returned. A later seat of that same pass may attach a pending page:
//!   `fast::step` writes every K/V row of a layer before any row attends.
//!   A prompt whose pass fails or panics is un-indexed
//!   ([`PagePool::abandon_prompt`]) before any other pass seats, so no
//!   other pass ever attaches an unwritten row, and a committed page is
//!   never written again — which is why fault recovery may re-attach to
//!   them: the fault model poisons state *past* the committed prefix.
//!
//! [`reserve`]: PagePool::reserve

use crate::fast::{self, argmax, Arena, KvSink, PackedModel, Row, RowParallel, Scratch, Solo, WeightSource};
use crate::record::{PassRecord, Recorder};
use crate::team::{Member, Team};
use dsi_kernels::blocked::PackedB;
use dsi_kernels::fused::{self, KvArenas, PageTable};
use dsi_sim::fault::CollectiveError;
use dsi_sim::shmem::CommConfig;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use serde::Serialize;

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
/// it (nothing moved — a scheduling signal), the weight source failed under
/// it (`Infallible` for a resident [`PackedModel`], so that variant does not
/// exist there), or a member of a split pass left a join typed (its
/// deadline passed, or its fault script made it exit). `Weights` and
/// `Member` leave the engine alike (see [`Engine::pass`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError<E> {
    Pages(PagesExhausted),
    Weights(E),
    Member(CollectiveError),
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
/// Storage is a K and a V arena per layer, each `grown × page_tokens` rows
/// of `hidden` floats, page `p` holding arena floats `p · page_tokens ·
/// hidden` onward: row by row for a pool [`PagePool::new`] builds, head by
/// head (`[heads][page_tokens][head_dim]`) for an [`Engine`]'s, so a member
/// of a split pass reads its heads' keys of a page as dense blocks rather
/// than a slice of every row. The arenas are allocated once, for
/// `pages_total` pages, but hold (and have zeroed) only the first `grown`:
/// [`PagePool::reserve`] extends them in place when it hands out a page
/// past them. The free list hands never-used pages out in ascending order,
/// so the arenas cover the pool's high water, not its capacity: a fresh
/// pool writes no memory, however many pages it may hand out. Page
/// allocation and release never touch the heap (the prefix index does, in
/// [`PagePool::reserve_prompt`] only).
#[derive(Debug)]
pub struct PagePool {
    hidden: usize,
    /// Columns a page lays out together: `hidden` (row by row), or one
    /// head's.
    head_dim: usize,
    page_tokens: usize,
    pages_total: usize,
    /// Pages the arenas cover.
    grown: usize,
    /// Per layer, its K arena: `grown * page_tokens * hidden` floats.
    k: Vec<Vec<f32>>,
    /// Per layer, its V arena, same shape.
    v: Vec<Vec<f32>>,
    /// Per layer, its arenas' base addresses as the running pass took them
    /// ([`PagePool::bases`]).
    bases: Vec<LayerBase>,
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
        let pool = PagePool {
            hidden,
            head_dim: hidden,
            page_tokens,
            pages_total,
            grown: 0,
            k: (0..layers).map(|_| Vec::with_capacity(pages_total * page_tokens * hidden)).collect(),
            v: (0..layers).map(|_| Vec::with_capacity(pages_total * page_tokens * hidden)).collect(),
            bases: vec![LayerBase { k: std::ptr::null_mut(), v: std::ptr::null_mut() }; layers],
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

    /// The pool with its pages laid out head by head, for `heads` heads.
    fn by_heads(self, heads: usize) -> Self {
        assert!(self.hidden.is_multiple_of(heads), "{heads} heads do not split {} columns", self.hidden);
        PagePool { head_dim: self.hidden / heads, ..self }
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
        let mut cover = self.grown;
        for _ in 0..need {
            let p = self.free.pop().expect("checked above");
            let pi = p as usize;
            self.generation[pi] += 1;
            if let Some(key) = self.published[pi].take() {
                self.index.remove(&key);
            }
            self.refs[pi] = 1;
            seq.pages.push(p);
            cover = cover.max(pi + 1);
        }
        self.in_use += need;
        self.high_water = self.high_water.max(self.in_use);
        self.grow(cover);
        self.assert_identity();
        Ok(())
    }

    /// Make the arenas cover pages `0..pages`, zeroing the new pages' rows:
    /// within the capacity `new` allocated, so nothing moves.
    fn grow(&mut self, pages: usize) {
        if pages <= self.grown {
            return;
        }
        let len = pages * self.page_tokens * self.hidden;
        for arena in self.k.iter_mut().chain(&mut self.v) {
            arena.resize(len, 0.0);
        }
        self.grown = pages;
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
    /// reserve private pages for the rest and publish the shareable ones
    /// among them as pending. All-or-nothing: on `Err` nothing moved.
    /// Returns the number of leading prompt tokens whose rows are attached
    /// — the offset the prompt pass starts at. The pass must write every
    /// row from there on before any prompt attaching `seq`'s pending pages
    /// reads them, then [`PagePool::commit_prompt`] (or, if it fails,
    /// [`PagePool::abandon_prompt`]).
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
        // Each key is new: the first missed above, the rest hang under a
        // page handed out just now.
        let pt = self.page_tokens;
        for i in seq.attached..self.shareable(prompt.len()) {
            let parent = i.checked_sub(1).map(|up| seq.pages[up]);
            let key = self.chunk_key(parent, &prompt[i * pt..(i + 1) * pt]);
            let p = seq.pages[i];
            self.published[p as usize] = Some(key.clone());
            let prev = self.index.insert(key, p);
            assert!(prev.is_none(), "chunk of page {p} was already indexed");
        }
        Ok(seq.attached * self.page_tokens)
    }

    /// The pass over `prompt` succeeded and its rows are written: advance
    /// `seq` to the prompt's length, so the pages it published are no
    /// longer pending.
    pub fn commit_prompt(&mut self, seq: &mut PagedSeq, prompt: &[usize]) {
        assert!(seq.len == 0 && self.pages_for(prompt.len()) == seq.pages.len());
        seq.len = prompt.len();
    }

    /// The pass over a reserved, uncommitted prompt failed or panicked, so
    /// the rows of the pages it published are unspecified: un-index them,
    /// then [`PagePool::release`] `seq`.
    pub fn abandon_prompt(&mut self, seq: &mut PagedSeq) {
        assert_eq!(seq.len, 0, "abandon of a committed sequence");
        for &p in &seq.pages[seq.attached..] {
            if let Some(key) = self.published[p as usize].take() {
                self.index.remove(&key);
            }
        }
        self.release(seq);
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
    /// sequence alone holds and nobody can attach to, or in a page it
    /// reserved for a prompt not yet committed (the write-after-share guard:
    /// only the pass that reserved a published page writes it, before anyone
    /// reads it, so there is nothing to copy).
    pub fn write_row(&mut self, seq: &PagedSeq, layer: usize, pos: usize, k: &[f32], v: &[f32]) {
        let (h, d) = (self.hidden, self.head_dim);
        assert_eq!(k.len(), h);
        assert_eq!(v.len(), h);
        let page = self.page_at(seq, pos);
        for c in (0..h).step_by(d) {
            let at = self.key_at(page, pos, c);
            self.k[layer][at..at + d].copy_from_slice(&k[c..c + d]);
            self.v[layer][at..at + d].copy_from_slice(&v[c..c + d]);
        }
    }

    /// Where the page holding row `pos` of `seq` starts in every layer's
    /// arenas, checked against [`PagePool::write_row`]'s guards.
    fn page_at(&self, seq: &PagedSeq, pos: usize) -> usize {
        assert!(
            pos < seq.pages.len() * self.page_tokens,
            "write past reservation: pos {pos}, {} pages",
            seq.pages.len()
        );
        let i = pos / self.page_tokens;
        let p = seq.pages[i] as usize;
        assert!(
            (self.refs[p] == 1 && self.published[p].is_none())
                || (seq.len == 0 && i >= seq.attached),
            "write after share: page {p} is published or multiply referenced"
        );
        p * self.page_tokens * self.hidden
    }

    /// Where row `pos`'s columns `c..c + head_dim` (`c` a multiple of
    /// `head_dim`) start, in the page starting at `page`.
    fn key_at(&self, page: usize, pos: usize, c: usize) -> usize {
        let (pt, d) = (self.page_tokens, self.head_dim);
        page + (c / d) * pt * d + (pos % pt) * d
    }

    /// Whether pages hold their rows head by head.
    fn head_major(&self) -> bool {
        self.head_dim != self.hidden
    }

    /// One layer's K/V arenas (attention read operands), covering every
    /// page handed out so far, in the pool's layout: for a pool
    /// [`PagePool::new`] builds, the row-by-row one a
    /// `fused::PagedKvView` reads.
    pub fn arenas(&self, layer: usize) -> (&[f32], &[f32]) {
        (&self.k[layer], &self.v[layer])
    }

    /// Take every layer's arena base addresses afresh, for a pass that is
    /// about to address them through [`PagedKv`]; returns each arena's
    /// length in floats.
    fn bases(&mut self) -> usize {
        for (base, (k, v)) in self.bases.iter_mut().zip(self.k.iter_mut().zip(&mut self.v)) {
            *base = LayerBase { k: k.as_mut_ptr(), v: v.as_mut_ptr() };
        }
        self.grown * self.page_tokens * self.hidden
    }
}

/// One layer's K and V arenas as a pass addresses them: base addresses,
/// taken from the exclusively borrowed pool just before the pass
/// ([`PagePool::bases`]), so the members of a split pass can each write and
/// read their own heads' keys.
#[derive(Debug, Clone, Copy)]
struct LayerBase {
    k: *mut f32,
    v: *mut f32,
}

// SAFETY: only addresses; every access through them is `PagedKv`'s, whose
// writes land in the writing member's own heads' keys and whose reads
// (attention) cover only the reading member's own heads' keys.
unsafe impl Send for LayerBase {}
// SAFETY: as above.
unsafe impl Sync for LayerBase {}

/// The paged [`KvSink`] of one member of a pass (the whole pass, when it
/// runs on one): K/V rows land in the pool through the page table
/// `seqs[row.seq]` and attention reads them back through the same table via
/// `fused::attention_heads_paged_into` — the same per-row attention core as
/// the contiguous path, so logits are bit-identical. The pool's tables are
/// read shared and its arenas through their [`LayerBase`]s, each member in
/// the K/V of the heads it owns — each page's blocks of them, the pool being
/// laid out head by head: what only it computes, and all its attention
/// reads.
struct PagedKv<'a> {
    pool: &'a PagePool,
    /// Floats in each arena, as [`PagePool::bases`] returned.
    len: usize,
    seqs: &'a [PagedSeq],
}

impl KvSink for PagedKv<'_> {
    #[inline]
    fn write(&mut self, layer: usize, row: Row, cols: Range<usize>, k: &[f32], v: &[f32]) {
        let (pool, d) = (self.pool, self.pool.head_dim);
        assert!(cols.start.is_multiple_of(d) && k.len() == cols.len() && v.len() == cols.len());
        let (page, base) = (pool.page_at(&self.seqs[row.seq], row.pos), pool.bases[layer]);
        for (i, c) in cols.step_by(d).enumerate() {
            let at = pool.key_at(page, row.pos, c);
            let (k, v) = (&k[i * d..(i + 1) * d], &v[i * d..(i + 1) * d]);
            assert!(at + d <= self.len);
            // SAFETY: in bounds (asserted); the columns `c..c + d` of this
            // row are one of this member's heads, which no other member
            // writes or reads, and the arenas are not touched otherwise
            // while the pass runs.
            unsafe {
                std::ptr::copy_nonoverlapping(k.as_ptr(), base.k.add(at), d);
                std::ptr::copy_nonoverlapping(v.as_ptr(), base.v.add(at), d);
            }
        }
    }

    #[inline]
    fn attend(&self, layer: usize, row: Row, heads: Range<usize>, head_dim: usize, q: &[f32], out: &mut [f32]) {
        let base = self.pool.bases[layer];
        // SAFETY: both arenas hold `len` floats (`PagePool::bases`). Other
        // members write other heads' keys in them meanwhile; the call reads
        // only this member's heads' keys, which no other member writes, and
        // forms no reference to any other float.
        let kv = unsafe { KvArenas::from_raw(base.k, base.v, self.len) };
        let (pages, page_tokens, head_major) = (self.seqs[row.seq].pages(), self.pool.page_tokens, self.pool.head_major());
        let table = PageTable { pages, page_tokens, len: row.pos + 1, offset: row.pos, head_major };
        fused::attention_heads_paged_into(q, kv, &table, self.pool.hidden, head_dim, heads, out);
    }
}

/// How a pass runs each member's part: bare ([`Bare`], every engine pass)
/// or logged into a [`Recorder`] ([`Engine::record_pass`]). It is a type
/// parameter of the pass, not a branch in it, so only `record_pass`
/// compiles the recorder.
trait Runs: Sync {
    /// One member's part of a pass: the step over its share, then its part
    /// of the logits.
    fn member_pass<W: WeightSource, K: KvSink + ?Sized, R: RowParallel>(&self, w: &W, kv: &mut K, s: &mut Arena<'_>, rows: &[Row], seam: &mut R) -> Result<(), W::Error>;
}

/// Every engine pass: each member runs its part as it is.
struct Bare;

impl Runs for Bare {
    #[inline]
    fn member_pass<W: WeightSource, K: KvSink + ?Sized, R: RowParallel>(&self, w: &W, kv: &mut K, s: &mut Arena<'_>, rows: &[Row], seam: &mut R) -> Result<(), W::Error> {
        fast::step_in(w, kv, s, rows, seam)?;
        fast::logits_in(w, s, rows.len(), seam);
        Ok(())
    }
}

impl Runs for Recorder {
    fn member_pass<W: WeightSource, K: KvSink + ?Sized, R: RowParallel>(&self, w: &W, kv: &mut K, s: &mut Arena<'_>, rows: &[Row], seam: &mut R) -> Result<(), W::Error> {
        self.member(seam, kv, w.config().hidden, |seam, kv| Bare.member_pass(w, kv, s, rows, seam))
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
    /// Members a split pass runs on: a group's degree; for [`Engine::new`],
    /// [`PASS_MEMBERS`] on a host with a core to spare, else 1; always 1
    /// over a source that is not resident. A split pass that loses members
    /// narrows it.
    degree: usize,
    /// The fewest rows a pass splits at: 1 in a group, 2 otherwise.
    split_rows: usize,
    /// The helper threads a split pass runs its other members on, spawned
    /// by the first split pass.
    team: Team,
    report: GroupReport,
}

/// Faults the [`GroupReport`] log keeps: the most recent ones.
const FAULT_LOG: usize = 32;

/// What an [`Engine`]'s split passes lost and how it served on.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GroupReport {
    /// Faults recovered: failed split passes after which the engine served
    /// on. Each re-creates the member barrier the next split pass joins at.
    pub rebuilds: u32,
    /// Degradations as `(from_tp, to_tp)` pairs, in order.
    pub degradations: Vec<(usize, usize)>,
    /// The last 32 member failures, oldest first.
    pub faults: Vec<String>,
}

/// Members a multi-row pass runs on when it splits: two, the count whose
/// speed and CPU cost the benchmark has measured (DESIGN.md, "Two cores
/// per pass"). A wider split's cost is unmeasured.
const PASS_MEMBERS: usize = 2;

/// The engine over a resident packed model, borrowed.
pub type PagedEngine<'p, 'm, B = PackedB> = Engine<&'p PackedModel<'m, B>>;

impl<W: WeightSource> Engine<W> {
    /// An engine with `max_slots` sequence slots over a pool of
    /// `pages_total` pages of `page_tokens` tokens each. A pass of two or
    /// more rows over a resident source runs on two members (`PASS_MEMBERS`)
    /// when the host has a core to spare; every other pass runs solo.
    pub fn new(w: W, max_slots: usize, pages_total: usize, page_tokens: usize) -> Self {
        let spare_core = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        let degree = if spare_core { PASS_MEMBERS.min(w.config().heads) } else { 1 };
        Self::build(w, degree, 2, Team::default(), max_slots, pages_total, page_tokens)
    }

    /// A tensor-parallel group of `tp` members (`1..=heads`): the engine
    /// of [`Engine::new`], every pass — one-row passes included — split
    /// across its members, each join under `comm`'s deadline and fault
    /// script. A source that is not [`WeightSource::RESIDENT`] still runs
    /// every pass solo.
    pub fn group(w: W, tp: usize, comm: CommConfig, max_slots: usize, pages_total: usize, page_tokens: usize) -> Self {
        let heads = w.config().heads;
        assert!((1..=heads).contains(&tp), "tp {tp} cannot split {heads} heads");
        Self::build(w, tp, 1, Team::new(comm), max_slots, pages_total, page_tokens)
    }

    fn build(
        w: W,
        degree: usize,
        split_rows: usize,
        team: Team,
        max_slots: usize,
        pages_total: usize,
        page_tokens: usize,
    ) -> Self {
        assert!(max_slots > 0);
        let c = w.config();
        let pool = PagePool::new(c.layers, c.hidden, pages_total, page_tokens).by_heads(c.heads);
        let scratch = Scratch::new(c, max_slots);
        Engine {
            pool,
            seqs: vec![PagedSeq::new(); max_slots],
            last: vec![None; max_slots],
            scratch,
            rows: Vec::with_capacity(max_slots),
            degree: if W::RESIDENT { degree } else { 1 },
            split_rows,
            team,
            report: GroupReport::default(),
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

    /// The `[rows, vocab]` logits of the last pass that ran, a row per row
    /// it computed, in pass order (a seat's attached rows are not computed).
    pub fn logits(&self) -> &[f32] {
        &self.scratch.logits[..self.rows.len() * self.w.config().vocab]
    }

    /// Joins each member of the last split pass's barrier has made since
    /// that barrier was created (a new member count, or a failed pass,
    /// re-creates it): what `dsi-verify` holds to the joins the recorded
    /// passes lay out ([`Engine::record_pass`]).
    pub fn member_joins(&self) -> Vec<u64> {
        self.team.joins().collect()
    }

    /// The members the next split pass runs on.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The failed split passes so far, and how the engine narrowed.
    pub fn report(&self) -> &GroupReport {
        &self.report
    }

    /// Every occupied slot's page table with its committed length (the
    /// write frontier) — the operand of `dsi-verify`'s page-sharing check:
    /// tables may share a common front, and only wholly behind every
    /// holder's frontier.
    pub fn page_tables(&self) -> Vec<(&[u32], usize)> {
        self.seqs.iter().filter(|s| !s.pages.is_empty()).map(|s| (s.pages(), s.len)).collect()
    }

    /// Admit a prompt into free `slot` and return its first greedy token: a
    /// [`Engine::pass`] that only seats, so on `Err` the slot stays free.
    pub fn prefill(&mut self, slot: usize, prompt: &[usize]) -> Result<usize, StepError<W::Error>> {
        let mut out = Vec::with_capacity(1);
        self.pass(&[(slot, prompt)], &[], &mut out).map(|()| out[0])
    }

    /// Advance the given occupied slots one token each, pushing each new
    /// token to `out` in `slots` order: a [`Engine::pass`] that only
    /// advances.
    pub fn decode(
        &mut self,
        slots: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<(), StepError<W::Error>> {
        self.pass(&[], slots, out)
    }

    /// One `fast::step` over every row of the pass: seat each free slot of
    /// `seats` with its context, computing only the rows no attached page
    /// holds, and advance each occupied slot of `advance` (strictly
    /// ascending) one token. `out` gets the seats' first tokens, then the
    /// advanced slots' tokens. The numerics are those of separate passes:
    /// `step` writes every K/V row of a layer before any row attends, and
    /// each row attends only through its own slot's table.
    ///
    /// The pass runs on [`Engine::degree`] members when it has enough rows
    /// to split (see [`Engine::new`] and [`Engine::group`]), else on this
    /// thread alone; either way it is bitwise the same pass. Member `t`
    /// owns its `Share::part` of the heads — their QKV columns, their K/V
    /// of the one page pool (each page holds its rows head by head, so a
    /// member's heads of a page are dense blocks), and their attention —
    /// and of the output columns of W_o, FF1, FF2 and the logits. The
    /// members write disjoint columns of the one scratch and join wherever
    /// a region reads whole rows of what another member wrote
    /// (`fast::step`), so every column keeps its one accumulator chain: no
    /// all-reduce, no argmax combine.
    ///
    /// Every page is reserved before any compute, the seats' first and in
    /// order, so a later seat attaches the pages an earlier seat of the pass
    /// reserved for the same chunks and computes only its own rows. A pass
    /// whose step panics frees its seats before the panic leaves it; a
    /// table a pass that panicked before its step left in any slot is
    /// released first. On `Err(Pages)` nothing ran and, that release
    /// aside, the pool's statistics are as before. On `Err(Weights)` or
    /// `Err(Member)` no slot advanced and nothing was published: every seat
    /// is free again, while each advanced slot keeps its reserved pages, the
    /// rows at its frontier (a private tail page) unspecified until it is
    /// released or stepped again.
    ///
    /// A member of a split pass that leaves a join typed fails the pass
    /// with `Err(Member)`; one that panics fails it with its panic, raised
    /// here once every member is out and the seats are free. Either way the
    /// failure is logged in [`Engine::report`], and the engine narrows by
    /// each member the pass lost — each one that exited or panicked — down
    /// to one. A pass with a token past the vocabulary or a position past
    /// `max_seq` panics here before anything runs, so bad input never
    /// counts as members lost.
    pub fn pass(
        &mut self,
        seats: &[(usize, &[usize])],
        advance: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<(), StepError<W::Error>> {
        self.pass_with(seats, advance, out, &Bare).map(drop)
    }

    /// `dsi-verify`'s entry: [`Engine::pass`], run by the same body with
    /// each member's seam and K/V sink wrapped to record every scratch
    /// slice, K/V write and attention read the step hands a kernel
    /// ([`crate::record`]); returns the pass's record. It allocates the
    /// record; no engine pass calls it.
    pub fn record_pass(
        &mut self,
        seats: &[(usize, &[usize])],
        advance: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<PassRecord, StepError<W::Error>> {
        let recorder = Recorder::default();
        let members = self.pass_with(seats, advance, out, &recorder)?;
        Ok(recorder.finish(&self.rows, members))
    }

    /// [`Engine::pass`] with each member's part run by `how`; returns the
    /// members it ran on.
    fn pass_with(
        &mut self,
        seats: &[(usize, &[usize])],
        advance: &[usize],
        out: &mut Vec<usize>,
        how: &impl Runs,
    ) -> Result<usize, StepError<W::Error>> {
        self.reserve_pass(seats, advance)?;
        let members = if self.rows.len() >= self.split_rows { self.degree } else { 1 };
        let r = self.run(members, seats, how);
        self.finish_pass(r, seats, advance, out).map(|()| members)
    }

    /// The pass's step and logits on `members` members. If a split pass
    /// fails with a member's departure or panic, the engine logs it and
    /// narrows; if it panics, the seats are freed before the panic goes on
    /// up, so a caller that catches it finds the pool as after any failed
    /// pass.
    fn run(&mut self, members: usize, seats: &[(usize, &[usize])], how: &impl Runs) -> Result<(), StepError<W::Error>> {
        let ran = catch_unwind(AssertUnwindSafe(|| if members == 1 { self.run_solo(how) } else { self.run_split(members, how) }));
        match ran {
            Ok(Err(StepError::Member(e))) => {
                self.narrow(members, e.to_string());
                Err(StepError::Member(e))
            }
            Ok(r) => r,
            Err(payload) => {
                self.unseat(seats);
                if members > 1 {
                    let text = payload.downcast_ref::<String>().map(String::as_str);
                    let text = text.or(payload.downcast_ref::<&str>().copied()).unwrap_or("a non-string payload");
                    self.narrow(members, format!("a member panicked: {text}"));
                }
                resume_unwind(payload)
            }
        }
    }

    /// A split pass on `members` members failed with `fault`: log it, and
    /// drop the members it lost.
    fn narrow(&mut self, members: usize, fault: String) {
        let report = &mut self.report;
        if report.faults.len() == FAULT_LOG {
            report.faults.remove(0);
        }
        report.faults.push(format!("tp={members}: {fault}"));
        report.rebuilds += 1;
        // A member that stalled, or left a join another's failure poisoned,
        // is intact; one that exited or panicked is gone.
        let to = members.saturating_sub(self.team.lost()).max(1);
        if to < members {
            report.degradations.push((members, to));
            self.degree = to;
        }
    }

    /// The pass's step and logits on `members` members: one job on the
    /// engine's team, each member running [`Runs::member_pass`] over its
    /// share with its own view of the scratch and the pool. The join before
    /// sampling is the job's end.
    fn run_split(&mut self, members: usize, how: &impl Runs) -> Result<(), StepError<W::Error>> {
        let c = self.w.config();
        let (h, m) = (c.hidden, self.rows.len());
        self.scratch.ensure(c, m);
        let (share, len) = (self.scratch.share(), self.pool.bases());
        let (w, pool, seqs, rows) = (&self.w, &self.pool, &self.seqs[..], &self.rows[..]);
        let failed: Mutex<Option<W::Error>> = Mutex::new(None);
        let ran = self.team.run(members, &|me: &mut Member<'_>, local: &mut Vec<f32>| {
            if local.len() < m * h {
                local.resize(m * h, 0.0);
            }
            // SAFETY: `share` addresses `self.scratch`, which nothing else
            // touches until `run` returns, and every member runs `step_in`
            // and `logits_in`, which keep the arena protocol.
            let mut s = unsafe { Arena::shared(share, local) };
            let mut kv = PagedKv { pool, len, seqs };
            if let Err(e) = how.member_pass(w, &mut kv, &mut s, rows, me) {
                me.abandon();
                *failed.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
            }
        });
        match failed.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(e) => Err(StepError::Weights(e)),
            None => ran.map_err(StepError::Member),
        }
    }

    /// The front of every pass: release what a panicked pass left behind,
    /// then reserve every page of the pass and lay out its rows. On `Err`
    /// nothing ran (see [`Engine::pass`]).
    fn reserve_pass(&mut self, seats: &[(usize, &[usize])], advance: &[usize]) -> Result<(), StepError<W::Error>> {
        assert!(!seats.is_empty() || !advance.is_empty(), "pass: nothing to run");
        assert!(advance.windows(2).all(|w| w[0] < w[1]), "pass: advanced slots must be ascending");
        // Every member would reject a row outside the model's range at its
        // embedding; rejecting it here, before the pass splits, keeps bad
        // input from counting as members lost.
        let c = self.w.config();
        for &(_, ctx) in seats {
            assert!(ctx.iter().all(|&t| t < c.vocab), "pass: token id out of vocab");
            assert!(ctx.len() <= c.max_seq, "pass: sequence exceeds max_seq");
        }
        assert!(advance.iter().all(|&si| self.seqs[si].len < c.max_seq), "pass: sequence exceeds max_seq");
        // A slot is published (`last`) only once its pass commits; a pass
        // that panicked before then left its seats' tables behind.
        for (seq, last) in self.seqs.iter_mut().zip(&self.last) {
            if last.is_none() && !seq.pages.is_empty() {
                self.pool.abandon_prompt(seq);
            }
        }
        let (free, high_water) = (self.pool.free.len(), self.pool.high_water);
        self.rows.clear();
        // Pages the pass still lacks once it has reserved what it could.
        let lacking = 'reserve: {
            for &(slot, ctx) in seats {
                assert!(!self.slot_in_use(slot), "seat into occupied slot {slot}");
                match self.pool.reserve_prompt(&mut self.seqs[slot], ctx) {
                    Ok(at) => self.rows.extend(
                        ctx.iter().enumerate().skip(at).map(|(pos, &token)| Row { seq: slot, token, pos }),
                    ),
                    Err(e) => break 'reserve Some(e.needed),
                }
            }
            let mut needed = 0;
            for &si in advance {
                let token = self.last[si].expect("advance of free slot");
                let seq = &self.seqs[si];
                needed += self.pool.pages_for(seq.len + 1).saturating_sub(seq.pages.len());
                self.rows.push(Row { seq: si, token, pos: seq.len });
            }
            (needed > self.pool.free.len()).then_some(needed)
        };
        if let Some(lacking) = lacking {
            let needed = free - self.pool.free.len() + lacking;
            self.unseat(seats);
            self.pool.high_water = high_water;
            return Err(StepError::Pages(PagesExhausted { needed, free }));
        }
        for &si in advance {
            self.pool.reserve(&mut self.seqs[si], 1).expect("reservation pre-checked");
        }
        Ok(())
    }

    /// The pass's step and logits on this thread alone.
    fn run_solo(&mut self, how: &impl Runs) -> Result<(), StepError<W::Error>> {
        self.scratch.ensure(self.w.config(), self.rows.len());
        let len = self.pool.bases();
        let (mut kv, mut s) = (PagedKv { pool: &self.pool, len, seqs: &self.seqs }, self.scratch.arena());
        how.member_pass(&self.w, &mut kv, &mut s, &self.rows, &mut Solo).map_err(StepError::Weights)
    }

    /// The back of every pass: on success sample every seat's first token
    /// and every advanced slot's next one and commit them; on failure free
    /// the seats again.
    fn finish_pass(
        &mut self,
        ran: Result<(), StepError<W::Error>>,
        seats: &[(usize, &[usize])],
        advance: &[usize],
        out: &mut Vec<usize>,
    ) -> Result<(), StepError<W::Error>> {
        if let Err(e) = ran {
            self.unseat(seats);
            return Err(e);
        }
        let vocab = self.w.config().vocab;
        // Row index one past the current seat's last row.
        let mut end = 0;
        for &(slot, ctx) in seats {
            end += ctx.len() - self.attached_tokens(slot);
            let tok = argmax(self.scratch.logits_row(end - 1, vocab));
            self.pool.commit_prompt(&mut self.seqs[slot], ctx);
            self.last[slot] = Some(tok);
            out.push(tok);
        }
        for (r, &si) in advance.iter().enumerate() {
            let next = argmax(self.scratch.logits_row(end + r, vocab));
            self.seqs[si].len += 1;
            self.last[si] = Some(next);
            out.push(next);
        }
        Ok(())
    }

    /// Release the tables a failed pass reserved for its seats.
    fn unseat(&mut self, seats: &[(usize, &[usize])]) {
        for &(slot, _) in seats {
            self.pool.abandon_prompt(&mut self.seqs[slot]);
        }
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

    /// The arenas start empty and grow with the pages handed out, to the
    /// high water, with every row written before a growth still in place
    /// after it.
    #[test]
    fn storage_grows_to_the_high_water_and_keeps_its_rows() {
        let (h, pt) = (3, 2);
        let mut pool = PagePool::new(2, h, 16, pt);
        let arena_rows = |pool: &PagePool| pool.arenas(1).0.len() / h;
        assert_eq!(arena_rows(&pool), 0, "a fresh pool holds no storage");
        let mut a = PagedSeq::new();
        pool.reserve(&mut a, 3).unwrap(); // pages 0 and 1
        let row = |layer: usize, pos: usize, kv: f32| [(10 * layer + pos) as f32 + kv; 3];
        for (layer, pos) in [(0, 0), (0, 2), (1, 1), (1, 2)] {
            pool.write_row(&a, layer, pos, &row(layer, pos, 0.0), &row(layer, pos, 0.5));
        }
        assert_eq!(arena_rows(&pool), 2 * pt);
        let mut b = PagedSeq::new();
        pool.reserve(&mut b, 5).unwrap(); // pages 2..5
        assert_eq!(arena_rows(&pool), 5 * pt);
        pool.reserve(&mut b, 7).unwrap(); // page 5
        assert_eq!(arena_rows(&pool), 6 * pt);
        for (layer, pos) in [(0, 0), (0, 2), (1, 1), (1, 2)] {
            let at = (a.pages()[pos / pt] as usize * pt + pos % pt) * h;
            let (k, v) = pool.arenas(layer);
            assert_eq!((&k[at..at + h], &v[at..at + h]), (&row(layer, pos, 0.0)[..], &row(layer, pos, 0.5)[..]));
        }
        pool.release(&mut a);
        pool.release(&mut b);
        let mut c = PagedSeq::new();
        pool.reserve(&mut c, 8).unwrap(); // pages 2..5 again: no growth
        assert_eq!(arena_rows(&pool), 6 * pt, "a reused page needs no storage");
        pool.release(&mut c);
        pool.reserve(&mut c, 32).unwrap(); // every page
        assert_eq!(arena_rows(&pool), 16 * pt);
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

    /// Two seats of one pass whose prompts open with the same chunk, which
    /// no earlier pass published: the first reserves and computes it, the
    /// later attaches it in the same pass and computes only its own rows.
    #[test]
    fn seats_of_one_pass_share_a_page_no_pass_had_published() {
        let m = model(2, 47);
        let pm = PackedModel::pack(&m);
        let oracle = |p: &[usize], n| pm.session(p.len()).generate(p, n);
        let mut eng = PagedEngine::new(&pm, 3, 32, 2);
        let prompts = [vec![5usize, 6, 7, 8, 1], vec![5, 6, 7, 8, 2, 3], vec![5, 6, 7, 8, 9]];
        let mut outs: Vec<Vec<usize>> = vec![Vec::new(); 3];
        let mut out = Vec::new();
        eng.pass(&[(0, &prompts[0]), (1, &prompts[1])], &[], &mut out).unwrap();
        let first = eng.seqs[0].pages().to_vec();
        assert_eq!((eng.attached_tokens(1), &eng.seqs[1].pages()[..2]), (4, &first[..2]));
        assert_eq!(eng.pool_stats().pages_in_use, 4, "3 pages + 1 private tail");
        // A later prompt attaches the first seat's pages while both advance.
        outs[0].push(out[0]);
        outs[1].push(out[1]);
        out.clear();
        eng.pass(&[(2, &prompts[2])], &[0, 1], &mut out).unwrap();
        assert_eq!((eng.attached_tokens(2), &eng.seqs[2].pages()[..2]), (4, &first[..2]));
        let order = [2, 0, 1];
        for (&s, &t) in order.iter().zip(&out) {
            outs[s].push(t);
        }
        for _ in 0..3 {
            out.clear();
            eng.decode(&[0, 1, 2], &mut out).unwrap();
            for (o, &t) in outs.iter_mut().zip(&out) {
                o.push(t);
            }
        }
        for (p, o) in prompts.iter().zip(&outs) {
            assert_eq!(o, &oracle(p, o.len()), "prompt {p:?}");
        }
    }

    /// A pass whose step panics frees its seat, and un-indexes the page it
    /// published but never wrote, before the panic leaves it, so nothing
    /// attaches the rows it never wrote. A pass that panics in its front
    /// after reserving a seat (here: a second seat into an occupied slot)
    /// leaves that table behind; the next pass reclaims it before it
    /// counts pages, so a seat that then runs short reports the pool as it
    /// is.
    #[test]
    fn a_panicked_pass_frees_its_seat_and_pending_pages() {
        let m = model(2, 59);
        let pm = PackedModel::pack(&m);
        let w = FailsAtLayer1 { pm: &pm, spares: None, armed: true.into(), err: false };
        let mut eng = Engine::new(&w, 2, 4, 2);
        let panicked = catch_unwind(AssertUnwindSafe(|| eng.prefill(0, &[1, 2, 3]).ok()));
        assert!(panicked.is_err());
        assert_eq!(eng.pool_stats().pages_in_use, 0, "the panicked seat is free");
        w.armed.store(false, std::sync::atomic::Ordering::Relaxed);
        let mut out = Vec::new();
        eng.pass(&[(1, &[1, 2, 3])], &[], &mut out).unwrap();
        assert_eq!(eng.attached_tokens(1), 0, "the unwritten page was un-indexed");
        assert_eq!(out, pm.session(3).generate(&[1, 2, 3], 1));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.pass(&[(0, &[5, 6, 7]), (1, &[1])], &[], &mut Vec::new()).ok()
        }));
        assert!(panicked.is_err());
        assert_eq!(eng.pool_stats().pages_in_use, 4, "slot 0's table is left behind");
        let err = eng.prefill(0, &[1; 9]).unwrap_err();
        assert_eq!(err, StepError::Pages(PagesExhausted { needed: 5, free: 2 }));
        assert_eq!((eng.pool_stats().pages_in_use, eng.pool_stats().pages_free), (2, 2));
        eng.release(1);
        out.clear();
        eng.pass(&[(0, &[5, 6, 7])], &[], &mut out).unwrap();
        assert_eq!(eng.attached_tokens(0), 0, "the unwritten page was un-indexed");
        assert_eq!(out, pm.session(3).generate(&[5, 6, 7], 1));
    }

    /// A pass with a row outside the model's range — a token past the
    /// vocabulary, a context past `max_seq`, a decode past it — is refused
    /// on the caller before it splits or reserves anything: no member
    /// counts as lost, and the group keeps its degree.
    #[test]
    fn an_out_of_range_pass_is_refused_before_it_splits() {
        let m = model(1, 73);
        let pm = PackedModel::pack(&m);
        let c = &m.config;
        let mut eng = Engine::group(&pm, 2, CommConfig::default(), 2, 40, 4);
        eng.prefill(1, &vec![1; c.max_seq]).unwrap();
        let long = vec![1; c.max_seq + 1];
        let (bad_token, too_long) = ([(0, &[1, 2, c.vocab][..])], [(0, &long[..])]);
        for (seats, advance) in [(&bad_token[..], &[][..]), (&too_long, &[]), (&[], &[1])] {
            let refused = catch_unwind(AssertUnwindSafe(|| eng.pass(seats, advance, &mut Vec::new())));
            assert!(refused.is_err(), "seats {seats:?}, advance {advance:?}");
            assert_eq!((eng.degree(), eng.report().rebuilds), (2, 0));
            assert_eq!((eng.pool_stats().pages_in_use, eng.context_len(1)), (16, c.max_seq));
        }
    }

    #[test]
    fn mixed_pass_out_of_pages_leaves_the_pool_as_it_was() {
        let m = model(1, 53);
        let pm = PackedModel::pack(&m);
        // 4 pages of 2 tokens. Slot 0 holds 2 and its next position needs a
        // third; the seat fits the 2 free pages, the pass as a whole does not.
        let mut eng = PagedEngine::new(&pm, 2, 4, 2);
        let mut out = Vec::new();
        eng.prefill(0, &[1, 2, 3]).unwrap();
        eng.decode(&[0], &mut out).unwrap();
        let before = eng.pool_stats();
        let err = eng.pass(&[(1, &[4, 5, 6])], &[0], &mut out).unwrap_err();
        assert_eq!(err, StepError::Pages(PagesExhausted { needed: 3, free: 2 }));
        assert_eq!(eng.pool_stats(), before);
        assert!(!eng.slot_in_use(1));
        assert_eq!((eng.context_len(0), out.len()), (4, 1), "slot 0 did not advance");
        // The seat alone fits, and computes what it would have.
        out.clear();
        eng.pass(&[(1, &[4, 5, 6])], &[], &mut out).unwrap();
        assert_eq!(out, pm.session(3).generate(&[4, 5, 6], 1));
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

    /// The logits of the last pass's `rows` rows, as bits.
    fn logit_bits<W: WeightSource>(eng: &Engine<W>) -> Vec<u32> {
        eng.logits().iter().map(|x| x.to_bits()).collect()
    }

    /// A split pass is bitwise the one-member pass at every member count
    /// the tiny model's four heads allow — seats, advances and a mixed
    /// pass, page_tokens 3 against the AVX 8-block, a vocabulary of 101
    /// whose member parts start inside a panel — f32 and INT8 alike.
    #[test]
    fn split_passes_are_bitwise_the_one_member_pass() {
        fn check<B: dsi_kernels::blocked::PanelWeights>(pm: &PackedModel<'_, B>, members: usize) {
            let group = |tp| Engine::group(pm, tp, CommConfig::default(), 3, 32, 3);
            let (mut solo, mut split) = (group(1), group(members));
            let prompts = [vec![3usize, 1, 4, 1, 5], vec![3, 1, 4, 1, 7, 6], vec![11, 12, 13, 14]];
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut both = |seats: &[(usize, &[usize])], advance: &[usize]| {
                solo.pass(seats, advance, &mut a).unwrap();
                split.pass(seats, advance, &mut b).unwrap();
                assert_eq!(logit_bits(&split), logit_bits(&solo), "{members} members: seats {seats:?}, advance {advance:?}");
            };
            both(&[(0, &prompts[0])], &[]);
            both(&[], &[0]);
            both(&[(1, &prompts[1]), (2, &prompts[2])], &[0]);
            for _ in 0..3 {
                both(&[], &[0, 1, 2]);
            }
            assert_eq!(a, b);
        }
        let m = model(2, 61);
        let (pm, qm) = (PackedModel::pack(&m), crate::fast::QuantizedPackedModel::quantize_pack(&m, 32));
        for members in 2..=4 {
            check(&pm, members);
            check(&qm, members);
        }
    }

    /// A model whose layer 1 fails while armed, on every thread but
    /// `spares` (the caller's, so only a pass member's helper fails; `None`:
    /// every thread): with a panic, or (`err`) with a fetch error.
    struct FailsAtLayer1<'a> {
        pm: &'a PackedModel<'a>,
        spares: Option<std::thread::ThreadId>,
        armed: std::sync::atomic::AtomicBool,
        err: bool,
    }

    impl WeightSource for FailsAtLayer1<'_> {
        type B = PackedB;
        type Layer<'a>
            = &'a crate::fast::PackedLayer
        where
            Self: 'a;
        type Error = &'static str;
        const RESIDENT: bool = true;
        fn config(&self) -> &crate::GptConfig {
            self.pm.config()
        }
        fn embeddings(&self) -> (&dsi_kernels::tensor::Tensor, &dsi_kernels::tensor::Tensor) {
            self.pm.embeddings()
        }
        fn lnf(&self) -> (&[f32], &[f32]) {
            self.pm.lnf()
        }
        fn logits_w(&self) -> &PackedB {
            self.pm.logits_w()
        }
        fn layer(&self, l: usize) -> Result<&crate::fast::PackedLayer, Self::Error> {
            let spared = self.spares == Some(std::thread::current().id());
            if !spared && l == 1 && self.armed.load(std::sync::atomic::Ordering::Relaxed) {
                if self.err {
                    return Err("member fetch failed");
                }
                panic!("member fault at layer {l}");
            }
            let Ok(layer) = self.pm.layer(l);
            Ok(layer)
        }
    }

    /// After a failed pass of a two-member group — `fail` runs it and
    /// checks how it failed — the next pass over the same seats is
    /// token-identical to a clean engine and every page comes back.
    fn next_pass_is_clean(err: bool, fail: impl FnOnce(&mut Engine<&FailsAtLayer1<'_>>, &[(usize, &[usize])])) {
        let m = model(2, 67);
        let pm = PackedModel::pack(&m);
        let spares = Some(std::thread::current().id());
        let w = FailsAtLayer1 { pm: &pm, spares, armed: true.into(), err };
        let mut eng = Engine::group(&w, 2, CommConfig::default(), 2, 16, 4);
        let prompts: [&[usize]; 2] = [&[1, 2, 3], &[4, 5]];
        let seats = [(0, prompts[0]), (1, prompts[1])];
        fail(&mut eng, &seats);
        w.armed.store(false, std::sync::atomic::Ordering::Relaxed);
        let want: Vec<usize> = prompts.iter().map(|p| pm.session(p.len()).generate(p, 1)[0]).collect();
        for _ in 0..2 {
            let mut out = Vec::new();
            eng.pass(&seats, &[], &mut out).unwrap();
            assert_eq!(out, want);
            eng.release(0);
            eng.release(1);
        }
        assert_eq!(eng.pool_stats().pages_in_use, 0);
    }

    /// A member whose weight fetch fails abandons the join: the pass
    /// returns the member's error, no panic reaches the caller, nothing
    /// hangs, no seat stays occupied, and — no member lost — the next pass
    /// splits again.
    #[test]
    fn a_member_fetch_error_fails_the_pass_typed() {
        next_pass_is_clean(true, |eng, seats| {
            let mut out = Vec::new();
            assert_eq!(eng.pass(seats, &[], &mut out), Err(StepError::Weights("member fetch failed")));
            assert!(out.is_empty() && !eng.slot_in_use(0) && !eng.slot_in_use(1));
            assert_eq!(eng.degree(), 2);
        });
    }

    /// A member that panics mid-pass: the panic, with its own payload,
    /// surfaces on the caller once every member is out (the caller's
    /// member is waiting at a join when it happens), nothing hangs, the
    /// group narrows to the member it kept, and the next pass is
    /// token-identical to a clean engine.
    #[test]
    fn a_member_panic_surfaces_on_the_caller_and_the_next_pass_is_clean() {
        next_pass_is_clean(false, |eng, seats| {
            let mut out = Vec::new();
            let panicked = catch_unwind(AssertUnwindSafe(|| eng.pass(seats, &[], &mut out)));
            let payload = panicked.expect_err("the member's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("member fault at layer 1"));
            assert!(out.is_empty());
            assert_eq!((eng.degree(), &eng.report().degradations[..]), (1, &[(2, 1)][..]));
        });
    }

    /// [`Engine::new`]'s own split narrows when it loses a member: a
    /// two-row pass whose helper member panics reaches the caller with
    /// every seat free, the engine runs on one member from then on, and
    /// its passes are bitwise a solo engine's. On a one-core host the pass
    /// runs solo, so the helper's fault never fires.
    #[test]
    fn a_lost_member_narrows_the_split_of_engine_new() {
        let m = model(2, 71);
        let pm = PackedModel::pack(&m);
        let spares = Some(std::thread::current().id());
        let w = FailsAtLayer1 { pm: &pm, spares, armed: true.into(), err: false };
        let mut eng = Engine::new(&w, 2, 16, 4);
        let mut solo = Engine::group(&pm, 1, CommConfig::default(), 2, 16, 4);
        let seats: [(usize, &[usize]); 2] = [(0, &[1, 2, 3]), (1, &[4, 5])];
        let spare_core = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let first = catch_unwind(AssertUnwindSafe(|| eng.pass(&seats, &[], &mut a)));
        if spare_core {
            let payload = first.expect_err("the helper's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("member fault at layer 1"));
            assert_eq!(eng.pool_stats().pages_in_use, 0, "every seat is free");
            assert_eq!((eng.degree(), &eng.report().degradations[..]), (1, &[(2, 1)][..]));
            eng.pass(&seats, &[], &mut a).expect("one member");
        } else {
            first.expect("no panic").expect("a solo pass");
            assert_eq!((eng.degree(), eng.report().rebuilds), (1, 0));
        }
        solo.pass(&seats, &[], &mut b).unwrap();
        assert_eq!(logit_bits(&eng), logit_bits(&solo));
        for _ in 0..3 {
            eng.pass(&[], &[0, 1], &mut a).unwrap();
            solo.pass(&[], &[0, 1], &mut b).unwrap();
            assert_eq!(logit_bits(&eng), logit_bits(&solo));
        }
        assert_eq!(a, b);
    }

    /// A tensor-parallel group ([`Engine::group`]): its degree, its typed
    /// member faults, and how it narrows and serves on.
    mod group {
        use super::*;
        use crate::fast::QuantizedPackedModel;
        use dsi_kernels::blocked::PanelWeights;
        use dsi_sim::fault::{CollectiveErrorKind, FaultKind, FaultPlan, FaultSite, FaultSpec};
        use std::time::{Duration, Instant};

        fn oracle(m: &GptModel, prompt: &[usize], n: usize) -> Vec<usize> {
            PackedModel::pack(m).session(prompt.len()).generate(prompt, n)
        }

        fn faulty(specs: Vec<FaultSpec>, timeout_ms: u64) -> CommConfig {
            CommConfig { timeout: Duration::from_millis(timeout_ms), injector: Some(Arc::new(FaultPlan::new(specs).injector())) }
        }

        fn spec(rank: usize, site: FaultSite, kind: FaultKind) -> FaultSpec {
            FaultSpec { rank, site, kind }
        }

        /// The text of a caught panic.
        fn text(payload: &(dyn std::any::Any + Send)) -> &str {
            payload.downcast_ref::<String>().map_or("", String::as_str)
        }

        /// Ragged multi-slot passes at every degree the tiny model's four
        /// heads allow, three included: two seats in one pass, a
        /// shared-prefix seat that attaches, a retirement, and a mixed pass
        /// that reseats the retired slot while the others advance. Every
        /// pass's logits are bitwise the one-member pass's, FP32 and INT8
        /// alike.
        #[test]
        fn every_degree_is_bitwise_the_one_member_pass() {
            type Eng<'p, B> = PagedEngine<'p, 'p, B>;
            fn both<B: PanelWeights>(solo: &mut Eng<'_, B>, group: &mut Eng<'_, B>, seats: &[(usize, &[usize])], advance: &[usize]) {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                solo.pass(seats, advance, &mut a).unwrap();
                group.pass(seats, advance, &mut b).unwrap();
                let tp = group.degree();
                assert_eq!((&b, logit_bits(group)), (&a, logit_bits(solo)), "tp {tp}: seats {seats:?}, advance {advance:?}");
            }
            fn check<B: PanelWeights>(pm: &PackedModel<'_, B>, tp: usize) {
                let prompts = [vec![5usize, 6, 7, 8, 1], vec![9, 8], vec![5, 6, 7, 8, 2, 3], vec![4]];
                let mut solo = Engine::group(pm, 1, CommConfig::default(), 3, 32, 2);
                let mut group = Engine::group(pm, tp, CommConfig::default(), 3, 32, 2);
                let (s, g) = (&mut solo, &mut group);
                both(s, g, &[(0, &prompts[0]), (1, &prompts[1])], &[]);
                both(s, g, &[(2, &prompts[2])], &[0, 1]);
                assert_eq!(g.attached_tokens(2), 4, "tp {tp}: the shared prefix attaches");
                s.release(1);
                g.release(1);
                both(s, g, &[(1, &prompts[3])], &[0, 2]);
                for _ in 0..3 {
                    both(s, g, &[], &[0, 1, 2]);
                }
                for slot in 0..3 {
                    g.release(slot);
                }
                assert_eq!(g.pool_stats().pages_in_use, 0, "tp {tp}");
                assert_eq!(g.report().rebuilds, 0);
            }
            let m = model(2, 7);
            let (pm, qm) = (PackedModel::pack(&m), QuantizedPackedModel::quantize_pack(&m, 32));
            for tp in 1..=4 {
                check(&pm, tp);
                check(&qm, tp);
            }
        }

        #[test]
        #[should_panic(expected = "tp 5 cannot split 4 heads")]
        fn a_degree_past_the_heads_is_rejected() {
            let m = model(1, 1);
            let pm = PackedModel::pack(&m);
            Engine::group(&pm, 5, CommConfig::default(), 1, 4, 4);
        }

        /// A member stalled past the deadline fails the pass with a timeout
        /// that names it, the pass returns once the stall ends (the stalled
        /// member cannot be detached: it borrows the caller's scratch), and
        /// the group serves on at the same degree.
        #[test]
        fn a_stall_past_the_deadline_fails_typed_naming_the_member() {
            let m = model(2, 23);
            let pm = PackedModel::pack(&m);
            for member in [0usize, 1] {
                let stall = spec(member, FaultSite::Layer { token: 1, layer: 1 }, FaultKind::Stall { millis: 600 });
                let mut eng = Engine::group(&pm, 2, faulty(vec![stall], 100), 2, 16, 4);
                let start = Instant::now();
                let err = eng.pass(&[(0, &[1, 2, 3])], &[], &mut Vec::new()).expect_err("the stall fails the pass");
                let took = start.elapsed();
                let StepError::Member(e) = err else { panic!("{err:?}") };
                assert_eq!(e.kind, CollectiveErrorKind::Timeout { stalled: vec![member] }, "{e}");
                assert!(took < Duration::from_millis(1600), "returned after {took:?}");
                assert!(!eng.slot_in_use(0), "the seat is free again");
                let mut out = Vec::new();
                eng.pass(&[(0, &[1, 2, 3])], &[], &mut out).expect("the group serves on");
                assert_eq!(out, oracle(&m, &[1, 2, 3], 1));
                assert_eq!((eng.degree(), eng.report().rebuilds), (2, 1));
            }
        }

        /// Each member of a tp 2 and a tp 4 group exits, one group each, at
        /// the first, the second, a middle and the last join of a pass: the
        /// pass fails typed with that member's exit, the group narrows by
        /// one, and the next pass is bitwise the one-member pass.
        #[test]
        fn an_exit_at_any_join_fails_typed_and_narrows_by_one() {
            let m = model(2, 71);
            let pm = PackedModel::pack(&m);
            let seat: [(usize, &[usize]); 1] = [(0, &[1, 2, 3])];
            let run = |eng: &mut PagedEngine<'_, '_>| {
                let mut out = Vec::new();
                eng.pass(&seat, &[], &mut out).map(|()| (out, logit_bits(eng)))
            };
            let want = run(&mut Engine::group(&pm, 1, CommConfig::default(), 1, 8, 4)).unwrap();
            for tp in [2usize, 4] {
                let mut clean = Engine::group(&pm, tp, CommConfig::default(), 1, 8, 4);
                run(&mut clean).unwrap();
                let joins = clean.member_joins()[0];
                for member in 0..tp {
                    for at in [0, 1, joins / 2, joins - 1] {
                        let exit = spec(member, FaultSite::Barrier { epoch: at }, FaultKind::Exit);
                        let mut eng = Engine::group(&pm, tp, faulty(vec![exit], 100), 1, 8, 4);
                        let case = format!("tp {tp}, member {member} exits at join {at} of {joins}");
                        let Err(StepError::Member(e)) = run(&mut eng) else { panic!("{case}: the pass must fail typed") };
                        assert_eq!((e.rank, e.epoch, &e.kind), (member, at, &CollectiveErrorKind::InjectedExit), "{case}");
                        assert_eq!(eng.degree(), tp - 1, "{case}");
                        assert_eq!(run(&mut eng).expect("the group serves on"), want, "{case}");
                    }
                }
            }
        }

        /// Generate `n` tokens for each prompt, one slot each, recovering
        /// from every fault the way the serving scheduler does: release what
        /// the failed pass advanced, then seat each committed context again.
        /// A member's panic is a failed pass like its typed departure.
        fn serve<B: PanelWeights>(eng: &mut PagedEngine<'_, '_, B>, prompts: &[&[usize]], n: usize) -> Vec<Vec<usize>> {
            let mut toks: Vec<Vec<usize>> = vec![Vec::new(); prompts.len()];
            let mut seated = vec![false; prompts.len()];
            let (mut out, mut faults) = (Vec::new(), 0);
            while toks.iter().any(|t| t.len() < n) {
                let ctxs: Vec<(usize, Vec<usize>)> = (0..prompts.len())
                    .filter(|&s| !seated[s])
                    .map(|s| (s, [prompts[s], &toks[s][..toks[s].len().saturating_sub(1)]].concat()))
                    .collect();
                let seats: Vec<(usize, &[usize])> = ctxs.iter().map(|(s, c)| (*s, &c[..])).collect();
                let advance: Vec<usize> = (0..prompts.len()).filter(|&s| seated[s] && toks[s].len() < n).collect();
                out.clear();
                match catch_unwind(AssertUnwindSafe(|| eng.pass(&seats, &advance, &mut out))) {
                    Ok(Ok(())) => {
                        for (&(s, _), &t) in seats.iter().zip(&out) {
                            if toks[s].is_empty() {
                                toks[s].push(t);
                            } else {
                                assert_eq!(toks[s].last(), Some(&t), "a replay reproduces the last token");
                            }
                            seated[s] = true;
                        }
                        for (&s, &t) in advance.iter().zip(&out[seats.len()..]) {
                            toks[s].push(t);
                        }
                    }
                    Ok(Err(StepError::Member(_))) | Err(_) => {
                        for &s in &advance {
                            eng.release(s);
                            seated[s] = false;
                        }
                        faults += 1;
                        assert!(faults < 16, "fault storm: {:?}", eng.report());
                    }
                    Ok(Err(e)) => panic!("{e:?}"),
                }
            }
            for s in (0..prompts.len()).filter(|&s| seated[s]) {
                eng.release(s);
            }
            assert_eq!(eng.pool_stats().pages_in_use, 0, "every slot came back");
            toks
        }

        /// Serve two prompts at tp = 2 under `specs`; returns the report and
        /// the final degree.
        fn serve_two(seed: u64, specs: Vec<FaultSpec>, n: usize) -> (GroupReport, usize) {
            let m = model(2, seed);
            let pm = PackedModel::pack(&m);
            let prompts: [&[usize]; 2] = [&[1, 2, 3], &[4, 2]];
            let mut eng = Engine::group(&pm, 2, faulty(specs, 300), 2, 16, 4);
            let got = serve(&mut eng, &prompts, n);
            for (p, got) in prompts.iter().zip(&got) {
                assert_eq!(got, &oracle(&m, p, n), "prompt {p:?}");
            }
            (eng.report().clone(), eng.degree())
        }

        #[test]
        fn a_fault_free_group_recovers_nothing() {
            let (report, tp) = serve_two(31, Vec::new(), 6);
            assert_eq!((report.rebuilds, tp), (0, 2));
        }

        /// Member 1 drops its arrival at a join: member 0 times out naming
        /// it, the pass fails with the exit, the group degrades to one
        /// member, and the replay reproduces every stream.
        #[test]
        fn a_member_exit_degrades_and_replays_token_identically() {
            let (report, tp) = serve_two(37, vec![spec(1, FaultSite::Barrier { epoch: 12 }, FaultKind::Exit)], 6);
            assert_eq!((tp, report.rebuilds), (1, 1));
            assert_eq!(report.degradations, [(2, 1)]);
            assert!(report.faults[0].contains("dropped its barrier arrival"), "{:?}", report.faults);
        }

        #[test]
        fn a_transient_stall_recovers_at_the_same_degree() {
            let stall = spec(1, FaultSite::Barrier { epoch: 20 }, FaultKind::Stall { millis: 1000 });
            let (report, tp) = serve_two(41, vec![stall], 5);
            assert_eq!((tp, report.rebuilds), (2, 1), "{report:?}");
        }

        #[test]
        fn a_member_panic_degrades_the_group() {
            for member in [0usize, 1] {
                let panic = spec(member, FaultSite::Layer { token: 3, layer: 1 }, FaultKind::Panic);
                let (report, tp) = serve_two(47, vec![panic], 5);
                assert_eq!((tp, &report.degradations[..]), (1, &[(2, 1)][..]));
                assert!(report.faults[0].contains(&format!("member {member} panics")), "{:?}", report.faults);
            }
        }

        /// A member panic fails the pass with its seats already free: the
        /// pool counts no page for them before any other pass runs.
        #[test]
        fn a_member_panic_frees_the_seats_at_once() {
            let m = model(1, 61);
            let pm = PackedModel::pack(&m);
            for member in [0usize, 1] {
                let panic = spec(member, FaultSite::Layer { token: 2, layer: 0 }, FaultKind::Panic);
                let mut eng = Engine::group(&pm, 2, faulty(vec![panic], 200), 2, 8, 2);
                let seats: [(usize, &[usize]); 2] = [(0, &[1, 2, 3]), (1, &[4, 5])];
                let caught = catch_unwind(AssertUnwindSafe(|| eng.pass(&seats, &[], &mut Vec::new())));
                let payload = caught.expect_err("the member panics");
                assert!(text(&*payload).contains(&format!("member {member} panics")), "{}", text(&*payload));
                assert_eq!(eng.pool_stats().pages_in_use, 0, "member {member}: the seats are free");
            }
        }

        /// Two members exit in one pass: the group narrows by both, and
        /// serves on at the narrower degree.
        #[test]
        fn two_members_lost_in_one_pass_narrow_the_group_by_two() {
            let m = model(2, 67);
            let pm = PackedModel::pack(&m);
            let exit = |member| spec(member, FaultSite::Barrier { epoch: 3 }, FaultKind::Exit);
            let mut eng = Engine::group(&pm, 4, faulty(vec![exit(1), exit(3)], 300), 1, 8, 4);
            eng.pass(&[(0, &[1, 2, 3])], &[], &mut Vec::new()).expect_err("two members exit");
            assert_eq!((eng.degree(), &eng.report().degradations[..]), (2, &[(4, 2)][..]));
            let mut out = Vec::new();
            eng.pass(&[(0, &[1, 2, 3])], &[], &mut out).unwrap();
            assert_eq!(out, oracle(&m, &[1, 2, 3], 1));
        }

        #[test]
        fn multiple_faults_are_all_survived() {
            // A transient stall *and* a later permanent exit in one run.
            let specs = vec![
                spec(0, FaultSite::Barrier { epoch: 3 }, FaultKind::Stall { millis: 1000 }),
                spec(1, FaultSite::Layer { token: 6, layer: 0 }, FaultKind::Exit),
            ];
            let (report, tp) = serve_two(53, specs, 8);
            assert_eq!((tp, report.rebuilds), (1, 2), "{report:?}");
        }

        /// After a failed pass the seats are free and the advanced slots
        /// still hold their pages until the caller releases them: the pool,
        /// on the caller's side, survives the fault with nothing orphaned.
        #[test]
        fn a_failed_pass_leaves_the_pool_to_the_caller() {
            let m = model(1, 59);
            let pm = PackedModel::pack(&m);
            let exit = spec(1, FaultSite::Layer { token: 3, layer: 0 }, FaultKind::Exit);
            let mut eng = Engine::group(&pm, 2, faulty(vec![exit], 200), 3, 8, 2);
            let mut out = Vec::new();
            eng.pass(&[(0, &[1, 2, 3]), (1, &[4, 5])], &[], &mut out).unwrap();
            let held = eng.pool_stats();
            let err = eng.pass(&[(2, &[6, 7, 8])], &[0, 1], &mut out).expect_err("member 1 exits");
            assert!(matches!(err, StepError::Member(ref e) if e.rank == 1), "{err:?}");
            assert_eq!(out.len(), 2, "the failed pass emits nothing");
            // Slot 1 reserved its next page; slot 2's seat was freed again.
            assert_eq!(eng.pool_stats().pages_in_use, held.pages_in_use + 1);
            eng.release(0);
            eng.release(1);
            assert_eq!(eng.pool_stats().pages_in_use, 0);
            out.clear();
            eng.pass(&[(0, &[1, 2, 3])], &[], &mut out).unwrap();
            assert_eq!(out, oracle(&m, &[1, 2, 3], 1));
            assert_eq!((eng.degree(), eng.report().rebuilds), (1, 1));
        }
    }
}
