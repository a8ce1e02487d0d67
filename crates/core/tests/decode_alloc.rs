//! Allocation guard for the one decode step: steady-state decode must not
//! allocate per token on the decode thread, whichever weight source and KV
//! sink the step runs over — the solo `FastSession`, and the paged engine
//! at M = 4 over a resident packed model (`PagedEngine`) and over the
//! offload tier (`StreamedEngine`; all panels resident, so the tier's own
//! fetches stay out of the count).
//!
//! The paged engine also runs as a two-member group, every pass split: the
//! helper thread its second member runs on must not allocate per pass
//! either.
//!
//! This file holds exactly one test so no concurrently running test shares
//! the counting allocator; the counter is per thread, so the offload
//! store's prefetch worker does not pollute it either. A second counter
//! takes every thread's allocations, so what threads other than this one
//! allocated over a window is the difference of the two.

use dsi_core::batch::BatchEngine;
use dsi_core::streamed::StreamedEngine;
use dsi_model::fast::PackedModel;
use dsi_model::paged::{Engine, PagedEngine};
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_sim::shmem::CommConfig;
use dsi_zero::offload::{OffloadConfig, OffloadStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations by every thread of the process.
static ALL_ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    /// # Safety
    /// Same contract as [`GlobalAlloc::alloc`]; this impl only counts and
    /// forwards to the system allocator.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs during thread teardown, after
        // the thread-local is gone.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the exact layout to the system allocator; the
        // caller upholds GlobalAlloc's contract.
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    /// Same contract as [`GlobalAlloc::dealloc`].
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Prefill `m` slots, warm up, then count this thread's allocations over
/// 16 M-row decode steps into a pre-sized output vector.
fn steady_state_allocs<E: BatchEngine>(eng: &mut E, m: usize) -> usize {
    let slots: Vec<usize> = (0..m).collect();
    for &s in &slots {
        eng.prefill(s, &[1 + s, 2, 3]).expect("prefill");
    }
    let mut out = Vec::with_capacity(m * 20);
    for _ in 0..2 {
        eng.decode_step(&slots, &mut out).expect("warm-up step");
    }
    let before = allocs();
    for _ in 0..16 {
        eng.decode_step(&slots, &mut out).expect("decode step");
    }
    allocs() - before
}

#[test]
fn steady_state_decode_does_not_allocate() {
    let model = GptModel::random(zoo::tiny(2), 11);
    let pm = PackedModel::pack(&model);

    assert_eq!(steady_state_allocs(&mut pm.session(4), 1), 0, "FastSession");
    // One 32-token page per sequence: the (amortized) growth of a page
    // table is not what this guard is about.
    assert_eq!(steady_state_allocs(&mut PagedEngine::new(&pm, 4, 4, 32), 4), 0, "PagedEngine");

    // A split pass on two members, whatever the host's core count:
    // the other threads (the pass member, and a harness thread parked on
    // its test) allocate nothing per pass either.
    let mut split = Engine::group(&pm, 2, CommConfig::default(), 4, 4, 32);
    let (slots, mut out) = ([0usize, 1, 2, 3], Vec::with_capacity(4 * 20));
    for s in slots {
        split.pass(&[(s, &[1 + s, 2, 3])], &[], &mut out).expect("seat");
    }
    for _ in 0..2 {
        split.pass(&[], &slots, &mut out).expect("warm-up pass");
    }
    let (mine, all) = (allocs(), ALL_ALLOCS.load(Ordering::Relaxed));
    for _ in 0..16 {
        split.pass(&[], &slots, &mut out).expect("split pass");
    }
    let others = ALL_ALLOCS.load(Ordering::Relaxed) - all - (allocs() - mine);
    assert_eq!(others, 0, "pass member thread");
    drop(split);

    let path = std::env::temp_dir().join("dsi_decode_alloc.bin");
    dsi_model::io::save(&model, &path).expect("save");
    let store = OffloadStore::open(&path, OffloadConfig::default()).expect("open");
    // 16-token pages: the 21 tokens a slot reaches here cross one page
    // boundary, inside the page table's first allocation.
    let mut streamed = StreamedEngine::new(store, 4, 4096);
    assert_eq!(steady_state_allocs(&mut streamed, 4), 0, "StreamedEngine");
    drop(streamed);
    let _ = std::fs::remove_file(path);
}
