//! Allocation guard for the executed TP group (`Engine::group`): a
//! steady-state decode pass must not allocate on any thread of the group —
//! the caller's or a helper member's — over FP32 or INT8 panels. The engine's scratch, page pool and
//! every member's own rows reach their size in the first passes and are
//! reused from then on.
//!
//! This file holds exactly one test so the process-global counting allocator
//! — which counts every thread, the helper members included — is not
//! polluted by concurrently running tests in the same binary.

use dsi_kernels::blocked::PanelWeights;
use dsi_model::fast::{PackedModel, QuantizedPackedModel};
use dsi_model::paged::{Engine, PagedEngine};
use dsi_model::reference::GptModel;
use dsi_model::zoo;
use dsi_sim::shmem::CommConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    /// # Safety
    /// Same contract as [`GlobalAlloc::alloc`]; this impl only counts and
    /// forwards to the system allocator.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Seat four slots (one 32-token page each, so a page table never grows),
/// warm up, then count every thread's allocations over 16 decode passes
/// into a pre-sized output vector: FP32 panels, then INT8 ones, at two and
/// four members.
#[test]
fn steady_state_decode_does_not_allocate() {
    let model = GptModel::random(zoo::tiny(2), 11);
    let (pm, qm) = (PackedModel::pack(&model), QuantizedPackedModel::quantize_pack(&model, 32));
    for tp in [2, 4] {
        let allocs = decode_allocs(Engine::group(&pm, tp, CommConfig::default(), 4, 4, 32));
        assert_eq!(allocs, 0, "tp {tp}: 16 decode passes allocated {allocs} times across the group's threads");
        let allocs = decode_allocs(Engine::group(&qm, tp, CommConfig::default(), 4, 4, 32));
        assert_eq!(allocs, 0, "tp {tp}: 16 INT8 decode passes allocated {allocs} times across the group's threads");
    }
}

/// Allocations of every thread over 16 steady-state decode passes of `eng`.
fn decode_allocs<B: PanelWeights>(mut eng: PagedEngine<'_, '_, B>) -> usize {
    let slots = [0usize, 1, 2, 3];
    let prompts: Vec<Vec<usize>> = slots.iter().map(|&s| vec![1 + s, 2, 3]).collect();
    let seats: Vec<(usize, &[usize])> = slots.iter().map(|&s| (s, &prompts[s][..])).collect();
    let mut out = Vec::with_capacity(4 * 20);
    eng.pass(&seats, &[], &mut out).expect("seat");
    for _ in 0..2 {
        eng.pass(&[], &slots, &mut out).expect("warm-up pass");
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..16 {
        eng.pass(&[], &slots, &mut out).expect("decode pass");
    }
    ALLOCS.load(Ordering::SeqCst) - before
}
