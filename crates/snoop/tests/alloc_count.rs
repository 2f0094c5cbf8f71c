//! Allocation accounting for the ANY/SEQ join sites.
//!
//! Like `crates/core/tests/alloc_count.rs`, this is a dedicated test
//! binary with exactly one `#[test]` so the counting global allocator sees
//! no concurrent traffic.
//!
//! The fixtures use *bare* occurrences (one empty parameter tuple) under
//! `CentralTime`, so the allocation inherent to an emission is its
//! concatenated parameter list, one shared slice — every other count is
//! join-site staging. What it pins:
//!
//! * `SeqNode` termination (the banded buffer) allocates exactly one
//!   count per emitted pairing (the parameter slice, collected in place
//!   from the two constituents' lists) — the matched-index staging reuses
//!   the buffer's scratch, independent of how many initiators match;
//! * `AnyNode` m-of-n detection allocates exactly three counts: one
//!   borrowed-parts vec, and the emission's parameter list staged in an
//!   exact-capacity vec and copied into its shared slice — no per-part
//!   occurrence clones, no slot vec.

use decs_snoop::nodes::any::AnyNode;
use decs_snoop::nodes::seq::SeqNode;
use decs_snoop::nodes::{OperatorNode, Sink};
use decs_snoop::{CentralTime, Context, EventId, Occurrence};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

fn bare(ty: u32, t: u64) -> Occurrence<CentralTime> {
    Occurrence::bare(EventId(ty), CentralTime(t))
}

#[test]
fn join_sites_allocate_only_per_emission() {
    // --- SEQ: Unrestricted keeps initiators, so repeated terminations are
    // a steady state; M matched initiators must cost exactly M parameter
    // slices once buffers and scratch are warm.
    const M: usize = 32;
    let mut seq: SeqNode<CentralTime> = SeqNode::new(Context::Unrestricted);
    let mut em: Vec<Occurrence<CentralTime>> = Vec::new();
    let mut tr: Vec<(u64, u64)> = Vec::new();
    {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        for i in 0..M {
            seq.on_child(0, &bare(0, i as u64 + 1), &mut sink);
        }
        // Warm up: first termination grows the scratch and emissions vec.
        seq.on_child(1, &bare(1, 100), &mut sink);
    }
    assert_eq!(em.len(), M, "fixture drifted: not all initiators matched");
    em.clear();
    em.reserve(M);
    let term = bare(1, 101);
    let (n, ()) = allocs_during(|| {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        seq.on_child(1, &term, &mut sink);
    });
    assert_eq!(em.len(), M);
    assert_eq!(
        n, M,
        "SEQ termination with {M} matches must allocate exactly one parameter slice per emission"
    );

    // --- ANY(2 of N): Unrestricted re-fires on every arrival once m slots
    // are populated; a detection must cost one borrowed-parts vec plus the
    // emission's parameter list, regardless of how many slots the node has.
    const N: usize = 64;
    let mut any: AnyNode<CentralTime> = AnyNode::new(Context::Unrestricted, 2, N);
    let mut em: Vec<Occurrence<CentralTime>> = Vec::new();
    {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        any.on_child(0, &bare(0, 1), &mut sink);
        // Warm up slot scratch + emissions (this arrival already detects).
        any.on_child(N - 1, &bare(1, 2), &mut sink);
    }
    assert_eq!(em.len(), 1, "fixture drifted: warm-up did not detect");
    em.clear();
    em.reserve(2);
    let arrival = bare(1, 3);
    let (n, ()) = allocs_during(|| {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        any.on_child(N - 1, &arrival, &mut sink);
    });
    assert_eq!(em.len(), 1);
    assert_eq!(
        n, 3,
        "ANY detection must allocate exactly the parts vec + one emission's parameter list"
    );
}
