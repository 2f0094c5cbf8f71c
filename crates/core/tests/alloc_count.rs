//! Allocation accounting for the hot timestamp kernels.
//!
//! This file is its own integration-test binary with exactly one `#[test]`
//! so the counting global allocator sees no traffic from sibling tests
//! (the libtest harness runs tests of one binary concurrently; a second
//! test here would pollute the counters).
//!
//! What it pins:
//!
//! * the relation kernels (`relation`/`happens_before`/`concurrent`/
//!   `weak_leq`) allocate nothing at any width — they walk the version
//!   vector summary in place;
//! * `max_op` allocates nothing when the result is a singleton (stored
//!   inline) — the merge stages in a reusable thread-local scratch — and
//!   exactly one allocation, the result's shared block, at any wider
//!   width;
//! * cloning a stamp of any width allocates nothing (a wide stamp's block
//!   is reference-counted);
//! * the retired naive path (`max_op_naive`, kept as the oracle) pays
//!   multiple allocations per call, so the scratch route is a real saving,
//!   not an accounting trick.

use decs_core::{max_op, max_op_naive, pts, CompositeTimestamp};
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

/// Allocations observed while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// A wide composite: `width` distinct sites in one global-tick window,
/// pairwise concurrent, so nothing is normalized away.
fn wide(base_site: u32, g: u64, width: u32) -> CompositeTimestamp {
    CompositeTimestamp::from_primitives(
        (0..width).map(|i| pts(base_site + i, g + u64::from(i % 2), 100 + u64::from(i))),
    )
}

#[test]
fn kernels_are_alloc_free_on_the_hot_path() {
    // Overlapping site sets: these pairs miss the O(1) mask fast paths and
    // exercise the merge-walk kernels proper.
    let a32 = wide(0, 10, 32);
    let b32 = wide(16, 10, 32); // sites 16..48 overlap a32's 0..32
    let a2 = wide(0, 10, 2);
    let b2 = wide(1, 10, 2);

    // Warm up the thread-local scratch (its first growth is a one-time
    // allocation) and any lazy test-harness state.
    let _ = max_op(&a32, &b32);
    let _ = max_op(&a2, &b2);

    // 1. Relation kernels: zero allocations at every width.
    let (n, _) = allocs_during(|| {
        for (x, y) in [(&a32, &b32), (&a2, &b2), (&a32, &a32)] {
            std::hint::black_box(x.relation(y));
            std::hint::black_box(x.happens_before(y));
            std::hint::black_box(x.concurrent(y));
            std::hint::black_box(x.weak_leq(y));
        }
    });
    assert_eq!(n, 0, "relation kernels must not allocate");

    // 2. max_op with a singleton result: zero allocations, both for two
    //    ordered singletons and through the merge walk (a width-2 stamp
    //    overtaken at one of its own sites).
    let early = CompositeTimestamp::singleton(pts(0, 10, 100));
    let late = CompositeTimestamp::singleton(pts(1, 20, 200));
    let overtaking = CompositeTimestamp::singleton(pts(0, 30, 300));
    for (x, y) in [(&early, &late), (&a2, &overtaking)] {
        let (n, m) = allocs_during(|| std::hint::black_box(max_op(x, y)));
        assert_eq!(m.len(), 1, "fixture drifted: result is not a singleton");
        assert_eq!(n, 0, "singleton-result max_op must not allocate");
    }

    // 3. max_op with a wide result: exactly one allocation, the result's
    //    shared block — unavoidable for an owned wide value — for two
    //    concurrent singletons, the width-2 pair and the width-32 pair.
    let beside = CompositeTimestamp::singleton(pts(1, 10, 101));
    for (x, y) in [(&early, &beside), (&a2, &b2), (&a32, &b32)] {
        let (n, m) = allocs_during(|| std::hint::black_box(max_op(x, y)));
        assert!(m.len() > 1, "fixture drifted: result is a singleton");
        assert_eq!(n, 1, "wide max_op must allocate only the result block");
    }

    // 4. Cloning never allocates: a width-2 or width-32 clone shares its
    //    block.
    let (n, _) = allocs_during(|| {
        std::hint::black_box(a2.clone());
        std::hint::black_box(a32.clone());
    });
    assert_eq!(n, 0, "cloning a wide stamp must not allocate");

    // 5. The naive oracle pays for staging (union vec, max_set's survivor
    //    vec, renormalization) on the same inputs — the scratch route is a
    //    measured saving of ≥ 3 allocations per narrow join and ≥ 2 per
    //    wide one.
    let (n_naive_narrow, _) = allocs_during(|| std::hint::black_box(max_op_naive(&a2, &b2)));
    assert!(
        n_naive_narrow >= 3,
        "oracle baseline shifted: naive narrow max_op made {n_naive_narrow} allocs"
    );
    let (n_naive_wide, _) = allocs_during(|| std::hint::black_box(max_op_naive(&a32, &b32)));
    assert!(
        n_naive_wide >= 3,
        "oracle baseline shifted: naive wide max_op made {n_naive_wide} allocs"
    );
}
