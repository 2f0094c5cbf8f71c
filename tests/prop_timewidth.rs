//! Width-sweep property suite for the version-vector timestamp kernels.
//!
//! Two contracts, both exact:
//!
//! 1. **Kernels ≡ oracles** — the per-site merge-walk kernels behind
//!    `relation`/`happens_before`/`concurrent`/`weak_leq` and the
//!    survivor-merge behind `max_op` agree with the literal Definition
//!    5.3/5.9 member scans on stamps of width 2–128: partially shared
//!    site sets, multi-member same-site runs, overlapping and separated
//!    bands, and `site_mask` bit collisions (site spans > 64 wrap the
//!    64-bit mask).
//! 2. **End-to-end** — a stream of wide-stamped occurrences detects
//!    identically through the hash-consed shared plan, with watermark GC
//!    on and off, and through the GC-free reference interpreter (one
//!    independent graph per definition) — same detections, same order —
//!    across all five parameter contexts at once (one definition per
//!    context, spanning SEQ's banded buffer, ANY's m-of-n join and NOT's
//!    guard checks).

use decs::core::{cts, max_op, max_op_naive, CompositeTimestamp};
use decs::snoop::{
    Context, EventExpr as E, Occurrence, PlanDetector, ReferenceDetector, ShardFeedResult, Value,
};
use decs_testkit::{check, pick, vec_of, SplitMix64};

/// Sampled stamp widths — the same sweep as `BENCH_timewidth.json`.
fn width(rng: &mut SplitMix64) -> usize {
    pick(rng, &[2, 8, 32, 128])
}

/// A width-`w` stamp: sites `base..base+w`, globals `g0 + (i % spread)`,
/// locals derived from globals so each site's clock is monotone. Every
/// fifth site contributes a second member one global tick later with the
/// *same* local tick (simultaneous, so `max(ST)` keeps both) — a
/// multi-member same-site run, the shape the kernels summarize.
fn wide_stamp(base: u32, g0: u64, w: usize, spread: u64, salt: u64) -> CompositeTimestamp {
    let mut members = Vec::new();
    for i in 0..w as u32 {
        let g = g0 + (u64::from(i) % spread.max(1));
        let l = g * 1000 + salt + u64::from(i) % 400;
        members.push((base + i, g, l));
        if i % 5 == 0 {
            members.push((base + i, g + 1, l));
        }
    }
    cts(&members)
}

/// Contract 1: every vector kernel is bit-identical to its naive
/// member-scan oracle on wide pairs, in both orders and reflexively.
#[test]
fn vector_kernels_equal_naive_oracles_across_widths() {
    check(
        "vector_kernels_equal_naive_oracles_across_widths",
        256,
        |rng| {
            let wa = width(rng);
            let wb = width(rng);
            let base_a = rng.next_range(0, 79) as u32;
            let base_b = rng.next_range(0, 79) as u32;
            let g0 = rng.next_range(0, 5);
            let shift = rng.next_range(0, 5);
            let spread_a = rng.next_range(1, 3);
            let spread_b = rng.next_range(1, 3);
            let salt_b = rng.next_range(0, 399);
            let a = wide_stamp(base_a, g0, wa, spread_a, 0);
            let b = wide_stamp(base_b, g0 + shift, wb, spread_b, salt_b);
            for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                assert_eq!(x.relation(y), x.relation_naive(y));
                assert_eq!(x.happens_before(y), x.happens_before_naive(y));
                assert_eq!(x.concurrent(y), x.concurrent_naive(y));
                assert_eq!(x.weak_leq(y), x.weak_leq_naive(y));
            }
            let j = max_op(&a, &b);
            assert_eq!(&j, &max_op_naive(&a, &b));
            assert_eq!(&max_op(&b, &a), &j);
            assert!(j.invariant_holds());
        },
    );
}

/// The `site_mask` is 64-bit (bit `site % 64`), so sites exactly 64
/// apart collide. Stamps built purely from colliding site pairs must
/// still classify and join exactly: a collision may only *disable*
/// the disjoint-mask O(1) tier, never corrupt the answer.
#[test]
fn site_mask_collisions_stay_exact() {
    check("site_mask_collisions_stay_exact", 256, |rng| {
        let k = rng.next_range(0, 63) as u32;
        let g0 = rng.next_range(0, 5);
        let shift = rng.next_range(0, 5);
        let extra_sites = vec_of(rng, 0, 2, |r| r.next_range(0, 2) as u32);
        let salt_b = rng.next_range(0, 399);
        // `a` on {k, k+64}, `b` on {k+64, k+128} plus a few more
        // 64-apart echoes: every site of `b` shares a mask bit with a
        // *different* site of `a`.
        let ga = g0;
        let gb = g0 + shift;
        let a = cts(&[(k, ga, ga * 1000 + 1), (k + 64, ga, ga * 1000 + 2)]);
        let mut bm = vec![
            (k + 64, gb, gb * 1000 + salt_b),
            (k + 128, gb, gb * 1000 + salt_b + 1),
        ];
        for (i, e) in extra_sites.iter().enumerate() {
            bm.push((k + 64 * (e + 1), gb, gb * 1000 + salt_b + 2 + i as u64));
        }
        let b = cts(&bm);
        assert!(a.site_mask() & b.site_mask() != 0, "fixture must collide");
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_eq!(x.relation(y), x.relation_naive(y));
            assert_eq!(x.happens_before(y), x.happens_before_naive(y));
            assert_eq!(x.concurrent(y), x.concurrent_naive(y));
            assert_eq!(x.weak_leq(y), x.weak_leq_naive(y));
        }
        assert_eq!(max_op(&a, &b), max_op_naive(&a, &b));
    });
}

// --- Contract 2: end-to-end detection equivalence -----------------------

const NAMES: [&str; 3] = ["A", "B", "C"];

/// One definition per context: SEQ (banded buffer), ANY (m-of-n join),
/// NOT (guard checks), AND, and SEQ under Cumulative (the `combine_all`
/// emission path).
fn define_all<D>(
    register: impl Fn(&mut D, &str),
    define: impl Fn(&mut D, &str, &E, Context),
    d: &mut D,
) {
    for n in NAMES {
        register(d, n);
    }
    define(
        d,
        "D0",
        &E::seq(E::prim("A"), E::prim("B")),
        Context::Unrestricted,
    );
    define(
        d,
        "D1",
        &E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
        Context::Recent,
    );
    define(
        d,
        "D2",
        &E::not(E::prim("B"), E::prim("A"), E::prim("C")),
        Context::Chronicle,
    );
    define(
        d,
        "D3",
        &E::and(E::prim("A"), E::prim("B")),
        Context::Continuous,
    );
    define(
        d,
        "D4",
        &E::seq(E::prim("A"), E::prim("C")),
        Context::Cumulative,
    );
}

/// Trace element: (event 0..3, band delta, width, base site, payload).
type Row = (usize, u64, usize, u32, Vec<u64>);

fn trace(rng: &mut SplitMix64) -> Vec<Row> {
    vec_of(rng, 0, 27, |r| {
        (
            r.next_below(3) as usize,
            r.next_range(0, 2),
            width(r),
            r.next_range(0, 7) as u32,
            vec_of(r, 0, 1, |r| r.next_range(0, 49)),
        )
    })
}

/// Materialize the rows: bands are cumulative (so watermarks stay valid),
/// stamps use the same generator as the kernel contract.
fn occurrences(
    d_catalog: &decs::snoop::Catalog,
    rows: &[Row],
) -> Vec<(Occurrence<CompositeTimestamp>, u64)> {
    let mut band = 2u64;
    rows.iter()
        .map(|(ev, delta, w, base, payload)| {
            band += delta;
            let ty = d_catalog.lookup(NAMES[*ev]).unwrap();
            let stamp = wide_stamp(*base, band, *w, 2, u64::from(*base) * 7);
            let values: Vec<Value> = payload.iter().map(|&v| Value::Int(v as i64)).collect();
            let occ = if values.is_empty() {
                Occurrence::bare(ty, stamp)
            } else {
                Occurrence::primitive(ty, stamp, values)
            };
            (occ, band)
        })
        .collect()
}

/// Detections keyed portably: catalogs may intern different `EventId`s
/// for the same definition name across backends, so compare by name.
type Detections = Vec<(String, CompositeTimestamp, decs::snoop::ParamList)>;

fn keyed(cat: &decs::snoop::Catalog, detected: Vec<Occurrence<CompositeTimestamp>>) -> Detections {
    detected
        .into_iter()
        .map(|o| (cat.name(o.ty).to_owned(), o.time, o.params))
        .collect()
}

/// Run the trace through the shared plan, optionally advancing the
/// watermark after every feed (GC).
fn run_plan(gc: bool, rows: &[Row]) -> Detections {
    let mut d: PlanDetector<CompositeTimestamp> = PlanDetector::new();
    define_all(
        |d, n| {
            d.register(n).unwrap();
        },
        |d, n, e, c| {
            d.define(n, e, c).unwrap();
        },
        &mut d,
    );
    let rows = occurrences(d.catalog(), rows);
    let mut out = Vec::new();
    for (occ, band) in rows {
        let r = d.feed(occ);
        out.extend(timer_free(d.catalog(), r));
        if gc {
            d.advance_watermark(band);
        }
    }
    out
}

/// Run the trace through the GC-free reference interpreter.
fn run_reference(rows: &[Row]) -> Detections {
    let mut d: ReferenceDetector<CompositeTimestamp> = ReferenceDetector::new();
    define_all(
        |d, n| {
            d.register(n).unwrap();
        },
        |d, n, e, c| {
            d.define(n, e, c).unwrap();
        },
        &mut d,
    );
    let rows = occurrences(d.catalog(), rows);
    let mut out = Vec::new();
    for (occ, _) in rows {
        let r = d.feed(occ);
        out.extend(timer_free(d.catalog(), r));
    }
    out
}

/// The keyed detections of one feed, which must arm no timer.
fn timer_free(cat: &decs::snoop::Catalog, r: ShardFeedResult<CompositeTimestamp>) -> Detections {
    assert!(r.timers.is_empty(), "definitions are timer-free");
    keyed(cat, r.detected)
}

/// Wide-stamp streams detect identically through the plan, with GC on
/// and off, and through the reference — same detections, same order.
#[test]
fn wide_stamp_detections_identical_across_backends() {
    check(
        "wide_stamp_detections_identical_across_backends",
        256,
        |rng| {
            let rows = trace(rng);
            let gc = pick(rng, &[false, true]);
            let reference = run_reference(&rows);
            assert_eq!(
                &run_plan(gc, &rows),
                &reference,
                "plan vs reference, gc={gc}"
            );
            assert_eq!(
                &run_plan(!gc, &rows),
                &reference,
                "plan vs reference, gc={}",
                !gc
            );
        },
    );
}
