//! Equivalence property suite for the hot-path optimizations.
//!
//! Two contracts, both exact (not approximations):
//!
//! 1. **Relation kernels** — the cached-bound fast paths on
//!    `CompositeTimestamp` (`relation`, `happens_before`, `concurrent`,
//!    `weak_leq`, `max_op`) agree with the literal Definition 5.3/5.9
//!    pairwise scans (`*_naive`) on arbitrary member sets, including the
//!    band-separated shapes the fast paths short-circuit on.
//! 2. **Banded SEQ buffer** — the band-sorted initiator buffer behind
//!    `SEQ` (binary-searched certainly-before prefix, full `<_p` checks
//!    only inside the uncertainty band) emits exactly what the linear
//!    arrival-order scan emits, in the same order, with the same
//!    consumption, under every parameter context.
//! 3. **Watermark-driven buffer GC** — the engine with `buffer_gc` on
//!    produces exactly the same named detections, with the same composite
//!    timestamps, in the same order, as with GC off. This is the contract
//!    that makes GC a pure memory optimization.

use decs::core::{cts, max_op, max_op_naive, CompositeTimestamp};
use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::ScenarioBuilder;
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use decs_testkit::{check, pick, vec_of, SplitMix64};

/// Raw member triples for one stamp. Local ticks are derived from global
/// ticks plus jitter so each site's clock is monotone (Proposition 4.1 —
/// without it the member relation is not even a partial order and
/// `max(ST)` can be empty). Callers shift every global tick so pairs of
/// stamps drawn with different shifts exercise the band-separated fast
/// paths, not just the overlapping-band fallback.
fn members(rng: &mut SplitMix64) -> Vec<(u32, u64, u64)> {
    vec_of(rng, 1, 5, |r| {
        let s = r.next_range(0, 5) as u32;
        let g = r.next_range(0, 11);
        let j = r.next_range(0, 9);
        (s, g, g * 10 + j)
    })
}

/// Every fast-path kernel agrees with its naive oracle, pairwise.
#[test]
fn fast_kernels_equal_naive_oracles() {
    check("fast_kernels_equal_naive_oracles", 256, |rng| {
        let a = cts(&members(rng));
        let shift = rng.next_range(0, 29);
        let b_raw = members(rng);
        // Shifting globals by `shift` and locals by `10·shift` preserves
        // per-site monotonicity and lands `b` 0–30 ticks above `a`.
        let b = cts(&b_raw
            .into_iter()
            .map(|(s, g, l)| (s, g + shift, l + shift * 10))
            .collect::<Vec<_>>());
        assert_kernels_equal_oracles(&a, &b);
    });
}

fn assert_kernels_equal_oracles(a: &CompositeTimestamp, b: &CompositeTimestamp) {
    for (x, y) in [(a, b), (b, a), (a, a)] {
        assert_eq!(x.relation(y), x.relation_naive(y));
        assert_eq!(x.happens_before(y), x.happens_before_naive(y));
        assert_eq!(x.concurrent(y), x.concurrent_naive(y));
        assert_eq!(x.weak_leq(y), x.weak_leq_naive(y));
    }
    assert_eq!(max_op(a, b), max_op_naive(a, b));
    assert_eq!(max_op(b, a), max_op_naive(b, a));
}

/// Same contract at version-vector widths: 32- and 128-site stamps
/// with partially overlapping site ranges and a band shift, so the
/// merge-walk kernels (not just the narrow shapes above) are held to
/// the naive oracles. Site bases up to 80 with width 128 also wrap
/// the 64-bit `site_mask`, exercising mask-collision fall-through.
#[test]
fn fast_kernels_equal_naive_oracles_wide() {
    check("fast_kernels_equal_naive_oracles_wide", 256, |rng| {
        let wa = pick(rng, &[32usize, 128]);
        let wb = pick(rng, &[32usize, 128]);
        let base_a = rng.next_range(0, 79) as u32;
        let base_b = rng.next_range(0, 79) as u32;
        let g0 = rng.next_range(0, 7);
        let shift = rng.next_range(0, 7);
        let jitter = rng.next_range(0, 399);
        let wide = |base: u32, g0: u64, w: usize, salt: u64| {
            let m: Vec<(u32, u64, u64)> = (0..w as u32)
                .map(|i| {
                    let g = g0 + u64::from(i % 3);
                    (base + i, g, g * 1000 + salt + u64::from(i))
                })
                .collect();
            cts(&m)
        };
        let a = wide(base_a, g0, wa, 0);
        let b = wide(base_b, g0 + shift, wb, jitter);
        assert_kernels_equal_oracles(&a, &b);
    });
}

/// Banded SEQ buffer vs the linear arrival-order scan.
mod banded_seq {
    use super::*;
    use decs::snoop::{Catalog, EventGraph, EventTime, Occurrence};

    /// A random initiator/terminator stream. Each element is `(is_term,
    /// stamp)`; stamps use the same site-monotone construction as
    /// [`members`], with a per-element band shift so streams mix
    /// band-separated pairs (the binary-searched prefix) with overlapping
    /// ones (the full in-band `<_p` checks).
    fn stream(rng: &mut SplitMix64) -> Vec<(bool, CompositeTimestamp)> {
        vec_of(rng, 1, 23, |r| {
            let kind = r.next_range(0, 1);
            let shift = r.next_range(0, 39);
            let stamp = cts(&members(r)
                .into_iter()
                .map(|(s, g, l)| (s, g + shift, l + shift * 10))
                .collect::<Vec<_>>());
            (kind == 1, stamp)
        })
    }

    /// The linear-scan oracle: `buffer_initiator`/`pair_terminator`
    /// semantics (arrival-order buffer, `init <_p term` predicate, the
    /// context's exact consumption rule), reimplemented independently of
    /// the banded production path.
    fn oracle(
        ctx: Context,
        a: decs::snoop::EventId,
        b: decs::snoop::EventId,
        x: decs::snoop::EventId,
        stream: &[(bool, CompositeTimestamp)],
    ) -> Vec<Occurrence<CompositeTimestamp>> {
        let mut inits: Vec<Occurrence<CompositeTimestamp>> = Vec::new();
        let mut out = Vec::new();
        for (is_term, t) in stream {
            if !is_term {
                let occ = Occurrence::bare(a, t.clone());
                if ctx == Context::Recent {
                    if let Some(existing) = inits.first() {
                        if occ.time.before(&existing.time) {
                            continue; // older than the buffered one: ignore
                        }
                        inits.clear();
                    }
                }
                inits.push(occ);
                continue;
            }
            let term = Occurrence::bare(b, t.clone());
            let hit = |i: &Occurrence<CompositeTimestamp>| i.time.before(&term.time);
            match ctx {
                Context::Unrestricted => {
                    for init in inits.iter().filter(|i| hit(i)) {
                        out.push(Occurrence::combine(x, init, &term));
                    }
                }
                Context::Recent => {
                    if let Some(init) = inits.first() {
                        if hit(init) {
                            out.push(Occurrence::combine(x, init, &term));
                        }
                    }
                }
                Context::Chronicle => {
                    if let Some(pos) = inits.iter().position(&hit) {
                        let init = inits.remove(pos);
                        out.push(Occurrence::combine(x, &init, &term));
                    }
                }
                Context::Continuous => {
                    let mut kept = Vec::new();
                    for init in inits.drain(..) {
                        if hit(&init) {
                            out.push(Occurrence::combine(x, &init, &term));
                        } else {
                            kept.push(init);
                        }
                    }
                    inits = kept;
                }
                Context::Cumulative => {
                    let mut kept = Vec::new();
                    let mut used = Vec::new();
                    for init in inits.drain(..) {
                        if hit(&init) {
                            used.push(init);
                        } else {
                            kept.push(init);
                        }
                    }
                    inits = kept;
                    if !used.is_empty() {
                        let mut parts: Vec<&Occurrence<CompositeTimestamp>> = used.iter().collect();
                        parts.push(&term);
                        out.push(Occurrence::combine_all(x, &parts));
                    }
                }
            }
        }
        out
    }

    /// The production `SEQ` node (banded buffer) emits exactly what
    /// the linear oracle emits, in the same order, under every parameter
    /// context.
    #[test]
    fn banded_seq_equals_linear_oracle() {
        check("banded_seq_equals_linear_oracle", 256, |rng| {
            let stream = stream(rng);
            for ctx in [
                Context::Unrestricted,
                Context::Recent,
                Context::Chronicle,
                Context::Continuous,
                Context::Cumulative,
            ] {
                // The bare graph: the SEQ node's own emission order, with no
                // per-trigger canonical merge on top.
                let mut cat = Catalog::new();
                let mut d: EventGraph<CompositeTimestamp> = EventGraph::new();
                let a = cat.register("A").unwrap();
                let b = cat.register("B").unwrap();
                let x = d
                    .compile(&mut cat, "X", &E::seq(E::prim("A"), E::prim("B")), ctx)
                    .unwrap();
                let mut detected = Vec::new();
                for (is_term, t) in &stream {
                    let ty = if *is_term { b } else { a };
                    detected.extend(d.feed(Occurrence::bare(ty, t.clone())).detected);
                }
                let expected = oracle(ctx, a, b, x, &stream);
                assert_eq!(&expected, &detected, "{ctx}");
            }
        });
    }
}

const NAMES: [&str; 3] = ["A", "B", "C"];

/// Random workload: (ms offset, site, event index).
fn workload(rng: &mut SplitMix64, sites: u32) -> Vec<(u64, u32, usize)> {
    vec_of(rng, 0, 49, |r| {
        let ms = r.next_range(10, 2999);
        let site = r.next_below(u64::from(sites)) as u32;
        (ms, site, r.next_below(3) as usize)
    })
}

fn build(sites: u32, seed: u64, buffer_gc: bool) -> Engine {
    let scenario = ScenarioBuilder::new(sites, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    Engine::new(
        &scenario,
        EngineConfig {
            buffer_gc,
            ..EngineConfig::default()
        },
        &NAMES,
        // A NOT definition (the operator whose buffers GC actually
        // reclaims), an ANY under Unrestricted (the structural-truncation
        // rule), and a cross-definition sequence for the shard cascade.
        &[
            (
                "N",
                E::not(E::prim("B"), E::prim("A"), E::prim("C")),
                Context::Chronicle,
            ),
            (
                "W",
                E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
                Context::Unrestricted,
            ),
            ("Z", E::seq(E::prim("N"), E::prim("B")), Context::Chronicle),
        ],
    )
    .unwrap()
}

fn run(
    sites: u32,
    seed: u64,
    buffer_gc: bool,
    trace: &[(u64, u32, usize)],
) -> (Vec<(String, CompositeTimestamp)>, Metrics) {
    let mut e = build(sites, seed, buffer_gc);
    for &(ms, site, ev) in trace {
        e.inject(Nanos::from_millis(ms), site, NAMES[ev], vec![])
            .unwrap();
    }
    let det = e
        .run_for(Nanos::from_secs(8))
        .into_iter()
        .map(|d| (d.name, d.occ.time))
        .collect();
    (det, e.metrics())
}

/// The GC equivalence: collecting operator buffers as the watermark
/// advances must not change what is detected, when, or in what order.
#[test]
fn buffer_gc_is_equivalent_to_no_gc() {
    check("buffer_gc_is_equivalent_to_no_gc", 64, |rng| {
        let raw_trace = workload(rng, 6);
        let sites = rng.next_range(1, 6) as u32;
        let seed = rng.next_range(0, 999);
        let trace: Vec<(u64, u32, usize)> = raw_trace
            .into_iter()
            .map(|(ms, site, ev)| (ms, site % sites, ev))
            .collect();
        let (plain, m_off) = run(sites, seed, false, &trace);
        let (gc, m_on) = run(sites, seed, true, &trace);
        assert_eq!(&plain, &gc);
        // Same workload on both sides; the off run really had GC off.
        assert_eq!(m_off.events_received, m_on.events_received);
        assert_eq!(m_off.gc_evicted, 0);
        // GC never leaves *more* state buffered.
        assert!(m_on.node_buffered <= m_off.node_buffered);
    });
}

/// Deterministic dense workload where the NOT definition's guards and
/// cancelled openers pile up: GC must actually evict, bound occupancy below
/// the no-GC run, and still detect identically (checked by the property
/// above; re-checked here on this specific trace).
#[test]
fn gc_evicts_on_a_guard_heavy_workload() {
    let mut trace = Vec::new();
    for round in 0..40u64 {
        let t = 60 + round * 70;
        trace.push((t, 0u32, 0usize)); // A opens
        trace.push((t + 20, 1, 1)); // B cancels it
        trace.push((t + 40, 2, 0)); // A opens again
        trace.push((t + 60, 0, 2)); // C closes → N fires for the 2nd A
    }
    let (plain, m_off) = run(3, 7, false, &trace);
    let (gc, m_on) = run(3, 7, true, &trace);
    assert_eq!(plain, gc);
    assert!(!gc.is_empty(), "workload must actually detect");
    assert!(m_on.gc_evicted > 0, "GC must reclaim the dead NOT state");
    assert!(
        m_on.node_buffer_peak < m_off.node_buffer_peak,
        "GC peak {} must be below no-GC peak {}",
        m_on.node_buffer_peak,
        m_off.node_buffer_peak
    );
}
