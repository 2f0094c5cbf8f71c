//! Equivalence property suite for the shared, hash-consed plan IR.
//!
//! The contract is exact: compiling a definition set into **one shared
//! plan** ([`PlanDetector`], the production detector) must produce the
//! same named detections — same composite timestamps, same accumulated
//! parameters, same order — as compiling every definition
//! **independently** ([`ReferenceDetector`], the differential oracle), for
//! arbitrary overlapping definition sets across all five parameter
//! contexts. The plan is driven the way the coordinator drives it: one
//! columnar batch per release round (one global tick of a stamped 4-site
//! trace, in canonical release order), with watermark GC on or off behind
//! each round. The reference is fed the same stamped trace one occurrence
//! at a time, without GC.

use decs::core::{CompositeTimestamp, PrimitiveTimestamp};
use decs::simnet::ScenarioBuilder;
use decs::snoop::{
    Context, EventBatch, EventExpr, EventExpr as E, EventId, Occurrence, PlanDetector, PlanStats,
    ReferenceDetector, Value,
};
use decs_chronos::{Granularity, Nanos};
use decs_testkit::{check, pick, vec_of, SplitMix64};

const NAMES: [&str; 3] = ["A", "B", "C"];

const SITES: u32 = 4;

const CTXS: [Context; 5] = [
    Context::Unrestricted,
    Context::Recent,
    Context::Chronicle,
    Context::Continuous,
    Context::Cumulative,
];

/// Candidate definition bodies, built so random picks overlap: several
/// share the `Seq(A, B)` core, `ANY`/`NOT` share their primitive slots,
/// picking the same body twice under one context (common at 1–6 picks
/// from 6 shapes × 5 contexts) shares the whole tree, and the last body
/// is a **stateless** `Or` over primitives, which shares across *all*
/// contexts (stateful operators cons-key by context; forwarders don't).
/// Timer operators are excluded on purpose — they are never shared (each
/// keeps a private node), and `tests/prop_distributed.rs` already covers
/// their engine path.
fn bodies() -> Vec<EventExpr> {
    let ab = E::seq(E::prim("A"), E::prim("B"));
    vec![
        ab.clone(),
        E::and(ab.clone(), E::prim("C")),
        E::or(ab, E::prim("C")),
        E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
        E::not(E::prim("B"), E::prim("A"), E::prim("C")),
        E::or(E::prim("A"), E::prim("C")),
    ]
}

/// Random workload: (ms offset, site, event index).
fn workload(rng: &mut SplitMix64, sites: u32) -> Vec<(u64, u32, usize)> {
    vec_of(rng, 0, 39, |r| {
        let ms = r.next_range(10, 2999);
        let site = r.next_below(u64::from(sites)) as u32;
        (ms, site, r.next_below(3) as usize)
    })
}

/// The trace as the sites stamp it, in the coordinator's canonical
/// release order (maximum global tick, then site, then the site's own
/// order). Each occurrence carries its trace index as its parameter, so
/// the comparison also pins which primitives every detection consumed.
/// Primitive ids are the registration order of [`NAMES`].
fn stamped(seed: u64, trace: &[(u64, u32, usize)]) -> Vec<Occurrence<CompositeTimestamp>> {
    let scenario = ScenarioBuilder::new(SITES, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    let sources: Vec<_> = (0..SITES).map(|s| scenario.time_source(s)).collect();
    let mut rows: Vec<(u64, u32, u64, usize, Occurrence<CompositeTimestamp>)> = trace
        .iter()
        .enumerate()
        .filter_map(|(i, &(ms, site, ev))| {
            let p = sources[site as usize].stamp(Nanos::from_millis(ms)).ok()?;
            let ts =
                CompositeTimestamp::singleton(PrimitiveTimestamp::new(p.site, p.global, p.local));
            let occ = Occurrence::primitive(EventId(ev as u32), ts, vec![Value::Int(i as i64)]);
            Some((occ.time.max_global(), site, ms, i, occ))
        })
        .collect();
    rows.sort_by_key(|r| (r.0, r.1, r.2, r.3));
    rows.into_iter().map(|r| r.4).collect()
}

/// The picked `(body, context)` definitions, named `D0, D1, …`.
fn definitions(picks: &[(usize, usize)]) -> Vec<(String, EventExpr, Context)> {
    let pool = bodies();
    picks
        .iter()
        .enumerate()
        .map(|(i, &(b, c))| (format!("D{i}"), pool[b].clone(), CTXS[c]))
        .collect()
}

type Detections = Vec<(String, Occurrence<CompositeTimestamp>)>;

/// The shared plan, fed one columnar batch per release round, advancing
/// the watermark behind each round when `buffer_gc` is set (every later
/// round's stamps sit at a strictly higher global tick). Returns the
/// detections and the plan's sharing counters.
fn run_plan(
    picks: &[(usize, usize)],
    occs: &[Occurrence<CompositeTimestamp>],
    buffer_gc: bool,
) -> (Detections, PlanStats) {
    let mut d = PlanDetector::new();
    for name in NAMES {
        d.register(name).unwrap();
    }
    for (name, body, ctx) in definitions(picks) {
        d.define(&name, &body, ctx).unwrap();
    }
    let mut batch = EventBatch::new();
    let mut out = Vec::new();
    for round in occs.chunk_by(|a, b| a.time.max_global() == b.time.max_global()) {
        batch.clear();
        for o in round {
            batch.push_list(o.ty, o.time.clone(), o.params.clone());
        }
        let r = d.feed_batch_columnar(&batch);
        out.extend(
            r.detected
                .into_iter()
                .map(|o| (d.catalog().name(o.ty).to_string(), o)),
        );
        if buffer_gc {
            d.advance_watermark(round[0].time.max_global());
        }
    }
    (out, d.plan_stats())
}

/// The oracle: independent per-definition graphs, one occurrence at a
/// time, no GC. Returns the detections and the total node count.
fn run_reference(
    picks: &[(usize, usize)],
    occs: &[Occurrence<CompositeTimestamp>],
) -> (Detections, usize) {
    let mut d = ReferenceDetector::new();
    for name in NAMES {
        d.register(name).unwrap();
    }
    for (name, body, ctx) in definitions(picks) {
        d.define(&name, &body, ctx).unwrap();
    }
    let mut out = Vec::new();
    for o in occs {
        let r = d.feed(o.clone());
        out.extend(
            r.detected
                .into_iter()
                .map(|o| (d.catalog().name(o.ty).to_string(), o)),
        );
    }
    (out, d.node_count())
}

/// The tentpole contract: the shared plan detects exactly what
/// independent compilation detects, in every sampled configuration.
#[test]
fn shared_plan_is_bit_identical_to_independent_compilation() {
    check(
        "shared_plan_is_bit_identical_to_independent_compilation",
        256,
        |rng| {
            let raw_trace = workload(rng, SITES);
            let picks = vec_of(rng, 1, 5, |r| {
                (r.next_below(6) as usize, r.next_below(5) as usize)
            });
            let seed = rng.next_range(0, 999);
            let buffer_gc = pick(rng, &[true, false]);
            let occs = stamped(seed, &raw_trace);
            let (shared, stats) = run_plan(&picks, &occs, buffer_gc);
            let (unshared, reference_nodes) = run_reference(&picks, &occs);
            assert_eq!(&shared, &unshared, "picks={picks:?} gc={buffer_gc}");
            // The oracle really compiled independently: one node per
            // subexpression position…
            assert_eq!(stats.position_count, reference_nodes, "picks={picks:?}");
            // …and the plan never has more nodes than the independent graphs.
            assert!(stats.plan_nodes <= reference_nodes);
            // A duplicated `(body, context)` pick provably shares at least one
            // node (same structure, same context ⇒ cons hit on the whole
            // tree); so does any duplicated pick of the stateless body 5
            // (forwarder cons keys carry no context).
            let mut sorted: Vec<(usize, usize)> = picks
                .iter()
                .map(|&(b, c)| (b, if b == 5 { 0 } else { c }))
                .collect();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() < picks.len() {
                assert!(stats.shared_nodes > 0, "picks={picks:?}");
            }
        },
    );
}

/// Deterministic spot check: the stateless `Or(A, C)` body under all five
/// contexts collapses to **one** plan node bound by five definitions —
/// forwarder cons keys carry no context (a forwarder holds no state for a
/// context to consume), so sharing crosses context boundaries. Stateful
/// bodies do the opposite: the same `Seq(A,B) ∧ C` under five contexts
/// shares nothing, because consumption contexts change operator state.
#[test]
fn five_contexts_over_one_body_share_and_match() {
    let trace: Vec<(u64, u32, usize)> = (0..30)
        .map(|i| (100 + i * 90, (i % 4) as u32, (i % 3) as usize))
        .collect();
    let occs = stamped(7, &trace);
    let stateless: Vec<(usize, usize)> = (0..5).map(|c| (5, c)).collect();
    let (shared, stats) = run_plan(&stateless, &occs, true);
    let (unshared, reference_nodes) = run_reference(&stateless, &occs);
    assert_eq!(shared, unshared);
    assert!(!shared.is_empty(), "workload must actually detect");
    // One Or node where independent compilation builds five.
    assert_eq!(reference_nodes, 5);
    assert_eq!(stats.plan_nodes, 1);
    assert_eq!(stats.shared_nodes, 1);
    assert!(stats.sharing_ratio > 0.0);

    let stateful: Vec<(usize, usize)> = (0..5).map(|c| (1, c)).collect();
    let (s2, stats2) = run_plan(&stateful, &occs, true);
    let (u2, reference_nodes2) = run_reference(&stateful, &occs);
    assert_eq!(s2, u2);
    assert_eq!(
        stats2.shared_nodes, 0,
        "contexts must keep stateful ops apart"
    );
    assert_eq!(stats2.plan_nodes, reference_nodes2);
}

/// Duplicate definitions under one context are the extreme case: the
/// second definition adds zero plan nodes.
#[test]
fn duplicate_definitions_add_no_plan_nodes() {
    let picks_one = vec![(0, 2)];
    let picks_two = vec![(0, 2), (0, 2)];
    let trace: Vec<(u64, u32, usize)> = (0..20)
        .map(|i| (100 + i * 120, (i % 4) as u32, (i % 2) as usize))
        .collect();
    let occs = stamped(3, &trace);
    let (one, stats_one) = run_plan(&picks_one, &occs, true);
    let (two, stats_two) = run_plan(&picks_two, &occs, true);
    assert_eq!(stats_one.plan_nodes, stats_two.plan_nodes);
    assert_eq!(stats_two.shared_nodes, 1); // the one Seq node, bound twice
    assert!(!one.is_empty());
    // D1 mirrors D0 occurrence-for-occurrence.
    assert_eq!(two.len(), 2 * one.len());
}
