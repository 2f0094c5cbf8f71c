//! Determinism-equivalence property suite for the batched notification
//! protocol: whatever the workload, site count, seed and batch interval,
//! the batched engine produces **exactly** the same named detections with
//! the same composite timestamps, in the same order, as the per-event
//! (batch-size-1) engine. This is the contract that makes batching a pure
//! transport optimization.

use decs::core::CompositeTimestamp;
use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::ScenarioBuilder;
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use decs_testkit::{check, vec_of, SplitMix64};

const NAMES: [&str; 3] = ["A", "B", "C"];

/// Random workload: (ms offset, site, event index).
fn workload(rng: &mut SplitMix64, sites: u32) -> Vec<(u64, u32, usize)> {
    vec_of(rng, 0, 49, |r| {
        let ms = r.next_range(10, 2999);
        let site = r.next_below(u64::from(sites)) as u32;
        (ms, site, r.next_below(3) as usize)
    })
}

/// Fold a workload's sites onto the `sites` sites actually built.
fn fold_sites(raw_trace: Vec<(u64, u32, usize)>, sites: u32) -> Vec<(u64, u32, usize)> {
    raw_trace
        .into_iter()
        .map(|(ms, site, ev)| (ms, site % sites, ev))
        .collect()
}

fn build(sites: u32, seed: u64, batch_interval: Nanos) -> Engine {
    let scenario = ScenarioBuilder::new(sites, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    Engine::new(
        &scenario,
        EngineConfig {
            batch_interval,
            ..EngineConfig::default()
        },
        &NAMES,
        // Three definitions: two over disjoint/overlapping primitives and
        // one referencing another named composite, so the coordinator's
        // shard cascade is exercised end to end.
        &[
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::prim("B"), E::prim("C")),
                Context::Unrestricted,
            ),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
        ],
    )
    .unwrap()
}

fn run(
    sites: u32,
    seed: u64,
    batch_interval: Nanos,
    trace: &[(u64, u32, usize)],
) -> (Vec<(String, CompositeTimestamp)>, Metrics) {
    let mut e = build(sites, seed, batch_interval);
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

/// The core equivalence: batch interval must not change what is
/// detected, when (composite time), or in what order.
#[test]
fn batched_transport_is_equivalent_to_per_event() {
    check("batched_transport_is_equivalent_to_per_event", 64, |rng| {
        let raw_trace = workload(rng, 6);
        let sites = rng.next_range(1, 6) as u32;
        let trace = fold_sites(raw_trace, sites);
        let seed = rng.next_range(0, 999);
        let batch_ms = rng.next_range(1, 79);
        let (baseline, m0) = run(sites, seed, Nanos::ZERO, &trace);
        let (batched, m1) = run(sites, seed, Nanos::from_millis(batch_ms), &trace);
        assert_eq!(&baseline, &batched);
        // Both transports saw the full workload, and the batched run
        // really used the batch path (flushes double as heartbeats): the
        // per-event run's batches are all empty heartbeats.
        assert_eq!(m0.events_received, m1.events_received);
        assert_eq!(m0.batch_size_max, 0);
        assert!(m1.batches_received > 0);
        assert_eq!(m1.batch_size_max > 0, m1.events_received > 0);
        assert_eq!(m1.shard_count, 3);
    });
}

/// Batched runs are themselves bit-for-bit reproducible.
#[test]
fn batched_runs_are_reproducible() {
    check("batched_runs_are_reproducible", 64, |rng| {
        let raw_trace = workload(rng, 4);
        let sites = rng.next_range(1, 4) as u32;
        let trace = fold_sites(raw_trace, sites);
        let seed = rng.next_range(0, 499);
        let batch_ms = rng.next_range(1, 59);
        let (a, _) = run(sites, seed, Nanos::from_millis(batch_ms), &trace);
        let (b, _) = run(sites, seed, Nanos::from_millis(batch_ms), &trace);
        assert_eq!(a, b);
    });
}
