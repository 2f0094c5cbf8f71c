//! E20 — the partitioned detection plane: throughput and cross-partition
//! forwarding cost as a function of the coordinator replica count.
//!
//! One fixed seeded workload runs through the engine at N = 1 (the
//! classic single-coordinator plane) and N = 2, 4 coordinator replicas
//! (definitions rendezvous-partitioned, announcements
//! subscription-routed, cross-partition composites forwarded replica →
//! replica). Every multi-replica row **hard-asserts** that its detection
//! stream is bit-identical to the N = 1 run — the partition-invariance
//! headline, here measured rather than only asserted — and records the
//! wall-clock drive time, the per-replica announcement fan-in, and the
//! cross-partition forward ratio (relayed cascade events per routed
//! announcement received).
//!
//! Two throughput columns, two deployment models. `keps` is this
//! process's single-threaded drive rate: the simulation steps replicas
//! sequentially, so it *falls* as N grows and message volume rises.
//! `agg_keps` is the aggregate ingest throughput of the deployment the
//! partitioning exists for — one process per replica, all running
//! concurrently — computed as events / max per-replica handler time
//! (`Engine::replica_busy_ns`). Because announcements are
//! subscription-routed rather than broadcast, the busiest replica's
//! share of the work shrinks with N and `agg_keps` rises; the smoke gate
//! hard-asserts that scaling on the committed baseline.
//!
//! Run: `cargo run --release -p decs-bench --bin partition` (full,
//! writes `BENCH_partition.json` in the current directory).
//! `--smoke` runs a reduced workload, hard-asserts detection equality at
//! every replica count, and validates the committed
//! `BENCH_partition.json` (malformed JSON or a diverged row fail with a
//! nonzero exit).

use decs_bench::{Baseline, Gate, Row as JsonRow};
use decs_chronos::{Granularity, Nanos};
use decs_core::CompositeTimestamp;
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::{Scenario, ScenarioBuilder, SplitMix64};
use decs_snoop::{Context, EventExpr as E, Occurrence};
use std::time::Instant;

const SITES: u32 = 4;
const SEED: u64 = 42;
const REPLICAS: [usize; 3] = [1, 2, 4];

struct Row {
    replicas: usize,
    detections: usize,
    match_single: bool,
    events: usize,
    wall_ms: f64,
    keps: f64,
    /// Handler time of the busiest replica, ms — the critical path a
    /// parallel one-process-per-replica deployment pays for this traffic.
    max_busy_ms: f64,
    /// Aggregate routed-path ingest throughput: events / max_busy — what
    /// the plane sustains when replicas run concurrently and each only
    /// processes its subscribed share of the announcements.
    agg_keps: f64,
    routed_received: u64,
    relay_events: u64,
    relays_sent: u64,
    forward_ratio: f64,
}

type Keys = Vec<(String, Occurrence<CompositeTimestamp>)>;

fn scenario() -> Scenario {
    ScenarioBuilder::new(SITES, SEED)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

/// Independent per-stream definitions riding alongside the chained core:
/// each consumes its own two-primitive alphabet, so subscription routing
/// delivers its announcements to exactly one replica. This is the
/// partitioning story — many mostly-independent definitions — and what
/// makes the busiest replica's share of the work shrink as N grows.
const USERS: usize = 24;

/// Definitions that chain across partitions — Y consumes X, Z consumes Y,
/// so rendezvous placement forces replica → replica forwarding — plus
/// `USERS` independent per-stream sequences over a disjoint alphabet.
fn defs() -> Vec<(String, E, Context)> {
    let mut d = vec![
        (
            "X".to_owned(),
            E::seq(E::prim("A"), E::prim("B")),
            Context::Chronicle,
        ),
        (
            "Y".to_owned(),
            E::and(E::prim("X"), E::prim("C")),
            Context::Recent,
        ),
        (
            "Z".to_owned(),
            E::or(E::prim("Y"), E::seq(E::prim("C"), E::prim("D"))),
            Context::Chronicle,
        ),
        (
            "W".to_owned(),
            E::and(E::prim("X"), E::prim("D")),
            Context::Chronicle,
        ),
    ];
    for u in 0..USERS {
        let ctx = if u % 2 == 0 {
            Context::Chronicle
        } else {
            Context::Recent
        };
        d.push((
            format!("U{u}"),
            E::seq(E::prim(&user_prim(u, 0)), E::prim(&user_prim(u, 1))),
            ctx,
        ));
    }
    d
}

fn user_prim(user: usize, half: usize) -> String {
    format!("P{user}_{half}")
}

fn primitives() -> Vec<String> {
    let mut p: Vec<String> = ["A", "B", "C", "D"].map(str::to_owned).to_vec();
    for u in 0..USERS {
        p.push(user_prim(u, 0));
        p.push(user_prim(u, 1));
    }
    p
}

/// Deterministic workload shared by every replica count: `events`
/// injections over the first `span_ms` milliseconds on random sites.
/// Roughly a quarter of the traffic hits the chained A–D core (feeding
/// the cross-partition forward path); the rest is spread across the
/// per-stream alphabets (feeding the routed scaling path).
fn workload(events: usize, span_ms: u64) -> Vec<(u64, u32, String)> {
    let mut rng = SplitMix64::new(0xE18_4EC0);
    (0..events)
        .map(|_| {
            let ms = rng.next_range(10, span_ms);
            let site = rng.next_below(u64::from(SITES)) as u32;
            let ev = if rng.next_below(4) == 0 {
                match rng.next_below(4) {
                    0 => "A".to_owned(),
                    1 => "B".to_owned(),
                    2 => "C".to_owned(),
                    _ => "D".to_owned(),
                }
            } else {
                let u = rng.next_below(USERS as u64) as usize;
                user_prim(u, rng.next_below(2) as usize)
            };
            (ms, site, ev)
        })
        .collect()
}

fn keys(det: Vec<decs_distrib::Detection>) -> Keys {
    det.into_iter().map(|d| (d.name, d.occ)).collect()
}

fn run_case(
    replicas: usize,
    w: &[(u64, u32, String)],
    horizon_secs: u64,
    single: Option<&Keys>,
) -> (Row, Keys) {
    let config = EngineConfig {
        coordinator_replicas: replicas,
        ..EngineConfig::default()
    };
    let d = defs();
    let d: Vec<(&str, E, Context)> = d
        .iter()
        .map(|(n, e, c)| (n.as_str(), e.clone(), *c))
        .collect();
    let prims = primitives();
    let prims: Vec<&str> = prims.iter().map(String::as_str).collect();
    let mut e = Engine::new(&scenario(), config, &prims, &d).unwrap();
    for (ms, site, ev) in w {
        e.inject(Nanos::from_millis(*ms), *site, ev, vec![])
            .unwrap();
    }
    let start = Instant::now();
    let det = keys(e.run_until(Nanos::from_secs(horizon_secs)));
    let wall = start.elapsed();
    let m = e.metrics();
    let max_busy_ns = e.replica_busy_ns().into_iter().max().unwrap_or(0).max(1);
    let row = Row {
        replicas,
        detections: det.len(),
        match_single: single.is_none_or(|s| det == *s),
        events: w.len(),
        wall_ms: wall.as_secs_f64() * 1e3,
        keps: w.len() as f64 / wall.as_secs_f64() / 1e3,
        max_busy_ms: max_busy_ns as f64 / 1e6,
        agg_keps: w.len() as f64 / (max_busy_ns as f64 / 1e9) / 1e3,
        routed_received: m.routed_received,
        relay_events: m.relay_events,
        relays_sent: m.relays_sent,
        forward_ratio: if m.events_received == 0 {
            0.0
        } else {
            m.relay_events as f64 / m.events_received as f64
        },
    };
    (row, det)
}

fn run_matrix(events: usize, span_ms: u64, horizon_secs: u64) -> Vec<Row> {
    let w = workload(events, span_ms);
    let mut rows = Vec::new();
    let mut single: Option<Keys> = None;
    for &replicas in &REPLICAS {
        let (row, det) = run_case(replicas, &w, horizon_secs, single.as_ref());
        assert!(
            row.match_single,
            "N = {replicas} detections diverged from N = 1"
        );
        rows.push(row);
        single.get_or_insert(det);
    }
    rows
}

fn report(rows: &[Row]) -> Baseline {
    Baseline::new().array(
        "rows",
        rows.iter().map(|r| {
            JsonRow::new()
                .field("replicas", r.replicas)
                .field("detections", r.detections)
                .field("match_single", r.match_single)
                .field("events", r.events)
                .fixed("wall_ms", r.wall_ms, 1)
                .fixed("keps", r.keps, 1)
                .fixed("max_busy_ms", r.max_busy_ms, 2)
                .fixed("agg_keps", r.agg_keps, 1)
                .field("routed_received", r.routed_received)
                .field("relay_events", r.relay_events)
                .field("relays_sent", r.relays_sent)
                .fixed("forward_ratio", r.forward_ratio, 4)
        }),
    )
}

/// The invariants every run's rows must hold, one line per violation.
fn check_rows(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if !r.match_single {
            failures.push(format!("N = {} detections diverged from N = 1", r.replicas));
        }
        if r.replicas > 1 && r.relay_events == 0 {
            failures.push(format!(
                "N = {} forwarded nothing across partitions (plan not chained?)",
                r.replicas
            ));
        }
        if r.replicas > 1 && r.routed_received == 0 {
            failures.push(format!(
                "N = {} received no routed announcements",
                r.replicas
            ));
        }
        if r.detections == 0 {
            failures.push(format!("N = {} detected nothing", r.replicas));
        }
    }
    failures
}

fn smoke(gate: &mut Gate) -> Baseline {
    let rows = run_matrix(400, 3_000, 16);
    for failure in check_rows(&rows) {
        gate.fail(failure);
    }
    for replicas in REPLICAS {
        if gate.baseline::<bool>("rows", "replicas", replicas, "match_single") == Some(false) {
            gate.fail(format!("baseline N = {replicas} has match_single = false"));
        }
    }
    if gate.baseline::<u64>("rows", "replicas", 4, "relay_events") == Some(0) {
        gate.fail("baseline N = 4 forwarded nothing across partitions");
    }
    // The scaling headline: on the routed (non-broadcast) path the busiest
    // replica processes a shrinking share of the announcements, so the
    // aggregate ingest throughput of a parallel deployment must *rise*
    // with the replica count in the committed full-run baseline.
    let a1 = gate.baseline::<f64>("rows", "replicas", 1, "agg_keps");
    let a4 = gate.baseline::<f64>("rows", "replicas", 4, "agg_keps");
    if let (Some(a1), Some(a4)) = (a1, a4) {
        if a4 <= a1 {
            gate.fail(format!(
                "baseline aggregate throughput does not scale with replicas \
                 (N = 1: {a1:.1} keps, N = 4: {a4:.1} keps)"
            ));
        }
    }
    report(&rows)
}

fn full() -> Baseline {
    eprintln!("E20 — partitioned plane throughput vs replica count (full run)");
    let rows = run_matrix(24_000, 20_000, 30);
    let failures = check_rows(&rows);
    assert!(
        failures.is_empty(),
        "full run failed its invariants: {failures:?}"
    );
    report(&rows)
}

fn main() {
    decs_bench::main("partition", 2, full, smoke);
}
