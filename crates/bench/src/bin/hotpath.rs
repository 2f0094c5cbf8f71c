//! E13 — hot-path timestamp kernels and watermark-driven buffer GC.
//!
//! Three measurements, emitted as `BENCH_hotpath.json`:
//!
//! 1. **Relation kernels** — ns/op of the cached-bound fast paths
//!    (`relation`, `happens_before`, `max_op`) against the literal
//!    Definition 5.3/5.9 pairwise scans (`*_naive`), on band-separated
//!    pairs (where the `1·g_g`-gap fast path short-circuits) and on
//!    overlapping-band pairs (where both fall back to the scan).
//! 2. **Buffer occupancy** — operator-buffer entries after a 1M-event
//!    NOT/ANY-heavy stream with GC on (bounded) vs GC off at smaller N
//!    (linear growth; the NOT workload is also quadratic in scan time
//!    without GC, which is why its no-GC leg uses a small N).
//! 3. **Detection latency** — a distributed-engine run with GC on and off:
//!    identical detections, comparable stability latency.
//!
//! Run: `cargo run --release -p decs-bench --bin hotpath` (full, writes
//! `BENCH_hotpath.json` in the current directory).
//! `--smoke` runs a quick pass, validates the committed
//! `BENCH_hotpath.json` (malformed JSON or a >2x slowdown of any fast
//! kernel fails with a nonzero exit) and writes its own results under
//! `target/`.

use decs_bench::{concurrent_composite, time_ns, Baseline, Gate, Row};
use decs_chronos::{Granularity, Nanos};
use decs_core::{max_op, max_op_naive};
use decs_distrib::{Ablation, Engine, EngineConfig};
use decs_simnet::ScenarioBuilder;
use decs_snoop::{CentralDetector, Context, EventExpr as E};
use std::time::Instant;

struct Kernel {
    name: &'static str,
    naive_ns: f64,
    fast_ns: f64,
}

impl Kernel {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.fast_ns
    }
}

/// The kernel matrix: each entry measures one relation kernel on one pair
/// shape, fast path vs naive oracle.
fn bench_kernels(iters: u64) -> Vec<Kernel> {
    // Width-4 stamps. Band-separated pairs (gap ≫ 1 global tick) hit the
    // O(1) cached-bound paths; overlapping pairs fall through to the scan.
    let sep_a = concurrent_composite(1, 100, 4);
    let sep_b = concurrent_composite(1, 200, 4); // same sites, far band
    let dis_b = concurrent_composite(10, 200, 4); // disjoint sites, far band
    let ovl_a = concurrent_composite(1, 100, 4);
    let ovl_b = concurrent_composite(5, 100, 4); // overlapping band
    let mut out = Vec::new();
    let mut kernel = |name, naive_ns, fast_ns| {
        out.push(Kernel {
            name,
            naive_ns,
            fast_ns,
        })
    };
    kernel(
        "relation_band_separated_w4",
        time_ns(iters, || sep_a.relation_naive(&sep_b)),
        time_ns(iters, || sep_a.relation(&sep_b)),
    );
    kernel(
        "relation_disjoint_sites_w4",
        time_ns(iters, || sep_a.relation_naive(&dis_b)),
        time_ns(iters, || sep_a.relation(&dis_b)),
    );
    kernel(
        "relation_overlapping_w4",
        time_ns(iters, || ovl_a.relation_naive(&ovl_b)),
        time_ns(iters, || ovl_a.relation(&ovl_b)),
    );
    kernel(
        "happens_before_band_separated_w4",
        time_ns(iters, || sep_a.happens_before_naive(&sep_b)),
        time_ns(iters, || sep_a.happens_before(&sep_b)),
    );
    kernel(
        // max_op's dominance shortcut needs disjoint site masks *and* the
        // band gap (same-site pairs would need the local clocks compared).
        "max_op_disjoint_dominant_w4",
        time_ns(iters, || max_op_naive(&sep_a, &dis_b)),
        time_ns(iters, || max_op(&sep_a, &dis_b)),
    );
    out
}

struct OccRow {
    workload: &'static str,
    gc: bool,
    events: u64,
    final_occupancy: usize,
    peak_occupancy: usize,
    evicted: u64,
    throughput_meps: f64,
}

/// Drive a `CentralDetector` with `events` primitive occurrences of the
/// given NOT- or ANY-heavy workload, sampling occupancy as it goes.
fn occupancy_run(workload: &'static str, gc: bool, events: u64) -> OccRow {
    let mut d = CentralDetector::new();
    for n in ["A", "B", "C"] {
        d.register(n).unwrap();
    }
    match workload {
        // Guards + cancelled openers strand state in the NOT node.
        "not_chronicle" => d
            .define(
                "X",
                &E::not(E::prim("B"), E::prim("A"), E::prim("C")),
                Context::Chronicle,
            )
            .unwrap(),
        // Unrestricted ANY buffers grow although only the tops are live.
        "any_unrestricted" => d
            .define(
                "X",
                &E::any(2, vec![E::prim("A"), E::prim("B")]),
                Context::Unrestricted,
            )
            .unwrap(),
        _ => unreachable!("unknown workload"),
    };
    d.set_buffer_gc(gc);
    let mut peak = 0usize;
    let start = Instant::now();
    for i in 0..events {
        let (name, tick) = match workload {
            "not_chronicle" => (
                ["A", "B", "A", "C"][(i % 4) as usize],
                (i / 4) * 10 + (i % 4),
            ),
            _ => (["A", "B"][(i % 2) as usize], i),
        };
        d.feed_bare(name, tick).unwrap();
        if i % 1024 == 0 {
            peak = peak.max(d.buffered_occupancy());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    OccRow {
        workload,
        gc,
        events,
        final_occupancy: d.buffered_occupancy(),
        peak_occupancy: peak.max(d.buffered_occupancy()),
        evicted: d.gc_evicted(),
        throughput_meps: events as f64 / secs / 1e6,
    }
}

struct LatencyRow {
    detections: usize,
    mean_stability_ms: f64,
    gc_evicted: u64,
    node_buffer_peak: usize,
    retransmits: u64,
    acks_sent: u64,
    duplicates_dropped: u64,
    parked_peak: usize,
    suspect_sites: usize,
    plan_nodes: usize,
    shared_nodes: usize,
    sharing_ratio: f64,
    batch_ingest_events: u64,
    arena_bytes: u64,
}

/// Distributed-engine leg: the NOT workload across 4 sites, GC on or off.
fn latency_run(buffer_gc: bool) -> LatencyRow {
    let scenario = ScenarioBuilder::new(4, 42)
        .max_offset_ns(1_000_000)
        .global_granularity(Granularity::from_millis(100).unwrap())
        .build()
        .unwrap();
    let mut engine = Engine::ablated(
        &scenario,
        EngineConfig::default(),
        Ablation {
            no_buffer_gc: !buffer_gc,
            ..Ablation::default()
        },
        &["A", "B", "C"],
        &[],
        &[(
            "X",
            E::not(E::prim("B"), E::prim("A"), E::prim("C")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    for round in 0..50u64 {
        let t = 1_000_000_000 + round * 1_600_000_000;
        engine.inject(Nanos(t), 0, "A", vec![]).unwrap();
        engine
            .inject(Nanos(t + 400_000_000), 1, "B", vec![])
            .unwrap();
        engine
            .inject(Nanos(t + 800_000_000), 2, "A", vec![])
            .unwrap();
        engine
            .inject(Nanos(t + 1_200_000_000), 3, "C", vec![])
            .unwrap();
    }
    let detections = engine.run_for(Nanos::from_secs(90));
    let m = engine.metrics();
    LatencyRow {
        detections: detections.len(),
        mean_stability_ms: m.mean_stability_latency_ns() as f64 / 1e6,
        gc_evicted: m.gc_evicted,
        node_buffer_peak: m.node_buffer_peak,
        retransmits: m.retransmits,
        acks_sent: m.acks_sent,
        duplicates_dropped: m.duplicates_dropped,
        parked_peak: m.parked_peak,
        suspect_sites: m.suspect_sites,
        plan_nodes: m.plan_nodes,
        shared_nodes: m.shared_nodes,
        sharing_ratio: m.sharing_ratio,
        batch_ingest_events: m.batch_ingest_events,
        arena_bytes: m.arena_bytes,
    }
}

fn report(kernels: &[Kernel], occupancy: &[OccRow], latency: &[(bool, LatencyRow)]) -> Baseline {
    Baseline::new()
        .array(
            "kernels",
            kernels.iter().map(|k| {
                Row::new()
                    .text("name", k.name)
                    .fixed("naive_ns", k.naive_ns, 2)
                    .fixed("fast_ns", k.fast_ns, 2)
                    .fixed("speedup", k.speedup(), 2)
                    .fixed("fast_mops", 1e3 / k.fast_ns, 1)
            }),
        )
        .array(
            "occupancy",
            occupancy.iter().map(|r| {
                Row::new()
                    .text("workload", r.workload)
                    .field("gc", r.gc)
                    .field("events", r.events)
                    .field("final_occupancy", r.final_occupancy)
                    .field("peak_occupancy", r.peak_occupancy)
                    .field("evicted", r.evicted)
                    .fixed("throughput_meps", r.throughput_meps, 2)
            }),
        )
        .array(
            "latency",
            latency.iter().map(|(gc, r)| {
                Row::new()
                    .field("gc", gc)
                    .field("detections", r.detections)
                    .fixed("mean_stability_ms", r.mean_stability_ms, 2)
                    .field("gc_evicted", r.gc_evicted)
                    .field("node_buffer_peak", r.node_buffer_peak)
                    .field("retransmits", r.retransmits)
                    .field("acks_sent", r.acks_sent)
                    .field("duplicates_dropped", r.duplicates_dropped)
                    .field("parked_peak", r.parked_peak)
                    .field("suspect_sites", r.suspect_sites)
                    .field("plan_nodes", r.plan_nodes)
                    .field("shared_nodes", r.shared_nodes)
                    .fixed("sharing_ratio", r.sharing_ratio, 3)
                    .field("batch_ingest_events", r.batch_ingest_events)
                    .field("arena_bytes", r.arena_bytes)
            }),
        )
}

fn smoke(gate: &mut Gate) -> Baseline {
    let kernels = bench_kernels(200_000);
    let occ = occupancy_run("not_chronicle", true, 20_000);
    // Absolute ns only compare on the baseline's class of machine; the
    // speedup headline below is enforced everywhere.
    let same_machine = gate.same_machine();
    for k in &kernels {
        let base_fast = gate.baseline::<f64>("kernels", "name", k.name, "fast_ns");
        if let Some(base_fast) = base_fast.filter(|&b| same_machine && k.fast_ns > 2.0 * b) {
            gate.fail(format!(
                "{} regressed {base_fast:.2} ns → {:.2} ns (>2x)",
                k.name, k.fast_ns
            ));
        }
    }
    // The committed artifact must still carry the headline: the
    // band-separated relation kernel at ≥2x over the naive scan.
    let headline = "relation_band_separated_w4";
    if let Some(s) = gate
        .baseline::<f64>("kernels", "name", headline, "speedup")
        .filter(|&s| s < 2.0)
    {
        gate.fail(format!("baseline band-separated speedup {s:.2} < 2x"));
    }
    report(&kernels, &[occ], &[])
}

fn full() -> Baseline {
    eprintln!("E13 — hot-path kernels + buffer GC (full run)");
    let kernels = bench_kernels(2_000_000);
    let occupancy = vec![
        occupancy_run("not_chronicle", true, 1_000_000),
        // The no-GC NOT leg is small on purpose: dead guards make every
        // closer scan O(buffered²), which is part of what GC removes.
        occupancy_run("not_chronicle", false, 20_000),
        occupancy_run("any_unrestricted", true, 1_000_000),
        occupancy_run("any_unrestricted", false, 1_000_000),
    ];
    let latency = vec![(true, latency_run(true)), (false, latency_run(false))];
    report(&kernels, &occupancy, &latency)
}

fn main() {
    decs_bench::main("hotpath", 1, full, smoke);
}
