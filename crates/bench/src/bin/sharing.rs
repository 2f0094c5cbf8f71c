//! E16 — cross-definition operator sharing (the hash-consed plan IR).
//!
//! Measures serial feed throughput of the shared plan
//! ([`PlanDetector`]) against independent per-definition compilation (the
//! [`ReferenceDetector`] oracle) on definition sets with a controlled
//! **overlap fraction**:
//! of `N` definitions, `overlap%` are copies of one common deep body over
//! a shared primitive triple (the plan collapses them to a single operator
//! subtree with per-definition fan-out) and the rest are structurally
//! identical bodies over *private* primitive triples (no sharing possible,
//! same cost on both legs). The workload cycles over every registered
//! primitive, so both populations do real work.
//!
//! Detection counts are asserted equal between the two legs on every
//! configuration — a mismatch is a correctness bug, not a slow run.
//!
//! Run: `cargo run --release -p decs-bench --bin sharing` (full, writes
//! `BENCH_sharing.json` in the current directory).
//! `--smoke` runs a quick pass, validates the committed
//! `BENCH_sharing.json` (malformed JSON, a missing 50%-overlap row, or a
//! headline speedup below 1.5x fails with a nonzero exit) and writes its
//! own results under `target/`.

use decs_bench::{Baseline, Gate, Row as JsonRow};
use decs_snoop::{
    CentralTime, Context, EventExpr as E, EventExpr, Occurrence, PlanDetector, ReferenceDetector,
};
use std::time::Instant;

/// Total definitions per configuration.
const DEFS: usize = 16;

/// The common body over a primitive triple: `¬(b)[a, c]`. The workload
/// drives it guard-heavy (openers and guards pile up, closers are where
/// the window scan happens, emissions are rare and tiny), so operator
/// *execution* — the part the plan runs once per trigger instead of once
/// per duplicate definition — dominates the constant per-definition
/// fan-out bookkeeping that both legs pay.
fn body(a: &str, b: &str, c: &str) -> EventExpr {
    E::not(E::prim(b), E::prim(a), E::prim(c))
}

/// The primitive names a configuration needs: one shared triple plus a
/// private triple per non-overlapping definition.
fn primitives(unique_defs: usize) -> Vec<String> {
    let mut names: Vec<String> = ["S0", "S1", "S2"].iter().map(|s| s.to_string()).collect();
    for i in 0..unique_defs {
        for k in 0..3 {
            names.push(format!("U{i}_{k}"));
        }
    }
    names
}

/// The definitions for `dup` copies of the common body and `DEFS - dup`
/// private-triple bodies, in definition order.
fn definitions(dup: usize) -> Vec<(String, EventExpr)> {
    let mut defs: Vec<(String, EventExpr)> = (0..dup)
        .map(|i| (format!("D{i}"), body("S0", "S1", "S2")))
        .collect();
    for i in 0..DEFS - dup {
        let (a, b, c) = (format!("U{i}_0"), format!("U{i}_1"), format!("U{i}_2"));
        defs.push((format!("D{}", dup + i), body(&a, &b, &c)));
    }
    defs
}

/// The shared plan over the configuration's definitions.
fn build_shared(dup: usize) -> PlanDetector<CentralTime> {
    let mut d = PlanDetector::new();
    for n in primitives(DEFS - dup) {
        d.register(&n).unwrap();
    }
    for (name, expr) in definitions(dup) {
        d.define(&name, &expr, Context::Chronicle).unwrap();
    }
    d
}

/// The unshared reference interpreter over the same definitions.
fn build_reference(dup: usize) -> ReferenceDetector<CentralTime> {
    let mut d = ReferenceDetector::new();
    for n in primitives(DEFS - dup) {
        d.register(&n).unwrap();
    }
    for (name, expr) in definitions(dup) {
        d.define(&name, &expr, Context::Chronicle).unwrap();
    }
    d
}

/// Feed `events` occurrences, cycling the guard-heavy `[a, b, a, c]`
/// pattern round-robin over every registered triple (opener, window-
/// killing guard, opener, closer — the closer's window scan is the hot
/// operation); returns (elapsed seconds, detections produced).
///
/// Both legs run the same loop — resolve the name, feed one occurrence —
/// and neither collects operator garbage: the bench measures detection
/// work on accumulated operator state (GC equivalence is `hotpath`'s
/// subject). Driving both from this crate also gives them the same
/// compiled operator code, so the ratio measures sharing alone.
fn drive(shared_plan: bool, dup: usize, events: u64) -> (f64, u64) {
    let names = primitives(DEFS - dup);
    let triples: Vec<&[String]> = names.chunks(3).collect();
    let name = |i: u64| {
        let t = triples[((i / 4) as usize) % triples.len()];
        t[[0, 1, 0, 2][(i % 4) as usize]].as_str()
    };
    let mut detections = 0u64;
    if shared_plan {
        let mut d = build_shared(dup);
        let start = Instant::now();
        for i in 0..events {
            let ty = d.catalog().lookup(name(i)).unwrap();
            detections += d.feed(Occurrence::bare(ty, CentralTime(i))).detected.len() as u64;
        }
        (start.elapsed().as_secs_f64(), detections)
    } else {
        let mut d = build_reference(dup);
        let start = Instant::now();
        for i in 0..events {
            let ty = d.catalog().lookup(name(i)).unwrap();
            detections += d.feed(Occurrence::bare(ty, CentralTime(i))).detected.len() as u64;
        }
        (start.elapsed().as_secs_f64(), detections)
    }
}

struct Row {
    overlap_pct: usize,
    shared_meps: f64,
    unshared_meps: f64,
    detections: u64,
    plan_nodes: usize,
    shared_nodes: usize,
    sharing_ratio: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.shared_meps / self.unshared_meps
    }
}

/// Best-of-3 throughput for one leg (fresh detector per repetition —
/// feeding mutates operator state).
fn throughput(shared_plan: bool, dup: usize, events: u64) -> (f64, u64) {
    let mut best = 0.0f64;
    let mut detections = 0;
    for _ in 0..3 {
        let (secs, det) = drive(shared_plan, dup, events);
        best = best.max(events as f64 / secs / 1e6);
        detections = det;
    }
    (best, detections)
}

fn run_config(overlap_pct: usize, events: u64) -> Row {
    let dup = DEFS * overlap_pct / 100;
    let (shared_meps, det_shared) = throughput(true, dup, events);
    let (unshared_meps, det_unshared) = throughput(false, dup, events);
    // The hard equivalence gate: plan and reference must detect
    // identically.
    assert_eq!(
        det_shared, det_unshared,
        "plan vs reference detection mismatch at overlap {overlap_pct}%"
    );
    let stats = build_shared(dup).plan_stats();
    Row {
        overlap_pct,
        shared_meps,
        unshared_meps,
        detections: det_shared,
        plan_nodes: stats.plan_nodes,
        shared_nodes: stats.shared_nodes,
        sharing_ratio: stats.sharing_ratio,
    }
}

const OVERLAPS: [usize; 4] = [0, 25, 50, 75];

fn report(events: u64, rows: &[Row]) -> Baseline {
    Baseline::new()
        .stamp("defs", DEFS)
        .stamp("events", events)
        .array(
            "rows",
            rows.iter().map(|r| {
                JsonRow::new()
                    .text("name", &format!("overlap_{}", r.overlap_pct))
                    .field("overlap_pct", r.overlap_pct)
                    .fixed("shared_meps", r.shared_meps, 3)
                    .fixed("unshared_meps", r.unshared_meps, 3)
                    .fixed("speedup", r.speedup(), 2)
                    .field("detections", r.detections)
                    .field("plan_nodes", r.plan_nodes)
                    .field("shared_nodes", r.shared_nodes)
                    .fixed("sharing_ratio", r.sharing_ratio, 3)
            }),
        )
}

fn smoke(gate: &mut Gate) -> Baseline {
    // A quick pass still runs every overlap point — `run_config` hard-
    // asserts shared == unshared detections, which is the smoke's real
    // correctness gate.
    let events = 20_000;
    let rows: Vec<Row> = OVERLAPS.iter().map(|&p| run_config(p, events)).collect();
    // The committed artifact must carry the headline: ≥1.5x feed
    // throughput at 50% overlap. The ratio is machine-independent enough
    // to enforce unconditionally (both legs run on the same machine).
    for p in OVERLAPS {
        match gate.baseline::<f64>("rows", "name", format!("overlap_{p}"), "speedup") {
            Some(s) if p == 50 && s < 1.5 => {
                gate.fail(format!("baseline 50%-overlap speedup {s:.2} < 1.5x"));
            }
            _ => {}
        }
    }
    report(events, &rows)
}

fn full() -> Baseline {
    eprintln!("E16 — cross-definition operator sharing (full run)");
    // The no-GC guard scan is quadratic in per-triple rounds by design,
    // so the full run stays at a size where the slowest (75%-overlap,
    // unshared) leg finishes in tens of seconds.
    let events = 120_000;
    let rows: Vec<Row> = OVERLAPS
        .iter()
        .map(|&p| {
            let r = run_config(p, events);
            eprintln!(
                "overlap {:>2}%: shared {:.2} Mev/s, unshared {:.2} Mev/s ({:.2}x), \
                 plan {} nodes ({} shared)",
                r.overlap_pct,
                r.shared_meps,
                r.unshared_meps,
                r.speedup(),
                r.plan_nodes,
                r.shared_nodes
            );
            r
        })
        .collect();
    report(events, &rows)
}

fn main() {
    decs_bench::main("sharing", 1, full, smoke);
}
