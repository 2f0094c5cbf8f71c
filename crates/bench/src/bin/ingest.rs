//! E18 — columnar batch ingestion (the struct-of-arrays hot path).
//!
//! Measures feed throughput of the columnar [`EventBatch`] path
//! (`CentralDetector::feed_columnar`: types, stamps and parameter lists
//! staged in parallel vectors, routed rows materialized once per batch)
//! against the per-event `feed_bare` oracle, on the E16 sharing workload
//! shape (16 `¬(b)[a, c]` definitions over private primitive triples —
//! `BENCH_sharing.json`'s `overlap_0` row) with watermark-driven buffer
//! GC **on** (the steady-state configuration every other engine path
//! runs; E16 measures the GC-off accumulation regime on purpose).
//!
//! Detections are hard-asserted identical between the oracle and the
//! columnar leg — a mismatch is a correctness bug, not a slow run.
//!
//! Both modes run [`PAIRS`] alternating (per-event, columnar) leg pairs in
//! one process. Each leg row reports its median throughput, and the
//! columnar row's `speedup_vs_per_event` is the median of the per-pair
//! ratios: machine-wide slowdowns move both legs of a pair together, so
//! the ratio is what a gate can compare across runs and machines.
//!
//! Run: `cargo run --release -p decs-bench --bin ingest` (full, writes
//! `BENCH_ingest.json` in the current directory).
//! `--smoke` runs a quick pass, validates the committed
//! `BENCH_ingest.json` (malformed JSON, a columnar throughput under the
//! 0.2 Meps acceptance floor, or a median speedup below 80% of the
//! committed one fails with a nonzero exit) and writes its own results
//! under `target/`.

use decs_bench::{median, threads, Baseline, Gate, Row as JsonRow};
use decs_snoop::{CentralDetector, CentralTime, Context, EventBatch, EventExpr as E, EventId};
use std::time::Instant;

/// Layout version of `BENCH_ingest.json`, also stamped in every row.
const SCHEMA: u32 = 4;

/// Definitions per configuration (the E16 shape).
const DEFS: usize = 16;

/// Alternating (per-event, columnar) leg pairs per run.
const PAIRS: usize = 5;

/// Rows staged per columnar batch. Large enough to amortize the per-call
/// clock advance and GC sweep, small enough to stay cache-resident.
const BATCH: usize = 1024;

fn primitives() -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..DEFS {
        for k in 0..3 {
            names.push(format!("U{i}_{k}"));
        }
    }
    names
}

/// 16 private-triple `¬(b)[a, c]` definitions, buffer GC on.
fn build() -> CentralDetector {
    let mut d = CentralDetector::new();
    for n in primitives() {
        d.register(&n).unwrap();
    }
    for i in 0..DEFS {
        let (a, b, c) = (format!("U{i}_0"), format!("U{i}_1"), format!("U{i}_2"));
        d.define(
            &format!("D{i}"),
            &E::not(E::prim(&b), E::prim(&a), E::prim(&c)),
            Context::Chronicle,
        )
        .unwrap();
    }
    d.set_buffer_gc(true);
    d
}

/// The guard-heavy `[a, b, a, c]` drive pattern, round-robin over every
/// triple, as `(type index, tick)` rows. Type indices point into the
/// catalog-ordered primitive list.
fn row(i: u64) -> (usize, u64) {
    let triple = ((i / 4) as usize) % DEFS;
    let slot = [0usize, 1, 0, 2][(i % 4) as usize];
    (triple * 3 + slot, i)
}

/// Oracle: one `feed_bare` call per event. Returns (elapsed seconds,
/// detected occurrences in order).
fn drive_per_event(
    d: &mut CentralDetector,
    events: u64,
) -> (f64, Vec<decs_snoop::Occurrence<CentralTime>>) {
    let names = primitives();
    let mut out = Vec::new();
    let start = Instant::now();
    for i in 0..events {
        let (ty, tick) = row(i);
        out.extend(d.feed_bare(&names[ty], tick).unwrap());
    }
    (start.elapsed().as_secs_f64(), out)
}

/// Candidate: the same rows staged struct-of-arrays, `BATCH` at a time,
/// through `feed_columnar`. Timing includes the staging loop — that *is*
/// the ingest path a `Msg::Batch` decode feeds.
fn drive_columnar(
    d: &mut CentralDetector,
    events: u64,
) -> (f64, Vec<decs_snoop::Occurrence<CentralTime>>) {
    let tys: Vec<EventId> = primitives()
        .iter()
        .map(|n| d.catalog().lookup(n).unwrap())
        .collect();
    let mut batch = EventBatch::with_capacity(BATCH);
    let mut out = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while i < events {
        batch.clear();
        while i < events && batch.len() < BATCH {
            let (ty, tick) = row(i);
            batch.push_bare(tys[ty], CentralTime(tick));
            i += 1;
        }
        out.extend(d.feed_columnar(&batch).unwrap());
    }
    (start.elapsed().as_secs_f64(), out)
}

struct Row {
    name: String,
    meps: f64,
    speedup: f64,
    detections: u64,
}

/// [`PAIRS`] alternating leg pairs (fresh detector per leg — feeding
/// mutates operator state), hard-asserting every columnar leg's
/// detections against the per-event leg of its pair.
fn run_all(events: u64) -> Vec<Row> {
    let (mut per_event, mut columnar, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut detections = 0;
    for _ in 0..PAIRS {
        let (secs, oracle) = drive_per_event(&mut build(), events);
        let (csecs, det) = drive_columnar(&mut build(), events);
        assert_eq!(
            det, oracle,
            "columnar leg diverged from the per-event oracle"
        );
        detections = det.len() as u64;
        per_event.push(events as f64 / secs / 1e6);
        columnar.push(events as f64 / csecs / 1e6);
        ratios.push(secs / csecs);
    }
    vec![
        Row {
            name: "per_event".to_string(),
            meps: median(per_event),
            speedup: 1.0,
            detections,
        },
        Row {
            name: "columnar".to_string(),
            meps: median(columnar),
            speedup: median(ratios),
            detections,
        },
    ]
}

fn report(events: u64, rows: &[Row]) -> Baseline {
    Baseline::new()
        .stamp("defs", DEFS)
        .stamp("batch", BATCH)
        .stamp("events", events)
        .stamp("pairs", PAIRS)
        .array(
            "rows",
            rows.iter().map(|r| {
                // Every row carries its own threads/schema stamp, so a
                // consumer holding a single row out of context can still
                // decide comparability.
                JsonRow::new()
                    .text("name", &r.name)
                    .field("schema", SCHEMA)
                    .field("threads", threads())
                    .fixed("meps", r.meps, 3)
                    .fixed("speedup_vs_per_event", r.speedup, 2)
                    .field("detections", r.detections)
            }),
        )
}

fn smoke(gate: &mut Gate) -> Baseline {
    // A quick pass still runs every leg pair — `run_all` hard-asserts
    // columnar == per-event detections, which is the smoke's real
    // correctness gate.
    let events = 40_000;
    let rows = run_all(events);
    // The committed artifact must carry the acceptance headline: the
    // single-thread columnar path at ≥0.2 Meps (10x the E16 overlap_0
    // per-event baseline).
    // The per-event leg the speedup divides by must be there too.
    gate.baseline::<f64>("rows", "name", "per_event", "meps");
    if let Some(m) = gate.baseline::<f64>("rows", "name", "columnar", "meps") {
        if m < 0.2 {
            gate.fail(format!(
                "baseline columnar throughput {m:.3} Meps < 0.2 Meps floor"
            ));
        }
    }
    // The regression gate compares speedups, each a median of in-process
    // per-pair ratios: absolute Meps on a shared 2-thread box swing by
    // more than 20% between launches, the ratio of two alternating legs
    // does not.
    if let Some(base) = gate.baseline::<f64>("rows", "name", "columnar", "speedup_vs_per_event") {
        let now = rows[1].speedup;
        if now < 0.8 * base {
            gate.fail(format!(
                "columnar speedup regressed {base:.2}x → {now:.2}x (below 80% of the baseline)"
            ));
        } else {
            eprintln!("smoke: columnar speedup {now:.2}x (baseline {base:.2}x)");
        }
    }
    report(events, &rows)
}

fn full() -> Baseline {
    eprintln!("E18 — columnar batch ingestion (full run)");
    let events = 400_000;
    let rows = run_all(events);
    for r in &rows {
        eprintln!(
            "{:>12}: {:.3} Mev/s ({} detections)",
            r.name, r.meps, r.detections
        );
    }
    report(events, &rows)
}

fn main() {
    decs_bench::main("ingest", SCHEMA, full, smoke);
}
