//! Equivalence property suite for the columnar ingestion hot path.
//!
//! The contract is exact: feeding a workload through the
//! struct-of-arrays [`EventBatch`] path (`CentralDetector::feed_columnar`
//! on the shared plan, arbitrarily chunked, buffer GC on or off) must
//! produce the same named detections — same composite timestamps, same
//! accumulated parameters, same order — as feeding every occurrence
//! individually through the GC-free [`ReferenceDetector`], for arbitrary
//! traces across all five parameter contexts.

use decs::snoop::{
    CentralDetector, CentralTime, Context, EventBatch, EventExpr, EventExpr as E, Occurrence,
    ReferenceDetector, Value,
};
use decs_testkit::{check, pick, vec_of, SplitMix64};

const NAMES: [&str; 3] = ["A", "B", "C"];

const CTXS: [Context; 5] = [
    Context::Unrestricted,
    Context::Recent,
    Context::Chronicle,
    Context::Continuous,
    Context::Cumulative,
];

/// One timer-free definition per context, so the columnar whole-batch
/// path (not the per-row split fallback) is what runs. Bodies span the
/// operator set: binary Seq/And/Or, n-ary Any, and NOT (whose middle
/// negative slot makes parameter consumption order-sensitive — the
/// sharpest probe for a reordered feed).
fn definitions() -> Vec<(String, EventExpr, Context)> {
    let ab = E::seq(E::prim("A"), E::prim("B"));
    let bodies = [
        ab.clone(),
        E::and(ab.clone(), E::prim("C")),
        E::or(ab, E::prim("C")),
        E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
        E::not(E::prim("B"), E::prim("A"), E::prim("C")),
    ];
    bodies
        .into_iter()
        .zip(CTXS)
        .enumerate()
        .map(|(i, (body, ctx))| (format!("D{i}"), body, ctx))
        .collect()
}

/// Random workload row: (tick delta, event index, parameter payload).
/// Deltas of 0 keep several rows on one tick (the batch fan-out case);
/// non-empty payloads force owned parameter lists into the batch.
fn workload(rng: &mut SplitMix64) -> Vec<(u64, usize, Vec<u64>)> {
    vec_of(rng, 0, 59, |r| {
        (
            r.next_range(0, 2),
            r.next_below(3) as usize,
            vec_of(r, 0, 2, |r| r.next_range(0, 49)),
        )
    })
}

type Detections = Vec<(String, Occurrence<CentralTime>)>;

fn values(payload: &[u64]) -> Vec<Value> {
    payload.iter().map(|&v| Value::Int(v as i64)).collect()
}

/// Oracle: the reference interpreter, one `feed` call per row, in order.
fn run_per_event(trace: &[(u64, usize, Vec<u64>)]) -> Detections {
    let mut d = ReferenceDetector::new();
    for name in NAMES {
        d.register(name).unwrap();
    }
    for (name, body, ctx) in definitions() {
        d.define(&name, &body, ctx).unwrap();
    }
    let mut out = Vec::new();
    let mut tick = 1;
    for (delta, ev, payload) in trace {
        tick += delta;
        let ty = d.catalog().lookup(NAMES[*ev]).unwrap();
        let r = d.feed(Occurrence::primitive(
            ty,
            CentralTime(tick),
            values(payload),
        ));
        out.extend(
            r.detected
                .into_iter()
                .map(|o| (d.catalog().name(o.ty).to_string(), o)),
        );
    }
    out
}

/// Candidate: the same rows staged struct-of-arrays and fed through the
/// plan's `feed_columnar` in `chunk`-sized batches (chunk ≥ trace length ⇒
/// one whole-batch call). The staging batch is reused across chunks, so
/// rows staged after a `clear` reuse the interned bare lists.
fn run_columnar(gc: bool, chunk: usize, trace: &[(u64, usize, Vec<u64>)]) -> Detections {
    let mut d = CentralDetector::new();
    for name in NAMES {
        d.register(name).unwrap();
    }
    for (name, body, ctx) in definitions() {
        d.define(&name, &body, ctx).unwrap();
    }
    d.set_buffer_gc(gc);
    let mut batch = EventBatch::new();
    let mut out = Vec::new();
    let mut tick = 1;
    for rows in trace.chunks(chunk.max(1)) {
        batch.clear();
        for (delta, ev, payload) in rows {
            tick += delta;
            let ty = d.catalog().lookup(NAMES[*ev]).unwrap();
            if payload.is_empty() {
                batch.push_bare(ty, CentralTime(tick));
            } else {
                batch.push(ty, CentralTime(tick), values(payload));
            }
        }
        let r = d.feed_columnar(&batch).unwrap();
        out.extend(r.into_iter().map(|o| (d.name_of(&o).to_string(), o)));
    }
    out
}

/// The tentpole contract: columnar ingestion detects exactly what
/// per-event feeding detects, in every sampled configuration.
#[test]
fn columnar_ingest_is_bit_identical_to_per_event_feeds() {
    check(
        "columnar_ingest_is_bit_identical_to_per_event_feeds",
        256,
        |rng| {
            let trace = workload(rng);
            let buffer_gc = pick(rng, &[true, false]);
            let chunk = rng.next_range(1, 63) as usize;
            let oracle = run_per_event(&trace);
            let columnar = run_columnar(buffer_gc, chunk, &trace);
            assert_eq!(&columnar, &oracle, "gc={buffer_gc} chunk={chunk}");
        },
    );
}
