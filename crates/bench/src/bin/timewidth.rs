//! E19 — timestamp-kernel width sweep: version-vector compares and joins
//! vs the naive member scans, as composite stamps get wide.
//!
//! Two measurement families, emitted as `BENCH_timewidth.json`:
//!
//! 1. **Kernels** — ns/op of the per-site merge-walk kernels against the
//!    literal Definition 5.3/5.9 member scans, at widths 2/8/32/128, on
//!    the three shapes the operator nodes actually produce:
//!    * `seq_inband` — adjacent-band, fully site-shared pairs, decided by
//!      per-site local clocks (a banded SEQ buffer's in-band `before`
//!      compare);
//!    * `relation_mixed` — half-overlapping site sets in one band (a NOT
//!      guard check / generic `relation` on incomparable stamps);
//!    * `any_join` — `max_op` over half-overlapping stamps (the `Max` an
//!      ANY/SEQ emission runs per detection).
//!
//!    Every shape defeats the O(1) site-mask and band-separation fast
//!    paths, so fast = the vector kernel, naive = the O(|T1|·|T2|) scan.
//! 2. **Workloads** — end-to-end operator throughput with wide stamps:
//!    `long_seq` (one termination sweeping a banded buffer of initiators,
//!    one in-band compare + join per pairing) and `wide_any` (an m-of-n
//!    join per arrival), at each width.
//!
//! Run: `cargo run --release -p decs-bench --bin timewidth` (full, writes
//! `BENCH_timewidth.json` in the current directory).
//! `--smoke` re-measures the kernels quickly, validates the committed
//! `BENCH_timewidth.json` (malformed JSON, a >2x regression of a width-32
//! kernel, or a baseline width-32 speedup below 5x fails with a nonzero
//! exit) and writes its own results under `target/`.

use decs_bench::{time_ns, Baseline, Gate, Row};
use decs_core::{cts, max_op, max_op_naive, CompositeTimestamp};
use decs_snoop::nodes::any::AnyNode;
use decs_snoop::nodes::seq::SeqNode;
use decs_snoop::nodes::{OperatorNode, Sink};
use decs_snoop::{Context, EventId, Occurrence};
use std::time::Instant;

const WIDTHS: [usize; 4] = [2, 8, 32, 128];

/// A width-`w` stamp: sites `base..base+w`, all in band `g`, locals offset
/// by `salt` (so distinct stamps at one site stay clock-consistent).
fn wide(base: u32, g: u64, w: usize, salt: u64) -> CompositeTimestamp {
    cts(&(0..w as u32)
        .map(|i| (base + i, g, salt + g * 1000 + u64::from(i)))
        .collect::<Vec<_>>())
}

struct Kernel {
    name: String,
    width: usize,
    naive_ns: f64,
    fast_ns: f64,
}

impl Kernel {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.fast_ns
    }
}

/// The kernel sweep. `base_iters` is the per-measurement iteration count
/// at width 2; wider shapes scale it down so naive legs stay bounded.
fn bench_kernels(base_iters: u64) -> Vec<Kernel> {
    let mut out = Vec::new();
    for w in WIDTHS {
        let iters = (base_iters * 2 / w as u64).max(2_000);
        // seq_inband: same sites, adjacent bands, ordered by locals. The
        // band gap is exactly one tick, so the separation fast path
        // (`max_global + 1 < min_global`) cannot fire.
        let lo = wide(0, 100, w, 0);
        let hi = wide(0, 101, w, 0);
        debug_assert!(lo.happens_before(&hi));
        out.push(Kernel {
            name: format!("seq_inband_w{w}"),
            width: w,
            naive_ns: time_ns(iters, || lo.happens_before_naive(&hi)),
            fast_ns: time_ns(iters, || lo.happens_before(&hi)),
        });
        // relation_mixed: half-shared sites in one band, locals ordered on
        // the shared half — incomparable, and neither mask nor band path
        // can short-circuit.
        let a = wide(0, 100, w, 0);
        let b = wide(w as u32 / 2, 100, w, 500_000);
        out.push(Kernel {
            name: format!("relation_mixed_w{w}"),
            width: w,
            naive_ns: time_ns(iters, || a.relation_naive(&b)),
            fast_ns: time_ns(iters, || a.relation(&b)),
        });
        // any_join: Max over the same half-shared pair; the shared run is
        // dominated on one side, so survivors come from both stamps.
        out.push(Kernel {
            name: format!("any_join_w{w}"),
            width: w,
            naive_ns: time_ns(iters, || max_op_naive(&a, &b)),
            fast_ns: time_ns(iters, || max_op(&a, &b)),
        });
    }
    out
}

struct WorkloadRow {
    workload: &'static str,
    width: usize,
    emissions: u64,
    ns_per_emission: f64,
}

/// `long_seq`: a banded buffer of `m` wide initiators swept by repeated
/// in-band terminations (Unrestricted keeps the buffer, so every round
/// does `m` vector compares + `m` joins).
fn long_seq(w: usize, m: usize, rounds: u64) -> WorkloadRow {
    let mut seq: SeqNode<CompositeTimestamp> = SeqNode::new(Context::Unrestricted);
    let mut em = Vec::new();
    let mut tr: Vec<(u64, u64)> = Vec::new();
    {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        for i in 0..m {
            let occ = Occurrence::bare(EventId(0), wide(0, 100, w, i as u64 * 1_000_000));
            seq.on_child(0, &occ, &mut sink);
        }
        // Warm up scratch + emission capacity.
        let t = Occurrence::bare(EventId(1), wide(0, 101, w, u64::from(u32::MAX)));
        seq.on_child(1, &t, &mut sink);
    }
    assert_eq!(em.len(), m, "long_seq fixture: not all initiators matched");
    let term = Occurrence::bare(EventId(1), wide(0, 101, w, u64::from(u32::MAX)));
    let start = Instant::now();
    for _ in 0..rounds {
        em.clear();
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        seq.on_child(1, &term, &mut sink);
    }
    let emissions = rounds * m as u64;
    WorkloadRow {
        workload: "long_seq",
        width: w,
        emissions,
        ns_per_emission: start.elapsed().as_nanos() as f64 / emissions as f64,
    }
}

/// `wide_any`: ANY(2; …) under Unrestricted re-detects on every arrival;
/// each detection is one `Max` join of two half-overlapping wide stamps.
fn wide_any(w: usize, rounds: u64) -> WorkloadRow {
    let mut any: AnyNode<CompositeTimestamp> = AnyNode::new(Context::Unrestricted, 2, 2);
    let mut em = Vec::new();
    let mut tr: Vec<(u64, u64)> = Vec::new();
    {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        let a = Occurrence::bare(EventId(0), wide(0, 100, w, 0));
        any.on_child(0, &a, &mut sink);
        let b = Occurrence::bare(EventId(1), wide(w as u32 / 2, 100, w, 500_000));
        any.on_child(1, &b, &mut sink);
    }
    assert_eq!(em.len(), 1, "wide_any fixture: warm-up did not detect");
    let arrival = Occurrence::bare(EventId(1), wide(w as u32 / 2, 100, w, 500_000));
    let start = Instant::now();
    for _ in 0..rounds {
        em.clear();
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        any.on_child(1, &arrival, &mut sink);
    }
    WorkloadRow {
        workload: "wide_any",
        width: w,
        emissions: rounds,
        ns_per_emission: start.elapsed().as_nanos() as f64 / rounds as f64,
    }
}

fn report(kernels: &[Kernel], workloads: &[WorkloadRow]) -> Baseline {
    Baseline::new()
        .array(
            "kernels",
            kernels.iter().map(|k| {
                Row::new()
                    .text("name", &k.name)
                    .field("width", k.width)
                    .fixed("naive_ns", k.naive_ns, 2)
                    .fixed("fast_ns", k.fast_ns, 2)
                    .fixed("speedup", k.speedup(), 2)
            }),
        )
        .array(
            "workloads",
            workloads.iter().map(|r| {
                Row::new()
                    .text("workload", r.workload)
                    .field("width", r.width)
                    .field("emissions", r.emissions)
                    .fixed("ns_per_emission", r.ns_per_emission, 1)
            }),
        )
}

fn smoke(gate: &mut Gate) -> Baseline {
    let kernels = bench_kernels(100_000);
    // Absolute ns only compare on the baseline's class of machine; the
    // speedup headline is enforced everywhere.
    let same_machine = gate.same_machine();
    for k in &kernels {
        let base_fast = gate.baseline::<f64>("kernels", "name", &k.name, "fast_ns");
        if k.width != 32 {
            continue;
        }
        if let Some(base_fast) = base_fast.filter(|&b| same_machine && k.fast_ns > 2.0 * b) {
            gate.fail(format!(
                "{} regressed {base_fast:.2} ns → {:.2} ns (>2x)",
                k.name, k.fast_ns
            ));
        }
        // The committed artifact must carry the headline: every width-32
        // vector kernel at ≥5x over the naive member scan.
        let speedup = gate.baseline::<f64>("kernels", "name", &k.name, "speedup");
        if let Some(s) = speedup.filter(|&s| s < 5.0) {
            gate.fail(format!("baseline {} speedup {s:.2} < 5x", k.name));
        }
    }
    report(&kernels, &[])
}

fn full() -> Baseline {
    eprintln!("E19 — timestamp-kernel width sweep (full run)");
    let kernels = bench_kernels(1_000_000);
    let mut workloads = Vec::new();
    for w in WIDTHS {
        workloads.push(long_seq(w, 256, 2_000));
        workloads.push(wide_any(w, 200_000));
    }
    report(&kernels, &workloads)
}

fn main() {
    decs_bench::main("timewidth", 1, full, smoke);
}
