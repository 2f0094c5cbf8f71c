//! E17 — durability: crash-recovery cost as a function of the snapshot
//! interval.
//!
//! One fixed seeded workload runs through the durable engine; the
//! coordinator is killed at a fixed mid-run point and recovered from its
//! WAL + latest snapshot. The sweep varies the snapshot interval (in
//! watermark ticks; `0` rows mean snapshots disabled, i.e. recovery
//! replays the whole log). Every row records the WAL volume at the kill
//! point, how many records replay had to re-consume, the wall-clock
//! recovery time, and whether the post-recovery detections are
//! **bit-for-bit identical** to an uninterrupted, durability-off run —
//! the replay-equivalence headline, here measured rather than only
//! asserted.
//!
//! Run: `cargo run --release -p decs-bench --bin recovery` (full, writes
//! `BENCH_recovery.json` in the current directory).
//! `--smoke` runs a reduced workload, hard-asserts detection equality at
//! every interval, and validates the committed `BENCH_recovery.json`
//! (malformed JSON, a diverged row, or a no-op recovery fail with a
//! nonzero exit).

use decs_bench::{Baseline, Gate, Row as JsonRow};
use decs_chronos::{Granularity, Nanos};
use decs_core::CompositeTimestamp;
use decs_distrib::{Durability, Engine, EngineConfig};
use decs_simnet::{Scenario, ScenarioBuilder, SplitMix64};
use decs_snoop::{Context, EventExpr as E, Occurrence};

const SITES: u32 = 3;
const SEED: u64 = 42;
/// Snapshot intervals swept, in watermark ticks; 0 = snapshots disabled.
const INTERVALS: [u64; 4] = [0, 16, 4, 1];
const KILL_MS: u64 = 2_000;

struct Row {
    snapshot_interval: u64,
    kill_ms: u64,
    detections: usize,
    match_clean: bool,
    wal_appends: u64,
    wal_kib: f64,
    snapshots_taken: u64,
    recovery_replayed: u64,
    recovery_ms: f64,
}

type Keys = Vec<(String, Occurrence<CompositeTimestamp>)>;

fn scenario() -> Scenario {
    ScenarioBuilder::new(SITES, SEED)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

fn defs() -> Vec<(&'static str, E, Context)> {
    vec![
        ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        (
            "Y",
            E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
            Context::Recent,
        ),
        ("Z", E::or(E::prim("C"), E::prim("B")), Context::Chronicle),
    ]
}

/// Deterministic workload shared by every interval: `events` injections
/// over the first 4 s on random sites.
fn workload(events: usize) -> Vec<(u64, u32, &'static str)> {
    let mut rng = SplitMix64::new(0xE17_4EC0);
    (0..events)
        .map(|_| {
            let ms = rng.next_range(10, 4_000);
            let site = rng.next_below(u64::from(SITES)) as u32;
            let ev = match rng.next_below(3) {
                0 => "A",
                1 => "B",
                _ => "C",
            };
            (ms, site, ev)
        })
        .collect()
}

fn engine(wal_dir: Option<&std::path::Path>, interval: u64) -> Engine {
    let config = EngineConfig {
        durability: wal_dir.map(|dir| Durability {
            dir: dir.to_path_buf(),
            snapshot_interval: if interval == 0 { u64::MAX } else { interval },
        }),
        ..EngineConfig::default()
    };
    let d = defs();
    Engine::new(&scenario(), config, &["A", "B", "C"], &d).unwrap()
}

fn inject_all(e: &mut Engine, w: &[(u64, u32, &'static str)]) {
    for &(ms, site, ev) in w {
        e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
    }
}

fn keys(det: Vec<decs_distrib::Detection>) -> Keys {
    det.into_iter().map(|d| (d.name, d.occ)).collect()
}

fn run_case(interval: u64, w: &[(u64, u32, &'static str)], horizon_secs: u64, clean: &Keys) -> Row {
    let dir = std::env::temp_dir().join(format!(
        "decs-bench-recovery-{}-{interval}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = engine(Some(&dir), interval);
    inject_all(&mut e, w);
    let mut det = keys(e.run_until(Nanos::from_millis(KILL_MS)));
    e.crash_and_recover_coordinator()
        .expect("recovery must succeed");
    det.extend(keys(e.run_until(Nanos::from_secs(horizon_secs))));
    let m = e.metrics();
    let row = Row {
        snapshot_interval: interval,
        kill_ms: KILL_MS,
        detections: det.len(),
        match_clean: det == *clean,
        wal_appends: m.wal_appends,
        wal_kib: m.wal_bytes as f64 / 1024.0,
        snapshots_taken: m.snapshots_taken,
        recovery_replayed: m.recovery_replayed,
        recovery_ms: m.recovery_ns as f64 / 1e6,
    };
    let _ = std::fs::remove_dir_all(&dir);
    row
}

fn run_matrix(events: usize, horizon_secs: u64) -> Vec<Row> {
    let w = workload(events);
    // Reference: durability off, never crashes.
    let mut e = engine(None, 0);
    inject_all(&mut e, &w);
    let clean = keys(e.run_until(Nanos::from_secs(horizon_secs)));
    INTERVALS
        .iter()
        .map(|&interval| run_case(interval, &w, horizon_secs, &clean))
        .collect()
}

fn report(rows: &[Row]) -> Baseline {
    Baseline::new().array(
        "rows",
        rows.iter().map(|r| {
            JsonRow::new()
                .field("snapshot_interval", r.snapshot_interval)
                .field("kill_ms", r.kill_ms)
                .field("detections", r.detections)
                .field("match_clean", r.match_clean)
                .field("wal_appends", r.wal_appends)
                .fixed("wal_kib", r.wal_kib, 1)
                .field("snapshots_taken", r.snapshots_taken)
                .field("recovery_replayed", r.recovery_replayed)
                .fixed("recovery_ms", r.recovery_ms, 3)
        }),
    )
}

/// The invariants every run's rows must hold, one line per violation.
fn check_rows(rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in rows {
        if !r.match_clean {
            failures.push(format!(
                "detections diverged from the uninterrupted run at interval {}",
                r.snapshot_interval
            ));
        }
        if r.wal_appends == 0 {
            failures.push(format!(
                "WAL logged nothing at interval {} (durability inert?)",
                r.snapshot_interval
            ));
        }
        if r.snapshot_interval == 1 && r.snapshots_taken == 0 {
            failures.push("interval 1 took no snapshots".to_string());
        }
    }
    // Snapshots exist to bound replay: the no-snapshot row must replay at
    // least as much as the tightest-interval row.
    let replay_of = |i: u64| {
        rows.iter()
            .find(|r| r.snapshot_interval == i)
            .map(|r| r.recovery_replayed)
    };
    if let (Some(none), Some(tight)) = (replay_of(0), replay_of(1)) {
        if none < tight {
            failures.push(format!("snapshots increased replay ({none} < {tight})"));
        }
        if none == 0 {
            failures.push("no-snapshot recovery replayed nothing".to_string());
        }
    }
    failures
}

fn smoke(gate: &mut Gate) -> Baseline {
    let rows = run_matrix(40, 20);
    for failure in check_rows(&rows) {
        gate.fail(failure);
    }
    for interval in INTERVALS {
        let clean = gate.baseline::<bool>("rows", "snapshot_interval", interval, "match_clean");
        if clean == Some(false) {
            gate.fail(format!(
                "baseline interval {interval} has match_clean = false"
            ));
        }
    }
    if gate.baseline::<u64>("rows", "snapshot_interval", 0, "recovery_replayed") == Some(0) {
        gate.fail("baseline no-snapshot recovery replayed nothing");
    }
    report(&rows)
}

fn full() -> Baseline {
    eprintln!("E17 — recovery cost vs snapshot interval (full run)");
    let rows = run_matrix(200, 30);
    let failures = check_rows(&rows);
    assert!(
        failures.is_empty(),
        "full run failed its invariants: {failures:?}"
    );
    report(&rows)
}

fn main() {
    decs_bench::main("recovery", 1, full, smoke);
}
