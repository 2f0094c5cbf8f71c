//! The paper's extension claim, tested as a metamorphic property: on a
//! single site, the distributed semantics (composite timestamps, `<_p`,
//! `Max`) must detect *exactly* the same composite events as the
//! centralized semantics (total order, `max`) — because same-site
//! timestamps are totally ordered by their local ticks.
//!
//! We generate random event traces and random expressions, run both
//! detectors, and compare detection counts and occurrence times.

use decs_core::{cts, CompositeTimestamp};
use decs_snoop::{CentralTime, Context, EventExpr, Occurrence, PlanDetector};
use decs_testkit::{check, pick, vec_of, SplitMix64};

/// Branch probability per nesting level, outermost first: the schedule
/// proptest's `prop_recursive(3, 16, 3, …)` derives (desired size 16,
/// expected branch size 3, capped at 0.9). A level that does not branch
/// falls through to the next; past the last level only leaves remain, so
/// operators nest at most three deep.
const BRANCH: [f64; 3] = [0.9, 16.0 / 36.0, 16.0 / 216.0];

/// Build a random expression over primitive names "A", "B", "C".
fn expr_strategy(rng: &mut SplitMix64) -> EventExpr {
    expr_at(rng, 0)
}

fn expr_at(rng: &mut SplitMix64, level: usize) -> EventExpr {
    let Some(&p) = BRANCH.get(level) else {
        return EventExpr::prim(pick(rng, &["A", "B", "C"]));
    };
    if rng.next_f64() >= p {
        return expr_at(rng, level + 1);
    }
    let op = rng.next_below(6);
    let mut inner = || expr_at(rng, level + 1);
    match op {
        0 => EventExpr::and(inner(), inner()),
        1 => EventExpr::or(inner(), inner()),
        2 => EventExpr::seq(inner(), inner()),
        3 => EventExpr::not(inner(), inner(), inner()),
        4 => EventExpr::aperiodic(inner(), inner(), inner()),
        _ => EventExpr::aperiodic_star(inner(), inner(), inner()),
    }
}

fn context_strategy(rng: &mut SplitMix64) -> Context {
    pick(
        rng,
        &[
            Context::Unrestricted,
            Context::Recent,
            Context::Chronicle,
            Context::Continuous,
            Context::Cumulative,
        ],
    )
}

/// A trace of (event index 0..3, strictly increasing tick).
fn trace_strategy(rng: &mut SplitMix64) -> Vec<(usize, u64)> {
    let mut t = 0;
    vec_of(rng, 0, 23, |r| {
        let e = r.next_below(3) as usize;
        t += r.next_range(1, 3);
        (e, t)
    })
}

/// Single-site composite timestamp for local tick `t` (global = t / 10).
fn dist_time(t: u64) -> CompositeTimestamp {
    cts(&[(1, t / 10, t)])
}

#[test]
fn single_site_distributed_equals_centralized() {
    check("single_site_distributed_equals_centralized", 300, |rng| {
        let expr = expr_strategy(rng);
        let ctx = context_strategy(rng);
        let trace = trace_strategy(rng);
        let names = ["A", "B", "C"];

        let mut central: PlanDetector<CentralTime> = PlanDetector::new();
        let mut distrib: PlanDetector<CompositeTimestamp> = PlanDetector::new();
        for n in names {
            central.register(n).unwrap();
            distrib.register(n).unwrap();
        }
        central.define("X", &expr, ctx).unwrap();
        distrib.define("X", &expr, ctx).unwrap();

        let mut central_dets: Vec<Occurrence<CentralTime>> = Vec::new();
        let mut distrib_dets: Vec<Occurrence<CompositeTimestamp>> = Vec::new();
        for &(e, t) in &trace {
            let ty = central.catalog().lookup(names[e]).unwrap();
            let rc = central.feed(Occurrence::bare(ty, CentralTime(t)));
            assert!(rc.timers.is_empty());
            central_dets.extend(rc.detected);
            let ty = distrib.catalog().lookup(names[e]).unwrap();
            let rd = distrib.feed(Occurrence::bare(ty, dist_time(t)));
            distrib_dets.extend(rd.detected);
        }

        assert_eq!(
            central_dets.len(),
            distrib_dets.len(),
            "detection counts diverge for {expr} [{ctx}]"
        );
        for (c, d) in central_dets.iter().zip(distrib_dets.iter()) {
            // The distributed occurrence time must be the single-site stamp
            // of the same tick the centralized detector reported.
            let tick = c.time.get();
            assert_eq!(&d.time, &dist_time(tick), "time diverges for {expr}");
            // And the constituent parameter lists must match in shape.
            assert_eq!(c.params.len(), d.params.len());
        }
    });
}
