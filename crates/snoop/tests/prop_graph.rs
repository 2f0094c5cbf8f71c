//! Randomized graph-level properties: masks filter soundly, detection
//! counts are monotone in the context hierarchy for SEQ, and feeding is
//! deterministic.

use decs_snoop::{
    CentralDetector, CentralTime, Context, EventExpr as E, Mask, Occurrence, ReferenceDetector,
    Value,
};
use decs_testkit::{check, vec_of, SplitMix64};

/// (event 0/1, integer parameter)
fn trace_strategy(rng: &mut SplitMix64) -> Vec<(usize, i64)> {
    vec_of(rng, 0, 29, |r| {
        (r.next_below(2) as usize, r.next_below(200) as i64)
    })
}

fn run_counts(expr: &E, ctx: Context, trace: &[(usize, i64)]) -> usize {
    let names = ["A", "B"];
    let mut d = CentralDetector::new();
    for n in names {
        d.register(n).unwrap();
    }
    d.define("X", expr, ctx).unwrap();
    let mut count = 0;
    for (k, &(ev, v)) in trace.iter().enumerate() {
        count += d
            .feed(names[ev], k as u64 + 1, vec![Value::Int(v)])
            .unwrap()
            .len();
    }
    count
}

/// Every property of this file runs this many cases.
const CASES: u32 = 300;

/// Masked detection counts equal unmasked detection over the filtered
/// trace: filtering inside the graph ≡ filtering the input.
#[test]
fn mask_equals_prefiltering() {
    check("mask_equals_prefiltering", CASES, |rng| {
        let trace = trace_strategy(rng);
        let bound = rng.next_below(200) as i64;
        let masked = E::seq(
            E::masked(
                E::prim("A"),
                Mask::AtLeast {
                    index: 0,
                    min: bound,
                },
            ),
            E::prim("B"),
        );
        let plain = E::seq(E::prim("A"), E::prim("B"));
        let filtered: Vec<(usize, i64)> = trace
            .iter()
            .copied()
            .filter(|&(ev, v)| ev != 0 || v >= bound)
            .collect();
        for ctx in [
            Context::Chronicle,
            Context::Unrestricted,
            Context::Continuous,
        ] {
            assert_eq!(
                run_counts(&masked, ctx, &trace),
                run_counts(&plain, ctx, &filtered),
                "ctx {ctx} bound {bound}"
            );
        }
    });
}

/// Chronicle, Continuous and Recent detection counts never exceed the
/// unrestricted count (restriction property of the contexts).
#[test]
fn restricted_contexts_detect_no_more_than_unrestricted() {
    check(
        "restricted_contexts_detect_no_more_than_unrestricted",
        CASES,
        |rng| {
            let trace = trace_strategy(rng);
            let expr = E::seq(E::prim("A"), E::prim("B"));
            let unrestricted = run_counts(&expr, Context::Unrestricted, &trace);
            for ctx in [
                Context::Recent,
                Context::Chronicle,
                Context::Continuous,
                Context::Cumulative,
            ] {
                assert!(run_counts(&expr, ctx, &trace) <= unrestricted, "{ctx}");
            }
        },
    );
}

/// AND is commutative in its operands (same counts).
#[test]
fn and_is_commutative() {
    check("and_is_commutative", CASES, |rng| {
        let trace = trace_strategy(rng);
        let ab = E::and(E::prim("A"), E::prim("B"));
        let ba = E::and(E::prim("B"), E::prim("A"));
        for ctx in Context::ALL {
            assert_eq!(run_counts(&ab, ctx, &trace), run_counts(&ba, ctx, &trace));
        }
    });
}

/// OR counts are the sum of the operands' occurrence counts.
#[test]
fn or_counts_everything() {
    check("or_counts_everything", CASES, |rng| {
        let trace = trace_strategy(rng);
        let expr = E::or(E::prim("A"), E::prim("B"));
        assert_eq!(run_counts(&expr, Context::Chronicle, &trace), trace.len());
    });
}

/// Feeding the same trace twice into fresh detectors is identical
/// (no hidden global state besides occurrence uids).
#[test]
fn detection_is_deterministic() {
    check("detection_is_deterministic", CASES, |rng| {
        let trace = trace_strategy(rng);
        let expr = E::aperiodic_star(E::prim("A"), E::prim("B"), E::prim("A"));
        let a = run_counts(&expr, Context::Continuous, &trace);
        let b = run_counts(&expr, Context::Continuous, &trace);
        assert_eq!(a, b);
    });
}

/// The reference interpreter over CentralTime and the CentralDetector
/// agree when no timers are involved.
#[test]
fn detector_wrappers_agree() {
    check("detector_wrappers_agree", CASES, |rng| {
        let trace = trace_strategy(rng);
        let expr = E::seq(E::prim("A"), E::prim("B"));
        let names = ["A", "B"];
        let wrapped = run_counts(&expr, Context::Chronicle, &trace);
        let mut raw: ReferenceDetector<CentralTime> = ReferenceDetector::new();
        for n in names {
            raw.register(n).unwrap();
        }
        raw.define("X", &expr, Context::Chronicle).unwrap();
        let mut count = 0;
        for (k, &(ev, v)) in trace.iter().enumerate() {
            let ty = raw.catalog().lookup(names[ev]).unwrap();
            let occ = Occurrence::primitive(ty, CentralTime(k as u64 + 1), vec![Value::Int(v)]);
            count += raw.feed(occ).detected.len();
        }
        assert_eq!(wrapped, count);
    });
}
