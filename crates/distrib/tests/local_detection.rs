//! Site-local detection: composite events detected *at the sites*, their
//! set-valued timestamps propagated to the coordinator, and global
//! composites built on top of them — the paper's two-level architecture.

use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig, ReleasePolicy};
use decs_simnet::{Scenario, ScenarioBuilder};
use decs_snoop::{Context, EventExpr as E};

fn scenario(sites: u32) -> Scenario {
    ScenarioBuilder::new(sites, 808)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

#[test]
fn local_composites_are_detected_at_sites() {
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[],
    )
    .unwrap();
    // One round trip on site 0, one on site 1 — each detected locally.
    e.inject(Nanos::from_secs(1), 0, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 0, "resp", vec![]).unwrap();
    e.inject(Nanos::from_secs(3), 1, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(4), 1, "resp", vec![]).unwrap();
    e.run_for(Nanos::from_secs(6));
    assert_eq!(e.local_detections(0), 1);
    assert_eq!(e.local_detections(1), 1);
    // Locality: a req on site 0 and a resp on site 1 never pair —
    // each site's graph only sees its own events.
    let mut e2 = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[],
    )
    .unwrap();
    e2.inject(Nanos::from_secs(1), 0, "req", vec![]).unwrap();
    e2.inject(Nanos::from_secs(2), 1, "resp", vec![]).unwrap();
    e2.run_for(Nanos::from_secs(4));
    assert_eq!(e2.local_detections(0) + e2.local_detections(1), 0);
}

#[test]
fn global_composite_over_local_composites() {
    // Global: round_trip@site0 ; round_trip@site1 — a sequence of *local
    // composite* events, each carrying its own Max timestamp.
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[(
            "cascade",
            E::seq(E::prim("round_trip"), E::prim("round_trip")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    e.inject(Nanos::from_secs(1), 0, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 0, "resp", vec![]).unwrap();
    e.inject(Nanos::from_secs(3), 1, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(4), 1, "resp", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(7));
    let cascades: Vec<_> = det.iter().filter(|d| d.name == "cascade").collect();
    assert_eq!(cascades.len(), 1, "detections: {det:?}");
    // The cascade's parameters accumulate all four constituents.
    assert_eq!(cascades[0].occ.params.len(), 4);
}

#[test]
fn concurrent_local_composites_do_not_form_a_global_sequence() {
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[(
            "cascade",
            E::seq(E::prim("round_trip"), E::prim("round_trip")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    // Both round trips complete within the same global tick (100 ms):
    // their Max timestamps are concurrent → no cascade.
    e.inject(Nanos::from_millis(1000), 0, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1030), 0, "resp", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1010), 1, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1040), 1, "resp", vec![])
        .unwrap();
    let det = e.run_for(Nanos::from_secs(4));
    assert_eq!(e.local_detections(0), 1);
    assert_eq!(e.local_detections(1), 1);
    assert!(
        det.iter().all(|d| d.name != "cascade"),
        "concurrent local composites must not sequence: {det:?}"
    );
}

#[test]
fn global_and_over_locals_carries_multi_member_timestamp() {
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[(
            "both_sites_active",
            E::and(E::prim("round_trip"), E::prim("round_trip")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    e.inject(Nanos::from_millis(1000), 0, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1030), 0, "resp", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1010), 1, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1040), 1, "resp", vec![])
        .unwrap();
    let det = e.run_for(Nanos::from_secs(4));
    let and_det: Vec<_> = det
        .iter()
        .filter(|d| d.name == "both_sites_active")
        .collect();
    assert_eq!(and_det.len(), 1);
    // The Max of two concurrent local timestamps keeps a member per site —
    // the paper's set-valued t_occ, produced by real sites over a network.
    assert_eq!(and_det[0].occ.time.len(), 2, "{}", and_det[0].occ.time);
}

#[test]
fn local_temporal_operator_uses_site_clock() {
    // Local `req + 5` (5 global ticks = 500 ms): fires at each site with
    // the site's own stamp.
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req"],
        &[(
            "request_timeout",
            E::plus(E::prim("req"), 5),
            Context::Chronicle,
        )],
        &[],
    )
    .unwrap();
    e.inject(Nanos::from_secs(1), 1, "req", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(3));
    let timeouts: Vec<_> = det.iter().filter(|d| d.name == "request_timeout").collect();
    assert_eq!(timeouts.len(), 1);
    let member = timeouts[0].occ.time.members()[0];
    assert_eq!(member.site().get(), 1, "stamped by site 1's clock");
    // ≈ 1.5 s of site-1 clock time → global tick ≈ 15.
    assert!((14..=16).contains(&member.global().get()), "{member}");
}

#[test]
fn restarted_site_forgets_its_partial_local_match() {
    // Site 0 holds half of a local SEQ (an unmatched `req`) when it
    // crashes. Partial matches are volatile: the restarted incarnation
    // starts from the freshly compiled detector state, so the first
    // post-restart `resp` completes nothing.
    let build = || {
        Engine::with_local(
            &scenario(2),
            EngineConfig::default(),
            &["req", "resp"],
            &[(
                "round_trip",
                E::seq(E::prim("req"), E::prim("resp")),
                Context::Chronicle,
            )],
            &[],
        )
        .unwrap()
    };
    let post_restart = [(3, "resp"), (4, "req"), (5, "resp")];
    let mut crashed = build();
    crashed
        .inject(Nanos::from_secs(1), 0, "req", vec![])
        .unwrap();
    crashed.crash_site(Nanos::from_millis(1_500), 0);
    crashed.restart_site(Nanos::from_millis(2_000), 0);
    for (s, name) in post_restart {
        crashed
            .inject(Nanos::from_secs(s), 0, name, vec![])
            .unwrap();
    }
    let got = crashed.run_for(Nanos::from_secs(8));
    assert_eq!(crashed.metrics().site_restarts, 1);
    // Only the post-restart pair matched: the pre-crash opener did not
    // complete with the 3 s `resp`.
    assert_eq!(crashed.local_detections(0), 1);

    // The same post-restart events through a fresh engine.
    let mut fresh = build();
    for (s, name) in post_restart {
        fresh.inject(Nanos::from_secs(s), 0, name, vec![]).unwrap();
    }
    let want = fresh.run_for(Nanos::from_secs(8));
    let key = |d: &decs_distrib::Detection| (d.name.clone(), d.occ.clone());
    assert!(!want.is_empty());
    assert_eq!(
        got.iter().map(key).collect::<Vec<_>>(),
        want.iter().map(key).collect::<Vec<_>>()
    );
    assert_eq!(crashed.local_detections(0), fresh.local_detections(0));
}

#[test]
fn local_arrivals_interleave_with_global_detections_in_release_order() {
    let pinned = [
        ("any_pair", "{(s0, 12, 122)}"),
        ("round_trip", "{(s0, 12, 122)}"),
        ("both", "{(s0, 12, 122)}"),
        ("both", "{(s0, 12, 122), (s1, 12, 122)}"),
        ("any_pair", "{(s1, 12, 122)}"),
        ("round_trip", "{(s1, 12, 122)}"),
        ("both", "{(s1, 12, 122)}"),
        ("trip_then_req", "{(s0, 14, 146)}"),
        ("trip_then_req", "{(s1, 14, 144)}"),
        ("any_pair", "{(s0, 17, 170)}"),
        ("both", "{(s0, 17, 170)}"),
        ("round_trip", "{(s0, 17, 170)}"),
        ("both", "{(s0, 17, 170)}"),
        ("both", "{(s0, 17, 170), (s1, 17, 170)}"),
        ("any_pair", "{(s1, 17, 170)}"),
        ("round_trip", "{(s1, 17, 170)}"),
        ("both", "{(s1, 17, 170)}"),
        ("trip_then_req", "{(s0, 19, 195)}"),
        ("any_pair", "{(s1, 21, 219)}"),
        ("both", "{(s1, 21, 219)}"),
        ("any_pair", "{(s0, 22, 221)}"),
        ("both", "{(s0, 22, 221)}"),
        ("round_trip", "{(s0, 22, 221)}"),
        ("both", "{(s0, 22, 221)}"),
        ("trip_then_req", "{(s1, 24, 244)}"),
    ];
    let mut want: Vec<(String, String)> = pinned
        .iter()
        .map(|&(name, time)| (name.to_string(), time.to_string()))
        .collect();
    assert_eq!(interleaved_run(ReleasePolicy::Stable), want);
    // Immediate feeds in arrival order: only the two concurrent
    // `trip_then_req` detections trade places.
    want.swap(7, 8);
    assert_eq!(interleaved_run(ReleasePolicy::Immediate), want);
}

/// Local round trips reach the coordinator as reportable arrivals while
/// global definitions over the same primitives fire in the same release
/// rounds: the full `(name, timestamp)` sequence pins where each arrival
/// is reported among its neighbours' detections.
fn interleaved_run(release_policy: ReleasePolicy) -> Vec<(String, String)> {
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig {
            release_policy,
            ..EngineConfig::default()
        },
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[
            (
                "any_pair",
                E::seq(E::prim("req"), E::prim("resp")),
                Context::Recent,
            ),
            (
                "trip_then_req",
                E::seq(E::prim("round_trip"), E::prim("req")),
                Context::Chronicle,
            ),
            (
                "both",
                E::and(E::prim("round_trip"), E::prim("resp")),
                Context::Recent,
            ),
        ],
    )
    .unwrap();
    let schedule: [(u64, u32, &str); 12] = [
        (1_000, 0, "req"),
        (1_010, 1, "req"),
        (1_220, 0, "resp"),
        (1_230, 1, "resp"),
        (1_450, 1, "req"),
        (1_460, 0, "req"),
        (1_700, 0, "resp"),
        (1_705, 1, "resp"),
        (1_950, 0, "req"),
        (2_200, 1, "resp"),
        (2_210, 0, "resp"),
        (2_450, 1, "req"),
    ];
    for (ms, site, name) in schedule {
        e.inject(Nanos::from_millis(ms), site, name, vec![])
            .unwrap();
    }
    e.run_for(Nanos::from_secs(5))
        .into_iter()
        .map(|d| (d.name, d.occ.time.to_string()))
        .collect()
}
