//! Property tests for the composite-timestamp semantics (Section 5):
//! Theorems 5.1–5.4, the candidate-ordering analysis of Section 5.1, and
//! the algebraic laws of the `Max` operator.

use decs_chronos::SiteId;
use decs_core::alt::{self, Candidate};
use decs_core::properties as p;
use decs_core::{
    classify_region, cts, join_concurrent, max_op, pts, CompositeRelation, CompositeTimestamp,
    CoreError, PrimitiveTimestamp, RawTimestampSet, Region, RegionMap,
};
use decs_testkit::{check, pick, vec_of, SplitMix64};

/// Conforming timestamps: `global = local / 10`, as a real global time base
/// produces. The Section 4/5 theory *requires* conforming components — for
/// arbitrary (site, global, local) triples the same-site local order can
/// contradict the cross-site global order, `<` acquires cycles, and
/// `max(ST)` can even be empty. See `nonconforming_components_break_the_theory`.
fn arbitrary_ts(rng: &mut SplitMix64) -> PrimitiveTimestamp {
    let s = rng.next_range(1, 5) as u32;
    let l = rng.next_range(0, 119);
    pts(s, l / 10, l)
}

fn composite(rng: &mut SplitMix64) -> CompositeTimestamp {
    CompositeTimestamp::from_primitives(vec_of(rng, 1, 5, arbitrary_ts))
}

fn raw_set(rng: &mut SplitMix64) -> RawTimestampSet {
    RawTimestampSet::new(vec_of(rng, 1, 4, arbitrary_ts))
}

/// Every property of this file runs this many cases.
const CASES: u32 = 1500;

#[test]
fn constructor_establishes_invariant() {
    check("constructor_establishes_invariant", CASES, |rng| {
        let c = CompositeTimestamp::from_primitives(vec_of(rng, 1, 7, arbitrary_ts));
        assert!(c.invariant_holds());
        // Global spread of a normalized timestamp is at most one tick
        // (members are pairwise concurrent).
        assert!(c.max_global() - c.min_global() <= 1);
    });
}

/// A composite of 1–8 members built directly as a max-set: globals within
/// one tick of each other and one local tick per site, so every member
/// pair is concurrent and nothing but exact duplicates is normalized away.
/// Sites 64 and up share `site_mask` bits with sites below 64, and a site
/// drawn twice with both globals forms a multi-member run.
fn representable(rng: &mut SplitMix64) -> CompositeTimestamp {
    const SITES: [u32; 10] = [0, 1, 2, 5, 63, 64, 65, 66, 128, 200];
    let base = rng.next_range(1, 1_000);
    let width = rng.next_range(1, 8);
    CompositeTimestamp::from_primitives((0..width).map(|_| {
        let site = pick(rng, &SITES);
        pts(site, base + rng.next_below(2), 10_000 + u64::from(site))
    }))
}

#[test]
fn representation_accessors_match_member_scan() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn hash_of(c: &CompositeTimestamp) -> u64 {
        let mut h = DefaultHasher::new();
        c.hash(&mut h);
        h.finish()
    }
    check("representation_accessors_match_member_scan", CASES, |rng| {
        let c = representable(rng);
        let m = c.members();
        assert!(m.windows(2).all(|w| w[0] < w[1]), "{c} not canonical");
        assert_eq!(c.len(), m.len());
        let globals = || m.iter().map(|t| t.global().get());
        assert_eq!(c.min_global(), globals().min().unwrap());
        assert_eq!(c.max_global(), globals().max().unwrap());
        let mask = m
            .iter()
            .fold(0u64, |acc, t| acc | 1 << (t.site().get() % 64));
        assert_eq!(c.site_mask(), mask, "{c}");
        let max_site = m.iter().map(|t| t.site().get()).max().unwrap();
        for s in 0..=max_site + 1 {
            let site = SiteId(s);
            let outside = || {
                m.iter()
                    .filter(|t| t.site() != site)
                    .map(|t| t.global().get())
            };
            let scan_min = outside().min().unwrap_or(u64::MAX);
            let scan_max = outside().max().unwrap_or(0);
            assert_eq!(c.min_global_excluding(site), scan_min, "{c} \\ s{s}");
            assert_eq!(c.max_global_excluding(site), scan_max, "{c} \\ s{s}");
        }
        let all_one_site = m.iter().all(|t| t.site() == m[0].site());
        assert_eq!(c.single_site(), all_one_site.then(|| m[0].site()));
        let mut runs = Vec::new();
        for t in m {
            match runs.last_mut() {
                Some((site, local, _, hi)) if *site == t.site() => {
                    assert_eq!(*local, t.local().get(), "{c}: run with two locals");
                    *hi = t.global().get();
                }
                _ => runs.push((
                    t.site(),
                    t.local().get(),
                    t.global().get(),
                    t.global().get(),
                )),
            }
        }
        let summary: Vec<_> = c
            .site_runs()
            .map(|r| (r.site, r.local, r.min_global, r.max_global))
            .collect();
        assert_eq!(summary, runs);
        // Equality and hashing see the member set, however it was built.
        let rebuilt = CompositeTimestamp::try_from_primitives(m.iter().rev().copied()).unwrap();
        assert_eq!(rebuilt, c);
        assert_eq!(hash_of(&rebuilt), hash_of(&c));
        assert_eq!(hash_of(&c), {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        });
    });
}

#[test]
fn thm_5_1_max_set_concurrent() {
    check("thm_5_1_max_set_concurrent", CASES, |rng| {
        assert!(p::thm_5_1_max_set_concurrent(&vec_of(
            rng,
            0,
            7,
            arbitrary_ts
        )));
    });
}

#[test]
fn thm_5_2_strict_partial_order() {
    check("thm_5_2_strict_partial_order", CASES, |rng| {
        let (a, b, c) = (composite(rng), composite(rng), composite(rng));
        assert!(p::thm_5_2_irreflexive(&a));
        assert!(p::thm_5_2_transitive(&a, &b, &c));
        assert!(p::asymmetry(&a, &b));
    });
}

#[test]
fn thm_5_3_implication_direction() {
    check("thm_5_3_implication_direction", CASES, |rng| {
        let (a, b) = (composite(rng), composite(rng));
        assert!(p::thm_5_3_implication(&a, &b));
    });
}

#[test]
fn thm_5_4_max_is_max_of_union() {
    check("thm_5_4_max_is_max_of_union", CASES, |rng| {
        let (a, b) = (composite(rng), composite(rng));
        assert!(p::thm_5_4(&a, &b));
    });
}

#[test]
fn max_op_laws() {
    check("max_op_laws", CASES, |rng| {
        let (a, b, c) = (composite(rng), composite(rng), composite(rng));
        // Commutative, idempotent, associative; result satisfies invariant.
        assert_eq!(max_op(&a, &b), max_op(&b, &a));
        assert_eq!(max_op(&a, &a), a.clone());
        assert_eq!(max_op(&max_op(&a, &b), &c), max_op(&a, &max_op(&b, &c)));
        assert!(max_op(&a, &b).invariant_holds());
    });
}

#[test]
fn max_op_upper_bound() {
    check("max_op_upper_bound", CASES, |rng| {
        let (a, b) = (composite(rng), composite(rng));
        // Neither input strictly follows the Max (the Max is an upper
        // bound in the weak sense): every member of the result is a member
        // of one of the inputs and no input member strictly dominates it.
        let m = max_op(&a, &b);
        for t in m.iter() {
            assert!(a.contains(t) || b.contains(t));
            assert!(!a.iter().any(|u| t.happens_before(u)));
            assert!(!b.iter().any(|u| t.happens_before(u)));
        }
    });
}

#[test]
fn join_concurrent_matches_max_when_concurrent() {
    check(
        "join_concurrent_matches_max_when_concurrent",
        CASES,
        |rng| {
            let (a, b) = (composite(rng), composite(rng));
            if a.concurrent(&b) {
                assert_eq!(join_concurrent(&a, &b), max_op(&a, &b));
            }
        },
    );
}

#[test]
fn relation_exhaustive_and_flip() {
    check("relation_exhaustive_and_flip", CASES, |rng| {
        let (a, b) = (composite(rng), composite(rng));
        let r = a.relation(&b);
        assert_eq!(r.flip(), b.relation(&a));
        // Exactly the branch reported holds.
        match r {
            CompositeRelation::Before => assert!(a.happens_before(&b)),
            CompositeRelation::After => assert!(b.happens_before(&a)),
            CompositeRelation::Concurrent => assert!(a.concurrent(&b)),
            CompositeRelation::Incomparable => assert!(a.incomparable(&b)),
        }
    });
}

#[test]
fn chosen_ordering_is_least_restricted() {
    check("chosen_ordering_is_least_restricted", CASES, |rng| {
        let (a, b) = (composite(rng), composite(rng));
        // Every pair relatable by the more-restricted valid candidates is
        // relatable by <_p (Section 5.1's restrictiveness claim).
        let ra = RawTimestampSet::from(a.clone());
        let rb = RawTimestampSet::from(b.clone());
        if alt::lt_p2(&ra, &rb) {
            assert!(a.happens_before(&b), "∀∀ ⊄ <_p for {a} {b}");
        }
        if alt::lt_p3(&ra, &rb) {
            assert!(a.happens_before(&b), "min ⊄ <_p for {a} {b}");
        }
    });
}

#[test]
fn lt_p_transitive_even_on_raw_sets() {
    check("lt_p_transitive_even_on_raw_sets", CASES, |rng| {
        let (a, b, c) = (raw_set(rng), raw_set(rng), raw_set(rng));
        if alt::lt_p(&a, &b) && alt::lt_p(&b, &c) {
            assert!(alt::lt_p(&a, &c));
        }
    });
}

#[test]
fn lt_g_transitive_even_on_raw_sets() {
    check("lt_g_transitive_even_on_raw_sets", CASES, |rng| {
        let (a, b, c) = (raw_set(rng), raw_set(rng), raw_set(rng));
        if alt::lt_g(&a, &b) && alt::lt_g(&b, &c) {
            assert!(alt::lt_g(&a, &c));
        }
    });
}

#[test]
fn valid_candidates_irreflexive_on_normalized() {
    check("valid_candidates_irreflexive_on_normalized", CASES, |rng| {
        let ra = RawTimestampSet::from(composite(rng));
        for cand in [
            Candidate::ForallExistsBack,
            Candidate::ForallExistsFwd,
            Candidate::ForallForall,
            Candidate::MinAnchored,
        ] {
            assert!(!cand.eval(&ra, &ra), "{} reflexive", cand.name());
        }
    });
}

#[test]
fn region_classification_total_and_antisymmetric() {
    check(
        "region_classification_total_and_antisymmetric",
        CASES,
        |rng| {
            let (a, b) = (composite(rng), composite(rng));
            let r_ab = classify_region(&a, &b);
            let r_ba = classify_region(&b, &a);
            // Before/After and the weak bands swap; Concurrent/Crossing are
            // symmetric.
            let expected = match r_ab {
                Region::Before => Region::After,
                Region::After => Region::Before,
                Region::WeakBefore => Region::WeakAfter,
                Region::WeakAfter => Region::WeakBefore,
                Region::Concurrent => Region::Concurrent,
                Region::Crossing => Region::Crossing,
            };
            assert_eq!(r_ba, expected);
        },
    );
}

/// Probe at site 99, guaranteed disjoint from the generator's sites.
fn line_map_agrees(a: &CompositeTimestamp, g: u64) {
    let probe = cts(&[(99, g, g * 10)]);
    let map = RegionMap::new(a.clone());
    assert_eq!(map.classify_global(g), classify_region(a, &probe));
}

#[test]
fn line_map_agrees_with_exact_for_fresh_site_singletons() {
    check(
        "line_map_agrees_with_exact_for_fresh_site_singletons",
        CASES,
        |rng| {
            let a = composite(rng);
            line_map_agrees(&a, rng.next_range(0, 14));
        },
    );
}

#[test]
fn weak_leq_composite_definition_consistency() {
    check("weak_leq_composite_definition_consistency", CASES, |rng| {
        let (a, b) = (composite(rng), composite(rng));
        // Definition 5.4 all-pairs form vs direct evaluation.
        let all_pairs = a.iter().all(|t1| b.iter().all(|t2| t1.weak_leq(t2)));
        assert_eq!(a.weak_leq(&b), all_pairs);
    });
}

// --- Pinned regressions --------------------------------------------------
//
// Shrunk cases an earlier, non-conforming generator found, kept with their
// literal member stamps.

/// A line-map probe in the band of a single-member stamp at the origin.
#[test]
fn regression_line_map_at_origin() {
    line_map_agrees(&cts(&[(1, 0, 0)]), 0);
}

/// Site 2's local order (`0 < 38`) contradicts its global order (`11` vs
/// `0`), which closes a `<` cycle through site 3: `max(ST)` is empty, so
/// Theorem 5.1 holds vacuously and the constructor refuses the set
/// instead of building a memberless timestamp.
#[test]
fn regression_cyclic_members_are_refused() {
    let v = vec![pts(2, 0, 38), pts(2, 11, 0), pts(3, 2, 0)];
    assert!(p::thm_5_1_max_set_concurrent(&v));
    assert_eq!(
        CompositeTimestamp::try_from_primitives(v).unwrap_err(),
        CoreError::CyclicMembers
    );
}

/// `b` and `c` share a site whose local order contradicts the global
/// order, so the chain `a < b < c` holds while `a < c` does not: `<_p`
/// and `<_g` are transitive only over conforming components, which is
/// why `raw_set` derives every global tick from its local tick.
fn assert_nonconforming_chain_breaks_transitivity(
    a: (u32, u64, u64),
    b: (u32, u64, u64),
    c: (u32, u64, u64),
) {
    let set = |(s, g, l)| RawTimestampSet::new([pts(s, g, l)]);
    let (a, b, c) = (set(a), set(b), set(c));
    for lt in [alt::lt_p, alt::lt_g] {
        assert!(lt(&a, &b) && lt(&b, &c));
        assert!(!lt(&a, &c));
    }
}

#[test]
fn regression_nonconforming_chain_across_sites_5_and_1() {
    assert_nonconforming_chain_breaks_transitivity((5, 0, 0), (1, 2, 0), (1, 0, 1));
}

#[test]
fn regression_nonconforming_chain_across_sites_1_and_5() {
    assert_nonconforming_chain_breaks_transitivity((1, 7, 0), (5, 9, 0), (5, 0, 1));
}

/// Non-conforming triples (global contradicting local) break the theory:
/// `<` acquires a cycle and `max(ST)` of a non-empty set becomes empty.
/// This documents why every generator above derives `global` from `local`.
#[test]
fn nonconforming_components_break_the_theory() {
    // a < b by same-site local order, but a's global is *later*.
    let a = pts(1, 9, 10);
    let b = pts(1, 0, 20);
    let c = pts(2, 5, 50);
    assert!(a.happens_before(&b)); // local 10 < 20
    assert!(b.happens_before(&c)); // global 0 + 1 < 5
    assert!(c.happens_before(&a)); // global 5 + 1 < 9 — a cycle!
    assert!(decs_core::composite::max_set(&[a, b, c]).is_empty());
}

/// The Theorem 5.3 converse failure must be *findable* by search: in a rich
/// universe some pair is ⪯̃ without being ~ or <_p (see DESIGN.md,
/// reproduction finding on Theorem 5.3).
#[test]
fn thm_5_3_converse_failure_witness() {
    let reference = cts(&[(3, 8, 81), (6, 7, 72)]);
    let probe = cts(&[(9, 6, 60)]);
    assert!(probe.weak_leq(&reference));
    assert!(!probe.happens_before(&reference));
    assert!(!probe.concurrent(&reference));
    assert!(!p::thm_5_3_iff(&probe, &reference));
}
