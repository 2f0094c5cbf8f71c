//! The time-domain abstraction the operator semantics is generic over.
//!
//! Definition 3.1 / Section 5.3 of the paper: an event is a boolean function
//! over the *time stamp domain*. What the operator state machines actually
//! need from that domain is:
//!
//! 1. the exhaustive temporal relation between two stamps
//!    (before/after/concurrent/incomparable);
//! 2. the `Max` operation that combines constituent stamps into the stamp
//!    of a composite occurrence (`t_occ = max(…)` centralized, the
//!    Definition 5.9 `Max` operator distributed).
//!
//! [`EventTime`] captures exactly that. [`CentralTime`] instantiates it with
//! totally ordered clock ticks (Section 3); `decs_core::CompositeTimestamp`
//! instantiates it with the Section 5 partial order, where both operations
//! run on the per-site version-vector kernels (`relation` via the merge
//! walks in `decs_core::ordering`, `max` via the survivor merge in
//! `decs_core::join`): O(|sites|) per call with no allocation beyond the
//! joined stamp itself, so wide composites are cheap in the hot operator
//! paths (banded SEQ compares, NOT guard checks, ANY joins).

use decs_core::{max_op, CompositeRelation, CompositeTimestamp};
use std::cmp::Ordering;
use std::fmt::Debug;

/// The operations the Snoop operator semantics needs from a time domain.
pub trait EventTime: Clone + Debug + PartialEq + Send + Sync + 'static {
    /// The exhaustive temporal relation between `self` and `other`.
    fn relation(&self, other: &Self) -> CompositeRelation;

    /// The `Max` of two stamps: the occurrence time of a composite event
    /// whose latest constituents carry `self` and `other`.
    fn max(&self, other: &Self) -> Self;

    /// An arbitrary-but-fixed *total* order over stamps, used only to merge
    /// one trigger's detections across definitions into one canonical,
    /// reproducible sequence. It must be consistent with equality, and for
    /// totally ordered domains it must agree with [`EventTime::relation`];
    /// for partially ordered domains (composite timestamps) incomparable
    /// stamps are ordered by representation. It carries no temporal
    /// meaning beyond that.
    fn canonical_cmp(&self, other: &Self) -> Ordering;

    /// Whether this stamp is *settled* relative to a low watermark: `true`
    /// guarantees `self.before(u)` for **every** stamp `u` the driver can
    /// still deliver, where the driver promises that every future stamp's
    /// global ticks (all members, for composite stamps) are `≥ low`.
    ///
    /// Operator nodes use this to garbage-collect buffered state whose
    /// relation to all future arrivals is already decided (the watermark
    /// analogue of the `2g_g` band-separation fast path). The conservative
    /// default — never settled — keeps GC a no-op for time domains that do
    /// not opt in; it is always sound because eviction only ever *relies*
    /// on `settled`, never on its negation.
    fn settled(&self, _low: u64) -> bool {
        false
    }

    /// Inclusive upper bound on this stamp's global ticks (all members, for
    /// composite stamps), for **band ordering** of buffered occurrences:
    /// `global_upper_bound() + 1 < low` implies [`EventTime::settled`]`(low)`,
    /// so a buffer sorted by this key has a binary-searchable prefix of
    /// stamps that certainly happen-before any stamp whose globals are all
    /// `≥ low`. The default (`u64::MAX`) claims no bound, which keeps the
    /// prefix empty and band ordering equal to arrival ordering — a sound
    /// no-op for time domains that do not opt in.
    fn global_upper_bound(&self) -> u64 {
        u64::MAX
    }

    /// Inclusive lower bound on this stamp's global ticks: every member's
    /// global tick is `≥` this, so any stamp settled at this bound (see
    /// [`EventTime::settled`]) certainly happens before `self`. The default
    /// (0) claims no bound, disabling the certainly-before shortcut.
    fn global_lower_bound(&self) -> u64 {
        0
    }

    /// Strict happen-before.
    fn before(&self, other: &Self) -> bool {
        self.relation(other) == CompositeRelation::Before
    }

    /// Weak less-than-or-equal (`⪯` / `⪯̃`): before or concurrent.
    fn wleq(&self, other: &Self) -> bool {
        matches!(
            self.relation(other),
            CompositeRelation::Before | CompositeRelation::Concurrent
        )
    }
}

/// Centralized time: non-negative physical clock ticks, totally ordered
/// (Section 3 of the paper). Equal ticks are reported as `Concurrent`
/// (simultaneity is the same-clock special case of concurrency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CentralTime(pub u64);

impl CentralTime {
    /// The tick count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The tick `delta` ticks later.
    pub const fn plus(self, delta: u64) -> Self {
        CentralTime(self.0 + delta)
    }
}

impl std::fmt::Display for CentralTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl EventTime for CentralTime {
    fn relation(&self, other: &Self) -> CompositeRelation {
        match self.0.cmp(&other.0) {
            std::cmp::Ordering::Less => CompositeRelation::Before,
            std::cmp::Ordering::Greater => CompositeRelation::After,
            std::cmp::Ordering::Equal => CompositeRelation::Concurrent,
        }
    }

    fn max(&self, other: &Self) -> Self {
        CentralTime(self.0.max(other.0))
    }

    fn canonical_cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }

    /// Total order: every future tick `≥ low` is strictly after `self`
    /// exactly when `self < low`.
    fn settled(&self, low: u64) -> bool {
        self.0 < low
    }

    fn global_upper_bound(&self) -> u64 {
        self.0
    }

    fn global_lower_bound(&self) -> u64 {
        self.0
    }
}

impl EventTime for CompositeTimestamp {
    fn relation(&self, other: &Self) -> CompositeRelation {
        CompositeTimestamp::relation(self, other)
    }

    fn max(&self, other: &Self) -> Self {
        max_op(self, other)
    }

    fn canonical_cmp(&self, other: &Self) -> Ordering {
        // Normalized member lists are sorted, so lexicographic comparison
        // is a total order consistent with `PartialEq`.
        self.members().cmp(other.members())
    }

    /// `<_p` against any future stamp `u` (all of whose member globals are
    /// `≥ low`) requires, per Definition 5.3, a member of `self` before
    /// each member of `u`. When `max_global(self) + 1 < low`, every
    /// cross-site pair is ordered by the `2g_g` rule
    /// (`g₁ + 1 < low ≤ g₂`), and every same-site pair follows from
    /// Proposition 4.1's site-monotone clocks (larger global tick at one
    /// site implies larger local tick). The cached bound makes this O(1).
    fn settled(&self, low: u64) -> bool {
        self.max_global() + 1 < low
    }

    fn global_upper_bound(&self) -> u64 {
        self.max_global()
    }

    fn global_lower_bound(&self) -> u64 {
        self.min_global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_core::cts;

    #[test]
    fn central_time_total_order() {
        let a = CentralTime(3);
        let b = CentralTime(7);
        assert_eq!(a.relation(&b), CompositeRelation::Before);
        assert_eq!(b.relation(&a), CompositeRelation::After);
        assert_eq!(a.relation(&a), CompositeRelation::Concurrent);
        assert!(a.before(&b));
        assert!(!b.before(&a));
        assert!(a.wleq(&b));
        assert!(a.wleq(&a));
        assert!(!b.wleq(&a));
    }

    #[test]
    fn central_time_max_and_plus() {
        assert_eq!(
            EventTime::max(&CentralTime(3), &CentralTime(7)),
            CentralTime(7)
        );
        assert_eq!(
            EventTime::max(&CentralTime(9), &CentralTime(7)),
            CentralTime(9)
        );
        assert_eq!(CentralTime(3).plus(4), CentralTime(7));
        assert_eq!(CentralTime(5).to_string(), "t5");
    }

    #[test]
    fn composite_timestamp_implements_event_time() {
        let a = cts(&[(1, 1, 10)]);
        let b = cts(&[(2, 5, 50)]);
        assert_eq!(EventTime::relation(&a, &b), CompositeRelation::Before);
        assert!(a.before(&b));
        // Max through the trait is the paper's Max operator.
        let c = cts(&[(1, 8, 80)]);
        let d = cts(&[(2, 8, 82)]);
        assert_eq!(EventTime::max(&c, &d), cts(&[(1, 8, 80), (2, 8, 82)]));
    }

    #[test]
    fn central_settled_iff_below_watermark() {
        assert!(CentralTime(4).settled(5));
        assert!(!CentralTime(5).settled(5));
        assert!(!CentralTime(9).settled(5));
    }

    #[test]
    fn composite_settled_implies_before_future_stamps() {
        let old = cts(&[(1, 3, 30), (2, 4, 41)]);
        assert!(old.settled(6)); // max_global 4, 4 + 1 < 6
        assert!(!old.settled(5)); // band gap of exactly 1: undecided
                                  // Any stamp whose globals are ≥ the watermark is provably after.
        for probe in [cts(&[(3, 6, 60)]), cts(&[(1, 7, 70), (2, 6, 62)])] {
            assert!(old.before(&probe));
        }
    }

    #[test]
    fn band_bounds_bracket_settled() {
        // The contract band ordering relies on: upper + 1 < low ⇒ settled(low),
        // and lower is a floor on every member global.
        let t = CentralTime(7);
        assert_eq!(t.global_upper_bound(), 7);
        assert_eq!(t.global_lower_bound(), 7);
        assert!(t.settled(9)); // 7 + 1 < 9
        let c = cts(&[(1, 3, 30), (2, 4, 42)]);
        assert_eq!(c.global_upper_bound(), 4);
        assert_eq!(c.global_lower_bound(), 3);
        assert!(c.settled(6)); // 4 + 1 < 6
        assert!(!c.settled(5));
    }

    #[test]
    fn central_never_incomparable() {
        for i in 0..10u64 {
            for j in 0..10u64 {
                let r = CentralTime(i).relation(&CentralTime(j));
                assert_ne!(r, CompositeRelation::Incomparable);
            }
        }
    }
}
