//! Columnar (struct-of-arrays) event batches.
//!
//! The per-event ingest path pays three heap allocations and a catalog
//! hash lookup per primitive occurrence (`Occurrence::bare` wraps an
//! empty tuple in two fresh `Arc`s; `feed_bare` resolves the name every
//! time), plus a watermark-GC sweep over every operator node per feed.
//! [`EventBatch`] amortizes all of that across a whole batch:
//!
//! * **SoA layout** — event types, stamps and parameter lists live in
//!   parallel vectors, so batch-level prefilters (route presence, timer
//!   boundaries) scan a dense `EventId`/tick column instead of chasing
//!   per-occurrence pointers.
//! * **Shared parameter lists** — a [`ParamList`] is an `Arc` slice, so a
//!   row that already carries one (the coordinator's re-batching path)
//!   stores a refcount bump. A bare (parameterless) row stores `None`,
//!   which stands for its type's interned empty list: built once per
//!   event type for the life of the batch and cloned only when a routed
//!   row is materialized, so `push_bare` does no allocation and no `Arc`
//!   traffic after the first row of each type.
//! * **Reuse** — `clear` keeps every column's capacity, so a steady-state
//!   ingest loop allocates nothing.
//!
//! Occurrences are materialized lazily, one at a time, at the moment a
//! detector delivers the event ([`EventBatch::occurrence`]): an `Arc`
//! bump for the parameters, a stamp clone, and a fresh uid. Events whose
//! type routes to no definition are skipped without ever materializing.
//!
//! The stamp column stores stamps *with their summaries already built*:
//! `decs_core::CompositeTimestamp` computes its per-site version-vector
//! caches (site mask, global band, per-site run bounds) at construction,
//! so cloning a stamp into or out of the column copies the caches too.
//! Batch-level band prefilters ([`EventTime::global_upper_bound`] over the
//! dense column) and the downstream operator compares therefore never
//! re-derive anything from the member list, no matter how wide the stamp.
//!
//! `tests/prop_ingest.rs` pins columnar ingestion through the plan
//! bit-identical to per-event feeding of the reference interpreter across
//! every context and GC mode.

use crate::event::{fresh_uid, EventId, Occurrence, ParamList, ParamTuple, Value};
use crate::time::EventTime;
use std::sync::Arc;

/// A struct-of-arrays batch of primitive events awaiting ingestion.
///
/// Columns are parallel: `types[i]`, `times[i]` and `params[i]` describe
/// event `i`. Feed it through `CentralDetector::feed_columnar` (ticks) or
/// the backends' `feed_batch_columnar` (any time domain); then
/// [`Self::clear`] and refill — steady state allocates nothing.
#[derive(Debug, Default)]
pub struct EventBatch<T> {
    types: Vec<EventId>,
    times: Vec<T>,
    /// `None` stands for the row type's entry in `bare`.
    params: Vec<Option<ParamList>>,
    /// Interned empty parameter list per event type (indexed by
    /// `EventId`), kept across [`Self::clear`].
    bare: Vec<Option<ParamList>>,
}

impl<T: EventTime> EventBatch<T> {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch {
            types: Vec::new(),
            times: Vec::new(),
            params: Vec::new(),
            bare: Vec::new(),
        }
    }

    /// An empty batch with pre-sized columns.
    pub fn with_capacity(n: usize) -> Self {
        EventBatch {
            types: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
            params: Vec::with_capacity(n),
            bare: Vec::new(),
        }
    }

    /// Append a parameterless event (shares the per-type interned list).
    pub fn push_bare(&mut self, ty: EventId, time: T) {
        let i = ty.0 as usize;
        if i >= self.bare.len() {
            self.bare.resize(i + 1, None);
        }
        if self.bare[i].is_none() {
            self.bare[i] = Some(Arc::new([ParamTuple::new(ty, Vec::new())]));
        }
        self.types.push(ty);
        self.times.push(time);
        self.params.push(None);
    }

    /// Append an event with parameter values.
    pub fn push(&mut self, ty: EventId, time: T, values: Vec<Value>) {
        if values.is_empty() {
            self.push_bare(ty, time);
        } else {
            self.push_list(ty, time, Arc::new([ParamTuple::new(ty, values)]));
        }
    }

    /// Append an event that already carries a parameter list (an `Arc`
    /// bump, no copy — the coordinator's re-batching path).
    pub fn push_list(&mut self, ty: EventId, time: T, params: ParamList) {
        self.types.push(ty);
        self.times.push(time);
        self.params.push(Some(params));
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The event-type column.
    pub fn types(&self) -> &[EventId] {
        &self.types
    }

    /// The timestamp column.
    pub fn times(&self) -> &[T] {
        &self.times
    }

    /// Event `i`'s type.
    pub fn ty(&self, i: usize) -> EventId {
        self.types[i]
    }

    /// Event `i`'s timestamp.
    pub fn time(&self, i: usize) -> &T {
        &self.times[i]
    }

    /// Materialize event `i` as an occurrence: parameter `Arc` bump,
    /// stamp clone, fresh uid. Called once per *routed* event at delivery
    /// time; unrouted events are never materialized.
    pub fn occurrence(&self, i: usize) -> Occurrence<T> {
        let ty = self.types[i];
        let params = match &self.params[i] {
            Some(params) => params,
            None => self.bare[ty.0 as usize]
                .as_ref()
                .expect("push_bare interns the row's type"),
        };
        Occurrence {
            ty,
            time: self.times[i].clone(),
            params: params.clone(),
            uid: fresh_uid(),
        }
    }

    /// Recycle the batch: drop every event, keep all capacity and the
    /// interned bare lists.
    pub fn clear(&mut self) {
        self.types.clear();
        self.times.clear();
        self.params.clear();
    }

    /// Estimated bytes retained by the batch: column capacity plus the
    /// interned bare lists. Shared parameter lists are counted as the
    /// pointers the batch holds.
    pub fn arena_bytes(&self) -> usize {
        self.types.capacity() * std::mem::size_of::<EventId>()
            + self.times.capacity() * std::mem::size_of::<T>()
            + (self.params.capacity() + self.bare.capacity())
                * std::mem::size_of::<Option<ParamList>>()
            + self.bare.iter().flatten().count() * std::mem::size_of::<ParamTuple>()
    }

    /// Materialize every event whose type passes `routed` into plain
    /// occurrences, in order (the plan's batch feed consumes a `Vec`).
    pub(crate) fn materialize_routed(
        &self,
        routed: impl Fn(EventId) -> bool,
    ) -> Vec<Occurrence<T>> {
        (0..self.len())
            .filter(|&i| routed(self.types[i]))
            .map(|i| self.occurrence(i))
            .collect()
    }

    /// Materialize rows `range` into plain occurrences, in order (the
    /// timer-boundary split path of `CentralDetector::feed_columnar`).
    pub(crate) fn materialize_range(&self, range: std::ops::Range<usize>) -> Vec<Occurrence<T>> {
        range.map(|i| self.occurrence(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CentralTime;

    #[test]
    fn bare_events_share_one_interned_list() {
        let mut b = EventBatch::<CentralTime>::new();
        b.push_bare(EventId(3), CentralTime(1));
        b.push_bare(EventId(3), CentralTime(2));
        let o1 = b.occurrence(0);
        let o2 = b.occurrence(1);
        assert!(Arc::ptr_eq(&o1.params, &o2.params));
        assert_ne!(o1.uid, o2.uid);
        assert_eq!(o1.params[0].source, EventId(3));
        assert!(o1.params[0].values.is_empty());
    }

    #[test]
    fn owned_params_round_trip() {
        let mut b = EventBatch::<CentralTime>::new();
        b.push(EventId(1), CentralTime(5), vec![Value::Int(42)]);
        let o = b.occurrence(0);
        assert_eq!(o.params[0].values[0].as_int(), Some(42));
        assert_eq!(o.time, CentralTime(5));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = EventBatch::<CentralTime>::with_capacity(8);
        b.push(EventId(0), CentralTime(1), vec![Value::Bool(true)]);
        let bytes_before = b.arena_bytes();
        b.clear();
        assert!(b.is_empty());
        assert!(b.arena_bytes() <= bytes_before);
        b.push_bare(EventId(0), CentralTime(2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn empty_values_push_falls_back_to_bare_interning() {
        let mut b = EventBatch::<CentralTime>::new();
        b.push(EventId(2), CentralTime(1), Vec::new());
        b.push_bare(EventId(2), CentralTime(2));
        assert!(Arc::ptr_eq(
            &b.occurrence(0).params,
            &b.occurrence(1).params
        ));
    }
}
