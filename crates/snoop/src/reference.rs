//! The serial reference interpreter: the differential oracle for
//! [`crate::PlanDetector`].
//!
//! [`ReferenceDetector`] compiles every definition into its own
//! [`EventGraph`] — nothing is shared — and feeds one occurrence at a time:
//! the occurrence goes to every graph subscribed to its type (ascending
//! definition index), the round's named detections are merged in the
//! canonical `(composite-timestamp, definition-id)` order, and the merged
//! round re-enters the cascade for definitions that reference those
//! names. There is no GC, no columnar staging and no snapshot support:
//! the interpreter exists so tests and benches can check the shared plan
//! against the plainest possible execution of the same semantics. No
//! production path constructs it.

use crate::context::Context;
use crate::error::Result;
use crate::event::{Catalog, EventId, Occurrence};
use crate::expr::EventExpr;
use crate::graph::{EventGraph, TimerId};
use crate::plan::{sort_canonical, DefIndex, FeedResult};
use crate::time::EventTime;
use std::collections::HashMap;

/// A catalog plus one independent [`EventGraph`] per definition.
#[derive(Debug, Default)]
pub struct ReferenceDetector<T: EventTime> {
    catalog: Catalog,
    /// One graph per definition, in `define` order.
    graphs: Vec<EventGraph<T>>,
    /// Event type → definitions subscribed to it, ascending.
    routes: HashMap<EventId, Vec<DefIndex>>,
}

impl<T: EventTime> ReferenceDetector<T> {
    /// An empty detector.
    pub fn new() -> Self {
        ReferenceDetector {
            catalog: Catalog::new(),
            graphs: Vec::new(),
            routes: HashMap::new(),
        }
    }

    /// Register a primitive event type.
    pub fn register(&mut self, name: &str) -> Result<EventId> {
        self.catalog.register(name)
    }

    /// Define a named composite event in a fresh graph of its own.
    pub fn define(&mut self, name: &str, expr: &EventExpr, ctx: Context) -> Result<EventId> {
        let mut graph = EventGraph::new();
        let emits = graph.compile(&mut self.catalog, name, expr, ctx)?;
        let d = self.graphs.len();
        for ty in graph.subscribed_types() {
            self.routes.entry(ty).or_default().push(d);
        }
        self.graphs.push(graph);
        Ok(emits)
    }

    /// The catalog (name ↔ id mapping).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Total operator nodes across all definitions (every definition
    /// compiles its full expression tree; cf.
    /// [`crate::PlanDetector::plan_node_count`]).
    pub fn node_count(&self) -> usize {
        self.graphs.iter().map(EventGraph::node_count).sum()
    }

    /// Feed one occurrence, cascading named detections into the
    /// definitions that reference them.
    pub fn feed(&mut self, occ: Occurrence<T>) -> FeedResult<T> {
        let mut out = FeedResult::default();
        self.cascade(vec![occ], &mut out);
        out
    }

    /// Deliver a previously requested timer on the definition that owns
    /// it, then cascade its detections.
    pub fn fire_timer(&mut self, d: DefIndex, id: TimerId, time: T) -> Result<FeedResult<T>> {
        let r = self.graphs[d].fire_timer(id, time)?;
        let mut out = FeedResult::default();
        out.timers.extend(r.timers.into_iter().map(|t| (d, t)));
        let mut round = r.detected;
        sort_canonical(&mut round);
        out.detected.extend(round.iter().cloned());
        self.cascade(round, &mut out);
        Ok(out)
    }

    /// Breadth-first cascade: each wave's occurrences are routed in order,
    /// and each trigger's canonically merged detections form the next wave.
    fn cascade(&mut self, mut wave: Vec<Occurrence<T>>, out: &mut FeedResult<T>) {
        while !wave.is_empty() {
            let mut next = Vec::new();
            for occ in wave {
                let Some(route) = self.routes.get(&occ.ty) else {
                    continue;
                };
                let mut round = Vec::new();
                for &d in route {
                    let r = self.graphs[d].feed_ref(&occ);
                    out.timers.extend(r.timers.into_iter().map(|t| (d, t)));
                    round.extend(r.detected);
                }
                sort_canonical(&mut round);
                next.extend(round.iter().cloned());
                out.detected.extend(round);
            }
            wave = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::EventExpr as E;
    use crate::time::CentralTime;

    /// Primitives A/B/C; three definitions with disjoint and overlapping
    /// subscriptions plus one cross-definition reference (Z uses X).
    fn build() -> ReferenceDetector<CentralTime> {
        let mut d = ReferenceDetector::new();
        for n in ["A", "B", "C"] {
            d.register(n).unwrap();
        }
        d.define("X", &E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
            .unwrap();
        d.define(
            "Y",
            &E::and(E::prim("B"), E::prim("C")),
            Context::Unrestricted,
        )
        .unwrap();
        d.define("Z", &E::seq(E::prim("X"), E::prim("C")), Context::Chronicle)
            .unwrap();
        d
    }

    fn feed(d: &mut ReferenceDetector<CentralTime>, name: &str, t: u64) -> Vec<String> {
        let ty = d.catalog().lookup(name).unwrap();
        let r = d.feed(Occurrence::bare(ty, CentralTime(t)));
        r.detected
            .iter()
            .map(|o| d.catalog().name(o.ty).to_owned())
            .collect()
    }

    #[test]
    fn definitions_subscribe_only_to_referenced_types() {
        let d = build();
        let id = |n| d.catalog().lookup(n).unwrap();
        // A feeds only X; C feeds Y and Z; X feeds Z.
        assert_eq!(d.routes[&id("A")], vec![0]);
        assert_eq!(d.routes[&id("C")], vec![1, 2]);
        assert_eq!(d.routes[&id("X")], vec![2]);
        assert_eq!(d.graphs.len(), 3);
    }

    #[test]
    fn named_detections_cascade_into_referencing_definitions() {
        let mut d = build();
        assert!(feed(&mut d, "A", 1).is_empty());
        // B completes X, which cascades into Z as its initiator.
        assert_eq!(feed(&mut d, "B", 2), vec!["X"]);
        // C completes Y and, through the cascaded X, Z — in canonical
        // order.
        assert_eq!(feed(&mut d, "C", 3), vec!["Y", "Z"]);
    }

    #[test]
    fn canonical_merge_orders_same_trigger_detections() {
        // Two definitions detect on the same trigger with identical
        // timestamps: the order is by definition id, not routing quirks.
        let mut d = ReferenceDetector::new();
        for n in ["A", "B"] {
            d.register(n).unwrap();
        }
        d.define("Q", &E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
            .unwrap();
        d.define(
            "P",
            &E::and(E::prim("A"), E::prim("B")),
            Context::Unrestricted,
        )
        .unwrap();
        feed(&mut d, "A", 1);
        // Q was defined first → smaller EventId → first on timestamp tie.
        assert_eq!(feed(&mut d, "B", 2), vec!["Q", "P"]);
    }

    #[test]
    fn timers_are_tagged_with_their_definition() {
        let mut d = ReferenceDetector::new();
        let a = d.register("A").unwrap();
        d.define("L", &E::seq(E::prim("A"), E::prim("A")), Context::Chronicle)
            .unwrap();
        d.define("D", &E::plus(E::prim("A"), 10), Context::Chronicle)
            .unwrap();
        let r = d.feed(Occurrence::bare(a, CentralTime(5)));
        assert_eq!(r.timers.len(), 1);
        let (def, req) = r.timers[0];
        assert_eq!(def, 1); // the `+` lives in D's graph
        assert_eq!(req.delay_ticks, 10);
        let fired = d.fire_timer(def, req.id, CentralTime(15)).unwrap();
        assert_eq!(fired.detected.len(), 1);
        assert_eq!(d.catalog().name(fired.detected[0].ty), "D");
    }
}
