//! The event detection graph.
//!
//! Sentinel detects composite events bottom-up over a DAG: leaves are
//! primitive event types, internal nodes are operator instances, and each
//! node pushes the occurrences it derives to its subscribers. Compiling an
//! [`EventExpr`] produces such nodes; feeding a primitive occurrence
//! propagates through every subscribed operator and returns the composite
//! occurrences of *named* events that were detected.
//!
//! Temporal operators (`P`, `P*`, `+`) cannot produce occurrences from
//! event arrivals alone — they need a clock. The graph stays agnostic of
//! *whose* clock: a node registers a [`TimerRequest`] (a delay in ticks) and
//! the driver later calls [`EventGraph::fire_timer`] with an actual
//! timestamp. The centralized detector services these from its tick
//! counter; the distributed engine schedules them on a site's local clock,
//! so a timer occurrence carries a genuine `(site, global, local)` stamp.

use crate::context::Context;
use crate::error::{Result, SnoopError};
use crate::event::{Catalog, EventId, Occurrence};
use crate::expr::EventExpr;
use crate::nodes::{self, OperatorNode, Sink};
use crate::time::EventTime;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an outstanding timer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// A request for the driver to call back after `delay_ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Handle to pass back to [`EventGraph::fire_timer`].
    pub id: TimerId,
    /// Delay, in clock ticks (centralized) or global ticks (distributed).
    pub delay_ticks: u64,
}

/// Everything one [`EventGraph`] feed/fire step produced (the shared
/// plan's counterpart is [`crate::FeedResult`]).
#[derive(Debug, Clone, Default)]
pub struct GraphFeedResult<T> {
    /// Occurrences of *named* composite events, in detection order.
    pub detected: Vec<Occurrence<T>>,
    /// New timer requests for the driver.
    pub timers: Vec<TimerRequest>,
}

impl<T> GraphFeedResult<T> {
    pub(crate) fn new() -> Self {
        GraphFeedResult {
            detected: Vec::new(),
            timers: Vec::new(),
        }
    }
}

struct NodeEntry<T: EventTime> {
    op: Box<dyn OperatorNode<T>>,
    /// The event type this node's emissions carry.
    emits: EventId,
    /// Whether `emits` is a user-visible named event.
    named: bool,
    /// Subscribing parents: `(parent, slot in parent)`.
    parents: Vec<(NodeId, usize)>,
}

impl<T: EventTime> fmt::Debug for NodeEntry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeEntry")
            .field("op", &self.op)
            .field("emits", &self.emits)
            .field("named", &self.named)
            .field("parents", &self.parents)
            .finish()
    }
}

/// A compiled event detection graph over the time domain `T`.
#[derive(Debug)]
pub struct EventGraph<T: EventTime> {
    nodes: Vec<NodeEntry<T>>,
    /// Primitive/named event type → subscribers.
    subs: HashMap<EventId, Vec<(NodeId, usize)>>,
    /// Outstanding timers → (node, node-internal tag).
    timers: HashMap<TimerId, (NodeId, u64)>,
    next_timer: u64,
}

impl<T: EventTime> Default for EventGraph<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Where a compiled subexpression delivers its occurrences from.
enum Source {
    /// A leaf event type (primitive or previously named composite).
    Event(EventId),
    /// An internal operator node.
    Node(NodeId),
}

impl<T: EventTime> EventGraph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        EventGraph {
            nodes: Vec::new(),
            subs: HashMap::new(),
            timers: HashMap::new(),
            next_timer: 0,
        }
    }

    /// Number of operator nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The event types this graph has graph-level subscriptions for: the
    /// primitive (and referenced named-composite) types that can make it
    /// react. Feeding any other type is a no-op. Used by the reference
    /// interpreter to build its per-definition routing index.
    pub fn subscribed_types(&self) -> impl Iterator<Item = EventId> + '_ {
        self.subs.keys().copied()
    }

    /// Render the graph in Graphviz `dot` syntax: event-type sources as
    /// ellipses, operator nodes as boxes (double border for named
    /// composite events), edges labelled with the operand slot.
    pub fn to_dot(&self, catalog: &Catalog) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph decs {\n  rankdir=BT;\n");
        // Event-type sources that feed subscribers.
        for (&ev, subs) in &self.subs {
            let _ = writeln!(
                out,
                "  ev{} [label={:?} shape=ellipse];",
                ev.0,
                catalog.name(ev)
            );
            for &(node, slot) in subs {
                let _ = writeln!(out, "  ev{} -> n{} [label=\"{}\"];", ev.0, node.0, slot);
            }
        }
        for (i, entry) in self.nodes.iter().enumerate() {
            let shape = if entry.named { "doubleoctagon" } else { "box" };
            let _ = writeln!(
                out,
                "  n{} [label={:?} shape={}];",
                i,
                catalog.name(entry.emits),
                shape
            );
            for &(parent, slot) in &entry.parents {
                let _ = writeln!(out, "  n{} -> n{} [label=\"{}\"];", i, parent.0, slot);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Compile `expr` as the definition of the named composite event
    /// `name`, under parameter context `ctx`. Registers `name` in the
    /// catalog (it must not already exist) and returns its event id.
    /// Occurrences of `name` are reported in [`GraphFeedResult::detected`] and
    /// also feed any later-compiled expression that references `name`.
    pub fn compile(
        &mut self,
        catalog: &mut Catalog,
        name: &str,
        expr: &EventExpr,
        ctx: Context,
    ) -> Result<EventId> {
        expr.validate()?;
        if expr.primitive_names().contains(&name) {
            return Err(SnoopError::CyclicDefinition(name.to_owned()));
        }
        let emits = catalog.register(name)?;
        let root = self.build(catalog, expr, ctx)?;
        match root {
            Source::Node(n) => {
                self.nodes[n.0 as usize].emits = emits;
                self.nodes[n.0 as usize].named = true;
            }
            Source::Event(src) => {
                // A pure alias: insert a forwarding OR node with one child.
                let n = self.push_node(Box::new(nodes::or::OrNode::new()), emits, true);
                self.subscribe(Source::Event(src), n, 0);
            }
        }
        Ok(emits)
    }

    fn push_node(&mut self, op: Box<dyn OperatorNode<T>>, emits: EventId, named: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeEntry {
            op,
            emits,
            named,
            parents: Vec::new(),
        });
        id
    }

    fn subscribe(&mut self, src: Source, parent: NodeId, slot: usize) {
        match src {
            Source::Event(e) => self.subs.entry(e).or_default().push((parent, slot)),
            Source::Node(n) => self.nodes[n.0 as usize].parents.push((parent, slot)),
        }
    }

    fn synthetic(&self, catalog: &mut Catalog) -> EventId {
        catalog.intern(&format!("__node_{}", self.nodes.len()))
    }

    fn build(&mut self, catalog: &mut Catalog, expr: &EventExpr, ctx: Context) -> Result<Source> {
        Ok(match expr {
            EventExpr::Primitive(name) => Source::Event(catalog.lookup(name)?),
            EventExpr::And(a, b) => {
                let (sa, sb) = (self.build(catalog, a, ctx)?, self.build(catalog, b, ctx)?);
                let emits = self.synthetic(catalog);
                let n = self.push_node(Box::new(nodes::and::AndNode::new(ctx)), emits, false);
                self.subscribe(sa, n, 0);
                self.subscribe(sb, n, 1);
                Source::Node(n)
            }
            EventExpr::Or(a, b) => {
                let (sa, sb) = (self.build(catalog, a, ctx)?, self.build(catalog, b, ctx)?);
                let emits = self.synthetic(catalog);
                let n = self.push_node(Box::new(nodes::or::OrNode::new()), emits, false);
                self.subscribe(sa, n, 0);
                self.subscribe(sb, n, 1);
                Source::Node(n)
            }
            EventExpr::Seq(a, b) => {
                let (sa, sb) = (self.build(catalog, a, ctx)?, self.build(catalog, b, ctx)?);
                let emits = self.synthetic(catalog);
                let n = self.push_node(Box::new(nodes::seq::SeqNode::new(ctx)), emits, false);
                self.subscribe(sa, n, 0);
                self.subscribe(sb, n, 1);
                Source::Node(n)
            }
            EventExpr::Not {
                guard,
                opener,
                closer,
            } => {
                let so = self.build(catalog, opener, ctx)?;
                let sg = self.build(catalog, guard, ctx)?;
                let sc = self.build(catalog, closer, ctx)?;
                let emits = self.synthetic(catalog);
                let n = self.push_node(Box::new(nodes::not::NotNode::new(ctx)), emits, false);
                self.subscribe(so, n, nodes::not::SLOT_OPENER);
                self.subscribe(sg, n, nodes::not::SLOT_GUARD);
                self.subscribe(sc, n, nodes::not::SLOT_CLOSER);
                Source::Node(n)
            }
            EventExpr::Aperiodic {
                opener,
                mid,
                closer,
            } => {
                let so = self.build(catalog, opener, ctx)?;
                let sm = self.build(catalog, mid, ctx)?;
                let sc = self.build(catalog, closer, ctx)?;
                let emits = self.synthetic(catalog);
                let n = self.push_node(Box::new(nodes::aperiodic::ANode::new(ctx)), emits, false);
                self.subscribe(so, n, nodes::aperiodic::SLOT_OPENER);
                self.subscribe(sm, n, nodes::aperiodic::SLOT_MID);
                self.subscribe(sc, n, nodes::aperiodic::SLOT_CLOSER);
                Source::Node(n)
            }
            EventExpr::AperiodicStar {
                opener,
                mid,
                closer,
            } => {
                let so = self.build(catalog, opener, ctx)?;
                let sm = self.build(catalog, mid, ctx)?;
                let sc = self.build(catalog, closer, ctx)?;
                let emits = self.synthetic(catalog);
                let n = self.push_node(
                    Box::new(nodes::aperiodic::AStarNode::new(ctx)),
                    emits,
                    false,
                );
                self.subscribe(so, n, nodes::aperiodic::SLOT_OPENER);
                self.subscribe(sm, n, nodes::aperiodic::SLOT_MID);
                self.subscribe(sc, n, nodes::aperiodic::SLOT_CLOSER);
                Source::Node(n)
            }
            EventExpr::Periodic {
                opener,
                period,
                closer,
            } => {
                let so = self.build(catalog, opener, ctx)?;
                let sc = self.build(catalog, closer, ctx)?;
                let emits = self.synthetic(catalog);
                let n =
                    self.push_node(Box::new(nodes::periodic::PNode::new(*period)), emits, false);
                self.subscribe(so, n, nodes::periodic::SLOT_OPENER);
                self.subscribe(sc, n, nodes::periodic::SLOT_CLOSER);
                Source::Node(n)
            }
            EventExpr::PeriodicStar {
                opener,
                period,
                closer,
            } => {
                let so = self.build(catalog, opener, ctx)?;
                let sc = self.build(catalog, closer, ctx)?;
                let emits = self.synthetic(catalog);
                let n = self.push_node(
                    Box::new(nodes::periodic::PStarNode::new(*period)),
                    emits,
                    false,
                );
                self.subscribe(so, n, nodes::periodic::SLOT_OPENER);
                self.subscribe(sc, n, nodes::periodic::SLOT_CLOSER);
                Source::Node(n)
            }
            EventExpr::Plus { base, delta } => {
                let sb = self.build(catalog, base, ctx)?;
                let emits = self.synthetic(catalog);
                let n = self.push_node(Box::new(nodes::plus::PlusNode::new(*delta)), emits, false);
                self.subscribe(sb, n, 0);
                Source::Node(n)
            }
            EventExpr::Masked { base, mask } => {
                let sb = self.build(catalog, base, ctx)?;
                let emits = self.synthetic(catalog);
                let n = self.push_node(
                    Box::new(nodes::mask::MaskNode::new(mask.clone())),
                    emits,
                    false,
                );
                self.subscribe(sb, n, 0);
                Source::Node(n)
            }
            EventExpr::Any { m, alternatives } => {
                let sources: Vec<Source> = alternatives
                    .iter()
                    .map(|a| self.build(catalog, a, ctx))
                    .collect::<Result<_>>()?;
                let emits = self.synthetic(catalog);
                let n = self.push_node(
                    Box::new(nodes::any::AnyNode::new(ctx, *m, alternatives.len())),
                    emits,
                    false,
                );
                for (slot, s) in sources.into_iter().enumerate() {
                    self.subscribe(s, n, slot);
                }
                Source::Node(n)
            }
        })
    }

    /// Feed a primitive (or named-composite) occurrence into the graph.
    /// Taking the occurrence by value lets the last subscriber receive it
    /// by move, so single-subscriber delivery (the common case) is
    /// clone-free; see [`EventGraph::feed_ref`] for the borrowing variant.
    pub fn feed(&mut self, occ: Occurrence<T>) -> GraphFeedResult<T> {
        let mut result = GraphFeedResult::new();
        let mut queue: VecDeque<(NodeId, usize, Occurrence<T>)> = VecDeque::new();
        match self.subs.get(&occ.ty) {
            None => return result,
            Some(subs) => {
                let (&(last, last_slot), rest) = subs.split_last().expect("subs are non-empty");
                for &(node, slot) in rest {
                    queue.push_back((node, slot, occ.clone()));
                }
                queue.push_back((last, last_slot, occ));
            }
        }
        self.drain(queue, &mut result);
        result
    }

    /// Feed by reference: clones once per subscriber edge, never for the
    /// graph itself. Callers that fan one occurrence out to several graphs
    /// (the reference interpreter's routing) use this to avoid a clone per
    /// graph.
    pub fn feed_ref(&mut self, occ: &Occurrence<T>) -> GraphFeedResult<T> {
        let mut result = GraphFeedResult::new();
        let mut queue: VecDeque<(NodeId, usize, Occurrence<T>)> = VecDeque::new();
        self.enqueue_subscribers(occ, &mut queue);
        self.drain(queue, &mut result);
        result
    }

    /// Deliver a previously requested timer with the timestamp the driver
    /// assigned to it.
    pub fn fire_timer(&mut self, id: TimerId, time: T) -> Result<GraphFeedResult<T>> {
        let (node, tag) = self
            .timers
            .remove(&id)
            .ok_or(SnoopError::UnknownTimer(id.0))?;
        let mut result = GraphFeedResult::new();
        let mut queue = VecDeque::new();
        let entry = &mut self.nodes[node.0 as usize];
        let mut emissions = Vec::new();
        let mut timer_reqs = Vec::new();
        {
            let mut sink = Sink::new(entry.emits, &mut emissions, &mut timer_reqs);
            entry.op.on_timer(tag, &time, &mut sink);
        }
        self.postprocess(node, emissions, timer_reqs, &mut queue, &mut result);
        self.drain(queue, &mut result);
        Ok(result)
    }

    fn enqueue_subscribers(
        &self,
        occ: &Occurrence<T>,
        queue: &mut VecDeque<(NodeId, usize, Occurrence<T>)>,
    ) {
        if let Some(subs) = self.subs.get(&occ.ty) {
            for &(node, slot) in subs {
                queue.push_back((node, slot, occ.clone()));
            }
        }
    }

    fn drain(
        &mut self,
        mut queue: VecDeque<(NodeId, usize, Occurrence<T>)>,
        result: &mut GraphFeedResult<T>,
    ) {
        while let Some((node, slot, occ)) = queue.pop_front() {
            let entry = &mut self.nodes[node.0 as usize];
            let mut emissions = Vec::new();
            let mut timer_reqs = Vec::new();
            {
                let mut sink = Sink::new(entry.emits, &mut emissions, &mut timer_reqs);
                entry.op.on_child(slot, &occ, &mut sink);
            }
            self.postprocess(node, emissions, timer_reqs, &mut queue, result);
        }
    }

    fn postprocess(
        &mut self,
        node: NodeId,
        emissions: Vec<Occurrence<T>>,
        timer_reqs: Vec<(u64, u64)>,
        queue: &mut VecDeque<(NodeId, usize, Occurrence<T>)>,
        result: &mut GraphFeedResult<T>,
    ) {
        for (tag, delay) in timer_reqs {
            let id = TimerId(self.next_timer);
            self.next_timer += 1;
            self.timers.insert(id, (node, tag));
            result.timers.push(TimerRequest {
                id,
                delay_ticks: delay,
            });
        }
        let entry = &self.nodes[node.0 as usize];
        let named = entry.named;
        for occ in emissions {
            match entry.parents.split_last() {
                Some((&(last, lslot), rest)) => {
                    for &(parent, slot) in rest {
                        queue.push_back((parent, slot, occ.clone()));
                    }
                    if named {
                        queue.push_back((last, lslot, occ.clone()));
                        // Named events also feed graph-level subscribers
                        // (composite events used inside other definitions).
                        self.enqueue_subscribers(&occ, queue);
                        result.detected.push(occ);
                    } else {
                        // Last parent takes the emission by move.
                        queue.push_back((last, lslot, occ));
                    }
                }
                None => {
                    if named {
                        self.enqueue_subscribers(&occ, queue);
                        result.detected.push(occ);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CentralTime;

    fn setup() -> (Catalog, EventGraph<CentralTime>) {
        let mut cat = Catalog::new();
        for n in ["A", "B", "C"] {
            cat.register(n).unwrap();
        }
        (cat, EventGraph::new())
    }

    fn occ(cat: &Catalog, name: &str, t: u64) -> Occurrence<CentralTime> {
        Occurrence::bare(cat.lookup(name).unwrap(), CentralTime(t))
    }

    #[test]
    fn compile_registers_name() {
        let (mut cat, mut g) = setup();
        let id = g
            .compile(
                &mut cat,
                "AB",
                &EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B")),
                Context::Unrestricted,
            )
            .unwrap();
        assert_eq!(cat.lookup("AB").unwrap(), id);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn duplicate_name_rejected() {
        let (mut cat, mut g) = setup();
        let e = EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B"));
        g.compile(&mut cat, "AB", &e, Context::Unrestricted)
            .unwrap();
        assert!(matches!(
            g.compile(&mut cat, "AB", &e, Context::Unrestricted),
            Err(SnoopError::DuplicateEvent(_))
        ));
    }

    #[test]
    fn unknown_leaf_rejected() {
        let (mut cat, mut g) = setup();
        let e = EventExpr::and(EventExpr::prim("A"), EventExpr::prim("ZZZ"));
        assert!(matches!(
            g.compile(&mut cat, "X", &e, Context::Unrestricted),
            Err(SnoopError::UnknownEvent(_))
        ));
    }

    #[test]
    fn cyclic_definition_rejected() {
        let (mut cat, mut g) = setup();
        // "X" referencing "X" — pre-register so the leaf exists, then the
        // cycle check must trip before the duplicate check.
        let e = EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("X"));
        cat.register("X").unwrap();
        assert!(matches!(
            g.compile(&mut cat, "X", &e, Context::Unrestricted),
            Err(SnoopError::CyclicDefinition(_))
        ));
    }

    #[test]
    fn alias_of_primitive_forwards() {
        let (mut cat, mut g) = setup();
        g.compile(
            &mut cat,
            "JustA",
            &EventExpr::prim("A"),
            Context::Unrestricted,
        )
        .unwrap();
        let r = g.feed(occ(&cat, "A", 5));
        assert_eq!(r.detected.len(), 1);
        assert_eq!(cat.name(r.detected[0].ty), "JustA");
        assert_eq!(r.detected[0].time, CentralTime(5));
    }

    #[test]
    fn named_composite_feeds_other_expressions() {
        let (mut cat, mut g) = setup();
        g.compile(
            &mut cat,
            "AB",
            &EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
            Context::Unrestricted,
        )
        .unwrap();
        g.compile(
            &mut cat,
            "ABC",
            &EventExpr::seq(EventExpr::prim("AB"), EventExpr::prim("C")),
            Context::Unrestricted,
        )
        .unwrap();
        g.feed(occ(&cat, "A", 1));
        g.feed(occ(&cat, "B", 2));
        let r = g.feed(occ(&cat, "C", 3));
        let names: Vec<&str> = r.detected.iter().map(|o| cat.name(o.ty)).collect();
        assert_eq!(names, vec!["ABC"]);
    }

    #[test]
    fn feed_of_unsubscribed_event_is_noop() {
        let (mut cat, mut g) = setup();
        g.compile(
            &mut cat,
            "AB",
            &EventExpr::and(EventExpr::prim("A"), EventExpr::prim("B")),
            Context::Unrestricted,
        )
        .unwrap();
        let r = g.feed(occ(&cat, "C", 1));
        assert!(r.detected.is_empty());
        assert!(r.timers.is_empty());
    }

    #[test]
    fn unknown_timer_errors() {
        let (_, mut g) = setup();
        assert!(matches!(
            g.fire_timer(TimerId(42), CentralTime(1)),
            Err(SnoopError::UnknownTimer(42))
        ));
    }
}
