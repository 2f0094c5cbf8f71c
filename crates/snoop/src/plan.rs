//! Shared, hash-consed plan IR with cross-definition operator sharing.
//!
//! [`crate::ReferenceDetector`] compiles every definition into its own
//! [`crate::graph::EventGraph`], so `Seq(A, B)` appearing under ten
//! definitions is compiled — and fed — ten times. [`PlanDetector`]
//! compiles all definitions into **one** plan of unique operator nodes:
//! structurally identical subexpressions (same operator, same context,
//! same children) hash-cons to a single [`PlanNode`] with multi-parent
//! fan-out, and each definition keeps a lightweight [`DefView`] of
//! *positions* (one per subexpression occurrence) that routes the shared
//! node's output to the definition's own parents.
//!
//! # Bit-for-bit equivalence
//!
//! The plan reproduces the reference interpreter's output exactly — same
//! detections, same order, same timer tags — which `tests/prop_plan.rs`
//! pins property-style. Three mechanisms make this work:
//!
//! * **Execute-once + replay log** for stateful operators (`∧`, `;`, `¬`,
//!   `A`, `A*`, `ANY`): the first definition cursor to reach a shared node
//!   for a given delivery executes the operator and logs the emissions;
//!   later cursors *replay* the log, re-stamping each emission with their
//!   own synthetic event type and a fresh uid — exactly what their private
//!   copy of the operator would have produced (these operators only emit
//!   combined occurrences, which always carry fresh uids).
//! * **Always re-execute** for stateless forwarders (`∨`, masks,
//!   aliases): forwarding preserves the *input* occurrence's uid, which
//!   the self-pairing guard upstream operators apply depends on
//!   (`E ∧ E` must not pair an occurrence with itself). Re-executing a
//!   pure forwarder per position is free and keeps each definition's uid
//!   flow identical to independent compilation.
//! * **No consing of temporal operators** (`+`, `P`, `P*`): their timer
//!   tags and periodic state are driver-visible, so each definition keeps
//!   a private node (their *subexpressions* still share). Since cons keys
//!   embed child node ids, every ancestor of a temporal operator is
//!   automatically private too.
//!
//! Structural consing is deliberately **not** modulo commutativity:
//! `And(a, b)` and `And(b, a)` build their children in opposite order, so
//! a shared trigger reaches the two operand slots in opposite order and
//! the emitted parameter lists differ. Canonicalization (see
//! [`crate::expr::EventExpr::canonicalize`]) exists at the expression
//! layer for callers that *want* to opt into commutative normalization
//! before defining.

use crate::batch::EventBatch;
use crate::context::Context;
use crate::error::{Result, SnoopError};
use crate::event::{Catalog, EventId, Occurrence};
use crate::expr::EventExpr;
use crate::graph::{FeedResult, TimerId, TimerRequest};
use crate::nodes::mask::Mask;
use crate::nodes::{self, OperatorNode, Sink};
use crate::state::{DefTimers, PlanState};
use crate::time::EventTime;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Index of a definition (timer handles and routes are keyed by it).
pub type ShardId = usize;

/// Everything one feed/fire step produced.
#[derive(Debug, Clone)]
pub struct ShardFeedResult<T> {
    /// Occurrences of named composite events, in canonical merge order.
    pub detected: Vec<Occurrence<T>>,
    /// New timer requests, tagged with the definition that owns the timer
    /// id (timer ids are only unique within a definition).
    pub timers: Vec<(ShardId, TimerRequest)>,
}

impl<T> Default for ShardFeedResult<T> {
    fn default() -> Self {
        ShardFeedResult {
            detected: Vec::new(),
            timers: Vec::new(),
        }
    }
}

/// Canonical `(composite-timestamp, definition-id)` order for merging one
/// trigger's round of detections. Stable, so equal keys keep definition
/// order.
pub(crate) fn sort_canonical<T: EventTime>(round: &mut [Occurrence<T>]) {
    round.sort_by(|a, b| a.time.canonical_cmp(&b.time).then(a.ty.0.cmp(&b.ty.0)));
}

/// What a plan node's operand subscribes to: a leaf event type or another
/// plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ChildKey {
    /// A primitive (or referenced named-composite) event type.
    Event(EventId),
    /// An internal plan node, by index.
    Node(usize),
}

/// Structural hash-consing key: operator + context + children. Two
/// subexpressions build the same plan node iff their keys are equal.
/// `Or`/`Mask`/`Alias` carry no context (the operators ignore it);
/// temporal operators never get a key (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ConsKey {
    Alias(ChildKey),
    And(Context, ChildKey, ChildKey),
    Or(ChildKey, ChildKey),
    Seq(Context, ChildKey, ChildKey),
    Not(Context, ChildKey, ChildKey, ChildKey),
    Aperiodic(Context, ChildKey, ChildKey, ChildKey),
    AperiodicStar(Context, ChildKey, ChildKey, ChildKey),
    Any(Context, usize, Vec<ChildKey>),
    Mask(Mask, ChildKey),
}

/// One unique operator instance in the shared plan.
pub(crate) struct PlanNode<T: EventTime> {
    pub(crate) op: Box<dyn OperatorNode<T>>,
    /// Every `(definition, position)` bound to this node, in bind order.
    /// Length > 1 means the node is shared.
    pub(crate) bound: Vec<(u32, u32)>,
    /// Operand sources `(child, slot)` in subscribe order (dot export).
    pub(crate) children: Vec<(ChildKey, usize)>,
    /// Operator label for diagnostics/dot.
    pub(crate) label: &'static str,
    /// Pure forwarders re-execute per position instead of logging.
    pub(crate) stateless: bool,
    /// Deliveries executed on this node so far.
    pub(crate) exec: u64,
    /// Delivery index of `log[0]` (trimmed prefix).
    pub(crate) base: u64,
    /// Emissions of each executed delivery still awaiting replay.
    pub(crate) log: Vec<Vec<Occurrence<T>>>,
}

impl<T: EventTime> fmt::Debug for PlanNode<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanNode")
            .field("label", &self.label)
            .field("bound", &self.bound)
            .field("children", &self.children)
            .field("stateless", &self.stateless)
            .field("exec", &self.exec)
            .finish()
    }
}

/// One subexpression occurrence inside a definition: which plan node
/// implements it, what event type its emissions carry for *this*
/// definition, and where they go next.
#[derive(Debug)]
pub(crate) struct Position {
    /// The plan node implementing this subexpression.
    pub(crate) node: usize,
    /// Synthetic (or, at the root, named) event type of this position.
    pub(crate) emits: EventId,
    /// Whether `emits` is the definition's user-visible name.
    pub(crate) named: bool,
    /// Subscribing parent positions `(position, slot)` within the same
    /// definition.
    pub(crate) parents: Vec<(u32, usize)>,
    /// Deliveries this cursor has consumed from `node` (equals the node's
    /// `exec` whenever the detector is quiescent).
    pub(crate) seen: u64,
}

/// A definition's private view of the shared plan.
#[derive(Debug)]
pub(crate) struct DefView {
    /// The named composite event this definition detects.
    pub(crate) emits: EventId,
    /// Event types that can make this definition react.
    pub(crate) subscribed: BTreeSet<EventId>,
    /// Subexpression positions in build (bottom-up) order.
    pub(crate) positions: Vec<Position>,
    /// Leaf event type → subscribing positions `(position, slot)`, indexed
    /// densely by `EventId` like the detector's routes (an empty slot = no
    /// subscription).
    pub(crate) subs: Vec<Vec<(u32, usize)>>,
    /// Outstanding timers → `(position, node-internal tag)`.
    pub(crate) timers: HashMap<TimerId, (u32, u64)>,
    pub(crate) next_timer: u64,
}

impl DefView {
    /// Subscribe position `p`'s operand `slot` to leaf event type `e`.
    fn subscribe(&mut self, e: EventId, p: u32, slot: usize) {
        let i = e.0 as usize;
        if i >= self.subs.len() {
            self.subs.resize_with(i + 1, Vec::new);
        }
        self.subs[i].push((p, slot));
    }
}

/// Where a compiled subexpression delivers its occurrences from.
#[derive(Clone, Copy)]
enum Src {
    /// A leaf event type (primitive or previously named composite).
    Event(EventId),
    /// A position (by index) in the definition under construction.
    Pos(u32),
}

fn key_of(def: &DefView, s: Src) -> ChildKey {
    match s {
        Src::Event(e) => ChildKey::Event(e),
        Src::Pos(p) => ChildKey::Node(def.positions[p as usize].node),
    }
}

/// Deliver `occ` to `pos`'s plan node on operand `slot`, appending the
/// emissions (typed for this position) and any timer requests to the
/// given (empty) buffers.
fn deliver<T: EventTime>(
    nodes: &mut [PlanNode<T>],
    pos: &mut Position,
    slot: usize,
    occ: &Occurrence<T>,
    emissions: &mut Vec<Occurrence<T>>,
    timer_reqs: &mut Vec<(u64, u64)>,
) {
    debug_assert!(emissions.is_empty() && timer_reqs.is_empty());
    let node = &mut nodes[pos.node];
    if node.stateless {
        // Pure forwarder: re-execute per position so each definition's
        // emission keeps its own input's uid (self-pairing guard).
        let mut sink = Sink::new(pos.emits, emissions, timer_reqs);
        node.op.on_child(slot, occ, &mut sink);
        return;
    }
    if node.bound.len() == 1 {
        // Private node: plain execution, counters kept in lockstep so a
        // later define may still cons onto it while `exec == 0`.
        let mut sink = Sink::new(pos.emits, emissions, timer_reqs);
        node.op.on_child(slot, occ, &mut sink);
        node.exec += 1;
        pos.seen += 1;
        return;
    }
    if pos.seen == node.exec {
        // First cursor to arrive: execute once and log for the others.
        {
            let mut sink = Sink::new(pos.emits, emissions, timer_reqs);
            node.op.on_child(slot, occ, &mut sink);
        }
        debug_assert!(
            timer_reqs.is_empty(),
            "shared stateful nodes never request timers"
        );
        node.log.push(emissions.clone());
        node.exec += 1;
        pos.seen += 1;
    } else {
        // Replay: re-stamp each logged emission with this position's event
        // type and a fresh uid — exactly what a private copy's combining
        // emission would have carried.
        debug_assert!(pos.seen < node.exec, "cursor ahead of node execution");
        let idx = (pos.seen - node.base) as usize;
        emissions.extend(
            node.log[idx]
                .iter()
                .map(|e| Occurrence::with_params(pos.emits, e.time.clone(), e.params.clone())),
        );
        pos.seen += 1;
    }
}

/// Buffers of one definition's cascade for one trigger, reused across
/// triggers and definitions: the BFS delivery queue, one delivery's
/// emissions and timer requests, and what the definition produced. The
/// caller drains `result` after each definition; every buffer is empty
/// between triggers.
#[derive(Debug)]
struct DefScratch<T> {
    queue: VecDeque<(u32, usize, Occurrence<T>)>,
    emissions: Vec<Occurrence<T>>,
    timer_reqs: Vec<(u64, u64)>,
    result: FeedResult<T>,
}

impl<T> Default for DefScratch<T> {
    fn default() -> Self {
        DefScratch {
            queue: VecDeque::new(),
            emissions: Vec::new(),
            timer_reqs: Vec::new(),
            result: FeedResult {
                detected: Vec::new(),
                timers: Vec::new(),
            },
        }
    }
}

/// Route the emission batch staged in `s` from position `p`: register
/// timers, enqueue parent deliveries, record named detections. Each
/// emission is cloned once per subscriber *minus one* — the last parent
/// (or, for a named position with no parents, the detection list)
/// receives it by move.
fn postprocess_def<T: EventTime>(def: &mut DefView, p: u32, s: &mut DefScratch<T>) {
    let DefScratch {
        queue,
        emissions,
        timer_reqs,
        result,
    } = s;
    for (tag, delay) in timer_reqs.drain(..) {
        let id = TimerId(def.next_timer);
        def.next_timer += 1;
        def.timers.insert(id, (p, tag));
        result.timers.push(TimerRequest {
            id,
            delay_ticks: delay,
        });
    }
    let pos = &def.positions[p as usize];
    let named = pos.named;
    for occ in emissions.drain(..) {
        match pos.parents.split_last() {
            Some((&(last, lslot), rest)) => {
                for &(parent, slot) in rest {
                    queue.push_back((parent, slot, occ.clone()));
                }
                if named {
                    queue.push_back((last, lslot, occ.clone()));
                    result.detected.push(occ);
                } else {
                    queue.push_back((last, lslot, occ));
                }
            }
            None => {
                if named {
                    result.detected.push(occ);
                }
            }
        }
    }
}

/// BFS over one definition's queued deliveries; the queue is empty again
/// on return.
fn drain_def<T: EventTime>(nodes: &mut [PlanNode<T>], def: &mut DefView, s: &mut DefScratch<T>) {
    while let Some((p, slot, occ)) = s.queue.pop_front() {
        let pos = &mut def.positions[p as usize];
        deliver(nodes, pos, slot, &occ, &mut s.emissions, &mut s.timer_reqs);
        postprocess_def(def, p, s);
    }
}

/// Leaf subscriptions of `def` to `ty` (empty = none).
fn subs_of(def: &DefView, ty: EventId) -> &[(u32, usize)] {
    def.subs.get(ty.0 as usize).map_or(&[], Vec::as_slice)
}

/// Feed one occurrence through one definition's view of the plan,
/// appending what it produced to `s.result`.
fn feed_def_into<T: EventTime>(
    nodes: &mut [PlanNode<T>],
    def: &mut DefView,
    occ: &Occurrence<T>,
    s: &mut DefScratch<T>,
) {
    debug_assert!(s.queue.is_empty(), "scratch queue must start empty");
    for &(p, slot) in subs_of(def, occ.ty) {
        s.queue.push_back((p, slot, occ.clone()));
    }
    drain_def(nodes, def, s);
}

/// Like [`feed_def_into`] but takes the trigger by move: the last
/// subscribing position receives the original, the rest clones — the
/// common single-subscriber route never clones at all.
fn feed_def_into_owned<T: EventTime>(
    nodes: &mut [PlanNode<T>],
    def: &mut DefView,
    occ: Occurrence<T>,
    s: &mut DefScratch<T>,
) {
    debug_assert!(s.queue.is_empty(), "scratch queue must start empty");
    let Some((&(last, lslot), rest)) = subs_of(def, occ.ty).split_last() else {
        return;
    };
    for &(p, slot) in rest {
        s.queue.push_back((p, slot, occ.clone()));
    }
    s.queue.push_back((last, lslot, occ));
    drain_def(nodes, def, s);
}

/// Counts describing a compiled plan's degree of sharing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Unique operator nodes in the plan.
    pub plan_nodes: usize,
    /// Plan nodes bound by more than one `(definition, position)`.
    pub shared_nodes: usize,
    /// Total subexpression positions across all definitions (what an
    /// unshared compilation would have built as nodes).
    pub position_count: usize,
    /// `1 - plan_nodes / position_count`: fraction of operator instances
    /// eliminated by sharing (0 with no definitions).
    pub sharing_ratio: f64,
}

/// Reusable hot-path buffers for the serial cascade. Kept on the
/// detector so the per-event loop of a batch feed allocates only what it
/// emits: the current wave, the next wave, the per-trigger detection
/// round and the per-definition cascade buffers all recycle their
/// capacity across triggers. Every buffer is empty between public calls.
#[derive(Debug)]
struct Scratch<T> {
    wave: Vec<Occurrence<T>>,
    next: Vec<Occurrence<T>>,
    round: Vec<Occurrence<T>>,
    def: DefScratch<T>,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch {
            wave: Vec::new(),
            next: Vec::new(),
            round: Vec::new(),
            def: DefScratch::default(),
        }
    }
}

/// A catalog plus **one shared plan** across all composite definitions,
/// with per-definition views routing occurrences through it.
///
/// Bit-for-bit identical output to [`crate::ReferenceDetector`] — same
/// detections in the same order, same timer tags — but structurally
/// identical subexpressions across definitions execute once instead of
/// once per definition.
#[derive(Debug, Default)]
pub struct PlanDetector<T: EventTime> {
    catalog: Catalog,
    nodes: Vec<PlanNode<T>>,
    cons: HashMap<ConsKey, usize>,
    defs: Vec<DefView>,
    /// Event type → definitions subscribed to it, ascending. Indexed
    /// densely by `EventId` (an empty slot = unrouted) so the hot path
    /// routes with one bounds-checked load instead of a hash.
    routes: Vec<Vec<ShardId>>,
    /// Reusable hot-path buffers (empty between public calls).
    scratch: Scratch<T>,
    /// Topological level of each definition in the dependency DAG.
    levels: Vec<usize>,
    /// Cascade severing (see [`Self::set_cascade`]): when true, named
    /// detections are reported but never re-enter the wave as triggers.
    severed: bool,
}

impl<T: EventTime> PlanDetector<T> {
    /// An empty detector.
    pub fn new() -> Self {
        PlanDetector {
            catalog: Catalog::new(),
            nodes: Vec::new(),
            cons: HashMap::new(),
            defs: Vec::new(),
            routes: Vec::new(),
            scratch: Scratch::default(),
            levels: Vec::new(),
            severed: false,
        }
    }

    /// Enable or sever the detection cascade. With the cascade severed
    /// (`enabled == false`), a named composite detection is still reported
    /// in the feed result but is **not** re-fed to the definitions that
    /// subscribe to it — the caller owns cross-definition routing (a
    /// partitioned deployment where the subscribing definition may live on
    /// another detector replica). Default is enabled.
    pub fn set_cascade(&mut self, enabled: bool) {
        self.severed = !enabled;
    }

    /// Register a primitive event type.
    pub fn register(&mut self, name: &str) -> Result<EventId> {
        self.catalog.register(name)
    }

    /// Define a named composite event, hash-consing its subexpressions
    /// into the shared plan.
    pub fn define(&mut self, name: &str, expr: &EventExpr, ctx: Context) -> Result<EventId> {
        expr.validate()?;
        if expr.primitive_names().contains(&name) {
            return Err(SnoopError::CyclicDefinition(name.to_owned()));
        }
        let emits = self.catalog.register(name)?;
        // Pre-resolve every leaf so the build below is infallible (a
        // failed define leaves no orphan nodes in the shared plan).
        for leaf in expr.primitive_names() {
            self.catalog.lookup(leaf)?;
        }
        let d = self.defs.len();
        let mut def = DefView {
            emits,
            subscribed: BTreeSet::new(),
            positions: Vec::new(),
            subs: Vec::new(),
            timers: HashMap::new(),
            next_timer: 0,
        };
        let root = self.build(d, &mut def, expr, ctx);
        match root {
            Src::Pos(p) => {
                def.positions[p as usize].emits = emits;
                def.positions[p as usize].named = true;
            }
            Src::Event(e) => {
                // A pure alias: a forwarding OR node with one child. The
                // oracle gives the alias node the registered name directly
                // (no synthetic intern), so bind specially here.
                let key = ConsKey::Alias(ChildKey::Event(e));
                let n = self.cons_node(key, &[(ChildKey::Event(e), 0)], "alias", true, || {
                    Box::new(nodes::or::OrNode::new())
                });
                let p = def.positions.len() as u32;
                let seen = self.nodes[n].exec;
                self.nodes[n].bound.push((d as u32, p));
                def.positions.push(Position {
                    node: n,
                    emits,
                    named: true,
                    parents: Vec::new(),
                    seen,
                });
                def.subscribe(e, p, 0);
            }
        }
        def.subscribed = (0..def.subs.len() as u32)
            .map(EventId)
            .filter(|&e| !subs_of(&def, e).is_empty())
            .collect();
        let level = def
            .subscribed
            .iter()
            .filter_map(|ty| {
                self.defs
                    .iter()
                    .position(|dv| dv.emits == *ty)
                    .map(|j| self.levels[j] + 1)
            })
            .max()
            .unwrap_or(0);
        for &ty in &def.subscribed {
            let slot = ty.0 as usize;
            if slot >= self.routes.len() {
                self.routes.resize_with(slot + 1, Vec::new);
            }
            self.routes[slot].push(d);
        }
        self.levels.push(level);
        self.defs.push(def);
        Ok(emits)
    }

    /// Reuse a structurally identical node if one exists (and is safe to
    /// share), else push a fresh one. A stateful node is only reused while
    /// it has never executed a delivery — a later define must not inherit
    /// accumulated operator state the oracle's fresh graph would lack.
    fn cons_node(
        &mut self,
        key: ConsKey,
        children: &[(ChildKey, usize)],
        label: &'static str,
        stateless: bool,
        mk: impl FnOnce() -> Box<dyn OperatorNode<T>>,
    ) -> usize {
        if let Some(&n) = self.cons.get(&key) {
            if stateless || self.nodes[n].exec == 0 {
                return n;
            }
        }
        let n = self.nodes.len();
        self.nodes.push(PlanNode {
            op: mk(),
            bound: Vec::new(),
            children: children.to_vec(),
            label,
            stateless,
            exec: 0,
            base: 0,
            log: Vec::new(),
        });
        self.cons.insert(key, n);
        n
    }

    /// Push a node that must stay private (temporal operators).
    fn fresh_node(
        &mut self,
        children: &[(ChildKey, usize)],
        label: &'static str,
        op: Box<dyn OperatorNode<T>>,
    ) -> usize {
        let n = self.nodes.len();
        self.nodes.push(PlanNode {
            op,
            bound: Vec::new(),
            children: children.to_vec(),
            label,
            stateless: false,
            exec: 0,
            base: 0,
            log: Vec::new(),
        });
        n
    }

    /// Bind `node` as the next position of definition `d`, interning the
    /// per-definition synthetic event type and wiring the operand
    /// subscriptions. Matches the oracle's catalog intern sequence exactly
    /// (`__node_{k}` for the k-th node of each definition's graph).
    fn bind(&mut self, d: usize, def: &mut DefView, node: usize, children: &[(Src, usize)]) -> Src {
        let p = def.positions.len() as u32;
        let emits = self.catalog.intern(&format!("__node_{p}"));
        let seen = self.nodes[node].exec;
        self.nodes[node].bound.push((d as u32, p));
        def.positions.push(Position {
            node,
            emits,
            named: false,
            parents: Vec::new(),
            seen,
        });
        for &(src, slot) in children {
            match src {
                Src::Event(e) => def.subscribe(e, p, slot),
                Src::Pos(c) => def.positions[c as usize].parents.push((p, slot)),
            }
        }
        Src::Pos(p)
    }

    fn build(&mut self, d: usize, def: &mut DefView, expr: &EventExpr, ctx: Context) -> Src {
        match expr {
            EventExpr::Primitive(name) => Src::Event(
                self.catalog
                    .lookup(name)
                    .expect("leaves pre-resolved in define"),
            ),
            EventExpr::And(a, b) => {
                let sa = self.build(d, def, a, ctx);
                let sb = self.build(d, def, b, ctx);
                let (ka, kb) = (key_of(def, sa), key_of(def, sb));
                let n = self.cons_node(
                    ConsKey::And(ctx, ka, kb),
                    &[(ka, 0), (kb, 1)],
                    "and",
                    false,
                    || Box::new(nodes::and::AndNode::new(ctx)),
                );
                self.bind(d, def, n, &[(sa, 0), (sb, 1)])
            }
            EventExpr::Or(a, b) => {
                let sa = self.build(d, def, a, ctx);
                let sb = self.build(d, def, b, ctx);
                let (ka, kb) = (key_of(def, sa), key_of(def, sb));
                let n =
                    self.cons_node(ConsKey::Or(ka, kb), &[(ka, 0), (kb, 1)], "or", true, || {
                        Box::new(nodes::or::OrNode::new())
                    });
                self.bind(d, def, n, &[(sa, 0), (sb, 1)])
            }
            EventExpr::Seq(a, b) => {
                let sa = self.build(d, def, a, ctx);
                let sb = self.build(d, def, b, ctx);
                let (ka, kb) = (key_of(def, sa), key_of(def, sb));
                let n = self.cons_node(
                    ConsKey::Seq(ctx, ka, kb),
                    &[(ka, 0), (kb, 1)],
                    "seq",
                    false,
                    || Box::new(nodes::seq::SeqNode::new(ctx)),
                );
                self.bind(d, def, n, &[(sa, 0), (sb, 1)])
            }
            EventExpr::Not {
                guard,
                opener,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sg = self.build(d, def, guard, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, kg, kc) = (key_of(def, so), key_of(def, sg), key_of(def, sc));
                let n = self.cons_node(
                    ConsKey::Not(ctx, ko, kg, kc),
                    &[
                        (ko, nodes::not::SLOT_OPENER),
                        (kg, nodes::not::SLOT_GUARD),
                        (kc, nodes::not::SLOT_CLOSER),
                    ],
                    "not",
                    false,
                    || Box::new(nodes::not::NotNode::new(ctx)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::not::SLOT_OPENER),
                        (sg, nodes::not::SLOT_GUARD),
                        (sc, nodes::not::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::Aperiodic {
                opener,
                mid,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sm = self.build(d, def, mid, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, km, kc) = (key_of(def, so), key_of(def, sm), key_of(def, sc));
                let n = self.cons_node(
                    ConsKey::Aperiodic(ctx, ko, km, kc),
                    &[
                        (ko, nodes::aperiodic::SLOT_OPENER),
                        (km, nodes::aperiodic::SLOT_MID),
                        (kc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                    "aperiodic",
                    false,
                    || Box::new(nodes::aperiodic::ANode::new(ctx)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::aperiodic::SLOT_OPENER),
                        (sm, nodes::aperiodic::SLOT_MID),
                        (sc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::AperiodicStar {
                opener,
                mid,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sm = self.build(d, def, mid, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, km, kc) = (key_of(def, so), key_of(def, sm), key_of(def, sc));
                let n = self.cons_node(
                    ConsKey::AperiodicStar(ctx, ko, km, kc),
                    &[
                        (ko, nodes::aperiodic::SLOT_OPENER),
                        (km, nodes::aperiodic::SLOT_MID),
                        (kc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                    "aperiodic*",
                    false,
                    || Box::new(nodes::aperiodic::AStarNode::new(ctx)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::aperiodic::SLOT_OPENER),
                        (sm, nodes::aperiodic::SLOT_MID),
                        (sc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::Periodic {
                opener,
                period,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, kc) = (key_of(def, so), key_of(def, sc));
                let n = self.fresh_node(
                    &[
                        (ko, nodes::periodic::SLOT_OPENER),
                        (kc, nodes::periodic::SLOT_CLOSER),
                    ],
                    "periodic",
                    Box::new(nodes::periodic::PNode::new(*period)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::periodic::SLOT_OPENER),
                        (sc, nodes::periodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::PeriodicStar {
                opener,
                period,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, kc) = (key_of(def, so), key_of(def, sc));
                let n = self.fresh_node(
                    &[
                        (ko, nodes::periodic::SLOT_OPENER),
                        (kc, nodes::periodic::SLOT_CLOSER),
                    ],
                    "periodic*",
                    Box::new(nodes::periodic::PStarNode::new(*period)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::periodic::SLOT_OPENER),
                        (sc, nodes::periodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::Plus { base, delta } => {
                let sb = self.build(d, def, base, ctx);
                let kb = key_of(def, sb);
                let n = self.fresh_node(
                    &[(kb, 0)],
                    "plus",
                    Box::new(nodes::plus::PlusNode::new(*delta)),
                );
                self.bind(d, def, n, &[(sb, 0)])
            }
            EventExpr::Masked { base, mask } => {
                let sb = self.build(d, def, base, ctx);
                let kb = key_of(def, sb);
                let n = self.cons_node(
                    ConsKey::Mask(mask.clone(), kb),
                    &[(kb, 0)],
                    "mask",
                    true,
                    || Box::new(nodes::mask::MaskNode::new(mask.clone())),
                );
                self.bind(d, def, n, &[(sb, 0)])
            }
            EventExpr::Any { m, alternatives } => {
                let sources: Vec<Src> = alternatives
                    .iter()
                    .map(|a| self.build(d, def, a, ctx))
                    .collect();
                let keys: Vec<ChildKey> = sources.iter().map(|&s| key_of(def, s)).collect();
                let children: Vec<(ChildKey, usize)> = keys
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, k)| (k, i))
                    .collect();
                let n =
                    self.cons_node(ConsKey::Any(ctx, *m, keys), &children, "any", false, || {
                        Box::new(nodes::any::AnyNode::new(ctx, *m, alternatives.len()))
                    });
                let wired: Vec<(Src, usize)> = sources
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, s)| (s, i))
                    .collect();
                self.bind(d, def, n, &wired)
            }
        }
    }

    /// The catalog (name ↔ id mapping).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of definitions (timer handles and routes are keyed by
    /// definition index).
    pub fn shard_count(&self) -> usize {
        self.defs.len()
    }

    /// Topological level of definition `d` in the dependency DAG.
    pub fn shard_level(&self, d: ShardId) -> usize {
        self.levels[d]
    }

    /// Number of topological stages in the definition dependency DAG.
    pub fn stage_count(&self) -> usize {
        self.levels.iter().max().map_or(0, |m| m + 1)
    }

    /// Event types definition `d` subscribes to, ascending.
    pub fn shard_subscriptions(&self, d: ShardId) -> impl Iterator<Item = EventId> + '_ {
        self.defs[d].subscribed.iter().copied()
    }

    /// The definitions subscribed to `ty`, ascending (empty = unrouted).
    fn route(&self, ty: EventId) -> &[ShardId] {
        self.routes.get(ty.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Smallest timer delay any node can request, or `None` when no
    /// definition uses a temporal operator. Runs **once per plan node**,
    /// not once per definition.
    pub fn min_timer_delay(&self) -> Option<u64> {
        self.nodes
            .iter()
            .filter_map(|n| n.op.min_timer_delay())
            .min()
    }

    /// Total outstanding timers across all definitions.
    pub fn pending_timer_count(&self) -> usize {
        self.defs.iter().map(|d| d.timers.len()).sum()
    }

    /// Advance the low watermark: operator GC runs **once per shared
    /// node** instead of once per definition copy. Returns the evicted
    /// count (counted per unique node, so it is legitimately lower than
    /// an unshared detector's on the same workload).
    pub fn advance_watermark(&mut self, low: u64) -> u64 {
        self.nodes.iter_mut().map(|n| n.op.on_watermark(low)).sum()
    }

    /// Total occurrences buffered across all plan nodes (per unique node;
    /// see [`Self::advance_watermark`] on comparability).
    pub fn buffered_occupancy(&self) -> usize {
        self.nodes.iter().map(|n| n.op.buffered_len()).sum()
    }

    /// Unique operator nodes in the plan.
    pub fn plan_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Plan nodes bound by more than one position.
    pub fn shared_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.bound.len() > 1).count()
    }

    /// Total subexpression positions across all definitions.
    pub fn position_count(&self) -> usize {
        self.defs.iter().map(|d| d.positions.len()).sum()
    }

    /// Sharing counters for metrics export.
    pub fn plan_stats(&self) -> PlanStats {
        let plan_nodes = self.plan_node_count();
        let positions = self.position_count();
        PlanStats {
            plan_nodes,
            shared_nodes: self.shared_node_count(),
            position_count: positions,
            sharing_ratio: if positions == 0 {
                0.0
            } else {
                1.0 - plan_nodes as f64 / positions as f64
            },
        }
    }

    /// Feed one occurrence, cascading named detections (canonical order)
    /// into the definitions that reference them.
    pub fn feed(&mut self, occ: Occurrence<T>) -> ShardFeedResult<T> {
        let mut out = ShardFeedResult::default();
        self.pump_one(occ, &mut out);
        self.trim_logs();
        out
    }

    /// Deliver a previously requested timer on the definition that owns
    /// it. Temporal nodes are always private, so this never touches the
    /// shared log.
    pub fn fire_timer(&mut self, d: ShardId, id: TimerId, time: T) -> Result<ShardFeedResult<T>> {
        let (p, tag) = self.defs[d]
            .timers
            .remove(&id)
            .ok_or(SnoopError::UnknownTimer(id.0))?;
        let mut s = DefScratch::default();
        {
            let def = &self.defs[d];
            let pos = &def.positions[p as usize];
            let node = &mut self.nodes[pos.node];
            debug_assert_eq!(node.bound.len(), 1, "timer nodes are private");
            let mut sink = Sink::new(pos.emits, &mut s.emissions, &mut s.timer_reqs);
            node.op.on_timer(tag, &time, &mut sink);
        }
        postprocess_def(&mut self.defs[d], p, &mut s);
        drain_def(&mut self.nodes, &mut self.defs[d], &mut s);
        let mut out = ShardFeedResult::default();
        out.timers
            .extend(s.result.timers.into_iter().map(|t| (d, t)));
        let mut round = s.result.detected;
        sort_canonical(&mut round);
        if self.severed {
            out.detected.extend(round);
        } else {
            let mut wave = Vec::new();
            for det in round {
                if !self.route(det.ty).is_empty() {
                    wave.push(det.clone());
                }
                out.detected.push(det);
            }
            self.pump(wave, &mut out);
        }
        self.trim_logs();
        Ok(out)
    }

    /// Feed a whole batch; semantically identical to feeding each
    /// occurrence in order.
    pub fn feed_batch(&mut self, occs: Vec<Occurrence<T>>) -> ShardFeedResult<T> {
        let mut out = ShardFeedResult::default();
        for occ in occs {
            self.pump_one(occ, &mut out);
        }
        self.trim_logs();
        out
    }

    /// Feed a columnar batch: only routed rows are ever materialized into
    /// occurrences (an unrouted primitive type cannot contribute to any
    /// detection), then the batch path takes over. Bit-identical to
    /// materializing every row and calling [`Self::feed_batch`].
    pub fn feed_batch_columnar(&mut self, batch: &EventBatch<T>) -> ShardFeedResult<T> {
        let occs = batch.materialize_routed(|ty| !self.route(ty).is_empty());
        self.feed_batch(occs)
    }

    /// BFS cascade for a single trigger, on the detector scratch: the
    /// per-event loop of a serial batch feed allocates nothing.
    fn pump_one(&mut self, occ: Occurrence<T>, out: &mut ShardFeedResult<T>) {
        let mut s = std::mem::take(&mut self.scratch);
        debug_assert!(s.wave.is_empty());
        s.wave.push(occ);
        self.run_waves(&mut s, out);
        self.scratch = s;
    }

    /// BFS cascade: serial waves until no detections remain.
    fn pump(&mut self, wave: Vec<Occurrence<T>>, out: &mut ShardFeedResult<T>) {
        let mut s = std::mem::take(&mut self.scratch);
        debug_assert!(s.wave.is_empty());
        s.wave.extend(wave);
        self.run_waves(&mut s, out);
        self.scratch = s;
    }

    fn run_waves(&mut self, s: &mut Scratch<T>, out: &mut ShardFeedResult<T>) {
        while !s.wave.is_empty() {
            self.wave_step(s, out);
            std::mem::swap(&mut s.wave, &mut s.next);
        }
    }

    /// Run one cascade wave serially: route each occurrence of `s.wave`
    /// to the subscribed definitions (ascending), canonically merge the
    /// per-trigger detections into `out` and `s.next`. Each trigger moves
    /// into the *last* subscribed definition — the common single-route
    /// case never clones it — and a detection is cloned into `s.next` only
    /// when some definition subscribes to its type (an unrouted trigger
    /// would be skipped by the next wave anyway).
    fn wave_step(&mut self, s: &mut Scratch<T>, out: &mut ShardFeedResult<T>) {
        let severed = self.severed;
        let PlanDetector {
            routes,
            nodes,
            defs,
            ..
        } = self;
        let Scratch {
            wave,
            next,
            round,
            def: ds,
        } = s;
        let route = |ty: EventId| routes.get(ty.0 as usize).map_or(&[][..], Vec::as_slice);
        for occ in wave.drain(..) {
            let Some((&last, rest)) = route(occ.ty).split_last() else {
                continue;
            };
            debug_assert!(round.is_empty());
            for &d in rest {
                feed_def_into(nodes, &mut defs[d], &occ, ds);
                out.timers
                    .extend(ds.result.timers.drain(..).map(|t| (d, t)));
                round.append(&mut ds.result.detected);
            }
            feed_def_into_owned(nodes, &mut defs[last], occ, ds);
            out.timers
                .extend(ds.result.timers.drain(..).map(|t| (last, t)));
            round.append(&mut ds.result.detected);
            sort_canonical(round);
            for det in round.drain(..) {
                if !severed && !route(det.ty).is_empty() {
                    next.push(det.clone());
                }
                out.detected.push(det);
            }
        }
    }

    /// Drop fully-replayed log entries. At the end of every public call
    /// all cursors of a shared node have consumed every execution (each
    /// delivery reaches all binder definitions in the same routing round),
    /// so the logs drain completely.
    fn trim_logs(&mut self) {
        let defs = &self.defs;
        for node in &mut self.nodes {
            if node.log.is_empty() {
                continue;
            }
            let min_seen = node
                .bound
                .iter()
                .map(|&(d, p)| defs[d as usize].positions[p as usize].seen)
                .min()
                .unwrap_or(node.exec);
            debug_assert_eq!(
                min_seen, node.exec,
                "shared-node cursor out of sync on `{}`",
                node.label
            );
            let drop = (min_seen - node.base) as usize;
            node.log.drain(..drop);
            node.base = min_seen;
        }
    }

    /// Render the **shared plan once** in Graphviz `dot` syntax: event
    /// sources as ellipses, each unique operator node as a single box
    /// (bold double border when shared), per-definition clusters holding
    /// the named composite, and a dashed fan-out edge from each
    /// definition's root node into its cluster.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph decs_plan {\n  rankdir=BT;\n");
        let mut events: BTreeSet<EventId> = BTreeSet::new();
        for node in &self.nodes {
            for &(child, _) in &node.children {
                if let ChildKey::Event(e) = child {
                    events.insert(e);
                }
            }
        }
        for &e in &events {
            let _ = writeln!(
                out,
                "  ev{} [label={:?} shape=ellipse];",
                e.0,
                self.catalog.name(e)
            );
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let shared = if node.bound.len() > 1 {
                " peripheries=2 style=bold"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{} [label={:?} shape=box{}];",
                i, node.label, shared
            );
            for &(child, slot) in &node.children {
                match child {
                    ChildKey::Event(e) => {
                        let _ = writeln!(out, "  ev{} -> n{} [label=\"{}\"];", e.0, i, slot);
                    }
                    ChildKey::Node(c) => {
                        let _ = writeln!(out, "  n{} -> n{} [label=\"{}\"];", c, i, slot);
                    }
                }
            }
        }
        for (d, def) in self.defs.iter().enumerate() {
            let name = self.catalog.name(def.emits);
            let _ = writeln!(out, "  subgraph cluster_def{d} {{");
            let _ = writeln!(out, "    label={name:?};");
            let _ = writeln!(out, "    def{d} [label={name:?} shape=doubleoctagon];");
            let _ = writeln!(out, "  }}");
            if let Some(root) = def.positions.iter().rposition(|p| p.named) {
                let _ = writeln!(
                    out,
                    "  n{} -> def{} [style=dashed];",
                    def.positions[root].node, d
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Save/restore of the buffered operator state (see [`crate::state`]).
impl<T: EventTime> PlanDetector<T> {
    /// Serialize the buffered state of every plan node plus the
    /// per-definition timer tables. A detector compiled from the same
    /// definitions can [`Self::restore_state`] it; a state saved right
    /// after compilation doubles as a "pristine" image to reset to.
    pub fn save_state(&self) -> PlanState<T> {
        // Public calls end quiescent (`trim_logs`): every shared log is
        // empty and every cursor's `seen` equals its node's `exec` — so
        // only the operator state, the exec counters and the
        // per-definition timer tables need to be serialized. (`base` is
        // reconstructed as `exec` on restore; replay indices are relative
        // to it, so any common origin works.)
        debug_assert!(
            self.nodes.iter().all(|n| n.log.is_empty()),
            "snapshot of a non-quiescent plan"
        );
        PlanState {
            nodes: self.nodes.iter().map(|n| n.op.save_state()).collect(),
            execs: self.nodes.iter().map(|n| n.exec).collect(),
            defs: self
                .defs
                .iter()
                .map(|def| {
                    let mut timers: Vec<(u64, u32, u64)> = def
                        .timers
                        .iter()
                        .map(|(id, &(p, tag))| (id.0, p, tag))
                        .collect();
                    timers.sort_unstable();
                    DefTimers {
                        timers,
                        next_timer: def.next_timer,
                    }
                })
                .collect(),
        }
    }

    /// Restore a state produced by [`Self::save_state`] on a detector
    /// compiled from the same definitions. Fails with
    /// [`SnoopError::SnapshotMismatch`] when the shapes disagree.
    pub fn restore_state(&mut self, plan: PlanState<T>) -> Result<()> {
        if plan.nodes.len() != self.nodes.len() || plan.execs.len() != self.nodes.len() {
            return Err(SnoopError::SnapshotMismatch(format!(
                "plan has {} nodes, snapshot has {} (execs {})",
                self.nodes.len(),
                plan.nodes.len(),
                plan.execs.len()
            )));
        }
        if plan.defs.len() != self.defs.len() {
            return Err(SnoopError::SnapshotMismatch(format!(
                "plan has {} definitions, snapshot has {}",
                self.defs.len(),
                plan.defs.len()
            )));
        }
        let floor = crate::state::max_buffered_uid(&plan.nodes);
        for ((node, ns), exec) in self.nodes.iter_mut().zip(plan.nodes).zip(plan.execs) {
            node.op.restore_state(ns)?;
            node.exec = exec;
            node.base = exec;
            node.log.clear();
        }
        for (def, dt) in self.defs.iter_mut().zip(plan.defs) {
            def.timers.clear();
            for (id, p, tag) in dt.timers {
                if p as usize >= def.positions.len() {
                    return Err(SnoopError::SnapshotMismatch(format!(
                        "timer {id} targets position {p}, definition has {}",
                        def.positions.len()
                    )));
                }
                if id >= dt.next_timer {
                    return Err(SnoopError::SnapshotMismatch(format!(
                        "timer id {id} not below next_timer {}",
                        dt.next_timer
                    )));
                }
                def.timers.insert(TimerId(id), (p, tag));
            }
            def.next_timer = dt.next_timer;
        }
        // Re-establish the quiescence invariant: every cursor has consumed
        // every execution of its node.
        let nodes = &self.nodes;
        for def in &mut self.defs {
            for pos in &mut def.positions {
                pos.seen = nodes[pos.node].exec;
            }
        }
        crate::event::ensure_uid_floor(floor + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::EventExpr as E;
    use crate::reference::ReferenceDetector;
    use crate::time::CentralTime;

    fn occ(cat: &Catalog, name: &str, t: u64) -> Occurrence<CentralTime> {
        Occurrence::bare(cat.lookup(name).unwrap(), CentralTime(t))
    }

    /// Build the plan and the reference interpreter over the same
    /// definitions and assert that feeding the trace produces bit-for-bit
    /// identical results (detections with types/times/params, timers with
    /// ids and tags).
    fn assert_equivalent(
        prims: &[&str],
        defs: &[(&str, EventExpr, Context)],
        trace: &[(&str, u64)],
    ) -> (ReferenceDetector<CentralTime>, PlanDetector<CentralTime>) {
        let mut reference = ReferenceDetector::new();
        let mut plan = PlanDetector::new();
        for p in prims {
            reference.register(p).unwrap();
            plan.register(p).unwrap();
        }
        for (name, expr, ctx) in defs {
            let a = reference.define(name, expr, *ctx).unwrap();
            let b = plan.define(name, expr, *ctx).unwrap();
            assert_eq!(a, b, "catalog identity for {name}");
        }
        assert_eq!(
            reference.catalog().len(),
            plan.catalog().len(),
            "intern sequence"
        );
        for (name, t) in trace {
            if reference.catalog().lookup(name).is_err() {
                continue; // trace is a superset of some tests' primitives
            }
            let o = occ(reference.catalog(), name, *t);
            let rs = reference.feed(o.clone());
            let rp = plan.feed(o);
            assert_eq!(rs.detected, rp.detected, "detections at {name}@{t}");
            assert_eq!(rs.timers, rp.timers, "timers at {name}@{t}");
        }
        (reference, plan)
    }

    fn base_trace() -> Vec<(&'static str, u64)> {
        vec![
            ("A", 1),
            ("B", 2),
            ("C", 3),
            ("B", 4),
            ("A", 5),
            ("C", 6),
            ("B", 7),
            ("A", 8),
            ("C", 9),
            ("B", 10),
        ]
    }

    #[test]
    fn overlapping_definitions_share_and_match_oracle() {
        // Seq(A, B) appears under three definitions; the plan compiles it
        // once.
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
            (
                "Z",
                E::seq(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        let stats = plan.plan_stats();
        assert_eq!(stats.position_count, 5); // 1 + 2 + 2
        assert_eq!(stats.plan_nodes, 3); // shared seq + and + outer seq
        assert_eq!(stats.shared_nodes, 1);
        assert!(stats.sharing_ratio > 0.0);
    }

    #[test]
    fn disjoint_definitions_do_not_share() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::prim("B"), E::prim("C")),
                Context::Unrestricted,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 0);
    }

    #[test]
    fn context_distinguishes_cons_keys() {
        // Same structure, different contexts: must NOT share.
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            ("Y", E::seq(E::prim("A"), E::prim("B")), Context::Continuous),
        ];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 0);
        assert_eq!(plan.plan_node_count(), 2);
    }

    #[test]
    fn commutative_swap_does_not_share() {
        // And(a, b) vs And(b, a): structurally different, so no sharing —
        // sharing them would flip the param order of shared triggers.
        let defs = vec![
            (
                "X",
                E::and(E::prim("A"), E::prim("B")),
                Context::Unrestricted,
            ),
            (
                "Y",
                E::and(E::prim("B"), E::prim("A")),
                Context::Unrestricted,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 0);
    }

    #[test]
    fn stateless_or_sharing_preserves_self_pairing_guard() {
        // Or(A, B) is shared between the two operands' definitions; the
        // forwarded occurrence must keep its uid in each definition so the
        // oracle's self-pairing behavior survives.
        let defs = vec![
            (
                "X",
                E::and(
                    E::or(E::prim("A"), E::prim("B")),
                    E::or(E::prim("A"), E::prim("C")),
                ),
                Context::Unrestricted,
            ),
            (
                "Y",
                E::seq(E::or(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 1); // the Or(A, B)
    }

    #[test]
    fn alias_definitions_share_one_forwarder() {
        let defs = vec![
            ("Y1", E::prim("A"), Context::Unrestricted),
            ("Y2", E::prim("A"), Context::Chronicle),
            (
                "P",
                E::and(E::prim("Y1"), E::prim("Y2")),
                Context::Unrestricted,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        // Y1/Y2 alias nodes cons to one stateless forwarder.
        assert_eq!(plan.shared_node_count(), 1);
    }

    #[test]
    fn within_definition_sharing_matches_oracle() {
        // Both operands of And are the same subexpression: two positions,
        // one node, one definition.
        let defs = vec![(
            "X",
            E::and(
                E::seq(E::prim("A"), E::prim("B")),
                E::seq(E::prim("A"), E::prim("B")),
            ),
            Context::Unrestricted,
        )];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        let stats = plan.plan_stats();
        assert_eq!(stats.position_count, 3);
        assert_eq!(stats.plan_nodes, 2);
        assert_eq!(stats.shared_nodes, 1);
    }

    #[test]
    fn primitive_on_both_slots_still_blocks_self_pairing() {
        // E ∧ E over a primitive: the same occurrence arrives on both
        // slots and must not pair with itself — in both backends.
        let defs = vec![(
            "X",
            E::and(E::prim("A"), E::prim("A")),
            Context::Unrestricted,
        )];
        // The full trace must stay equivalent (a fresh A *does* pair with
        // earlier distinct A occurrences in both backends)…
        let (mut reference, mut plan) = assert_equivalent(&["A"], &defs, &base_trace());
        // …and the very first A fed to fresh detectors pairs with nothing:
        // the same occurrence reaches both slots and is blocked by uid.
        let mut fresh_reference = ReferenceDetector::<CentralTime>::new();
        let mut fresh_plan = PlanDetector::<CentralTime>::new();
        fresh_reference.register("A").unwrap();
        fresh_plan.register("A").unwrap();
        let (name, e, ctx) = &defs[0];
        fresh_reference.define(name, e, *ctx).unwrap();
        fresh_plan.define(name, e, *ctx).unwrap();
        let o = occ(fresh_reference.catalog(), "A", 99);
        assert!(fresh_reference.feed(o.clone()).detected.is_empty());
        assert!(fresh_plan.feed(o.clone()).detected.is_empty());
        // Keep the post-trace detectors honest too: next A matches oracle.
        assert_eq!(
            reference.feed(o.clone()).detected.len(),
            plan.feed(o).detected.len()
        );
    }

    #[test]
    fn cross_definition_cascade_through_shared_nodes() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
            (
                "W",
                E::and(E::seq(E::prim("X"), E::prim("C")), E::prim("B")),
                Context::Chronicle,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_eq!(plan.stage_count(), 2);
        assert_eq!(plan.shard_level(1), 1);
        // Seq(X, C) shared between Z (root) and W (inner).
        assert_eq!(plan.shared_node_count(), 1);
    }

    #[test]
    fn late_define_does_not_inherit_executed_state() {
        let mut reference = ReferenceDetector::<CentralTime>::new();
        let mut plan = PlanDetector::<CentralTime>::new();
        for p in ["A", "B"] {
            reference.register(p).unwrap();
            plan.register(p).unwrap();
        }
        let e = E::seq(E::prim("A"), E::prim("B"));
        reference.define("X", &e, Context::Chronicle).unwrap();
        plan.define("X", &e, Context::Chronicle).unwrap();
        // Execute: A is now buffered inside the Seq node.
        let o = occ(reference.catalog(), "A", 1);
        reference.feed(o.clone());
        plan.feed(o);
        // A structurally identical later define must NOT see that state.
        reference.define("Y", &e, Context::Chronicle).unwrap();
        plan.define("Y", &e, Context::Chronicle).unwrap();
        assert_eq!(plan.shared_node_count(), 0, "executed node not reused");
        for (name, t) in [("B", 2), ("A", 3), ("B", 4)] {
            let o = occ(reference.catalog(), name, t);
            let rs = reference.feed(o.clone());
            let rp = plan.feed(o);
            assert_eq!(rs.detected, rp.detected, "{name}@{t}");
        }
    }

    #[test]
    fn all_operator_shapes_match_oracle() {
        let defs = vec![
            (
                "N",
                E::not(E::prim("B"), E::prim("A"), E::prim("C")),
                Context::Chronicle,
            ),
            (
                "AP",
                EventExpr::Aperiodic {
                    opener: Box::new(E::prim("A")),
                    mid: Box::new(E::prim("B")),
                    closer: Box::new(E::prim("C")),
                },
                Context::Unrestricted,
            ),
            (
                "AS",
                EventExpr::AperiodicStar {
                    opener: Box::new(E::prim("A")),
                    mid: Box::new(E::prim("B")),
                    closer: Box::new(E::prim("C")),
                },
                Context::Cumulative,
            ),
            (
                "ANY2",
                EventExpr::Any {
                    m: 2,
                    alternatives: vec![E::prim("A"), E::prim("B"), E::prim("C")],
                },
                Context::Continuous,
            ),
            (
                "MSK",
                EventExpr::Masked {
                    base: Box::new(E::prim("A")),
                    mask: Mask::AtLeast { index: 0, min: 0 },
                },
                Context::Unrestricted,
            ),
        ];
        assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
    }

    #[test]
    fn shared_not_and_any_nodes_match_oracle() {
        // Stateful three-slot and n-ary operators shared across defs.
        let not = E::not(E::prim("B"), E::prim("A"), E::prim("C"));
        let any = EventExpr::Any {
            m: 2,
            alternatives: vec![E::prim("A"), E::prim("B"), E::prim("C")],
        };
        let defs = vec![
            ("N1", not.clone(), Context::Chronicle),
            ("N2", E::seq(not.clone(), E::prim("B")), Context::Chronicle),
            ("Q1", any.clone(), Context::Continuous),
            ("Q2", E::and(any.clone(), E::prim("C")), Context::Continuous),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 2);
    }

    #[test]
    fn timers_stay_private_and_match_oracle() {
        let mut reference = ReferenceDetector::<CentralTime>::new();
        let mut plan = PlanDetector::<CentralTime>::new();
        reference.register("A").unwrap();
        plan.register("A").unwrap();
        // Two identical Plus defs: temporal nodes must NOT share (each def
        // owns its timer ids), but their base subexpression may.
        let e = E::plus(E::seq(E::prim("A"), E::prim("A")), 10);
        for name in ["D1", "D2"] {
            reference.define(name, &e, Context::Chronicle).unwrap();
            plan.define(name, &e, Context::Chronicle).unwrap();
        }
        assert_eq!(plan.shared_node_count(), 1); // the Seq only
        assert_eq!(plan.min_timer_delay(), Some(10));
        let o1 = occ(reference.catalog(), "A", 1);
        let o2 = occ(reference.catalog(), "A", 2);
        reference.feed(o1.clone());
        plan.feed(o1);
        let rs = reference.feed(o2.clone());
        let rp = plan.feed(o2);
        assert_eq!(rs.timers, rp.timers);
        assert_eq!(rs.timers.len(), 2); // one per def
        assert_eq!(plan.pending_timer_count(), 2);
        for ((sd, sreq), (pd, preq)) in rs.timers.iter().zip(rp.timers.iter()) {
            let fs = reference.fire_timer(*sd, sreq.id, CentralTime(12)).unwrap();
            let fp = plan.fire_timer(*pd, preq.id, CentralTime(12)).unwrap();
            assert_eq!(fs.detected, fp.detected);
        }
        assert!(matches!(
            plan.fire_timer(0, TimerId(99), CentralTime(20)),
            Err(SnoopError::UnknownTimer(99))
        ));
    }

    /// Mid-trace save/restore into a freshly compiled detector resumes
    /// bit-identically — detections, timer requests, and pending timers
    /// (the distributed recovery path relies on this).
    #[test]
    fn snapshot_roundtrip_resumes_equivalently() {
        let prims = ["A", "B", "C"];
        let defs = [
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
            ("T", E::plus(E::prim("C"), 5), Context::Unrestricted),
        ];
        let trace = base_trace();
        let cut = 6;

        let build = |n_defs: usize| {
            let mut d = PlanDetector::<CentralTime>::new();
            for p in prims {
                d.register(p).unwrap();
            }
            for (name, e, ctx) in &defs[..n_defs] {
                d.define(name, e, *ctx).unwrap();
            }
            d
        };

        // Reference: uninterrupted run over the whole trace.
        let mut reference = build(defs.len());
        let mut ref_steps = Vec::new();
        for (name, t) in &trace {
            let o = occ(reference.catalog(), name, *t);
            let r = reference.feed(o);
            ref_steps.push((r.detected, r.timers));
        }

        // Interrupted run: feed the prefix, snapshot, "crash", restore
        // into a freshly compiled detector, feed the suffix.
        let mut first = build(defs.len());
        for (name, t) in &trace[..cut] {
            let o = occ(first.catalog(), name, *t);
            first.feed(o);
        }
        let state = first.save_state();
        // A detector compiled from other definitions rejects the state
        // rather than misreading it.
        let mut other = build(defs.len() - 1);
        assert!(matches!(
            other.restore_state(state.clone()),
            Err(SnoopError::SnapshotMismatch(_))
        ));
        let mut recovered = build(defs.len());
        recovered.restore_state(state).unwrap();
        assert_eq!(
            recovered.pending_timer_count(),
            first.pending_timer_count(),
            "pending timers survive restore"
        );
        for (i, (name, t)) in trace[cut..].iter().enumerate() {
            let o = occ(recovered.catalog(), name, *t);
            let r = recovered.feed(o);
            let (ref_det, ref_tim) = &ref_steps[cut + i];
            assert_eq!(&r.detected, ref_det, "{name}@{t}");
            assert_eq!(&r.timers, ref_tim, "{name}@{t}");
        }

        // Every timer requested over the whole run fires identically.
        assert_eq!(
            recovered.pending_timer_count(),
            reference.pending_timer_count()
        );
        let all_timers: Vec<_> = ref_steps
            .iter()
            .flat_map(|(_, tims)| tims.iter().copied())
            .collect();
        assert!(!all_timers.is_empty(), "trace must exercise timers");
        for (i, (sid, req)) in all_timers.into_iter().enumerate() {
            let at = CentralTime(100 + i as u64);
            let fr = reference.fire_timer(sid, req.id, at).unwrap();
            let fc = recovered.fire_timer(sid, req.id, at).unwrap();
            assert_eq!(fr.detected, fc.detected, "timer {i}");
            assert_eq!(fr.timers, fc.timers, "timer {i}");
        }
        assert_eq!(recovered.pending_timer_count(), 0);
    }

    #[test]
    fn feed_batch_equals_sequential_feeds() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
        ];
        let build = || {
            let mut p = PlanDetector::<CentralTime>::new();
            for n in ["A", "B", "C"] {
                p.register(n).unwrap();
            }
            for (name, expr, ctx) in &defs {
                p.define(name, expr, *ctx).unwrap();
            }
            p
        };
        let mut serial = build();
        let mut batch = build();
        let occs: Vec<_> = base_trace()
            .iter()
            .map(|(n, t)| occ(serial.catalog(), n, *t))
            .collect();
        let mut seq_out = Vec::new();
        for o in occs.clone() {
            seq_out.extend(serial.feed(o).detected);
        }
        let mut columnar = build();
        let mut staged = EventBatch::new();
        for o in &occs {
            staged.push_bare(o.ty, o.time);
        }
        let batch_out = batch.feed_batch(occs).detected;
        assert_eq!(seq_out, batch_out);
        assert_eq!(seq_out, columnar.feed_batch_columnar(&staged).detected);
    }

    #[test]
    fn stages_follow_the_definition_dag() {
        let mut plan = PlanDetector::<CentralTime>::new();
        for n in ["A", "B", "C"] {
            plan.register(n).unwrap();
        }
        let defs = [
            ("X", E::seq(E::prim("A"), E::prim("B"))),
            ("Y", E::and(E::prim("B"), E::prim("C"))),
            ("Z", E::seq(E::prim("X"), E::prim("C"))),
            ("W", E::seq(E::prim("Z"), E::prim("B"))),
        ];
        for (name, expr) in &defs {
            plan.define(name, expr, Context::Chronicle).unwrap();
        }
        // X and Y reference only primitives; Z references X; W references Z.
        let levels: Vec<usize> = (0..4).map(|d| plan.shard_level(d)).collect();
        assert_eq!(levels, vec![0, 0, 1, 2]);
        assert_eq!(plan.stage_count(), 3);
    }

    #[test]
    fn watermark_gc_keeps_detections_identical() {
        // NOT strands guard state which the watermark can evict; the
        // plan's GC must not change what it detects relative to the
        // GC-free reference.
        let not = E::not(E::prim("B"), E::prim("A"), E::prim("C"));
        let defs = vec![
            ("N1", not.clone(), Context::Chronicle),
            ("N2", E::seq(not.clone(), E::prim("B")), Context::Chronicle),
        ];
        let (mut reference, mut plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        plan.advance_watermark(11);
        for (name, t) in [("A", 12), ("B", 13), ("C", 14), ("B", 15)] {
            let o = occ(reference.catalog(), name, t);
            let rs = reference.feed(o.clone());
            let rp = plan.feed(o);
            assert_eq!(rs.detected, rp.detected, "{name}@{t} after GC");
        }
    }

    #[test]
    fn logs_drain_after_every_feed() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::seq(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        for node in &plan.nodes {
            assert!(node.log.is_empty(), "log not drained on `{}`", node.label);
        }
    }

    #[test]
    fn define_failures_leave_no_orphan_nodes() {
        let mut plan = PlanDetector::<CentralTime>::new();
        plan.register("A").unwrap();
        let before = plan.plan_node_count();
        let e = E::seq(E::seq(E::prim("A"), E::prim("A")), E::prim("NOPE"));
        assert!(matches!(
            plan.define("X", &e, Context::Chronicle),
            Err(SnoopError::UnknownEvent(_))
        ));
        assert_eq!(plan.plan_node_count(), before);
        assert_eq!(plan.shard_count(), 0);
        // The failed name stays registered (the oracle's compile registers
        // before building too), so it cannot be reused…
        assert!(matches!(
            plan.define("X", &E::prim("A"), Context::Chronicle),
            Err(SnoopError::DuplicateEvent(_))
        ));
        // …but the detector still works for new names.
        plan.register("B").unwrap();
        plan.define(
            "X2",
            &E::seq(E::prim("A"), E::prim("B")),
            Context::Chronicle,
        )
        .unwrap();
        let o = occ(plan.catalog(), "A", 1);
        plan.feed(o);
        let o = occ(plan.catalog(), "B", 2);
        assert_eq!(plan.feed(o).detected.len(), 1);
    }

    #[test]
    fn dot_renders_shared_plan_once() {
        let mut plan = PlanDetector::<CentralTime>::new();
        for n in ["A", "B", "C"] {
            plan.register(n).unwrap();
        }
        plan.define("X", &E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
            .unwrap();
        plan.define(
            "Y",
            &E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
            Context::Chronicle,
        )
        .unwrap();
        let dot = plan.to_dot();
        // The shared seq renders once, with the shared marker.
        assert_eq!(dot.matches("label=\"seq\"").count(), 1);
        assert!(dot.contains("peripheries=2 style=bold"));
        assert!(dot.contains("cluster_def0"));
        assert!(dot.contains("cluster_def1"));
        assert!(dot.contains("-> def0 [style=dashed]"));
        assert!(dot.contains("-> def1 [style=dashed]"));
        assert_eq!(dot, plan.to_dot(), "deterministic output");
    }
}
