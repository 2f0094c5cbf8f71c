//! Definition-sharded detection.
//!
//! [`ShardedDetector`] splits the event graph **by composite definition**:
//! every `define` call compiles into its own independent [`EventGraph`]
//! (a *shard*) that subscribes only to the event types its expression
//! actually references. Feeding an occurrence routes it to exactly the
//! shards subscribed to its type; the detections of one routing round are
//! merged back in the canonical `(composite-timestamp, definition-id)`
//! order before they re-enter the cascade (a named composite used inside a
//! later definition feeds that definition's shard).
//!
//! The canonical merge makes runs bit-for-bit deterministic regardless of
//! how shards are executed, which is what allows the parallel batch path
//! (`parallel` feature): [`ShardedDetector::enable_pool`] attaches a
//! persistent [`crate::pool::WorkerPool`] with shards pinned round-robin
//! in `define` order. Independent definitions fan a whole batch out in one
//! round; definitions that reference other named composites (a **staged**
//! schedule over the acyclic definition dependency DAG — `compile` rejects
//! cycles) run one parallel round per cascade wave, each wave's
//! canonically-merged detections becoming the next wave's triggers. Both
//! paths reproduce the serial output exactly.

use crate::context::Context;
use crate::error::{Result, SnoopError};
use crate::event::{Catalog, EventId, Occurrence};
use crate::expr::EventExpr;
use crate::graph::{EventGraph, TimerId, TimerRequest};
use crate::state::{DetectorState, Snapshot};
use crate::time::EventTime;
use std::collections::{BTreeSet, HashMap};

/// Index of a shard (one per composite definition, in `define` order).
pub type ShardId = usize;

/// Everything one sharded feed/fire step produced.
#[derive(Debug, Clone)]
pub struct ShardFeedResult<T> {
    /// Occurrences of named composite events, in canonical merge order.
    pub detected: Vec<Occurrence<T>>,
    /// New timer requests, tagged with the shard that owns the timer id
    /// (timer ids are only unique within a shard).
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

#[derive(Debug)]
pub(crate) struct Shard<T: EventTime> {
    pub(crate) graph: EventGraph<T>,
    /// The named composite event this shard defines.
    pub(crate) emits: EventId,
    /// Event types that can make this shard react.
    pub(crate) subscribed: BTreeSet<EventId>,
}

impl<T: EventTime> Shard<T> {
    /// Inert stand-in left behind while the real shard is out on a pool
    /// worker (subscribed is empty, so it can never be fed by mistake).
    #[cfg(feature = "parallel")]
    fn placeholder() -> Self {
        Shard {
            graph: EventGraph::new(),
            emits: EventId(u32::MAX),
            subscribed: BTreeSet::new(),
        }
    }
}

/// A catalog plus one [`EventGraph`] per composite definition, with a
/// subscription index routing occurrences to the shards that care.
///
/// Drop-in replacement for [`crate::Detector`] where the caller services
/// timers itself; the only API difference is that timer handles are
/// `(ShardId, TimerId)` pairs and feed results carry the shard tag.
#[derive(Debug, Default)]
pub struct ShardedDetector<T: EventTime> {
    catalog: Catalog,
    shards: Vec<Shard<T>>,
    /// Event type → shards subscribed to it, ascending.
    routes: HashMap<EventId, Vec<ShardId>>,
    /// Topological level of each shard in the definition dependency DAG
    /// (0 = references no other definition).
    levels: Vec<usize>,
    /// Cascade severing (see [`Self::set_cascade`]): when true, named
    /// detections are reported but never re-enter the wave as triggers.
    severed: bool,
    #[cfg(feature = "parallel")]
    pool: Option<crate::pool::WorkerPool<T>>,
}

impl<T: EventTime> ShardedDetector<T> {
    /// An empty detector.
    pub fn new() -> Self {
        ShardedDetector {
            catalog: Catalog::new(),
            shards: Vec::new(),
            routes: HashMap::new(),
            levels: Vec::new(),
            severed: false,
            #[cfg(feature = "parallel")]
            pool: None,
        }
    }

    /// Enable or sever the detection cascade. With the cascade severed
    /// (`enabled == false`), a named composite detection is still reported
    /// in the feed result but is **not** re-fed to the shards that
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

    /// Define a named composite event in a fresh shard of its own.
    pub fn define(&mut self, name: &str, expr: &EventExpr, ctx: Context) -> Result<EventId> {
        let mut graph = EventGraph::new();
        let emits = graph.compile(&mut self.catalog, name, expr, ctx)?;
        let subscribed: BTreeSet<EventId> = graph.subscribed_types().collect();
        let shard = self.shards.len();
        // Stage = 1 + the deepest referenced definition. Definitions can
        // only reference earlier names (cycles are rejected at compile), so
        // levels are computable incrementally.
        let level = subscribed
            .iter()
            .filter_map(|ty| {
                self.shards
                    .iter()
                    .position(|s| s.emits == *ty)
                    .map(|j| self.levels[j] + 1)
            })
            .max()
            .unwrap_or(0);
        for &ty in &subscribed {
            self.routes.entry(ty).or_default().push(shard);
        }
        self.levels.push(level);
        self.shards.push(Shard {
            graph,
            emits,
            subscribed,
        });
        Ok(emits)
    }

    /// The catalog (name ↔ id mapping).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of definition shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total operator nodes across all shards (every definition compiles
    /// its full expression tree — nothing is shared; cf.
    /// [`crate::PlanDetector::plan_node_count`]).
    pub fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.graph.node_count()).sum()
    }

    /// Topological level of `shard` in the definition dependency DAG:
    /// 0 for definitions over primitives only, `1 + max(level of referenced
    /// definitions)` otherwise.
    pub fn shard_level(&self, shard: ShardId) -> usize {
        self.levels[shard]
    }

    /// Number of topological stages in the definition dependency DAG
    /// (1 when all definitions are independent, 0 with no definitions).
    /// A batch cascade runs at most this many waves per trigger.
    pub fn stage_count(&self) -> usize {
        self.levels.iter().max().map_or(0, |m| m + 1)
    }

    /// Event types shard `shard` subscribes to, ascending (diagnostics).
    pub fn shard_subscriptions(&self, shard: ShardId) -> impl Iterator<Item = EventId> + '_ {
        self.shards[shard].subscribed.iter().copied()
    }

    /// Smallest timer delay any shard can request, or `None` when no
    /// definition uses a temporal operator (see
    /// [`EventGraph::min_timer_delay`]).
    pub fn min_timer_delay(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.graph.min_timer_delay())
            .min()
    }

    /// Total outstanding timers across all shards.
    pub fn pending_timer_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.graph.pending_timer_count())
            .sum()
    }

    /// Advance the low watermark across every shard (see
    /// [`EventGraph::advance_watermark`]): the caller promises every future
    /// stamp's global ticks are `≥ low`. Returns the evicted count.
    pub fn advance_watermark(&mut self, low: u64) -> u64 {
        self.shards
            .iter_mut()
            .map(|s| s.graph.advance_watermark(low))
            .sum()
    }

    /// Total occurrences buffered across all shards' operator nodes.
    pub fn buffered_occupancy(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.graph.buffered_occupancy())
            .sum()
    }

    /// Whether some definition references another definition's named event
    /// (batch feeds then cascade in staged waves instead of one fan-out).
    pub fn has_cross_shard_routes(&self) -> bool {
        self.shards
            .iter()
            .any(|s| self.routes.contains_key(&s.emits))
    }

    /// Attach a persistent worker pool of `workers` threads (clamped to
    /// `1..=shard_count` and to the machine's available parallelism —
    /// oversubscribing cores only adds hand-off latency) and route every
    /// subsequent [`Self::feed_batch`] through it. Shards are pinned to
    /// workers round-robin in `define` order. Output stays bit-for-bit
    /// identical to the serial path.
    #[cfg(feature = "parallel")]
    pub fn enable_pool(&mut self, workers: usize) {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.enable_pool_exact(workers.min(hw));
    }

    /// Like [`Self::enable_pool`] but without the hardware cap (still
    /// clamped to `1..=shard_count`). Tests and determinism oracles use
    /// this to exercise multi-worker hand-off on machines with fewer
    /// cores than workers.
    #[cfg(feature = "parallel")]
    pub fn enable_pool_exact(&mut self, workers: usize) {
        let workers = workers.clamp(1, self.shards.len().max(1));
        self.pool = Some(crate::pool::WorkerPool::new(workers));
    }

    /// Worker threads in the persistent pool (0 = serial).
    pub fn worker_count(&self) -> usize {
        #[cfg(feature = "parallel")]
        if let Some(p) = &self.pool {
            return p.worker_count();
        }
        0
    }

    /// Parallel rounds dispatched to the pool so far.
    pub fn parallel_rounds(&self) -> u64 {
        #[cfg(feature = "parallel")]
        if let Some(p) = &self.pool {
            return p.rounds();
        }
        0
    }

    /// Total busy time across pool workers, in nanoseconds.
    pub fn pool_busy_ns(&self) -> u64 {
        #[cfg(feature = "parallel")]
        if let Some(p) = &self.pool {
            return p.busy_ns();
        }
        0
    }

    /// Backoff steps spent waiting on full or empty pool rings so far
    /// (0 = serial or never contended).
    pub fn ring_full_spins(&self) -> u64 {
        #[cfg(feature = "parallel")]
        if let Some(p) = &self.pool {
            return p.ring_full_spins();
        }
        0
    }

    /// Feed one occurrence through every subscribed shard, cascading named
    /// detections (in canonical order) into the shards that reference them.
    pub fn feed(&mut self, occ: Occurrence<T>) -> ShardFeedResult<T> {
        let mut out = ShardFeedResult::default();
        self.pump(vec![occ], &mut out);
        out
    }

    /// Deliver a previously requested timer on the shard that owns it.
    pub fn fire_timer(
        &mut self,
        shard: ShardId,
        id: TimerId,
        time: T,
    ) -> Result<ShardFeedResult<T>> {
        let r = self.shards[shard].graph.fire_timer(id, time)?;
        let mut out = ShardFeedResult::default();
        out.timers.extend(r.timers.into_iter().map(|t| (shard, t)));
        let mut round = r.detected;
        sort_canonical(&mut round);
        if self.severed {
            out.detected.extend(round);
        } else {
            let mut wave = Vec::with_capacity(round.len());
            for d in round {
                wave.push(d.clone());
                out.detected.push(d);
            }
            self.pump(wave, &mut out);
        }
        Ok(out)
    }

    /// Feed a whole batch. Semantically identical to feeding each
    /// occurrence in order; with the `parallel` feature and a pool enabled
    /// (see [`Self::enable_pool`]) the shards run on the persistent workers
    /// and the per-trigger canonical merge reproduces the serial output
    /// exactly — including across cross-definition cascades, which run as
    /// staged waves.
    pub fn feed_batch(&mut self, occs: Vec<Occurrence<T>>) -> ShardFeedResult<T> {
        #[cfg(feature = "parallel")]
        if self.pool.is_some() && self.shards.len() > 1 && !occs.is_empty() {
            return if self.has_cross_shard_routes() {
                self.feed_batch_staged(occs)
            } else {
                self.feed_batch_fanout(occs)
            };
        }
        let mut out = ShardFeedResult::default();
        for occ in occs {
            self.pump(vec![occ], &mut out);
        }
        out
    }

    /// Feed a columnar batch: only routed rows are ever materialized into
    /// occurrences (an unrouted primitive type cannot contribute to any
    /// detection), then the batch path takes over. Bit-identical to
    /// materializing every row and calling [`Self::feed_batch`].
    pub fn feed_batch_columnar(
        &mut self,
        batch: &crate::batch::EventBatch<T>,
    ) -> ShardFeedResult<T> {
        let occs = batch.materialize_routed(|ty| self.routes.contains_key(&ty));
        self.feed_batch(occs)
    }

    /// BFS cascade: run serial waves until no detections remain. Each wave
    /// routes its occurrences to the subscribed shards (ascending),
    /// canonically merges the per-trigger detections, and the merged
    /// detections form the next wave so cross-definition references see
    /// named composites.
    fn pump(&mut self, mut wave: Vec<Occurrence<T>>, out: &mut ShardFeedResult<T>) {
        while !wave.is_empty() {
            wave = self.serial_wave(wave, out);
        }
    }

    /// Run one cascade wave serially and return the next wave. The last
    /// subscribed shard receives each occurrence by move and the others by
    /// reference, so single-subscriber routing (the common case) never
    /// clones the trigger.
    fn serial_wave(
        &mut self,
        wave: Vec<Occurrence<T>>,
        out: &mut ShardFeedResult<T>,
    ) -> Vec<Occurrence<T>> {
        let mut next = Vec::new();
        for occ in wave {
            let Some(route) = self.routes.get(&occ.ty) else {
                continue;
            };
            let (&last, rest) = route.split_last().expect("routes are non-empty");
            let mut round = Vec::new();
            for &s in rest {
                let r = self.shards[s].graph.feed_ref(&occ);
                out.timers.extend(r.timers.into_iter().map(|t| (s, t)));
                round.extend(r.detected);
            }
            let r = self.shards[last].graph.feed(occ);
            out.timers.extend(r.timers.into_iter().map(|t| (last, t)));
            round.extend(r.detected);
            sort_canonical(&mut round);
            for d in round {
                if !self.severed {
                    next.push(d.clone());
                }
                out.detected.push(d);
            }
        }
        next
    }

    /// Number of shards subscribed to at least one of `wave`'s types.
    #[cfg(feature = "parallel")]
    fn active_shard_count(&self, wave: &[Occurrence<T>]) -> usize {
        self.shards
            .iter()
            .filter(|s| wave.iter().any(|o| s.subscribed.contains(&o.ty)))
            .count()
    }

    /// Dispatch one pool round over `triggers`: move the active shards out
    /// to their pinned workers, collect results, reinstall the shards, and
    /// return the keyed feed results sorted by shard id.
    #[cfg(feature = "parallel")]
    fn pooled_round(
        &mut self,
        triggers: &std::sync::Arc<[Occurrence<T>]>,
    ) -> crate::pool::KeyedResults<T> {
        let workers = self.pool.as_ref().expect("pool enabled").worker_count();
        let mut assignments: Vec<Vec<(ShardId, Shard<T>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for i in 0..self.shards.len() {
            let active = triggers
                .iter()
                .any(|o| self.shards[i].subscribed.contains(&o.ty));
            if active {
                let shard = std::mem::replace(&mut self.shards[i], Shard::placeholder());
                assignments[i % workers].push((i, shard));
            }
        }
        let jobs: Vec<(usize, crate::pool::Job<T>)> = assignments
            .into_iter()
            .enumerate()
            .filter(|(_, shards)| !shards.is_empty())
            .map(|(w, shards)| {
                (
                    w,
                    crate::pool::Job {
                        shards,
                        cells: Vec::new(),
                        triggers: std::sync::Arc::clone(triggers),
                    },
                )
            })
            .collect();
        let mut merged = Vec::new();
        for r in self.pool.as_mut().expect("pool enabled").run_round(jobs) {
            for (sid, shard) in r.shards {
                self.shards[sid] = shard;
            }
            merged.extend(r.results);
        }
        merged.sort_by_key(|(sid, _)| *sid);
        merged
    }

    /// Independent definitions (no cross-shard routes): one pool round fans
    /// the whole batch out, then the per-trigger merge — shards ascending,
    /// canonical round sort — reproduces the serial visit order exactly.
    /// Detections cannot cascade (nothing subscribes to them), so no
    /// further waves are needed.
    #[cfg(feature = "parallel")]
    fn feed_batch_fanout(&mut self, occs: Vec<Occurrence<T>>) -> ShardFeedResult<T> {
        let triggers: std::sync::Arc<[Occurrence<T>]> = occs.into();
        let per_shard = self.pooled_round(&triggers);
        let mut out = ShardFeedResult::default();
        let mut cursors = vec![0usize; per_shard.len()];
        for k in 0..triggers.len() {
            let mut round = Vec::new();
            for (idx, (sid, results)) in per_shard.iter().enumerate() {
                if let Some((key, r)) = results.get(cursors[idx]) {
                    if *key == k {
                        cursors[idx] += 1;
                        out.timers.extend(r.timers.iter().map(|t| (*sid, *t)));
                        round.extend(r.detected.iter().cloned());
                    }
                }
            }
            sort_canonical(&mut round);
            out.detected.extend(round);
        }
        out
    }

    /// Cross-definition cascades: per trigger, run one pool round per
    /// cascade wave (the staged schedule over the definition DAG — at most
    /// [`Self::stage_count`] waves deep). The serial cascade is a BFS whose
    /// queue never interleaves triggers, so waves of one trigger at a time
    /// reproduce it exactly; within a wave the per-element merge (shards
    /// ascending, canonical round sort) is the serial visit order.
    #[cfg(feature = "parallel")]
    fn feed_batch_staged(&mut self, occs: Vec<Occurrence<T>>) -> ShardFeedResult<T> {
        let mut out = ShardFeedResult::default();
        for occ in occs {
            let mut wave = vec![occ];
            while !wave.is_empty() {
                let active = self.active_shard_count(&wave);
                if active == 0 {
                    break;
                }
                if active == 1 {
                    // Nothing to parallelize: run the wave in place.
                    wave = self.serial_wave(wave, &mut out);
                    continue;
                }
                let triggers: std::sync::Arc<[Occurrence<T>]> = wave.into();
                let per_shard = self.pooled_round(&triggers);
                let mut next_wave = Vec::new();
                let mut cursors = vec![0usize; per_shard.len()];
                for k in 0..triggers.len() {
                    let mut round = Vec::new();
                    for (idx, (sid, results)) in per_shard.iter().enumerate() {
                        if let Some((key, r)) = results.get(cursors[idx]) {
                            if *key == k {
                                cursors[idx] += 1;
                                out.timers.extend(r.timers.iter().map(|t| (*sid, *t)));
                                round.extend(r.detected.iter().cloned());
                            }
                        }
                    }
                    sort_canonical(&mut round);
                    for d in round {
                        if !self.severed {
                            next_wave.push(d.clone());
                        }
                        out.detected.push(d);
                    }
                }
                wave = next_wave;
            }
        }
        out
    }
}

/// Canonical `(composite-timestamp, definition-id)` order for merging one
/// round of detections. Stable, so equal keys keep shard order.
pub(crate) fn sort_canonical<T: EventTime>(round: &mut [Occurrence<T>]) {
    round.sort_by(|a, b| a.time.canonical_cmp(&b.time).then(a.ty.0.cmp(&b.ty.0)));
}

impl<T: EventTime> Snapshot<T> for ShardedDetector<T> {
    fn save_state(&self) -> DetectorState<T> {
        DetectorState::Sharded(self.shards.iter().map(|s| s.graph.save_state()).collect())
    }

    fn restore_state(&mut self, state: DetectorState<T>) -> Result<()> {
        let DetectorState::Sharded(graphs) = state else {
            return Err(SnoopError::SnapshotMismatch(
                "plan snapshot offered to a sharded detector".into(),
            ));
        };
        if graphs.len() != self.shards.len() {
            return Err(SnoopError::SnapshotMismatch(format!(
                "detector has {} shards, snapshot has {}",
                self.shards.len(),
                graphs.len()
            )));
        }
        let floor = graphs
            .iter()
            .map(|g| crate::state::max_buffered_uid(&g.nodes))
            .max()
            .unwrap_or(0);
        for (shard, gs) in self.shards.iter_mut().zip(graphs) {
            shard.graph.restore_state(gs)?;
        }
        crate::event::ensure_uid_floor(floor + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::expr::EventExpr as E;
    use crate::time::CentralTime;

    /// Primitives A/B/C; three defs exercising disjoint and overlapping
    /// subscriptions plus one cross-definition reference.
    fn defs() -> Vec<(&'static str, EventExpr, Context)> {
        vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::prim("B"), E::prim("C")),
                Context::Unrestricted,
            ),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
        ]
    }

    fn build_pair() -> (Detector<CentralTime>, ShardedDetector<CentralTime>) {
        let mut mono = Detector::new();
        let mut sharded = ShardedDetector::new();
        for n in ["A", "B", "C"] {
            mono.register(n).unwrap();
            sharded.register(n).unwrap();
        }
        for (name, expr, ctx) in defs() {
            mono.define(name, &expr, ctx).unwrap();
            sharded.define(name, &expr, ctx).unwrap();
        }
        (mono, sharded)
    }

    fn trace() -> Vec<(&'static str, u64)> {
        vec![
            ("A", 1),
            ("B", 2),
            ("C", 3),
            ("B", 4),
            ("A", 5),
            ("C", 6),
            ("B", 7),
            ("C", 8),
        ]
    }

    fn key(cat: &Catalog, o: &Occurrence<CentralTime>) -> (String, u64) {
        (cat.name(o.ty).to_owned(), o.time.get())
    }

    #[test]
    fn shards_are_per_definition_with_minimal_subscriptions() {
        let (_, sharded) = build_pair();
        assert_eq!(sharded.shard_count(), 3);
        assert!(sharded.has_cross_shard_routes()); // Z references X
        let a = sharded.catalog().lookup("A").unwrap();
        let c = sharded.catalog().lookup("C").unwrap();
        // A feeds only X's shard; C feeds Y's and Z's.
        assert_eq!(sharded.routes[&a], vec![0]);
        assert_eq!(sharded.routes[&c], vec![1, 2]);
        // And conversely each shard subscribes only to what it references.
        let b = sharded.catalog().lookup("B").unwrap();
        let x = sharded.catalog().lookup("X").unwrap();
        let subs0: Vec<EventId> = sharded.shard_subscriptions(0).collect();
        let subs2: Vec<EventId> = sharded.shard_subscriptions(2).collect();
        assert_eq!(subs0, vec![a, b]);
        assert_eq!(subs2, vec![c, x]);
    }

    #[test]
    fn stages_follow_the_definition_dag() {
        let (_, sharded) = build_pair();
        // X and Y reference only primitives; Z references X.
        assert_eq!(sharded.shard_level(0), 0);
        assert_eq!(sharded.shard_level(1), 0);
        assert_eq!(sharded.shard_level(2), 1);
        assert_eq!(sharded.stage_count(), 2);
        // A deeper chain: W = seq(Z, B) sits one stage later again.
        let (_, mut deeper) = build_pair();
        deeper
            .define("W", &E::seq(E::prim("Z"), E::prim("B")), Context::Chronicle)
            .unwrap();
        assert_eq!(deeper.shard_level(3), 2);
        assert_eq!(deeper.stage_count(), 3);
    }

    #[test]
    fn matches_monolithic_detector_as_a_multiset() {
        let (mut mono, mut sharded) = build_pair();
        let mut got_mono = Vec::new();
        let mut got_sharded = Vec::new();
        for (name, t) in trace() {
            let ty = mono.catalog().lookup(name).unwrap();
            let occ = Occurrence::bare(ty, CentralTime(t));
            let rm = mono.feed(occ.clone());
            got_mono.extend(rm.detected.iter().map(|o| key(mono.catalog(), o)));
            let rs = sharded.feed(occ);
            got_sharded.extend(rs.detected.iter().map(|o| key(sharded.catalog(), o)));
        }
        got_mono.sort();
        got_sharded.sort();
        assert!(!got_mono.is_empty());
        assert_eq!(got_mono, got_sharded);
    }

    #[test]
    fn cross_definition_reference_cascades_between_shards() {
        let (_, mut sharded) = build_pair();
        let cat = sharded.catalog();
        let (a, b, c) = (
            cat.lookup("A").unwrap(),
            cat.lookup("B").unwrap(),
            cat.lookup("C").unwrap(),
        );
        sharded.feed(Occurrence::bare(a, CentralTime(1)));
        sharded.feed(Occurrence::bare(b, CentralTime(2)));
        let r = sharded.feed(Occurrence::bare(c, CentralTime(3)));
        let names: Vec<&str> = r
            .detected
            .iter()
            .map(|o| sharded.catalog().name(o.ty))
            .collect();
        // C completes Y (and Z via the cascaded X from tick 2's feed? no —
        // X was detected at tick 2 and already cascaded into Z's shard as
        // its initiator), so C yields Y and Z in canonical order.
        assert_eq!(names, vec!["Y", "Z"]);
    }

    #[test]
    fn canonical_merge_orders_same_trigger_detections() {
        // Two defs detect on the same trigger with identical timestamps:
        // order must be by definition id, not define/shard iteration quirks.
        let mut sharded = ShardedDetector::new();
        for n in ["A", "B"] {
            sharded.register(n).unwrap();
        }
        sharded
            .define("Q", &E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
            .unwrap();
        sharded
            .define(
                "P",
                &E::and(E::prim("A"), E::prim("B")),
                Context::Unrestricted,
            )
            .unwrap();
        let cat = sharded.catalog();
        let (a, b) = (cat.lookup("A").unwrap(), cat.lookup("B").unwrap());
        sharded.feed(Occurrence::bare(a, CentralTime(1)));
        let r = sharded.feed(Occurrence::bare(b, CentralTime(2)));
        let names: Vec<&str> = r
            .detected
            .iter()
            .map(|o| sharded.catalog().name(o.ty))
            .collect();
        // Q was defined first → smaller EventId → first on timestamp tie.
        assert_eq!(names, vec!["Q", "P"]);
    }

    #[test]
    fn feed_batch_equals_sequential_feeds() {
        let (_, mut sharded) = build_pair();
        let (_, mut sharded2) = build_pair();
        let occs: Vec<Occurrence<CentralTime>> = trace()
            .into_iter()
            .map(|(n, t)| Occurrence::bare(sharded.catalog().lookup(n).unwrap(), CentralTime(t)))
            .collect();
        let mut seq_out = Vec::new();
        for occ in occs.clone() {
            seq_out.extend(sharded.feed(occ).detected);
        }
        let batch_out = sharded2.feed_batch(occs).detected;
        assert_eq!(seq_out, batch_out);
    }

    #[test]
    fn timers_are_tagged_with_their_shard() {
        let mut sharded = ShardedDetector::new();
        sharded.register("A").unwrap();
        sharded
            .define("L", &E::seq(E::prim("A"), E::prim("A")), Context::Chronicle)
            .unwrap();
        sharded
            .define("D", &E::plus(E::prim("A"), 10), Context::Chronicle)
            .unwrap();
        let a = sharded.catalog().lookup("A").unwrap();
        let r = sharded.feed(Occurrence::bare(a, CentralTime(5)));
        assert_eq!(r.timers.len(), 1);
        let (shard, req) = r.timers[0];
        assert_eq!(shard, 1); // the `+` lives in D's shard
        assert_eq!(req.delay_ticks, 10);
        let fired = sharded.fire_timer(shard, req.id, CentralTime(15)).unwrap();
        assert_eq!(fired.detected.len(), 1);
        assert_eq!(sharded.catalog().name(fired.detected[0].ty), "D");
    }
}

#[cfg(all(test, feature = "parallel"))]
mod parallel_tests {
    use super::*;
    use crate::expr::EventExpr as E;
    use crate::time::CentralTime;

    /// Eight independent definitions (fan-out path) plus, when `cascade`
    /// is set, two extra stages referencing them (staged path).
    fn build(cascade: bool) -> ShardedDetector<CentralTime> {
        let mut d = ShardedDetector::new();
        for n in ["A", "B", "C", "D"] {
            d.register(n).unwrap();
        }
        let prims = ["A", "B", "C", "D"];
        for i in 0..8usize {
            let (p, q) = (prims[i % 4], prims[(i + 1) % 4]);
            let name = format!("S{i}");
            d.define(&name, &E::seq(E::prim(p), E::prim(q)), Context::Chronicle)
                .unwrap();
        }
        if cascade {
            d.define(
                "M",
                &E::and(E::prim("S0"), E::prim("S1")),
                Context::Unrestricted,
            )
            .unwrap();
            d.define("T", &E::seq(E::prim("M"), E::prim("C")), Context::Chronicle)
                .unwrap();
        }
        d
    }

    fn trace(d: &ShardedDetector<CentralTime>) -> Vec<Occurrence<CentralTime>> {
        let prims = ["A", "B", "C", "D"];
        (0..64u64)
            .map(|t| {
                let ty = d.catalog().lookup(prims[(t % 4) as usize]).unwrap();
                Occurrence::bare(ty, CentralTime(t))
            })
            .collect()
    }

    fn serial_reference(cascade: bool) -> ShardFeedResult<CentralTime> {
        let mut d = build(cascade);
        let occs = trace(&d);
        let mut out = ShardFeedResult::default();
        for occ in occs {
            let r = d.feed(occ);
            out.detected.extend(r.detected);
            out.timers.extend(r.timers);
        }
        out
    }

    #[test]
    fn pooled_fanout_is_bit_identical_to_serial() {
        let expect = serial_reference(false);
        assert!(!expect.detected.is_empty());
        for workers in [1, 2, 4, 8] {
            let mut d = build(false);
            assert!(!d.has_cross_shard_routes());
            d.enable_pool_exact(workers);
            let occs = trace(&d);
            let got = d.feed_batch(occs);
            assert_eq!(got.detected, expect.detected, "{workers} workers");
            assert_eq!(got.timers, expect.timers, "{workers} workers");
            assert!(d.parallel_rounds() > 0);
        }
    }

    #[test]
    fn pooled_staged_cascade_is_bit_identical_to_serial() {
        let expect = serial_reference(true);
        // The cascade actually fires (M and T detections exist).
        assert!(
            expect.detected.iter().any(|o| o.ty.0 >= 12),
            "cascade must detect"
        );
        for workers in [1, 2, 4] {
            let mut d = build(true);
            assert!(d.has_cross_shard_routes());
            assert_eq!(d.stage_count(), 3);
            d.enable_pool_exact(workers);
            let occs = trace(&d);
            let got = d.feed_batch(occs);
            assert_eq!(got.detected, expect.detected, "{workers} workers");
            assert_eq!(got.timers, expect.timers, "{workers} workers");
            assert!(d.parallel_rounds() > 0, "{workers} workers");
        }
    }

    #[test]
    fn pool_stats_accumulate() {
        let mut d = build(false);
        d.enable_pool_exact(4);
        assert_eq!(d.worker_count(), 4);
        assert_eq!(d.parallel_rounds(), 0);
        let occs = trace(&d);
        d.feed_batch(occs);
        assert_eq!(d.parallel_rounds(), 1); // independent defs: one round
        assert!(d.pool_busy_ns() > 0);
    }

    #[test]
    fn enable_pool_clamps_to_shard_count() {
        let mut d = build(false); // 8 shards
        d.enable_pool_exact(64);
        assert_eq!(d.worker_count(), 8);
    }

    #[test]
    fn enable_pool_caps_to_available_parallelism() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut d = build(false); // 8 shards
        d.enable_pool(64);
        assert_eq!(d.worker_count(), 64.min(hw).clamp(1, 8));
    }
}
