//! The per-site actor: stamps injected primitive events with the site
//! clock, optionally runs a **local detection graph** (the paper's
//! architecture detects site-local composite events at the site and
//! propagates their set-valued timestamps), and streams primitive events,
//! local detections and watermark beacons over one sequence-numbered
//! link per receiver — the coordinator, or every coordinator replica
//! of a partitioned plane.

use crate::durability::site_wal::{
    compaction_records, recover_site_state, SiteWalRecord, SiteWalState,
};
use crate::durability::WalWriter;
use crate::protocol::{sack_valid, Msg, RoutedEvent};
use decs_chronos::Nanos;
use decs_core::{CompositeTimestamp, PrimitiveTimestamp};
use decs_simnet::{Actor, Ctx, NodeIdx, SplitMix64};
use decs_snoop::{EventId, Occurrence, PlanDetector, PlanState, ShardFeedResult, ShardId, TimerId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Timer tag of the beacon (the periodic flush of every link).
const BEACON_TAG: u64 = 0;
/// Per-link retransmission timer tags: `RETX_BASE + link`.
const RETX_BASE: u64 = 1;
/// Local detector timer tags count up from here, far above any link.
const LOCAL_TIMER_BASE: u64 = 1 << 32;

/// Timer tags carry the site's restart generation in their high bits, so
/// a fire armed by a dead incarnation is recognized and discarded instead
/// of doubling the new incarnation's beacon/retransmit chains.
const GEN_SHIFT: u32 = 48;
const TAG_MASK: u64 = (1 << GEN_SHIFT) - 1;

/// Base retransmission timeout of a deployed engine's sites: far above
/// LAN/WAN round trips, so a healthy link sees no spurious retransmits
/// (and a spurious copy is just deduped anyway).
pub(crate) const RETRANSMIT_TIMEOUT: Nanos = Nanos::from_millis(200);
/// Cap on a deployed engine's exponential retransmission backoff. Retries
/// continue at the cap forever, so any partition that heals is crossed.
pub(crate) const RETRANSMIT_CAP: Nanos = Nanos::from_millis(3_200);

/// Most unacked messages resent per retransmission round. Cumulative acks
/// trim the buffer between rounds, so a long outage drains incrementally
/// instead of flooding the link with one giant burst.
const RETX_BURST: usize = 64;

/// The send side of one link: the messages it must keep until they are
/// cumulatively acked, the retransmission backoff, and the receiver's
/// latest selective-ack view.
///
/// Loss is repaired two ways. An ack whose SACK shows a hole below the
/// highest sacked sequence number fast-retransmits that hole at once,
/// exactly once. The retransmission timer resends the oldest entries the
/// receiver has not sacked, so a lost fast-retransmit copy, a lost tail
/// and a reneged park are all covered. SACK is advisory: only the
/// cumulative ack ever removes a message.
#[derive(Debug)]
struct SendWindow {
    /// Sent-but-unacked messages by sequence number.
    unacked: BTreeMap<u64, Msg>,
    /// Current retransmission backoff (reset to the base whenever an ack
    /// makes progress).
    backoff: Nanos,
    /// Whether the link's retransmission timer is outstanding.
    armed: bool,
    /// The receiver's latest SACK ranges, replaced by every ack. Volatile:
    /// never logged, cleared by a restart.
    sacked: Vec<(u64, u64)>,
    /// Holes already fast-retransmitted, forgotten once the cumulative ack
    /// passes them.
    fast_sent: BTreeSet<u64>,
}

impl SendWindow {
    fn new(backoff: Nanos) -> Self {
        SendWindow {
            unacked: BTreeMap::new(),
            backoff,
            armed: false,
            sacked: Vec::new(),
            fast_sent: BTreeSet::new(),
        }
    }

    /// Keep `msg` until it is cumulatively acked. Returns the delay to arm
    /// the retransmission timer with, unless it is already armed.
    fn retain(&mut self, seq: u64, msg: Msg) -> Option<Nanos> {
        self.unacked.insert(seq, msg);
        if self.armed {
            return None;
        }
        self.armed = true;
        Some(self.backoff)
    }

    /// Retained messages the receiver has not sacked, ascending: the gaps
    /// below, between and above the SACK ranges.
    fn unsacked(&self) -> impl Iterator<Item = (&u64, &Msg)> + '_ {
        let starts = std::iter::once(Bound::Unbounded)
            .chain(self.sacked.iter().map(|&(_, hi)| Bound::Included(hi)));
        let ends = self
            .sacked
            .iter()
            .map(|&(lo, _)| Bound::Excluded(lo))
            .chain(std::iter::once(Bound::Unbounded));
        starts
            .zip(ends)
            .flat_map(move |gap| self.unacked.range::<u64, _>(gap))
    }

    /// Apply an ack: release everything below `cum_seq`, adopt `sack` as
    /// the receiver's view, and return whether the cumulative ack made
    /// progress plus the holes to fast-retransmit — unsacked messages
    /// below the highest sacked sequence number not fast-sent before.
    /// `sack` must be well-formed (the gaps between ranges are map ranges).
    fn on_ack(&mut self, cum_seq: u64, sack: Vec<(u64, u64)>, base: Nanos) -> (bool, Vec<Msg>) {
        debug_assert!(sack_valid(cum_seq, &sack), "unvalidated SACK {sack:?}");
        let before = self.unacked.len();
        self.unacked = self.unacked.split_off(&cum_seq);
        let progressed = self.unacked.len() < before;
        if progressed {
            self.backoff = base;
        }
        if self.fast_sent.first().is_some_and(|&s| s < cum_seq) {
            self.fast_sent = self.fast_sent.split_off(&cum_seq);
        }
        self.sacked = sack;
        let Some(&(_, top)) = self.sacked.last() else {
            return (progressed, Vec::new());
        };
        let (seqs, holes): (Vec<u64>, Vec<Msg>) = self
            .unsacked()
            .take_while(|(&seq, _)| seq < top)
            .filter(|(seq, _)| !self.fast_sent.contains(seq))
            .map(|(&seq, m)| (seq, m.clone()))
            .unzip();
        self.fast_sent.extend(seqs);
        (progressed, holes)
    }

    /// A retransmission-timer round: up to [`RETX_BURST`] of the oldest
    /// unsacked messages, with the backoff doubled (capped — retries never
    /// stop, so any partition that eventually heals is crossed) and the
    /// timer marked re-armed. `None` when everything is acked: the timer
    /// dies until the next send.
    fn timer_round(&mut self, base: Nanos, cap: Nanos) -> Option<Vec<Msg>> {
        self.armed = false;
        if self.unacked.is_empty() {
            self.backoff = base;
            return None;
        }
        let burst = self
            .unsacked()
            .take(RETX_BURST)
            .map(|(_, m)| m.clone())
            .collect();
        self.backoff = Nanos((2 * self.backoff.get()).min(cap.get()));
        self.armed = true;
        Some(burst)
    }
}

/// What a link coalesces between flushes, by the frame it flushes into.
#[derive(Debug)]
enum Staged {
    /// The coordinator link: occurrences, flushed as one `Msg::Batch`.
    Batch(Vec<Occurrence<CompositeTimestamp>>),
    /// A replica link: the subscribed occurrences with their stamp
    /// ordinals, flushed as one `Msg::Routed`.
    Routed(Vec<RoutedEvent>),
}

/// One sequence-numbered stream from this site to one receiver: the
/// coordinator (a classic deployment's only link) or one coordinator
/// replica. Each link reassembles FIFO at its receiver independently,
/// with its own staged frame and send window.
#[derive(Debug)]
struct Link {
    /// The receiving node.
    node: NodeIdx,
    /// Next sequence number on this link.
    seq: u64,
    /// Occurrences staged since the last flush, in site stamping order.
    staged: Staged,
    /// Retained unacked messages, backoff and SACK view.
    window: SendWindow,
}

impl Staged {
    /// Move everything staged out, leaving this side empty.
    fn take(&mut self) -> Staged {
        match self {
            Staged::Batch(occs) => Staged::Batch(std::mem::take(occs)),
            Staged::Routed(events) => Staged::Routed(std::mem::take(events)),
        }
    }

    /// The frame carrying these occurrences plus `watermark`, at sequence
    /// number `seq`. An empty frame is exactly a heartbeat.
    fn into_frame(self, seq: u64, epoch: u64, watermark: u64) -> Msg {
        // One Arc wrap at flush: retransmit retention (and any WAL copy at
        // the receiver) shares this allocation.
        match self {
            Staged::Batch(occs) => Msg::Batch {
                seq,
                epoch,
                watermark,
                events: Arc::new(occs),
            },
            Staged::Routed(events) => Msg::Routed {
                seq,
                epoch,
                watermark,
                events: Arc::new(events),
            },
        }
    }
}

impl Link {
    fn new(node: NodeIdx, staged: Staged, retx_base: Nanos) -> Self {
        Link {
            node,
            seq: 0,
            staged,
            window: SendWindow::new(retx_base),
        }
    }

    /// Forget everything a dead incarnation held on this link.
    fn reset(&mut self, retx_base: Nanos) {
        self.seq = 0;
        self.staged.take();
        self.window = SendWindow::new(retx_base);
    }
}

/// Site-local detection state: a compiled detector plus the mapping from
/// its event-id space to the coordinator's (synthetic node ids never leave
/// the site).
pub struct LocalDetection {
    /// The site's own detector.
    pub detector: PlanDetector<CompositeTimestamp>,
    /// site EventId → coordinator EventId, for every named event.
    pub translate: HashMap<EventId, EventId>,
    /// Nanoseconds per global tick (to schedule local temporal operators).
    pub gg_nanos: u64,
    timer_map: HashMap<u64, (ShardId, TimerId)>,
    next_tag: u64,
}

impl LocalDetection {
    /// Bundle a compiled site detector with its id translation table.
    pub fn new(
        detector: PlanDetector<CompositeTimestamp>,
        translate: HashMap<EventId, EventId>,
        gg_nanos: u64,
    ) -> Self {
        LocalDetection {
            detector,
            translate,
            gg_nanos,
            timer_map: HashMap::new(),
            next_tag: 0,
        }
    }
}

impl std::fmt::Debug for LocalDetection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalDetection").finish_non_exhaustive()
    }
}

/// A site: event source + optional local detector + watermark beacon.
#[derive(Debug)]
pub struct SiteNode {
    /// One link per receiver: the coordinator alone, or every replica.
    links: Vec<Link>,
    /// Beacon period: the batch interval when batching, else the
    /// heartbeat interval.
    beacon_interval: Nanos,
    /// Whether occurrences wait for the beacon (batching) instead of
    /// leaving at once (`Msg::Event`, or a one-event `Msg::Routed`).
    batching: bool,
    /// Events dropped because the site clock had not started yet.
    pub dropped_pre_epoch: u64,
    /// Whether the site has crashed (failure injection).
    pub crashed: bool,
    /// Local detection graph, when configured.
    pub local: Option<LocalDetection>,
    /// Local composite detections produced at this site.
    pub local_detections: u64,
    /// Base retransmission timeout; `Nanos::ZERO` disables the
    /// ack/retransmit protocol (fire-and-forget, as before).
    retx_base: Nanos,
    /// Backoff cap: the retransmission interval doubles per silent round
    /// up to this bound, then stays there — retries never stop, so any
    /// partition that eventually heals is eventually crossed.
    retx_cap: Nanos,
    /// Messages resent by the retransmission timer (and by a restart's
    /// backlog burst).
    pub retransmits: u64,
    /// Holes resent at once on a selective ack (each at most once).
    pub fast_retransmits: u64,
    /// Malformed selective-ack lists received and ignored.
    pub sacks_refused: u64,
    /// Incarnation epoch: 0 for the first incarnation, bumped on every
    /// restart. Stamped on every outbound message so the coordinator can
    /// tell incarnations apart.
    epoch: u64,
    /// Restart generation for timer tags (see [`GEN_SHIFT`]). Tracks
    /// `epoch` for durable sites but exists separately because timer
    /// hygiene is needed even with durability off.
    gen: u64,
    /// Restarts performed (failure-injection `Msg::Restart`s honored).
    pub restarts: u64,
    /// Deterministic jitter source for retransmission backoff; `None`
    /// keeps the un-jittered schedule.
    jitter_rng: Option<SplitMix64>,
    /// The site write-ahead log, when site durability is on.
    wal: Option<WalWriter>,
    /// Directory the site log lives in (retained across restarts so
    /// recovery knows where to look even after `wal` is dropped).
    wal_dir: Option<PathBuf>,
    /// Site WAL I/O errors. Site logging is fail-soft: on error the site
    /// stops logging (it is no longer crash-recoverable) but keeps
    /// serving — a monitoring concern, not an outage.
    pub wal_errors: u64,
    /// First WAL error message, if logging has failed.
    wal_failed: Option<String>,
    /// Pristine local-detector state captured at configuration time and
    /// restored on restart: partial matches are volatile and die with the
    /// incarnation that accumulated them.
    local_pristine: Option<PlanState<CompositeTimestamp>>,
    /// Full-catalog event type → subscribing replica links, ascending.
    /// Types no replica subscribes to are dropped at the site. Empty in
    /// the classic single-coordinator deployment.
    routes: HashMap<u32, Vec<usize>>,
    /// The site's stamp ordinal: position of each stamped occurrence in
    /// the site's total send order, shared across all replica links so
    /// replicas receiving disjoint subsets agree on the interleaving. Like
    /// `epoch`, it survives simulated crashes (standing in for a monotone
    /// site-local counter), so post-restart keys never collide with the
    /// dead incarnation's.
    ordinal: u64,
}

impl SiteNode {
    /// A site that reports to `coordinator`.
    pub fn new(coordinator: NodeIdx, heartbeat_interval: Nanos) -> Self {
        SiteNode {
            links: vec![Link::new(
                coordinator,
                Staged::Batch(Vec::new()),
                Nanos::ZERO,
            )],
            beacon_interval: heartbeat_interval,
            batching: false,
            dropped_pre_epoch: 0,
            crashed: false,
            local: None,
            local_detections: 0,
            retx_base: Nanos::ZERO,
            retx_cap: Nanos::ZERO,
            retransmits: 0,
            fast_retransmits: 0,
            sacks_refused: 0,
            epoch: 0,
            gen: 0,
            restarts: 0,
            jitter_rng: None,
            wal: None,
            wal_dir: None,
            wal_errors: 0,
            wal_failed: None,
            local_pristine: None,
            routes: HashMap::new(),
            ordinal: 0,
        }
    }

    /// Switch the site to the partitioned detection plane: one link per
    /// coordinator replica in `replicas`, routing each stamped occurrence
    /// only to the links in `routes[ty]`. Every replica still receives the
    /// site's full watermark stream (an empty `Msg::Routed` is exactly a
    /// heartbeat).
    pub fn with_replicas(
        mut self,
        replicas: Vec<NodeIdx>,
        routes: HashMap<u32, Vec<usize>>,
    ) -> Self {
        self.links = replicas
            .into_iter()
            .map(|node| Link::new(node, Staged::Routed(Vec::new()), self.retx_base))
            .collect();
        self.routes = routes;
        self
    }

    fn partitioned(&self) -> bool {
        matches!(self.links[0].staged, Staged::Routed(_))
    }

    /// Seed deterministic jitter for the retransmission backoff: each
    /// round's delay is drawn from a ±12.5 % window around the nominal
    /// backoff, so sites sharing an outage don't resend in lockstep.
    pub fn with_retx_seed(mut self, seed: u64) -> Self {
        self.jitter_rng = Some(SplitMix64::new(seed));
        self
    }

    /// Enable site durability: outbound allocations, acks and staged
    /// events are logged (and synced) to a WAL in `dir` before they take
    /// effect, so a restart recovers the unacked send window. Only a
    /// single-link site can be durable (the engine refuses durability
    /// with replicas): the log holds one sequence space.
    pub fn set_durability(&mut self, dir: &Path) -> io::Result<()> {
        let mut w = WalWriter::create(dir)?;
        w.append(&SiteWalRecord::Epoch { epoch: self.epoch })?;
        w.sync()?;
        self.wal_dir = Some(dir.to_path_buf());
        self.wal = Some(w);
        Ok(())
    }

    /// The site's current incarnation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// If site WAL logging has fail-soft disabled itself, the first error.
    pub fn wal_failed(&self) -> Option<&str> {
        self.wal_failed.as_deref()
    }

    /// Record a site WAL I/O error: count it, keep the first message, and
    /// drop the writer. The site keeps running un-logged (fail-soft) —
    /// the opposite of the coordinator, whose log is the source of truth
    /// and therefore fail-stops.
    fn wal_io_error(&mut self, e: io::Error) {
        self.wal_errors += 1;
        if self.wal_failed.is_none() {
            self.wal_failed = Some(e.to_string());
        }
        self.wal = None;
    }

    /// Append + sync one record when the site WAL is on (log-before-send
    /// discipline: the entry must be durable before its effect is
    /// observable). `rec` is only built when there is a log to write.
    fn wal_log(&mut self, rec: impl FnOnce() -> SiteWalRecord) {
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.append(&rec()).and_then(|()| w.sync()) {
                self.wal_io_error(e);
            }
        }
    }

    /// A timer tag qualified with the current restart generation.
    fn gen_tag(&self, tag: u64) -> u64 {
        (self.gen << GEN_SHIFT) | tag
    }

    /// Enable the ack/retransmit protocol: unacked messages are resent
    /// after `base`, doubling per silent round up to `cap` (`Nanos::ZERO`
    /// for `base` keeps fire-and-forget).
    pub fn with_reliability(mut self, base: Nanos, cap: Nanos) -> Self {
        self.retx_base = base;
        self.retx_cap = Nanos(cap.get().max(base.get()));
        for link in &mut self.links {
            link.window.backoff = base;
        }
        self
    }

    /// Number of sent-but-unacked messages held for retransmission,
    /// summed over every link.
    pub fn unacked(&self) -> usize {
        self.links.iter().map(|l| l.window.unacked.len()).sum()
    }

    /// Switch the site to batched notifications flushed every `interval`
    /// (`Nanos::ZERO` keeps per-event mode). Every flush carries the
    /// watermark, so the batch interval replaces the heartbeat interval.
    pub fn with_batching(mut self, interval: Nanos) -> Self {
        if interval.get() > 0 {
            self.batching = true;
            self.beacon_interval = interval;
        }
        self
    }

    /// A site with a local detection graph.
    pub fn with_local(
        coordinator: NodeIdx,
        heartbeat_interval: Nanos,
        local: LocalDetection,
    ) -> Self {
        let mut s = Self::new(coordinator, heartbeat_interval);
        // Capture the detector's pristine state now, before any event feeds
        // it: a restarted incarnation starts detection from scratch.
        s.local_pristine = Some(local.detector.save_state());
        s.local = Some(local);
        s
    }

    /// Forward an occurrence to the coordinator, translating its event id
    /// into the coordinator's id space when a local detector is present.
    fn forward(&mut self, mut occ: Occurrence<CompositeTimestamp>, ctx: &mut Ctx<'_, Msg>) {
        if let Some(local) = &self.local {
            match local.translate.get(&occ.ty) {
                Some(&coord_ty) => occ.ty = coord_ty,
                None => return, // synthetic internal node: never forwarded
            }
        }
        if self.partitioned() {
            self.forward_routed(occ, ctx);
        } else if self.batching {
            self.wal_log(|| SiteWalRecord::Staged { occ: occ.clone() });
            if let Staged::Batch(occs) = &mut self.links[0].staged {
                occs.push(occ);
            }
        } else {
            let epoch = self.epoch;
            self.send(0, |seq| Msg::Event { seq, epoch, occ }, ctx);
        }
    }

    /// Stage a stamped occurrence on every subscribing replica link
    /// (consuming one stamp ordinal either way — unsubscribed types leave
    /// a gap, and only the relative order matters to replicas). Without
    /// batching the subscribed links flush immediately.
    fn forward_routed(&mut self, occ: Occurrence<CompositeTimestamp>, ctx: &mut Ctx<'_, Msg>) {
        let ordinal = self.ordinal;
        self.ordinal += 1;
        let Some(subs) = self.routes.get(&occ.ty.0).cloned() else {
            return;
        };
        for &u in &subs {
            if let Staged::Routed(events) = &mut self.links[u].staged {
                events.push(RoutedEvent {
                    ordinal,
                    occ: occ.clone(),
                });
            }
        }
        if !self.batching {
            if let Ok(parts) = ctx.stamp() {
                for &u in &subs {
                    self.flush(u, parts.global.get(), ctx);
                }
            }
        }
    }

    /// Send the next sequence-numbered message on link `u`, built by
    /// `frame` from its sequence number: logged first when the site WAL
    /// is on (so recovery's retransmit buffer is a superset of anything
    /// the receiver could have seen), and retained for retransmission
    /// until cumulatively acked when reliability is on.
    fn send(&mut self, u: usize, frame: impl FnOnce(u64) -> Msg, ctx: &mut Ctx<'_, Msg>) {
        let seq = self.links[u].seq;
        self.links[u].seq += 1;
        let msg = frame(seq);
        self.wal_log(|| SiteWalRecord::Sent { msg: msg.clone() });
        if self.retx_base.get() > 0 {
            let tag = self.gen_tag(RETX_BASE + u as u64);
            if let Some(delay) = self.links[u].window.retain(seq, msg.clone()) {
                ctx.set_timer(delay, tag);
            }
        }
        ctx.send(self.links[u].node, msg);
    }

    /// Flush link `u`: one frame carrying everything staged on it since
    /// the last flush plus the watermark.
    fn flush(&mut self, u: usize, watermark: u64, ctx: &mut Ctx<'_, Msg>) {
        let epoch = self.epoch;
        let staged = self.links[u].staged.take();
        self.send(u, |seq| staged.into_frame(seq, epoch, watermark), ctx);
    }

    /// The beacon: flush every link — its staged events, or nothing, which
    /// makes the frame a pure watermark heartbeat — and re-arm. A crashed
    /// site neither flushes nor re-arms, so staged occurrences die with it
    /// (the coordinator must evict to make progress).
    fn beacon(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.crashed {
            return; // no beacon, no re-arm: the site is silent.
        }
        if let Ok(parts) = ctx.stamp() {
            for u in 0..self.links.len() {
                self.flush(u, parts.global.get(), ctx);
            }
        }
        ctx.set_timer(self.beacon_interval, self.gen_tag(BEACON_TAG));
    }

    /// An ack from `from`: trim the acked link's window (progress resets
    /// its backoff), adopt its SACK view and fast-retransmit the holes it
    /// reveals. A malformed SACK is counted and ignored; the cumulative
    /// part still applies. Acks stamped by a previous incarnation's traffic
    /// are ignored — after a non-durable restart the sequence space
    /// restarted from 0, and an old ack would wrongly release new
    /// allocations that happen to share numbers.
    fn on_ack(
        &mut self,
        from: NodeIdx,
        cum_seq: u64,
        epoch: u64,
        mut sack: Vec<(u64, u64)>,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        if !sack_valid(cum_seq, &sack) {
            self.sacks_refused += 1;
            sack.clear();
        }
        if epoch != self.epoch || self.retx_base.get() == 0 {
            return;
        }
        // The acked link streams to the sender; a single-link site has
        // only one window an ack can be for.
        let found = self.links.iter().position(|l| l.node == from);
        let Some(u) = found.or((self.links.len() == 1).then_some(0)) else {
            return;
        };
        let base = self.retx_base;
        let link = &mut self.links[u];
        let to = link.node;
        let (progressed, holes) = link.window.on_ack(cum_seq, sack, base);
        if progressed {
            self.wal_log(|| SiteWalRecord::Acked { cum_seq });
        }
        self.fast_retransmits += holes.len() as u64;
        for msg in holes {
            ctx.send(to, msg);
        }
    }

    /// Retransmission round for link `u`: resend the oldest unsacked
    /// messages and back off exponentially, jittered when seeded.
    fn retransmit_round(&mut self, u: usize, ctx: &mut Ctx<'_, Msg>) {
        let (base, cap, crashed) = (self.retx_base, self.retx_cap, self.crashed);
        let tag = self.gen_tag(RETX_BASE + u as u64);
        let link = &mut self.links[u];
        if crashed {
            link.window.armed = false;
            return; // the site is dead: nothing is ever resent.
        }
        let Some(burst) = link.window.timer_round(base, cap) else {
            return;
        };
        let (backoff, to) = (link.window.backoff, link.node);
        self.retransmits += burst.len() as u64;
        for msg in burst {
            ctx.send(to, msg);
        }
        // Jitter the next round (±backoff/8) so sites that lost the same
        // link don't hammer the coordinator in lockstep when it heals.
        let delay = match self.jitter_rng.as_mut() {
            Some(rng) => Nanos(rng.jitter(backoff.get(), backoff.get() / 4)),
            None => backoff,
        };
        ctx.set_timer(delay, tag);
    }

    /// Absorb a local feed result: count + forward detections, schedule
    /// local timers.
    fn absorb_local(&mut self, r: ShardFeedResult<CompositeTimestamp>, ctx: &mut Ctx<'_, Msg>) {
        let gen = self.gen;
        if let Some(local) = &mut self.local {
            for (def, t) in r.timers {
                let tag = LOCAL_TIMER_BASE + local.next_tag;
                local.next_tag += 1;
                local.timer_map.insert(tag, (def, t.id));
                ctx.set_timer(
                    Nanos(t.delay_ticks * local.gg_nanos),
                    (gen << GEN_SHIFT) | tag,
                );
            }
        }
        for occ in r.detected {
            self.local_detections += 1;
            self.forward(occ, ctx);
        }
    }

    /// Rewrite the site log to the compaction image of `img` and return
    /// the fresh writer positioned after it.
    fn rewrite_wal(dir: &Path, img: &SiteWalState) -> io::Result<WalWriter> {
        let mut w = WalWriter::create(dir)?;
        for rec in compaction_records(img) {
            w.append(&rec)?;
        }
        w.sync()?;
        Ok(w)
    }

    /// Bring a crashed site back up as a new incarnation.
    ///
    /// Volatile state (staged frames, retransmit buffers, sequence
    /// counters, partial local-detection matches, outstanding timers) dies
    /// with the old incarnation. A durable site then folds its WAL back
    /// into the unacked send window it owed the coordinator; a non-durable
    /// site restarts every link's sequence space at 0 and relies on the
    /// receivers' epoch filter to discard the old incarnation's
    /// stragglers. The stamp ordinal is *not* reset — it survives like the
    /// epoch, so new routing keys sort after the dead incarnation's.
    ///
    /// The new incarnation announces itself on every link with
    /// `Msg::Hello` *before* resending any backlog, so on in-order links
    /// the receiver's epoch transition precedes every retagged message.
    fn restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.crashed {
            return; // restarting a live site is a no-op
        }
        self.crashed = false;
        self.gen += 1;
        self.restarts += 1;
        for link in &mut self.links {
            link.reset(self.retx_base);
        }
        let pristine = self.local_pristine.clone();
        if let Some(local) = &mut self.local {
            local.timer_map.clear();
            if let Some(p) = pristine {
                local
                    .detector
                    .restore_state(p)
                    .expect("pristine state restores into its own detector");
            }
        }
        // The in-memory epoch survives the simulated crash and stands in
        // for a monotone incarnation source (e.g. a supervisor counter);
        // durable sites additionally recover it from the log, so whichever
        // is higher wins and the new epoch strictly exceeds both.
        let recovered = self.wal_dir.clone().map(|dir| {
            self.wal = None; // the old handle's position is meaningless now
            let st = match recover_site_state(&dir) {
                Ok((st, _scan)) => st,
                Err(e) => {
                    self.wal_io_error(e);
                    SiteWalState::default()
                }
            };
            (dir, st)
        });
        let prior_epoch = recovered.as_ref().map_or(0, |(_, st)| st.epoch);
        self.epoch = self.epoch.max(prior_epoch) + 1;
        if let Some((dir, mut st)) = recovered {
            // Retag the recovered backlog to the new epoch (the receiver
            // drops anything older). A recovered Hello from a *previous*
            // restart must not announce this epoch a second time — it
            // degrades to an empty batch in the same sequence slot, which
            // keeps the slot filled and still carries its watermark.
            st.epoch = self.epoch;
            for m in st.retx.values_mut() {
                match m {
                    Msg::Event { epoch, .. } | Msg::Batch { epoch, .. } => *epoch = st.epoch,
                    Msg::Hello { seq, watermark, .. } => {
                        *m = Msg::Batch {
                            seq: *seq,
                            epoch: st.epoch,
                            watermark: *watermark,
                            events: Arc::new(Vec::new()),
                        };
                    }
                    _ => {}
                }
            }
            match Self::rewrite_wal(&dir, &st) {
                Ok(w) => self.wal = Some(w),
                Err(e) => self.wal_io_error(e),
            }
            // Site durability runs on the coordinator link alone.
            let link = &mut self.links[0];
            link.seq = st.next_seq;
            link.window.unacked = st.retx;
            link.staged = Staged::Batch(st.staged);
        }
        // Announce the incarnation on every link. The watermark falls back
        // to 0 (always a valid promise) if the site clock has not started
        // yet. Each backlog burst is snapshotted first so it excludes the
        // Hello itself, but sent after it.
        let watermark = ctx.stamp().map(|p| p.global.get()).unwrap_or(0);
        let epoch = self.epoch;
        for u in 0..self.links.len() {
            let link = &self.links[u];
            let to = link.node;
            let burst: Vec<Msg> = link
                .window
                .unacked
                .values()
                .take(RETX_BURST)
                .cloned()
                .collect();
            self.send(
                u,
                |seq| Msg::Hello {
                    seq,
                    epoch,
                    watermark,
                },
                ctx,
            );
            self.retransmits += burst.len() as u64;
            for m in burst {
                ctx.send(to, m);
            }
        }
        // Restart the beacon chain in the new timer generation. No
        // immediate beacon: the Hello already carried the watermark.
        ctx.set_timer(self.beacon_interval, self.gen_tag(BEACON_TAG));
    }
}

impl Actor for SiteNode {
    type Msg = Msg;

    fn on_message(&mut self, from: NodeIdx, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        // A dead site neither receives nor reacts: everything except the
        // restart injection is dropped on the floor (in particular acks —
        // the old incarnation must not trim state the new one will need).
        if self.crashed && !matches!(msg, Msg::Restart) {
            return;
        }
        match msg {
            Msg::Start => {
                debug_assert_eq!(from, ctx.me());
                self.beacon(ctx);
            }
            Msg::Crash => {
                self.crashed = true;
            }
            Msg::Restart => {
                self.restart(ctx);
            }
            Msg::Inject { ty, values } => {
                debug_assert_eq!(from, ctx.me(), "Inject comes from the environment");
                match ctx.stamp() {
                    Ok(parts) => {
                        let ts = CompositeTimestamp::singleton(PrimitiveTimestamp::new(
                            parts.site,
                            parts.global,
                            parts.local,
                        ));
                        let occ = Occurrence::primitive(ty, ts, values);
                        // Run the local graph first (site-local composite
                        // detection), then forward the primitive and any
                        // local detections.
                        let local_result =
                            self.local.as_mut().map(|l| l.detector.feed(occ.clone()));
                        self.forward(occ, ctx);
                        if let Some(r) = local_result {
                            self.absorb_local(r, ctx);
                        }
                    }
                    Err(_) => self.dropped_pre_epoch += 1,
                }
            }
            Msg::Ack {
                cum_seq,
                epoch,
                sack,
            } => self.on_ack(from, cum_seq, epoch, sack, ctx),
            // Sites do not receive protocol traffic in the star topology.
            Msg::Event { .. }
            | Msg::Batch { .. }
            | Msg::Hello { .. }
            | Msg::Evict { .. }
            | Msg::Routed { .. }
            | Msg::Relay { .. } => {
                debug_assert!(false, "site received coordinator traffic");
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        // Timers armed by a previous incarnation fire into the void: the
        // new incarnation re-armed its own beacon/retransmit chains at
        // restart, and honoring a stale fire would double them.
        if (tag >> GEN_SHIFT) != self.gen {
            return;
        }
        let tag = tag & TAG_MASK;
        if tag == BEACON_TAG {
            self.beacon(ctx);
            return;
        }
        if tag < LOCAL_TIMER_BASE {
            let u = (tag - RETX_BASE) as usize;
            if u < self.links.len() {
                self.retransmit_round(u, ctx);
            }
            return;
        }
        // A local temporal operator fired: stamp with the site clock.
        if self.crashed {
            return;
        }
        let Ok(parts) = ctx.stamp() else { return };
        let ts = CompositeTimestamp::singleton(PrimitiveTimestamp::new(
            parts.site,
            parts.global,
            parts.local,
        ));
        let result = self.local.as_mut().and_then(|local| {
            let (def, timer_id) = local.timer_map.remove(&tag)?;
            local.detector.fire_timer(def, timer_id, ts).ok()
        });
        if let Some(r) = result {
            self.absorb_local(r, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_chronos::{GlobalTimeBase, Granularity, LocalClock, Precision, TruncMode};
    use decs_simnet::{LinkConfig, Simulation, SiteTimeSource};
    use decs_snoop::EventId;

    /// (seq, watermark, events) of one received batch.
    type ReceivedBatch = (
        u64,
        u64,
        std::sync::Arc<Vec<Occurrence<CompositeTimestamp>>>,
    );

    impl Collector {
        /// (seq, watermark) of every empty batch: the per-event beacons.
        fn heartbeats(&self) -> Vec<(u64, u64)> {
            self.batches
                .iter()
                .filter(|(_, _, events)| events.is_empty())
                .map(|&(seq, watermark, _)| (seq, watermark))
                .collect()
        }
    }

    #[derive(Debug, Default)]
    struct Collector {
        events: Vec<(u64, Occurrence<CompositeTimestamp>)>,
        batches: Vec<ReceivedBatch>,
        /// (seq, epoch, watermark) of every Hello received.
        hellos: Vec<(u64, u64, u64)>,
    }

    impl Actor for Collector {
        type Msg = Msg;

        fn on_message(&mut self, _from: NodeIdx, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Event { seq, occ, .. } => self.events.push((seq, occ)),
                Msg::Batch {
                    seq,
                    watermark,
                    events,
                    ..
                } => self.batches.push((seq, watermark, events)),
                Msg::Hello {
                    seq,
                    epoch,
                    watermark,
                } => self.hellos.push((seq, epoch, watermark)),
                _ => {}
            }
        }
    }

    #[allow(clippy::large_enum_variant)]
    enum Node {
        Site(SiteNode),
        Collector(Collector),
    }

    impl std::fmt::Debug for Node {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Node::Site(_) => f.write_str("Site"),
                Node::Collector(_) => f.write_str("Collector"),
            }
        }
    }

    impl Actor for Node {
        type Msg = Msg;

        fn on_message(&mut self, from: NodeIdx, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match self {
                Node::Site(s) => s.on_message(from, msg, ctx),
                Node::Collector(c) => c.on_message(from, msg, ctx),
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
            if let Node::Site(s) = self {
                s.on_timer(tag, ctx);
            }
        }
    }

    fn source(site: u32) -> SiteTimeSource {
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(1_000_000),
        )
        .unwrap();
        SiteTimeSource::new(
            site.into(),
            LocalClock::perfect(Granularity::per_second(100).unwrap()),
            base,
        )
    }

    #[test]
    fn site_stamps_and_streams() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (
                Node::Site(SiteNode::new(coord, Nanos::from_millis(100))),
                source(0),
            ),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        sim.inject(
            Nanos::from_secs(1),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
        sim.run_until(Nanos::from_secs(2));
        let Node::Collector(c) = sim.node(coord) else {
            panic!("collector expected")
        };
        // One event, stamped (site0, global 10, local 100).
        assert_eq!(c.events.len(), 1);
        let occ = &c.events[0].1;
        assert_eq!(occ.ty, EventId(7));
        let member = occ.time.members()[0];
        assert_eq!(member.site().get(), 0);
        assert_eq!(member.global().get(), 10);
        assert_eq!(member.local().get(), 100);
        // ~20 heartbeats over 2 s at 100 ms, each an empty batch.
        let heartbeats = c.heartbeats();
        assert!(heartbeats.len() >= 19, "{}", heartbeats.len());
        assert_eq!(heartbeats.len(), c.batches.len());
        // Sequence numbers strictly increase across the shared stream.
        let mut seqs: Vec<u64> = c
            .events
            .iter()
            .map(|(s, _)| *s)
            .chain(heartbeats.iter().map(|(s, _)| *s))
            .collect();
        seqs.sort_unstable();
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(*s, i as u64);
        }
        // Watermarks are non-decreasing.
        let w: Vec<u64> = heartbeats.iter().map(|(_, w)| *w).collect();
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn batching_site_coalesces_events_and_suppresses_heartbeats() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (
                Node::Site(
                    SiteNode::new(coord, Nanos::from_millis(100))
                        .with_batching(Nanos::from_millis(100)),
                ),
                source(0),
            ),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        // Two injections inside one 100 ms batch window.
        for dt in [0u64, 20_000_000] {
            sim.inject(
                Nanos(1_010_000_000 + dt),
                NodeIdx(0),
                Msg::Inject {
                    ty: EventId(7),
                    values: vec![],
                },
            );
        }
        sim.run_until(Nanos::from_secs(2));
        let Node::Collector(c) = sim.node(coord) else {
            panic!("collector expected")
        };
        // Batching mode: no Event traffic at all, and no heartbeats beside
        // the flushes: ~20 batches over 2 s at 100 ms, one per flush.
        assert!(c.events.is_empty());
        assert!((19..=21).contains(&c.batches.len()), "{}", c.batches.len());
        // Both events ride one batch.
        let sizes: Vec<usize> = c.batches.iter().map(|(_, _, e)| e.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 2);
        assert!(sizes.contains(&2), "{sizes:?}");
        // One seq per batch, strictly increasing; watermarks non-decreasing.
        for (i, (seq, _, _)) in c.batches.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        let w: Vec<u64> = c.batches.iter().map(|(_, w, _)| *w).collect();
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn pre_epoch_injection_is_counted_not_sent() {
        // A clock 10 s behind: injections at t < 10 s are dropped.
        let coord = NodeIdx(1);
        let g_local = Granularity::per_second(100).unwrap();
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(1_000_000),
        )
        .unwrap();
        let behind = SiteTimeSource::new(
            0u32.into(),
            LocalClock::with_error(g_local, 0, -10_000_000_000),
            base,
        );
        let nodes = vec![
            (
                Node::Site(SiteNode::new(coord, Nanos::from_millis(100))),
                behind,
            ),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(
            Nanos::from_secs(1),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
        sim.run_to_completion();
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.dropped_pre_epoch, 1);
    }

    #[test]
    fn crashed_site_ignores_acks() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (
                Node::Site(
                    SiteNode::new(coord, Nanos::from_millis(100))
                        .with_reliability(Nanos::from_millis(50), Nanos::from_millis(400)),
                ),
                source(0),
            ),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
        // An ack arriving after the crash (e.g. for the last heartbeat)
        // must not trim the dead incarnation's retransmit buffer.
        sim.inject(
            Nanos(1_200_000_000),
            NodeIdx(0),
            Msg::Ack {
                cum_seq: 1_000,
                epoch: 0,
                sack: vec![],
            },
        );
        sim.run_until(Nanos(1_500_000_000));
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert!(s.unacked() > 0, "ack was processed while crashed");
    }

    #[test]
    fn restart_announces_hello_and_resumes_with_new_epoch() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (
                Node::Site(SiteNode::new(coord, Nanos::from_millis(100))),
                source(0),
            ),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        sim.inject(
            Nanos(500_000_000),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
        sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
        sim.inject(Nanos(2_050_000_000), NodeIdx(0), Msg::Restart);
        sim.inject(
            Nanos(2_500_000_000),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
        sim.run_until(Nanos::from_secs(3));
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.restarts, 1);
        assert_eq!(s.epoch(), 1);
        let Node::Collector(c) = sim.node(coord) else {
            panic!()
        };
        // Exactly one Hello: epoch 1, seq 0 (non-durable restart resets
        // the sequence space), watermark from the live clock.
        assert_eq!(c.hellos.len(), 1, "{:?}", c.hellos);
        let (seq, epoch, wm) = c.hellos[0];
        assert_eq!(seq, 0);
        assert_eq!(epoch, 1);
        assert!(
            wm >= 20,
            "restart at 2.05 s should stamp global ≥ 20, got {wm}"
        );
        // Both injections made it out (one per incarnation).
        assert_eq!(c.events.len(), 2);
        // Heartbeats resumed after the restart, and the old incarnation's
        // chain did not double the cadence: ~11 pre-crash + ~9 post-restart.
        let heartbeats = c.heartbeats().len();
        assert!((18..=22).contains(&heartbeats), "{heartbeats} heartbeats");
    }

    #[test]
    fn durable_restart_recovers_unacked_window_and_epoch() {
        let dir = std::env::temp_dir().join(format!(
            "decs-site-wal-test-{}-durable-restart",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let coord = NodeIdx(1);
        let mut site = SiteNode::new(coord, Nanos::from_millis(100))
            .with_reliability(Nanos::from_millis(50), Nanos::from_millis(400));
        site.set_durability(&dir).unwrap();
        let nodes = vec![
            (Node::Site(site), source(0)),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        for dt in [0u64, 100_000_000] {
            sim.inject(
                Nanos(500_000_000 + dt),
                NodeIdx(0),
                Msg::Inject {
                    ty: EventId(7),
                    values: vec![],
                },
            );
        }
        sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
        sim.inject(Nanos(2_050_000_000), NodeIdx(0), Msg::Restart);
        sim.run_until(Nanos(2_100_000_000));
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.wal_errors, 0, "{:?}", s.wal_failed());
        assert_eq!(s.epoch(), 1);
        // The crashed incarnation's unacked window (events + beacons,
        // nothing was ever acked) survived, plus the new Hello.
        assert!(s.unacked() > 2, "recovered {} unacked", s.unacked());
        let Node::Collector(c) = sim.node(coord) else {
            panic!()
        };
        // The Hello continues the recovered sequence space instead of
        // restarting at 0 — no seq collision with the old incarnation.
        // (It is never acked here, so retransmission rounds may repeat
        // it: every copy must agree.)
        assert!(!c.hellos.is_empty());
        assert!(c.hellos.iter().all(|h| *h == c.hellos[0]), "{:?}", c.hellos);
        assert!(c.hellos[0].0 > 0, "durable Hello got seq 0");
        assert_eq!(c.hellos[0].1, 1);
        // The recovered backlog was resent behind the Hello, retagged to
        // the new epoch: both old events arrive again.
        let replayed: Vec<u64> = c.events.iter().map(|(s, _)| *s).collect();
        let dups = replayed
            .iter()
            .filter(|s| replayed.iter().filter(|t| t == s).count() > 1)
            .count();
        assert!(dups >= 2, "backlog not resent: {replayed:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A window holding heartbeats (empty batches) `seqs`, armed at
    /// backoff 100 ms.
    fn window(seqs: std::ops::Range<u64>) -> SendWindow {
        let mut w = SendWindow::new(Nanos::from_millis(100));
        for seq in seqs {
            w.retain(
                seq,
                Msg::Batch {
                    seq,
                    epoch: 0,
                    watermark: 0,
                    events: Arc::new(Vec::new()),
                },
            );
        }
        w
    }

    fn seqs(msgs: &[Msg]) -> Vec<u64> {
        msgs.iter()
            .map(|m| match m {
                Msg::Batch { seq, .. } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn each_hole_is_fast_retransmitted_once() {
        let base = Nanos::from_millis(100);
        let mut w = window(0..10);
        // Holes below the highest sacked number (7): 2, 3 and 5.
        let (progressed, holes) = w.on_ack(2, vec![(4, 5), (6, 7)], base);
        assert!(progressed);
        assert_eq!(seqs(&holes), [2, 3, 5]);
        // The same view again, or one that only grows a range: nothing new.
        assert!(w.on_ack(2, vec![(4, 5), (6, 7)], base).1.is_empty());
        assert!(w.on_ack(2, vec![(4, 5), (6, 8)], base).1.is_empty());
        // A higher sacked range exposes only the one hole not yet resent.
        let (_, holes) = w.on_ack(3, vec![(4, 5), (6, 8), (9, 10)], base);
        assert_eq!(seqs(&holes), [8]);
        assert_eq!(w.unacked.len(), 7, "SACK never removes a message");
    }

    #[test]
    fn timer_round_skips_sacked_entries() {
        let base = Nanos::from_millis(100);
        let mut w = window(0..6);
        w.on_ack(0, vec![(2, 4)], base);
        let burst = w.timer_round(base, Nanos::from_millis(800)).unwrap();
        assert_eq!(seqs(&burst), [0, 1, 4, 5]);
        assert_eq!(w.backoff, Nanos::from_millis(200));
        assert!(w.armed);
    }

    #[test]
    fn reneged_park_is_resent_by_the_timer() {
        // The receiver sacked [2, 5), then dropped 4 on a parked-buffer
        // overflow: its next ack no longer sacks 4, so the timer resends
        // 4 along with the fast-retransmitted hole 1, whose copy may have
        // been lost too.
        let base = Nanos::from_millis(100);
        let mut w = window(0..6);
        assert_eq!(seqs(&w.on_ack(1, vec![(2, 5)], base).1), [1]);
        assert!(w.on_ack(1, vec![(2, 4)], base).1.is_empty());
        let burst = w.timer_round(base, base).unwrap();
        assert_eq!(seqs(&burst), [1, 4, 5]);
    }

    #[test]
    fn site_fast_retransmits_sacked_holes_and_refuses_malformed_sacks() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (
                Node::Site(
                    SiteNode::new(coord, Nanos::from_millis(100))
                        .with_reliability(Nanos::from_secs(5), Nanos::from_secs(5)),
                ),
                source(0),
            ),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        // No `Start`: the stream carries only the five events, seqs 0..5.
        for k in 0..5u64 {
            sim.inject(
                Nanos(1_000_000_000 + k * 1_000_000),
                NodeIdx(0),
                Msg::Inject {
                    ty: EventId(7),
                    values: vec![],
                },
            );
        }
        let ack = |cum_seq, sack| Msg::Ack {
            cum_seq,
            epoch: 0,
            sack,
        };
        // Holes 1 and 3 are resent once, however often the view repeats.
        sim.inject(
            Nanos(1_100_000_000),
            NodeIdx(0),
            ack(1, vec![(2, 3), (4, 5)]),
        );
        sim.inject(
            Nanos(1_200_000_000),
            NodeIdx(0),
            ack(1, vec![(2, 3), (4, 5)]),
        );
        // A SACK claiming the missing cum_seq is refused; its cumulative
        // part still trims the window.
        sim.inject(Nanos(1_300_000_000), NodeIdx(0), ack(2, vec![(2, 4)]));
        sim.run_until(Nanos(1_500_000_000));
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.fast_retransmits, 2);
        assert_eq!(s.retransmits, 0, "the timer never fired");
        assert_eq!(s.sacks_refused, 1);
        assert_eq!(s.unacked(), 3);
        let Node::Collector(c) = sim.node(coord) else {
            panic!()
        };
        let got: Vec<u64> = c.events.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(got, [0, 1, 2, 3, 4, 1, 3]);
    }
}
