//! Per-site stream delivery: FIFO reassembly over sequence numbers,
//! incarnation-epoch filtering and the `Hello` rejoin transition,
//! cumulative acks with selective-ack ranges, stall detection and
//! eviction.

use super::{CoordCtx, CoordinatorNode, ACK_INTERVAL, ACK_TIMER_TAG, PARKED_CAP, RELAY_RETX_TAG};
use crate::durability::WalRecord;
use crate::protocol::{Msg, SACK_RANGES};
use crate::site::RETRANSMIT_TIMEOUT;
use decs_simnet::NodeIdx;
use std::collections::BTreeMap;

/// The selective-ack view of a stream's parked messages: maximal runs of
/// consecutive parked sequence numbers as half-open `[lo, hi)` ranges,
/// ascending, the lowest [`SACK_RANGES`] of them (a park at `u64::MAX`
/// has no half-open bound and goes unreported). Allocates nothing when
/// nothing is parked.
fn sack_of(parked: &BTreeMap<u64, Msg>) -> Vec<(u64, u64)> {
    let mut sack: Vec<(u64, u64)> = Vec::new();
    for &seq in parked.range(..u64::MAX).map(|(seq, _)| seq) {
        match sack.last_mut() {
            Some((_, hi)) if *hi == seq => *hi += 1,
            _ => {
                if sack.len() == SACK_RANGES {
                    break;
                }
                sack.push((seq, seq + 1));
            }
        }
    }
    sack
}

impl CoordinatorNode {
    /// Consume one in-order message from `site`'s reassembled stream:
    /// log it to the WAL first (recovery replays exactly this stream),
    /// then apply it.
    pub(super) fn handle_in_order(&mut self, site: usize, msg: Msg, ctx: &mut impl CoordCtx) {
        if self.wal_failed.is_some() {
            // Fail-stopped: `wal == None` no longer means durability-off.
            return;
        }
        // Log before applying: recovery replays exactly the in-order
        // consumption stream. Parked messages are logged here — when they
        // are consumed — not on arrival; until then the ack protocol keeps
        // them the sender's responsibility.
        if self.wal.is_some() && !self.replaying {
            self.wal_append(WalRecord::Delivered {
                site: site as u32,
                at: ctx.true_now().get(),
                msg: msg.clone(),
            });
            if self.wal_failed.is_some() {
                // The message could not be logged: fail-stop *before*
                // applying it, so disk state still matches applied state.
                return;
            }
        }
        self.metrics.messages_processed += 1;
        // Evicted sites: stream bookkeeping continues (their retransmits
        // must be acked into silence) but new notifications are refused and
        // their watermark promises stay pinned at +∞.
        let evicted = self.streams[site].evicted;
        match msg {
            Msg::Event { occ, .. } => {
                if evicted {
                    self.metrics.evict_refused += 1;
                } else {
                    self.accept_notification(site, occ, ctx);
                }
            }
            Msg::Batch {
                watermark, events, ..
            } => {
                self.metrics.batches_received += 1;
                self.metrics.batch_size_max = self.metrics.batch_size_max.max(events.len());
                if evicted {
                    self.metrics.evict_refused += events.len() as u64;
                } else {
                    // The WAL (or a retransmit buffer in tests) may still
                    // hold a reference; consume in place when we own the
                    // only copy, clone per occurrence otherwise.
                    match std::sync::Arc::try_unwrap(events) {
                        Ok(owned) => {
                            for occ in owned {
                                self.accept_notification(site, occ, ctx);
                            }
                        }
                        Err(shared) => {
                            for occ in shared.iter().cloned() {
                                self.accept_notification(site, occ, ctx);
                            }
                        }
                    }
                }
                self.tracker.update(site, watermark);
                self.release_round(ctx);
            }
            Msg::Hello { watermark, .. } => {
                // The epoch transition already ran at first sight (see
                // `epoch_transition`); consuming the Hello in order marks
                // the rejoin complete: the returning site's backlog is
                // drained and its fresh watermark promise takes effect.
                self.tracker.update(site, watermark);
                if let Some(t0) = self.streams[site].rejoined_at.take() {
                    self.metrics.rejoin_latency_ns += ctx.true_now().get().saturating_sub(t0.get());
                }
                self.release_round(ctx);
            }
            Msg::Routed {
                watermark, events, ..
            } => {
                // Subscription-routed site traffic (partitioned plane): the
                // subset of the site's stream this replica subscribes to,
                // plus the site's watermark (carried on every uplink).
                self.metrics.routed_received += 1;
                if evicted {
                    self.metrics.evict_refused += events.len() as u64;
                } else {
                    match std::sync::Arc::try_unwrap(events) {
                        Ok(owned) => {
                            for ev in owned {
                                self.accept_routed(site, ev, ctx);
                            }
                        }
                        Err(shared) => {
                            for ev in shared.iter().cloned() {
                                self.accept_routed(site, ev, ctx);
                            }
                        }
                    }
                }
                self.tracker.update(site, watermark);
                self.release_round(ctx);
            }
            Msg::Relay {
                promise, events, ..
            } => {
                // Peer-replica traffic: forwarded cascade events plus the
                // peer's promise. No tracker update — peers are ordered by
                // promises, not site watermarks.
                self.handle_relay(site, &promise, events, ctx);
            }
            Msg::Start
            | Msg::Inject { .. }
            | Msg::Crash
            | Msg::Restart
            | Msg::Evict { .. }
            | Msg::Ack { .. } => {
                debug_assert!(false, "sequence-numbered control message");
            }
        }
    }

    /// Run the release machinery appropriate to this deployment: the
    /// partitioned round when this coordinator is a replica, the classic
    /// stability-buffer walk otherwise.
    pub(super) fn release_round(&mut self, ctx: &mut impl CoordCtx) {
        if self.part.is_some() {
            self.release_partitioned(ctx);
        } else {
            self.release_stable(ctx);
        }
    }

    /// Whether a sequence-numbered message from node `site` fits this
    /// deployment: the sender owns a reassembly stream here; a classic
    /// coordinator takes no replica traffic (`Relay`, `Routed`); in a
    /// partitioned plane, site streams carry site traffic only and peer
    /// streams carry only relays from *another* replica whose promise has
    /// one entry per stratum of this replica's bound on that peer.
    fn fits_stream(&self, site: usize, msg: &Msg) -> bool {
        if site >= self.streams.len() {
            return false;
        }
        match (&self.part, msg) {
            (None, Msg::Relay { .. } | Msg::Routed { .. }) => false,
            (None, _) => true,
            (Some(part), Msg::Relay { promise, .. }) => {
                let Some(q) = site.checked_sub(part.n_sites) else {
                    return false;
                };
                q != part.replica && promise.len() == part.peer_bound[q].len()
            }
            (Some(part), _) => site < part.n_sites,
        }
    }

    pub(super) fn epoch_of(msg: &Msg) -> Option<u64> {
        match msg {
            Msg::Event { epoch, .. }
            | Msg::Batch { epoch, .. }
            | Msg::Hello { epoch, .. }
            | Msg::Routed { epoch, .. } => Some(*epoch),
            // Replica → replica streams have no incarnation epochs (a
            // recovered replica resumes its durable sequence space).
            Msg::Relay { .. } => Some(0),
            _ => None,
        }
    }

    /// React to the **first sight** of a `Msg::Hello` carrying a higher
    /// epoch than the stream's (in or out of order — it runs before
    /// sequence handling, and exactly once per epoch because it raises the
    /// stream epoch it is gated on):
    ///
    /// * parked reassembly state from the dead incarnation is dropped (its
    ///   sequence numbers may collide with the new incarnation's);
    /// * the in-order frontier falls to `min(next, base_seq)` — a
    ///   non-durable restart resets the site's sequence space below the old
    ///   frontier, a durable one resumes at or above it (so `min` is a
    ///   no-op there and no delivered prefix is ever re-opened);
    /// * an evicted site is un-evicted: its watermark pin drops from +∞
    ///   back to the Hello's fresh promise and its stall state clears.
    pub(super) fn epoch_transition(
        &mut self,
        site: usize,
        epoch: u64,
        base_seq: u64,
        watermark: u64,
        ctx: &mut impl CoordCtx,
    ) {
        if self.wal_failed.is_some() {
            return;
        }
        if self.wal.is_some() && !self.replaying {
            self.wal_append(WalRecord::HelloSeen {
                site: site as u32,
                at: ctx.true_now().get(),
                epoch,
                base_seq,
                watermark,
            });
            if self.wal_failed.is_some() {
                return;
            }
        }
        let dropped = std::mem::take(&mut self.streams[site].parked).len();
        self.parked_total -= dropped;
        self.streams[site].epoch = epoch;
        self.streams[site].next = self.streams[site].next.min(base_seq);
        self.streams[site].rejoined_at = Some(ctx.true_now());
        let was_evicted = std::mem::replace(&mut self.streams[site].evicted, false);
        if was_evicted {
            self.tracker.reset(site, watermark);
            let st = &mut self.stall[site];
            if st.suspect {
                st.suspect = false;
                self.metrics.suspect_sites -= 1;
            }
            st.stalled_checks = 0;
            st.last_wm = watermark;
        }
        self.metrics.rejoins += 1;
        self.metrics.epoch_max = self.metrics.epoch_max.max(epoch);
    }

    /// Stop waiting for `site`: its watermark promise becomes +∞ and its
    /// future notifications are refused (buffered ones still release).
    pub(super) fn evict(&mut self, site: usize, ctx: &mut impl CoordCtx) {
        if site >= self.streams.len() || self.streams[site].evicted || self.wal_failed.is_some() {
            return;
        }
        if self.wal.is_some() && !self.replaying {
            self.wal_append(WalRecord::Evicted {
                site: site as u32,
                at: ctx.true_now().get(),
            });
            if self.wal_failed.is_some() {
                return;
            }
        }
        self.streams[site].evicted = true;
        self.tracker.update(site, u64::MAX);
        self.release_round(ctx);
    }

    /// Send `site`'s cumulative ack with the selective-ack ranges of its
    /// parked messages, scoped to its current epoch (a site ignores acks
    /// from an epoch other than its own).
    pub(super) fn send_ack(&mut self, to: NodeIdx, site: usize, ctx: &mut impl CoordCtx) {
        self.metrics.acks_sent += 1;
        let stream = &self.streams[site];
        ctx.send(
            to,
            Msg::Ack {
                cum_seq: stream.next,
                epoch: stream.epoch,
                sack: sack_of(&stream.parked),
            },
        );
    }

    /// Periodic round: re-send every stream's cumulative ack (repairing
    /// acks lost on the return path — peer relay streams included, their
    /// stream index is their node index), run the stall detector, re-arm.
    pub(super) fn ack_round(&mut self, ctx: &mut impl CoordCtx) {
        let own_slot = self
            .part
            .as_ref()
            .map(|p| p.n_sites + p.replica)
            .unwrap_or(usize::MAX);
        for site in 0..self.streams.len() {
            if site == own_slot {
                continue;
            }
            self.send_ack(NodeIdx(site as u32), site, ctx);
        }
        self.stall_check(ctx);
        ctx.set_timer(ACK_INTERVAL, ACK_TIMER_TAG);
    }

    /// Mark a site *suspect* when its watermark has not advanced for
    /// `stall_intervals` consecutive rounds in which some other site's
    /// did (a globally idle system suspects nobody). Suspicion clears as
    /// soon as the watermark moves again; with `auto_evict` it escalates
    /// to eviction instead.
    pub(super) fn stall_check(&mut self, ctx: &mut impl CoordCtx) {
        if self.stall_intervals == 0 {
            return;
        }
        let n = self.stall.len();
        let mut advanced = vec![false; n];
        let mut any_advanced = false;
        for (i, adv) in advanced.iter_mut().enumerate() {
            if self.streams[i].evicted {
                continue;
            }
            let wm = self.tracker.site_watermark(i);
            if wm > self.stall[i].last_wm {
                self.stall[i].last_wm = wm;
                *adv = true;
                any_advanced = true;
            }
        }
        let mut to_evict = Vec::new();
        for (i, &adv) in advanced.iter().enumerate() {
            if self.streams[i].evicted {
                continue;
            }
            let st = &mut self.stall[i];
            if adv {
                st.stalled_checks = 0;
                if st.suspect {
                    st.suspect = false;
                    self.metrics.suspect_sites -= 1;
                }
            } else if any_advanced {
                st.stalled_checks += 1;
                if st.suspect {
                    self.metrics.stall_ns += u128::from(ACK_INTERVAL.get());
                } else if st.stalled_checks >= self.stall_intervals {
                    st.suspect = true;
                    self.metrics.suspect_sites += 1;
                    if self.auto_evict {
                        self.metrics.auto_evictions += 1;
                        to_evict.push(i);
                    }
                }
            }
        }
        for site in to_evict {
            self.evict(site, ctx);
        }
    }

    /// The full message-delivery state machine (the body of
    /// [`decs_simnet::Actor::on_message`]): control messages, the
    /// incarnation-epoch filter, and sequence-number reassembly with
    /// park/drain/dup handling.
    pub(super) fn deliver(&mut self, from: NodeIdx, msg: Msg, ctx: &mut impl CoordCtx) {
        if let Msg::Evict { site } = msg {
            // Operator action: treat the site's watermark as +∞ so the
            // remaining buffer can stabilize without it.
            self.evict(site as usize, ctx);
            return;
        }
        if matches!(msg, Msg::Start) {
            // Engine control: arm the periodic ack/stall-check round and —
            // on a replica — the relay retransmission round.
            ctx.set_timer(ACK_INTERVAL, ACK_TIMER_TAG);
            if self.part.is_some() {
                ctx.set_timer(RETRANSMIT_TIMEOUT, RELAY_RETX_TAG);
            }
            return;
        }
        let site = from.0 as usize;
        if let Msg::Ack { cum_seq, .. } = msg {
            // A peer replica acking our relay stream (sites never ack the
            // coordinator). Classic deployments fall through to the
            // seq gate below, which drops the echo.
            if self.part.is_some() && site >= self.part.as_ref().expect("partitioned").n_sites {
                self.on_peer_ack(site, cum_seq);
                return;
            }
        }
        let Some(seq) = msg.seq() else {
            return; // Inject/Ack echoes are not coordinator traffic
        };
        if !self.fits_stream(site, &msg) {
            // Foreign input: dropped before it touches any stream state,
            // and never acked, so no sender mistakes it for delivered.
            self.metrics.foreign_refused += 1;
            return;
        }
        if self.wal_failed.is_some() {
            // Fail-stop after a WAL error: dropping without acking keeps
            // the durable log prefix exactly the consumed-input stream —
            // sites retransmit into the replacement coordinator instead.
            return;
        }
        // Incarnation-epoch filter, ahead of sequence handling: the two
        // incarnations' sequence spaces may overlap.
        let msg_epoch = Self::epoch_of(&msg).unwrap_or(0);
        let stream_epoch = self.streams[site].epoch;
        if msg_epoch < stream_epoch {
            // In-flight traffic from a dead incarnation.
            self.metrics.epoch_filtered += 1;
            return;
        }
        if msg_epoch > stream_epoch {
            match &msg {
                Msg::Hello {
                    seq,
                    epoch,
                    watermark,
                } => {
                    let (s, e, w) = (*seq, *epoch, *watermark);
                    self.epoch_transition(site, e, s, w, ctx);
                    // Fall through: the Hello itself is sequence-handled
                    // against the just-lowered frontier like any message.
                }
                _ => {
                    // New-incarnation data racing ahead of its Hello. Drop
                    // it unacked; retransmission re-delivers it once the
                    // Hello has landed and bumped the stream epoch.
                    self.metrics.epoch_filtered += 1;
                    return;
                }
            }
        }
        let stream = &mut self.streams[site];
        match seq.cmp(&stream.next) {
            std::cmp::Ordering::Equal => {
                stream.next += 1;
                self.handle_in_order(site, msg, ctx);
                // Drain any parked successors.
                loop {
                    if self.wal_failed.is_some() {
                        break;
                    }
                    let stream = &mut self.streams[site];
                    let Some(m) = stream.parked.remove(&stream.next) else {
                        break;
                    };
                    self.parked_total -= 1;
                    stream.next += 1;
                    self.handle_in_order(site, m, ctx);
                }
                if self.wal_failed.is_some() {
                    // The frontier advance was never durably logged — do
                    // not ack it, or the site would stop retransmitting a
                    // message no recovery will ever see.
                    return;
                }
                // Cumulative ack on every in-order delivery: the site trims
                // its retransmit buffer as soon as the frontier moves.
                self.send_ack(from, site, ctx);
            }
            std::cmp::Ordering::Greater => {
                if stream.parked.insert(seq, msg).is_some() {
                    // A second copy of an already-parked message
                    // (retransmitted or link-duplicated): the overwrite is
                    // idempotent.
                    self.metrics.duplicates_dropped += 1;
                    return;
                }
                self.metrics.reassembly_parks += 1;
                self.parked_total += 1;
                if stream.parked.len() > PARKED_CAP {
                    // Backpressure: discard the parked message farthest
                    // from the in-order frontier. Cumulative acks never
                    // cover it, so the sender retransmits it later.
                    let (&victim, _) = stream.parked.iter().next_back().expect("non-empty");
                    stream.parked.remove(&victim);
                    self.parked_total -= 1;
                    self.metrics.parked_dropped += 1;
                }
                self.metrics.parked_peak = self.metrics.parked_peak.max(self.parked_total);
                // A park that opens a new hole — the message just below it
                // is neither delivered (`seq > next`) nor parked — is
                // reported at once, so the sender fast-retransmits the hole
                // instead of waiting out its timer. A park adjacent to an
                // existing run adds nothing the last gap ack did not say.
                if stream.parked.contains_key(&seq) && !stream.parked.contains_key(&(seq - 1)) {
                    self.send_ack(from, site, ctx);
                }
            }
            std::cmp::Ordering::Less => {
                // An already-delivered sequence number: a retransmitted or
                // link-duplicated copy. Drop it and re-ack so the sender
                // learns its delivery even if the original ack was lost.
                self.metrics.duplicates_dropped += 1;
                self.send_ack(from, site, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::partition::PartitionState;
    use super::super::{CoordCtx, CoordinatorNode, PARKED_CAP};
    use crate::protocol::{Msg, PlanePos, SACK_RANGES};
    use decs_chronos::Nanos;
    use decs_simnet::NodeIdx;
    use decs_snoop::PlanDetector;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// A context that keeps every message the coordinator sends.
    #[derive(Default)]
    struct Sent(Vec<Msg>);

    impl CoordCtx for Sent {
        fn true_now(&self) -> Nanos {
            Nanos::ZERO
        }
        fn set_timer(&mut self, _delay: Nanos, _tag: u64) {}
        fn send(&mut self, _to: NodeIdx, msg: Msg) {
            self.0.push(msg);
        }
    }

    fn coordinator() -> CoordinatorNode {
        let mut d = PlanDetector::new();
        d.register("A").unwrap();
        CoordinatorNode::new(1, d, 100_000_000)
    }

    /// Deliver heartbeat (empty batch) `seq` from site 0 and return the
    /// acks it caused as `(cum_seq, sack)` pairs.
    fn deliver(c: &mut CoordinatorNode, seq: u64) -> Vec<(u64, Vec<(u64, u64)>)> {
        let mut ctx = Sent::default();
        let hb = Msg::Batch {
            seq,
            epoch: 0,
            watermark: 0,
            events: Arc::new(Vec::new()),
        };
        c.deliver(NodeIdx(0), hb, &mut ctx);
        ctx.0
            .into_iter()
            .map(|m| match m {
                Msg::Ack { cum_seq, sack, .. } => (cum_seq, sack),
                other => panic!("coordinator sent {other:?}"),
            })
            .collect()
    }

    #[test]
    fn lossless_stream_acks_carry_an_empty_sack() {
        let mut c = coordinator();
        for seq in 0..5 {
            assert_eq!(deliver(&mut c, seq), vec![(seq + 1, vec![])]);
        }
    }

    #[test]
    fn each_new_hole_gets_exactly_one_gap_ack() {
        let mut c = coordinator();
        // 2 opens the hole [0, 2).
        assert_eq!(deliver(&mut c, 2), vec![(0, vec![(2, 3)])]);
        // 3 extends the parked run above the same hole: no ack.
        assert_eq!(deliver(&mut c, 3), vec![]);
        // 5 opens a second hole, [4, 5).
        assert_eq!(deliver(&mut c, 5), vec![(0, vec![(2, 4), (5, 6)])]);
        // A second copy of a parked message says nothing new.
        assert_eq!(deliver(&mut c, 5), vec![]);
        // In-order progress acks as always, with the remaining view.
        assert_eq!(deliver(&mut c, 0), vec![(1, vec![(2, 4), (5, 6)])]);
        assert_eq!(deliver(&mut c, 1), vec![(4, vec![(5, 6)])]);
        assert_eq!(c.metrics.reassembly_parks, 3);
    }

    #[test]
    fn sack_reports_the_lowest_ranges() {
        let mut c = coordinator();
        let mut last = Vec::new();
        for k in 1..=(SACK_RANGES as u64 + 1) {
            let acks = deliver(&mut c, 2 * k);
            assert_eq!(acks.len(), 1, "park {} opens a new hole", 2 * k);
            last = acks[0].1.clone();
        }
        let lowest: Vec<(u64, u64)> = (1..=SACK_RANGES as u64)
            .map(|k| (2 * k, 2 * k + 1))
            .collect();
        assert_eq!(last, lowest);
        assert!(crate::protocol::sack_valid(0, &last));
    }

    #[test]
    fn parked_overflow_victim_leaves_the_sack() {
        let mut c = coordinator();
        // The run [2, top] fills the parked buffer: one hole, one gap ack.
        let top = PARKED_CAP as u64 + 1;
        assert_eq!(deliver(&mut c, 2), vec![(0, vec![(2, 3)])]);
        for seq in 3..=top {
            assert_eq!(deliver(&mut c, seq), vec![]);
        }
        // top + 2 overflows the cap and is itself the victim: no hole
        // opened.
        assert_eq!(deliver(&mut c, top + 2), vec![]);
        assert_eq!(c.metrics.parked_dropped, 1);
        // 1 overflows it again and evicts the top of the run, which the
        // gap ack for the new hole no longer sacks.
        assert_eq!(deliver(&mut c, 1), vec![(0, vec![(1, top)])]);
        assert_eq!(c.metrics.parked_dropped, 2);
        // In-order delivery stops below the victim, so the sender's timer
        // resends it.
        assert_eq!(deliver(&mut c, 0), vec![(top, vec![])]);
    }

    /// Replica 0 of a two-replica plane over one site: stream 0 is the
    /// site, stream 1 is this replica itself, stream 2 is its peer.
    fn replica() -> CoordinatorNode {
        let mut c = coordinator();
        c.enable_partition(PartitionState::new(
            0,
            1,
            2,
            Vec::new(),
            HashMap::new(),
            HashMap::new(),
            HashMap::new(),
            0,
            0,
            1,
        ));
        c
    }

    fn relay(promise_len: usize) -> Msg {
        Msg::Relay {
            seq: 0,
            promise: vec![PlanePos::MAX; promise_len],
            events: Arc::new(Vec::new()),
        }
    }

    fn heartbeat(watermark: u64) -> Msg {
        Msg::Batch {
            seq: 0,
            epoch: 0,
            watermark,
            events: Arc::new(Vec::new()),
        }
    }

    /// Deliver `msg` from node `from` and check it was refused: counted
    /// once, never acked, and no stream or watermark moved.
    fn assert_refused(c: &mut CoordinatorNode, from: u32, msg: Msg) {
        let before = c.metrics.foreign_refused;
        let watermark = c.tracker.min_watermark();
        let mut ctx = Sent::default();
        c.deliver(NodeIdx(from), msg, &mut ctx);
        assert_eq!(c.metrics.foreign_refused, before + 1);
        assert!(ctx.0.is_empty(), "refused input must not be acked");
        assert_eq!(c.tracker.min_watermark(), watermark);
        assert!(c.streams.iter().all(|s| s.next == 0 && s.parked.is_empty()));
    }

    #[test]
    fn relay_at_a_classic_coordinator_is_refused() {
        let mut c = coordinator();
        assert_refused(&mut c, 0, relay(1));
        assert_eq!(c.metrics.foreign_refused, 1);
    }

    #[test]
    fn routed_at_a_classic_coordinator_is_refused() {
        let mut c = coordinator();
        let routed = Msg::Routed {
            seq: 0,
            epoch: 0,
            watermark: 7,
            events: Arc::new(Vec::new()),
        };
        assert_refused(&mut c, 0, routed);
        assert_eq!(c.metrics.foreign_refused, 1);
    }

    #[test]
    fn sender_without_a_stream_is_refused() {
        let mut c = coordinator();
        assert_refused(&mut c, 5, heartbeat(7));
        assert_eq!(c.metrics.foreign_refused, 1);
        let mut r = replica();
        assert_refused(&mut r, 3, relay(1));
        assert_eq!(r.metrics.foreign_refused, 1);
    }

    #[test]
    fn misaddressed_relays_are_refused() {
        let mut r = replica();
        assert_refused(&mut r, 0, relay(1)); // from a site stream
        assert_refused(&mut r, 1, relay(1)); // from this replica itself
        assert_refused(&mut r, 2, relay(3)); // promise of the wrong length
        assert_refused(&mut r, 2, heartbeat(7)); // site traffic, peer stream
        assert_eq!(r.metrics.foreign_refused, 4);
        // A well-formed relay from the peer is still consumed and acked.
        let mut ctx = Sent::default();
        r.deliver(NodeIdx(2), relay(1), &mut ctx);
        assert_eq!(r.metrics.foreign_refused, 4);
        assert_eq!(r.streams[2].next, 1);
        assert!(ctx.0.iter().any(|m| matches!(m, Msg::Ack { .. })));
    }
}
