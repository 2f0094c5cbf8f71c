//! The stability buffer and release path: buffering notifications under
//! the watermark rule, draining the stable prefix in canonical order,
//! operator-buffer GC, and servicing detector timer fires.

use super::{CoordCtx, CoordinatorNode, RawDetection, ReleaseKey, ACK_TIMER_TAG, RELAY_RETX_TAG};
use crate::durability::WalRecord;
use crate::protocol::Msg;
use decs_chronos::Nanos;
use decs_core::{CompositeTimestamp, PrimitiveTimestamp};
use decs_simnet::Ctx;
use decs_snoop::{FeedResult, Occurrence};

impl CoordinatorNode {
    pub(super) fn absorb(&mut self, r: FeedResult<CompositeTimestamp>, ctx: &mut impl CoordCtx) {
        for (def, t) in r.timers {
            let tag = self.next_tag;
            self.next_tag += 1;
            let delay = Nanos(t.delay_ticks * self.gg_nanos);
            self.timer_map.insert(tag, (def, t.id));
            // Recorded even during replay: the due time is derived from the
            // logged consumption time, so a recovered coordinator re-arms
            // timers at exactly the instants the crashed one had pending.
            self.timer_due
                .insert(tag, ctx.true_now().get().saturating_add(delay.get()));
            ctx.set_timer(delay, tag);
        }
        for occ in r.detected {
            self.metrics.detections += 1;
            self.detections.push(RawDetection {
                occ,
                detected_at: ctx.true_now(),
            });
        }
    }

    /// Drain the stable prefix of the buffer in one watermark-bounded
    /// batch: every released notification is staged, in canonical order,
    /// into the reusable **columnar** [`decs_snoop::EventBatch`] — types,
    /// stamps and parameter handles struct-of-arrays, materialized only
    /// for routed types at delivery — and fed in one call. The parameter
    /// lists ride as `Arc` bumps; re-minted occurrence uids are fresh
    /// either way.
    pub(super) fn release_stable(&mut self, ctx: &mut impl CoordCtx) {
        debug_assert!(self.ingest.is_empty(), "staging batch left dirty");
        let mut released = false;
        while let Some((&key, _)) = self.buffer.iter().next() {
            if !self.tracker.is_stable(key.0) {
                break;
            }
            let (occ, arrived) = self.buffer.remove(&key).expect("present");
            self.release_horizon = self.release_horizon.max(key.0 + 1);
            self.metrics.events_released += 1;
            self.metrics.stability_latency_sum_ns +=
                u128::from(ctx.true_now().get().saturating_sub(arrived.get()));
            self.stage_released(occ, ctx);
            released = true;
        }
        if released {
            self.metrics.release_batches += 1;
        }
        self.feed_staged(ctx);
        self.gc_operator_buffers();
        // End of a release round is the quiescent point: the detector has
        // no half-processed batch, and GC has just refreshed occupancy.
        self.maybe_snapshot();
    }

    /// Stage a released notification for the next columnar feed. A
    /// site-local composite detection is reported in its own right first,
    /// after everything staged before it has been fed — so each arrival is
    /// reported between its neighbours' detections, exactly where feeding
    /// one event at a time would put it.
    fn stage_released(&mut self, occ: Occurrence<CompositeTimestamp>, ctx: &mut impl CoordCtx) {
        if self.reportable.contains(&occ.ty) {
            self.feed_staged(ctx);
            self.metrics.detections += 1;
            self.detections.push(RawDetection {
                occ: occ.clone(),
                detected_at: ctx.true_now(),
            });
        }
        self.ingest.push_list(occ.ty, occ.time, occ.params);
    }

    /// Feed the staged columnar batch, if any, into the detector.
    fn feed_staged(&mut self, ctx: &mut impl CoordCtx) {
        if self.ingest.is_empty() {
            return;
        }
        self.metrics.batch_ingest_events += self.ingest.len() as u64;
        self.metrics.arena_bytes = self
            .metrics
            .arena_bytes
            .max(self.ingest.arena_bytes() as u64);
        let r = self.detector.feed_batch_columnar(&self.ingest);
        self.ingest.clear();
        self.absorb(r, ctx);
    }

    /// Let the detector's operator nodes reclaim buffered state the
    /// watermark proves dead, and refresh the occupancy metrics.
    ///
    /// The low bound is `min_watermark − 2`: everything the coordinator can
    /// still feed has all member globals `≥` that. Stability releases
    /// stamps with `max_global ≤ min − 2`, so buffer residue and future
    /// releases have `max_global ≥ min − 1`; by Theorem 5.1 the members of
    /// a `Max`-combined stamp are pairwise concurrent, so their globals
    /// span at most one tick — all `≥ min − 2`. Coordinator-clock timer
    /// stamps sit at the current global tick, ahead of every received
    /// watermark under the `2g_g` clock-sync assumption (Prop 4.1).
    pub(super) fn gc_operator_buffers(&mut self) {
        if !self.ablation.no_buffer_gc {
            let low = self.tracker.min_watermark().saturating_sub(2);
            if low > self.last_gc_low {
                self.last_gc_low = low;
                // Operator buffers below `low` are gone: a late notification
                // at or below it could no longer combine correctly, so the
                // stale horizon advances with the GC bound too.
                self.release_horizon = self.release_horizon.max(low + 1);
                self.metrics.gc_evicted += self.detector.advance_watermark(low);
            }
        }
        self.metrics.node_buffered = self.detector.buffered_occupancy();
        self.metrics.node_buffer_peak = self
            .metrics
            .node_buffer_peak
            .max(self.metrics.node_buffered);
    }

    /// Buffer (or, under the release-on-arrival ablation, directly feed)
    /// one reassembled notification. The release key's third component is
    /// the per-site arrival counter — identical for the `Event` and
    /// `Batch` transports.
    pub(super) fn accept_notification(
        &mut self,
        site: usize,
        occ: Occurrence<CompositeTimestamp>,
        ctx: &mut impl CoordCtx,
    ) {
        if self.ablation.release_on_arrival {
            self.metrics.events_received += 1;
            self.metrics.events_released += 1;
            self.stage_released(occ, ctx);
            self.feed_staged(ctx);
            return;
        }
        if occ.time.max_global() < self.release_horizon {
            // Its slot in the canonical release order has already been
            // passed — the pre-crash backlog of an evicted, now rejoining
            // site (a healthy site's watermark promise makes this provably
            // unreachable). Refuse it *without* consuming an arrival
            // counter, so surviving notifications keep the same release
            // keys as a run in which the stale backlog never arrived.
            self.metrics.stale_refused += 1;
            return;
        }
        self.metrics.events_received += 1;
        let arrival = self.streams[site].arrivals;
        self.streams[site].arrivals += 1;
        let key: ReleaseKey = (occ.time.max_global(), site as u32, arrival);
        self.buffer.insert(key, (occ, ctx.true_now()));
        self.metrics.max_buffered = self.metrics.max_buffered.max(self.buffer.len());
    }

    /// The body of [`decs_simnet::Actor::on_timer`]: the periodic
    /// ack/stall round, or a detector timer fire stamped with the
    /// coordinator's own clock.
    pub(super) fn timer_fire(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        if self.wal_failed.is_some() {
            // Fail-stop: a timer fire is a consumed input too, and it can
            // no longer be logged.
            return;
        }
        if tag == ACK_TIMER_TAG {
            self.ack_round(ctx);
            return;
        }
        if tag == RELAY_RETX_TAG {
            self.relay_retx_round(ctx);
            return;
        }
        let Some((def, timer_id)) = self.timer_map.remove(&tag) else {
            // Not an error: after crash recovery a timer can be queued
            // twice — the crashed node's arming survives in the simulation
            // queue *and* the recovery harness re-arms it for the
            // replacement node. `timer_map.remove` makes the fire
            // idempotent; the loser lands here and is ignored.
            return;
        };
        self.timer_due.remove(&tag);
        // Stamp the fire with the coordinator's own clock — periodic
        // occurrences carry genuine (site, global, local) triples.
        let Ok(parts) = ctx.stamp() else {
            return;
        };
        if self.wal.is_some() && !self.replaying {
            // The minted stamp is logged part-by-part: replay must rebuild
            // the identical timestamp without consulting any clock.
            self.wal_append(WalRecord::TimerFired {
                tag,
                at: Ctx::true_now(ctx).get(),
                site: parts.site.0,
                global: parts.global.get(),
                local: parts.local.get(),
            });
            if self.wal_failed.is_some() {
                return;
            }
        }
        let ts = CompositeTimestamp::singleton(PrimitiveTimestamp::new(
            parts.site,
            parts.global,
            parts.local,
        ));
        self.fire_detector_timer(def, timer_id, ts, ctx);
    }
}
