//! Engine configuration.

use decs_chronos::Nanos;
use std::path::PathBuf;

/// Where and how often the coordinator (or each replica) persists its
/// state: a write-ahead log of delivered notifications plus periodic
/// operator-state snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Durability {
    /// Directory for the WAL and snapshot files (replica `r` of a
    /// partitioned plane logs under `<dir>/replica-<r>`).
    pub dir: PathBuf,
    /// Take an operator-state snapshot whenever the minimum watermark has
    /// advanced by at least this many global ticks since the last
    /// snapshot. `0` means snapshot at every watermark advance; recovery
    /// works with any interval (larger intervals replay a longer WAL
    /// suffix). Replicas of a partitioned plane take no snapshots: their
    /// recovery always replays the whole log.
    pub snapshot_interval: u64,
}

/// Tunables of the distributed detection engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// How often each per-event site beacons its watermark: an empty
    /// `Msg::Batch` (an empty `Msg::Routed` on each link to a replica).
    pub heartbeat_interval: Nanos,
    /// How often each site flushes its coalesced notification batch.
    /// `Nanos::ZERO` (the default) disables batching: every occurrence is
    /// sent as its own `Msg::Event` and the watermark travels on an empty
    /// `Msg::Batch` every heartbeat interval. Any positive interval
    /// switches the site to coalescing: each flush carries the watermark,
    /// so the batch interval replaces the heartbeat interval. Detections
    /// are identical either way.
    pub batch_interval: Nanos,
    /// Stall detector threshold: a site is marked *suspect* after its
    /// watermark fails to advance for this many consecutive ack intervals
    /// (100 ms each) while some other site's does. `0` disables stall
    /// detection.
    pub stall_intervals: u64,
    /// Escalate suspect sites to eviction automatically. Off by default:
    /// eviction sacrifices completeness (composites needing the evicted
    /// site's events are suppressed), so it is an explicit opt-in.
    pub auto_evict: bool,
    /// Coordinator durability, so a crashed coordinator or replica can be
    /// rebuilt and resumed (`Engine::crash_and_recover_coordinator`,
    /// `Engine::crash_and_recover_replica`). `None` (the default) keeps no
    /// log — durability costs a serialization and a batched sync per
    /// in-order message.
    pub durability: Option<Durability>,
    /// Persist each site's outbound state (unacked send window, sequence
    /// counter, staged batch) to a per-site WAL under `<dir>/site-<i>`, so
    /// a restarted site resumes retransmission where the crashed
    /// incarnation stopped instead of restarting its sequence space.
    /// `None` (the default) keeps no site log — site logging syncs per
    /// append (log-before-send).
    pub site_durability: Option<PathBuf>,
    /// Seed for per-site retransmission-backoff jitter (each site derives
    /// an independent stream from it). `None` disables jitter: every
    /// round fires exactly at the nominal backoff.
    pub retransmit_jitter_seed: Option<u64>,
    /// Coordinator replicas in the detection plane. `1` (the default) is
    /// the classic single-coordinator deployment. With `n ≥ 2` the global
    /// definitions are partitioned across `n` replicas by rendezvous
    /// hashing, sites route each announcement only to the replicas whose
    /// definitions subscribe to its type, and cross-partition composite
    /// events are forwarded replica → replica as first-class primitive
    /// events. Detections are bit-for-bit identical to `1` (see
    /// `tests/prop_partition.rs`). `0`, more than 64 (replica peer sets
    /// are `u64` bitmasks), and `n ≥ 2` together with
    /// [`EngineConfig::site_durability`] or site-local definitions are
    /// refused as [`crate::EngineError::Unsupported`].
    pub coordinator_replicas: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            // Heartbeat well below the paper-scale g_g (1/10 s) so
            // stability lags by a small number of global ticks.
            heartbeat_interval: Nanos::from_millis(20),
            batch_interval: Nanos::ZERO,
            // 50 × 100 ms = 5 s of one-sided watermark silence before a
            // site is suspected.
            stall_intervals: 50,
            auto_evict: false,
            durability: None,
            site_durability: None,
            retransmit_jitter_seed: None,
            coordinator_replicas: 1,
        }
    }
}

/// Switches that exist only to measure the engine against itself, not
/// to deploy: they live outside [`EngineConfig`] and are reachable only
/// through `Engine::ablated`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ablation {
    /// Feed notifications into the detector in arrival order, without
    /// waiting for watermark stability. Detection then depends on network
    /// timing; the `ablation_release` experiment (E11) measures the
    /// damage. Single coordinator only.
    pub release_on_arrival: bool,
    /// Never garbage-collect operator buffers. GC is behaviour-preserving;
    /// this is the other side of the GC-on ≡ GC-off oracles.
    pub no_buffer_gc: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_heartbeat_is_positive() {
        let c = EngineConfig::default();
        assert!(c.heartbeat_interval.get() > 0);
        assert_eq!(c.durability, None);
        assert_eq!(c.site_durability, None);
    }
}
