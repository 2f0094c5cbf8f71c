//! # decs-distrib — distributed composite event detection
//!
//! The Section 5.3 semantics, executed: primitive events occur at sites,
//! are stamped by the site's (drifting, Π-synchronized) local clock as
//! `(site, global, local)` triples, and flow to a **global event detector**
//! that runs the Snoop operator graph over the
//! [`decs_core::CompositeTimestamp`] time domain — the partial order `<_p`
//! and the `Max` operator doing the work that total order and `max` do in
//! the centralized engine.
//!
//! ## Architecture
//!
//! ```text
//!  site 0 ─┐ Event(seq)                    ┌──────────────────────────┐
//!  site 1 ─┼──── reordering links ────────▶│ coordinator              │
//!  site 2 ─┘ Batch(seq, watermark, events) │  per-site FIFO reassembly│
//!                                          │  watermark stability     │
//!                                          │  canonical release order │
//!                                          │  shared-plan detector    │
//!                                          └──────────────────────────┘
//! ```
//!
//! * **FIFO reassembly** — every site stamps its messages with a sequence
//!   number; the coordinator processes them in sequence order even when
//!   the network reorders (the TCP-like substrate the semantics assumes).
//!   Each site keeps one such link per receiver: the coordinator, or every
//!   replica of a partitioned plane (`Routed` frames instead of `Batch`).
//! * **Watermark stability** — a batch carries the site's watermark, and
//!   an empty batch is a heartbeat. A notification whose timestamp has
//!   maximum global tick `g` is *stable* once every site's watermark
//!   exceeds `g + 1·g_g`: no event that could still arrive can happen
//!   before, or be concurrent with, it. Stable notifications are released
//!   into the detector in a canonical order, which makes detection a pure
//!   function of the workload — independent of link latency and jitter
//!   (verified by metamorphic tests that permute the network).
//! * **Temporal events** — `P`/`P*`/`+` timers are serviced by the
//!   coordinator's own clock, so periodic occurrences carry genuine
//!   timestamps from a real site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod durability;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod site;
pub mod watermark;

pub use config::{EngineConfig, ReleasePolicy};
pub use durability::{CoordinatorSnapshot, SnapshotStore, WalRecord, WalTail, WalWriter};
pub use engine::{Detection, Engine};
pub use metrics::Metrics;
pub use protocol::Msg;
pub use watermark::WatermarkTracker;
