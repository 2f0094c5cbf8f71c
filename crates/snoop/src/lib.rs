//! # decs-snoop — the Snoop/Sentinel composite event algebra
//!
//! This crate implements the event-specification language of Sentinel
//! (Snoop operators) as a detection library that is *generic over the time
//! domain*:
//!
//! * instantiated with [`CentralTime`] (a totally ordered tick counter) it
//!   is the **centralized** semantics of Section 3 of Yang & Chakravarthy
//!   (ICDE 1999);
//! * instantiated with [`decs_core::CompositeTimestamp`] it is the
//!   **distributed** semantics of Section 5.3 — the same operator state
//!   machines, with the timestamp ordering replaced by the partial order
//!   `<_p` and `t_occ = max(...)` replaced by the `Max` operator.
//!
//! That parametricity is the point of the paper: the composite-event
//! semantics "extends to the distributed environment" purely by swapping
//! the time algebra. The [`time::EventTime`] trait captures exactly what the
//! operators need: the exhaustive temporal relation and `Max`.
//!
//! Supported operators (with their Snoop names):
//! `E1 ∧ E2` (And), `E1 ∨ E2` (Or), `E1 ; E2` (Seq),
//! `¬(E2)[E1,E3]` (Not), `A(E1,E2,E3)` / `A*(E1,E2,E3)` (aperiodic),
//! `P(E1,[t],E3)` / `P*(E1,[t],E3)` (periodic), `E + t` (Plus),
//! `ANY(m; E1,…,En)`, each under the Sentinel parameter contexts
//! (Unrestricted, Recent, Chronicle, Continuous, Cumulative).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod context;
pub mod detector;
pub mod error;
pub mod event;
pub mod expr;
pub mod graph;
pub mod nodes;
pub mod plan;
pub mod reference;
pub mod state;
pub mod time;

pub use batch::{EventBatch, ParamArena, ParamHandle};
pub use context::Context;
pub use detector::CentralDetector;
pub use error::{Result, SnoopError};
pub use event::{Catalog, EventId, Occurrence, ParamList, ParamTuple, Value};
pub use expr::EventExpr;
pub use graph::{EventGraph, GraphFeedResult, NodeId, TimerId, TimerRequest};
pub use nodes::mask::Mask;
pub use plan::{DefIndex, FeedResult, PlanDetector, PlanStats};
pub use reference::ReferenceDetector;
pub use state::{DefTimers, NodeState, PlanState};
pub use time::{CentralTime, EventTime};
