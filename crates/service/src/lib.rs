//! brainshift-service: the intraoperative serving layer.
//!
//! The paper's pipeline registers one scan for one surgery; a deployed
//! guidance system serves *several operating rooms at once* from shared
//! compute, under each scanner's cadence. This crate is that layer:
//!
//! * [`SurgerySession`] — one surgery's case state: the immutable
//!   once-per-surgery preparation ([`brainshift_core::PreparedSurgery`]),
//!   a mesh fingerprint, and the carry-forward field between scans.
//! * [`DeadlineQueue`] — bounded admission with explicit backpressure
//!   ([`Rejected::QueueFull`], [`Rejected::DeadlineInfeasible`]) and
//!   earliest-deadline-first ordering with an aging term that bounds
//!   starvation.
//! * [`ContextCache`] — warm [`SolverContext`](brainshift_fem::SolverContext)s
//!   under a byte budget; memory pressure evicts LRU sessions to *cold*
//!   (re-reduce and re-factor the surgery's shared stiffness matrix on
//!   next touch), never to OOM and never to an error.
//! * [`ShardCore`] — one shard's dispatch decisions (admit / reject /
//!   start warm-or-cold / steal / evict / complete late / cancel) as a
//!   plain `&mut self` state machine over the queues and the cache, and
//!   the only code that records an event or a `service.*` metric.
//! * [`Service`] — threads, wake channels and job payloads around a
//!   `Mutex<ShardCore>`: a fixed worker pool executing jobs, passing
//!   each job's remaining deadline to its solve as the wall-clock
//!   budget: a late job returns
//!   [`ScanStatus::Degraded`](brainshift_core::ScanStatus) with the
//!   carry-forward field instead of blocking the queue. [`Fleet`] runs N
//!   of them and places each session on the least-loaded shard.
//! * [`EventLog`] — every enqueue/start/degrade/evict/complete
//!   with monotonic timestamps and queue depths; its timestamp-free
//!   [`script`](EventLog::script) is the determinism oracle.
//! * [`simulate`] — the other driver of [`ShardCore`]: a logical-clock
//!   discrete-event loop configured by the production [`ServiceConfig`],
//!   for property tests of the scheduling contracts that the threaded
//!   service cannot check deterministically. Run twice on one submission
//!   script it renders the same script: it is the determinism oracle.
//! * [`Service::snapshot_shard`] / [`Service::restore_shard`] — a
//!   quiesced shard's sessions as bytes, and a shard rebuilt from them;
//!   [`persist`] is the one place that knows their on-disk layout.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod cache;
pub mod core;
pub mod dispatch;
pub mod error;
pub mod events;
pub mod fleet;
pub mod persist;
pub mod scheduler;
pub mod service;
pub mod session;
pub mod sim;

pub use cache::{CacheStats, ContextCache};
pub use core::ShardCore;
pub use dispatch::{preferred_worker, StealPolicy};
pub use error::{Rejected, ServiceError};
pub use events::{Event, EventKind, EventLog};
pub use fleet::{Fleet, FleetConfig};
pub use persist::SessionSnapshot;
pub use scheduler::{DeadlineQueue, QueuedJob, SchedulerPolicy};
pub use service::{JobOutcome, JobTicket, ScanJob, Service, ServiceConfig};
pub use session::{MeshFingerprint, SessionStats, SurgerySession};
pub use sim::{simulate, SimJob, SimOutcome, SimReport, StealRecord};
