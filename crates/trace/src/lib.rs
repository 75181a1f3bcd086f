//! # agile-trace
//!
//! Zero-overhead-when-disabled observability for the Agile migration
//! simulator.
//!
//! Three pieces, all keyed on *simulated* time so output is a pure
//! function of the seed:
//!
//! * **Event tracing** ([`Tracer`], [`TraceEvent`]) — a ring-buffer sink
//!   for migration phase transitions, chunk/demand traffic, destination
//!   fault routing, WSS controller decisions, VMD request lifecycles, and
//!   chaos fault windows. Disabled tracers hold no buffer and every
//!   [`Tracer::record`] call is a single predictable branch, so the DES
//!   hot loop pays nothing when tracing is off. Export is JSONL with
//!   integer-nanosecond timestamps ([`Tracer::to_jsonl`]).
//! * **Metrics registry** ([`MetricsRegistry`]) — typed counters, gauges,
//!   and fixed-bucket simulated-time histograms, rendered in registration
//!   order so the JSON export is byte-deterministic per seed.
//! * **Phase timelines** ([`PhaseTimeline`], [`PhasePoint`]) — the
//!   per-migration decomposition the paper's evaluation reasons about
//!   (live rounds, stop-and-copy, handoff, push), with cumulative counter
//!   snapshots at every phase entry. This is what `TRACE_<scenario>.json`
//!   contains and what the conformance tests assert against.
//!
//! ```
//! use agile_sim_core::SimTime;
//! use agile_trace::{TraceEvent, Tracer};
//!
//! let mut t = Tracer::with_capacity(16);
//! t.record(
//!     SimTime::from_millis(5),
//!     TraceEvent::MigSuspend { mig: 0 },
//! );
//! assert_eq!(t.len(), 1);
//! assert!(t.to_jsonl().contains("\"mig_suspend\""));
//!
//! let off = Tracer::disabled();
//! assert!(!off.is_enabled()); // records are no-ops, no buffer exists
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod registry;
pub mod timeline;

pub use event::{ChaosKind, FaultPath, SchedAction, TraceEvent, Tracer, VmdKind};
pub use registry::MetricsRegistry;
pub use timeline::{PhaseKind, PhasePoint, PhaseTimeline};
