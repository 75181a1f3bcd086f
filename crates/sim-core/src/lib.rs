//! # agile-sim-core
//!
//! Deterministic discrete-event simulation kernel underpinning the Agile
//! live-migration reproduction.
//!
//! The crate provides the four substrates every higher layer builds on:
//!
//! * **Clock & events** — [`SimTime`]/[`SimDuration`] (integer nanoseconds)
//!   and [`Simulation`], a classic event-queue executor with total,
//!   deterministic event ordering and cancellation.
//! * **Randomness** — [`DetRng`]/[`SeedSequence`], labelled per-component
//!   RNG streams derived from one master seed, so experiments are exactly
//!   reproducible.
//! * **Resources** — [`BlockDevice`], a FIFO busy-horizon model of the swap
//!   SSD, and [`Network`], a fluid-flow model of 1 GbE NICs with max-min
//!   fair sharing between connections.
//! * **Measurement** — [`TimeSeries`], [`ThroughputMeter`], and [`Summary`]
//!   for regenerating the paper's figures and tables.
//!
//! ```
//! use agile_sim_core::{Simulation, SimTime, SimDuration};
//!
//! let mut sim = Simulation::new(0u64);
//! sim.schedule_at(SimTime::from_secs(1), |s| {
//!     *s.state_mut() += 1;
//!     s.schedule_in(SimDuration::from_millis(500), |s| *s.state_mut() += 10);
//! });
//! sim.run();
//! assert_eq!(*sim.state(), 11);
//! assert_eq!(sim.now(), SimTime::from_millis(1500));
//! ```

#![forbid(unsafe_code)]

pub mod blockdev;
pub mod event;
pub mod hash;
pub mod net;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use blockdev::{BlockDevice, BlockDeviceSpec, IoCounters, IoKind};
pub use event::{EventId, FastEvent, Simulation};
pub use hash::{IdHashMap, IdHasher};
pub use net::{ChannelId, Delivery, Network, NodeId, RackId, SegmentId};
pub use rng::{DetRng, SeedSequence};
pub use stats::{
    percentile, FixedHistogram, Summary, ThroughputMeter, TimeSeries, HISTOGRAM_BUCKETS,
};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};
pub use units::{fmt_bytes, Bandwidth, GIB, KIB, MIB};
