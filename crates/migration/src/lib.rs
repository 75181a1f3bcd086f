//! # agile-migration
//!
//! The paper's primary contribution and its two baselines, as sans-IO
//! state machines:
//!
//! * [`SourceSession`] — the source-side Migration Manager. One machine
//!   implements iterative **pre-copy** (rounds until convergence, then
//!   stop-and-copy), **post-copy** (immediate suspend, active push +
//!   demand paging), and **Agile** (one live round that replaces
//!   swapped-out pages with 16-byte swap offsets, then hybrid post-copy of
//!   only the dirtied pages).
//! * [`DestSession`] — the destination-side Migration Manager (the UMEM
//!   fault path of §IV-F): installs arriving chunks, and after resume
//!   classifies faults dirty-bitmap-first into *from source*, *from the
//!   per-VM swap device*, or *zero-fill*.
//! * [`Chunk`] — the migration-channel wire format, including the
//!   `SWAPPED`-flag marker entries that give Agile its data-volume win.
//! * [`MigrationMetrics`] — total migration time, downtime, bytes moved,
//!   per-path page counts (Figures 7–8, Tables II–III).
//!
//! The cluster executor (in `agile-cluster`) connects these machines to
//! the simulated network, swap devices, and VM memory; every protocol
//! decision lives here and is unit-tested in isolation.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod chunk;
pub mod dest;
pub mod metrics;
pub mod source;

pub use bitmap::Bitmap;
pub use chunk::{
    Chunk, FullPage, SwappedMarker, CHUNK_HEADER, MARKER_ENTRY_BYTES, PAGE_ENTRY_HEADER,
};
pub use dest::{DestSession, FaultRoute};
pub use metrics::{MigrationMetrics, Technique};
pub use source::{SourceCmd, SourceConfig, SourceEvent, SourceSession};
