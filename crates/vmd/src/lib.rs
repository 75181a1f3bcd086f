//! # agile-vmd
//!
//! The **Virtualized Memory Device** (§IV-A of the paper): a distributed
//! in-memory key-value store that aggregates the free memory of
//! intermediate cluster hosts and presents it to each VM as a private,
//! *portable* swap block device.
//!
//! Components:
//!
//! * [`VmdServer`] — runs on each intermediate host; stores pages in spare
//!   DRAM (allocated only on write) with a configurable spill tier stack
//!   below it ([`tier`]: disk, zswap-like compressed memory, CXL-like far
//!   memory), and gossips its free capacity to clients.
//! * [`VmdClient`] — runs on source/destination hosts; routes page I/O to
//!   servers using load-aware round-robin placement, keeps a writeback
//!   buffer for issued-but-unacked writes, and exposes namespaces.
//! * [`VmdDirectory`] — namespace metadata (slot → server placements) that
//!   travels with the portable device.
//! * [`VmdSwapDevice`] — one namespace bound as a block device (the
//!   `/dev/blkN` the Migration Manager sees).
//!
//! Everything is sans-IO: clients queue protocol messages in an outbox and
//! the cluster executor moves them over the simulated network, so VMD
//! traffic contends with migration and application traffic for NIC
//! bandwidth exactly as in the paper's testbed.
//!
//! Ownership: clients, servers and the directory are plain values with one
//! owner (the cluster's `World`), and a [`VmdSwapDevice`] is a handle that
//! names its namespace and client. Operations that need several of them
//! take each by reference, so no type here is reference-counted or shares
//! state through interior mutability.

#![forbid(unsafe_code)]

pub mod backend;
pub mod client;
pub mod directory;
pub mod pool;
pub mod proto;
pub mod server;
pub mod tier;

pub use backend::VmdSwapDevice;
pub use client::{ReadIssue, VmdClient, VmdCompletion};
pub use directory::{DropOutcome, ReplicaSet, VmdDirectory, MAX_REPLICAS};
pub use pool::{LeaseConfig, LeaseController, PoolPlanner, ReclaimTarget, ServerLoad};
pub use proto::{
    ClientId, ClientMsg, NamespaceId, ServerId, ServerMsg, VmdError, MSG_HEADER_BYTES,
};
pub use server::{ServerReply, VmdServer};
pub use tier::{
    HeatPolicy, ResolvedTier, TierBacking, TierCapacity, TierLedger, TierSpec, TierStackConfig,
    MAX_TIERS,
};
