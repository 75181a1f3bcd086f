//! # agile-cluster
//!
//! The cluster executor: connects every sans-IO component — migration
//! sessions ([`agile_migration`]), the VMD ([`agile_vmd`]), workload
//! models ([`agile_workload`]), and the WSS controller ([`agile_wss`]) —
//! to the simulated network, block devices, and VM memory of
//! [`agile_sim_core`]/[`agile_memory`], and provides the scenario library
//! that reproduces each of the paper's experiments.
//!
//! Layers:
//!
//! * [`build::ClusterBuilder`] — assemble hosts, the VMD pool, VMs with
//!   their swap bindings, and workloads.
//! * [`guest`] — the request engine: closed-loop clients, server worker
//!   queues, page-touch execution with fault parking, vCPU contention.
//! * [`migrate`] — drives pre-copy / post-copy / Agile migrations
//!   end-to-end, including the suspend/resume handover.
//! * [`wssctl`] — transparent working-set tracking and the watermark
//!   trigger.
//! * [`sched`] — the cluster-scale watermark scheduler: destination
//!   placement, ping-pong guard, admission control.
//! * [`poolctl`] — the elastic pool manager: contribution leases sized
//!   from donor-host demand, paced reclaim, skew-aware rebalancing.
//! * [`clonectl`] — rapid scale-out: copy-on-write namespace forks and
//!   memory-streaming VM cloning off a sealed gold image.
//! * [`scenario`] — ready-made reproductions of Figures 4–10 and
//!   Tables I–III.

pub mod build;
pub mod chaosctl;
pub mod clonectl;
pub mod config;
pub mod fast;
pub mod guest;
pub mod migrate;
pub mod netdrv;
pub mod poolctl;
pub mod predict;
pub mod report;
pub mod scenario;
pub mod sched;
pub mod shard;
pub mod slab;
pub mod vmdio;
pub mod wlctl;
pub mod world;
pub mod wssctl;

pub use build::{start_all_workloads, ClusterBuilder, SwapKind};
pub use config::ClusterConfig;
pub use slab::Slab;
pub use world::{WorkloadKind, World};
