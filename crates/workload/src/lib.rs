//! # agile-workload
//!
//! Workload models for the Agile live-migration evaluation:
//!
//! * [`YcsbRedis`] — a YCSB client querying a Redis-like in-memory
//!   key-value store (Figures 4–6, Table I row 1), with a
//!   runtime-adjustable active fraction for the ramp-up experiment.
//! * [`SysbenchOltp`] — a Sysbench OLTP client against a MySQL/InnoDB-like
//!   server (Table I row 2), statement-level with explicit COMMITs.
//! * [`OsBackground`] — guest-OS background touches that keep the OS
//!   region hot and the dirty bitmap never quite clean.
//! * [`Zipfian`], [`KeyDist`] — YCSB's key-selection distributions.
//! * [`Dataset`] — record → guest-page mapping.
//!
//! Models are sans-IO: they emit [`OpSpec`] descriptors (pages touched,
//! CPU burst, wire sizes) and the cluster executor turns them into
//! latencies by playing them against the VM's memory, devices, and NICs.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod dist;
pub mod driver;
pub mod oltp;
pub mod ops;
pub mod osbg;
pub mod signal;
pub mod ycsb;
pub mod zipfian;

pub use dataset::Dataset;
pub use dist::KeyDist;
pub use driver::{Action, Binding, Knob, WorkloadDriver};
pub use oltp::{OltpParams, SysbenchOltp};
pub use ops::{OpSpec, TouchList, MAX_TOUCHES};
pub use osbg::OsBackground;
pub use signal::Signal;
pub use ycsb::{YcsbParams, YcsbRedis};
pub use zipfian::{Zipfian, YCSB_ZIPFIAN_CONSTANT};
