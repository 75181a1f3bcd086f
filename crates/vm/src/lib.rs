//! # agile-vm
//!
//! The virtual-machine model of the Agile live-migration reproduction:
//!
//! * [`Vm`] — identity + configuration + lifecycle state machine enforcing
//!   the legal live-migration transitions (running → pre-copy → suspended →
//!   post-copy → running-at-destination), wrapping the VM's
//!   [`agile_memory::VmMemory`] and [`VcpuSet`].
//! * [`VcpuSet`] — processor-sharing model of the VM's vCPUs; guest request
//!   service times inflate under CPU oversubscription.
//! * [`GuestLayout`] — stable mapping from application objects to guest
//!   page frames (OS region + named dataset regions).

#![forbid(unsafe_code)]

pub mod layout;
pub mod machine;
pub mod vcpu;

pub use layout::{GuestLayout, PageRange};
pub use machine::{HostId, Vm, VmConfig, VmId, VmState};
pub use vcpu::VcpuSet;
