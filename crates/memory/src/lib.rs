//! # agile-memory
//!
//! The host-side memory-management substrate of the Agile live-migration
//! reproduction: everything the Linux kernel + cgroups would do for a
//! KVM/QEMU process, at 4 KB page granularity.
//!
//! * [`VmMemory`] — one VM's guest pages: PTE-style flags, content
//!   versions, a cgroup memory reservation, and a two-list (active /
//!   inactive) second-chance reclaim machine with swap-cache reuse.
//! * [`PageArray`] — the per-page table behind every such field (and the
//!   migration sessions' per-page state): storage covers only the prefix
//!   up to the highest touched page, so a VM's never-touched memory costs
//!   no per-page state. Cost model: `size_of::<T>()` bytes per page up to
//!   the highest touched PFN, rounded up to 1,024 pages.
//! * [`PagemapEntry`] — the `/proc/pid/pagemap` view the Migration Manager
//!   reads to detect swapped-out pages and their swap offsets (§IV-C of
//!   the paper).
//! * [`SsdSwap`] — a VM's handle on its host's shared swap SSD; the VMD-backed
//!   per-VM portable namespace is `agile_vmd::VmdSwapDevice`. Both are
//!   handles: every I/O call borrows the device from its owner.
//! * [`HostMemory`] — per-host reservation ledger feeding the watermark
//!   migration trigger.
//!
//! All types are sans-IO: operations that imply device work return
//! descriptions ([`Eviction`], [`Touch::MajorFault`]) and the simulation
//! executor charges them to devices, so the semantics are unit-testable in
//! isolation.

#![forbid(unsafe_code)]

pub mod epoch;
pub mod host;
pub mod lru;
pub mod page;
pub mod pagearray;
pub mod slots;
pub mod swap;
pub mod vmmem;

pub use epoch::{EpochReport, EpochTracker};
pub use host::HostMemory;
pub use lru::{LruLinks, LruList, NIL};
pub use page::{PageFlags, PagemapEntry};
pub use pagearray::PageArray;
pub use slots::{SlotAllocator, NO_SLOT};
pub use swap::{SsdSwap, SwapIssue};
pub use vmmem::{Eviction, MemCounters, Slots, Touch, VmMemory, VmMemoryConfig};
