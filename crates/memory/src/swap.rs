//! Swap devices.
//!
//! A VM's cold pages live on a swap device. The paper contrasts two kinds:
//!
//! * a **system-wide SSD partition** shared by every VM on the host (what
//!   the pre-copy/post-copy baselines use) — [`SsdSwap`];
//! * a **per-VM, portable, network-backed namespace** on the VMD (what
//!   Agile migration uses) — `agile_vmd::VmdSwapDevice`.
//!
//! Both are handles, not owners: a handle names the device it uses and
//! keeps its own per-VM counters, and every I/O call borrows the device
//! from whoever owns it (the cluster's `World`). Sharing a device between
//! VMs is then two handles naming one device, and the borrow checker,
//! not a run-time borrow flag, keeps their I/O calls from aliasing it.
//!
//! Local devices know their completion time at submission (FIFO model), so
//! they answer [`SwapIssue::CompleteAt`]. Network-backed devices cannot —
//! their latency depends on shared-link contention — so they answer
//! [`SwapIssue::Pending`] and the cluster executor delivers the completion
//! when the response message arrives.

use agile_sim_core::{BlockDevice, IoCounters, IoKind, SimTime};

/// How a submitted swap I/O will complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwapIssue {
    /// The I/O finishes at this instant (local FIFO device).
    CompleteAt(SimTime),
    /// Completion is asynchronous; the backend will surface the request id
    /// through its own completion path (network delivery).
    Pending,
}

/// One VM's slice of a (possibly shared) local SSD/HDD used as swap.
///
/// The handle names the host whose [`BlockDevice`] it uses; several VMs'
/// handles may name the same host — exactly the shared 30 GB SSD
/// partition of the paper's baseline setup — so queueing interference
/// between VMs, and between a VM and the Migration Manager swapping pages
/// in for transfer, arises naturally on the one device.
#[derive(Clone, Debug)]
pub struct SsdSwap {
    host: usize,
    page_size: u64,
    counters: IoCounters,
    /// Swap-out writes accumulated but not yet charged to the device
    /// (Linux writes anonymous pages back asynchronously in clusters).
    pending_writes: u64,
}

/// Swap-out writes are charged to the device in clusters of this many
/// pages (the kernel's swap writeback batching).
const WRITE_CLUSTER_PAGES: u64 = 32;

impl SsdSwap {
    /// A swap area on host `host`'s device with the given page size.
    pub fn new(host: usize, page_size: u64) -> Self {
        SsdSwap {
            host,
            page_size,
            counters: IoCounters::default(),
            pending_writes: 0,
        }
    }

    /// Index of the host whose device this handle uses.
    pub fn host(&self) -> usize {
        self.host
    }

    /// I/O counters as observed by *this* user of the device (per-VM
    /// view; the substrate for per-VM iostat sampling).
    pub fn counters(&self) -> IoCounters {
        self.counters
    }

    /// Read one page (a swap-in) from `dev`; returns its completion time.
    pub fn read(&mut self, dev: &mut BlockDevice, now: SimTime) -> SimTime {
        self.counters.read_ops += 1;
        self.counters.read_bytes += self.page_size;
        dev.submit(now, IoKind::Read, self.page_size)
    }

    /// Read `pages` *slot-consecutive* pages as one streaming run (one
    /// command overhead). Returns the completion time of the whole run.
    pub fn read_run(&mut self, dev: &mut BlockDevice, now: SimTime, pages: u64) -> SimTime {
        let done = dev.submit_run(now, IoKind::Read, pages, self.page_size);
        self.counters.read_ops += pages;
        self.counters.read_bytes += pages * self.page_size;
        done
    }

    /// Write one page (a swap-out) to `dev`; returns when the device is
    /// done with it. Swap-out is asynchronous in Linux: the page is queued
    /// for writeback and the device is charged one clustered streaming
    /// write per `WRITE_CLUSTER_PAGES` pages, so most writes complete at
    /// `now`.
    pub fn write(&mut self, dev: &mut BlockDevice, now: SimTime) -> SimTime {
        self.counters.write_ops += 1;
        self.counters.write_bytes += self.page_size;
        self.pending_writes += 1;
        if self.pending_writes < WRITE_CLUSTER_PAGES {
            return now;
        }
        let pages = std::mem::take(&mut self.pending_writes);
        dev.submit_run(now, IoKind::Write, pages, self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agile_sim_core::BlockDeviceSpec;

    fn ssd() -> BlockDevice {
        BlockDevice::new(BlockDeviceSpec::sata_ssd())
    }

    #[test]
    fn read_completes_at_device_time() {
        let mut dev = ssd();
        let mut a = SsdSwap::new(0, 4096);
        assert!(a.read(&mut dev, SimTime::ZERO) > SimTime::ZERO);
    }

    #[test]
    fn sharers_queue_behind_each_other() {
        let mut dev = ssd();
        let (mut a, mut b) = (SsdSwap::new(0, 4096), SsdSwap::new(0, 4096));
        let ta = a.read(&mut dev, SimTime::ZERO);
        let tb = b.read(&mut dev, SimTime::ZERO);
        assert!(tb > ta, "second VM's I/O queues behind the first's");
    }

    #[test]
    fn per_user_counters_are_separate() {
        let mut dev = ssd();
        let (mut a, mut b) = (SsdSwap::new(0, 4096), SsdSwap::new(0, 4096));
        a.read(&mut dev, SimTime::ZERO);
        a.write(&mut dev, SimTime::ZERO);
        b.read(&mut dev, SimTime::ZERO);
        assert_eq!(a.counters().read_ops, 1);
        assert_eq!(a.counters().write_ops, 1);
        assert_eq!(b.counters().read_ops, 1);
        assert_eq!(b.counters().write_ops, 0);
        // The shared device saw the reads; writes are buffered for the
        // asynchronous writeback cluster.
        assert_eq!(dev.counters().read_ops, 2);
    }

    #[test]
    fn writes_cluster_on_the_device() {
        let mut dev = ssd();
        let mut a = SsdSwap::new(0, 4096);
        for _ in 0..WRITE_CLUSTER_PAGES {
            a.write(&mut dev, SimTime::ZERO);
        }
        let counters = dev.counters();
        assert_eq!(counters.write_ops, 1, "one clustered run for the batch");
        assert_eq!(counters.write_bytes, WRITE_CLUSTER_PAGES * 4096);
        // The per-VM iostat view still counts every logical write.
        assert_eq!(a.counters().write_ops, WRITE_CLUSTER_PAGES);
        // A clustered streaming write is far cheaper than per-page ops.
        let run_nanos = counters.busy_nanos;
        let per_op =
            ssd().spec().service_time(IoKind::Write, 4096).as_nanos() * WRITE_CLUSTER_PAGES;
        assert!(run_nanos * 4 < per_op, "{run_nanos} !<< {per_op}");
    }
}
