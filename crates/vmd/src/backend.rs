//! The per-VM swap device: one VMD namespace exposed through a
//! block-device interface.
//!
//! This is the abstraction §IV-A highlights: "Using the block device
//! interface, the Migration Manager can interact with all intermediate
//! servers without needing to know where a page will be stored." The
//! device is a plain handle: the namespace id, the id of the VMD client it
//! is attached to, and its own iostat counters. It owns no client or
//! directory state; each I/O call borrows the client (`&mut`) and the
//! directory from their one owner (the cluster's `World`), and reads and
//! writes become protocol messages in that client's outbox.
//!
//! Portability falls out of the handle: re-attaching the device on the
//! destination host after migration is a new handle with the same
//! namespace and the destination host's client id.

use agile_memory::SwapIssue;
use agile_sim_core::{IoCounters, SimDuration, SimTime};

use crate::client::{ReadIssue, VmdClient};
use crate::directory::VmdDirectory;
use crate::proto::{ClientId, NamespaceId};

/// Latency of serving a read from the client's local writeback buffer
/// (a memcpy, no network).
const LOCAL_HIT_LATENCY: SimDuration = SimDuration::from_micros(2);

/// One VM's portable swap device (`/dev/blkN` in the paper).
#[derive(Clone, Debug)]
pub struct VmdSwapDevice {
    client: ClientId,
    ns: NamespaceId,
    page_size: u64,
    counters: IoCounters,
    lost_reads: u64,
}

impl VmdSwapDevice {
    /// Bind namespace `ns` as a block device attached to client `client`.
    pub fn new(client: ClientId, ns: NamespaceId, page_size: u64) -> Self {
        VmdSwapDevice {
            client,
            ns,
            page_size,
            counters: IoCounters::default(),
            lost_reads: 0,
        }
    }

    /// The VMD client this device is attached to: every I/O call must pass
    /// that client.
    pub fn client_id(&self) -> ClientId {
        self.client
    }

    /// The namespace this device exposes.
    pub fn namespace(&self) -> NamespaceId {
        self.ns
    }

    /// I/O counters as observed through *this* device (per-VM iostat).
    pub fn counters(&self) -> IoCounters {
        self.counters
    }

    /// Reads that could not be served because every replica of the slot
    /// was gone (possible only below replication factor 2). The guest is
    /// unblocked with whatever stale content the page table holds — the
    /// loss is reported here instead of wedging or killing the simulation.
    pub fn lost_reads(&self) -> u64 {
        self.lost_reads
    }

    /// Issue a read of `slot` (a swap-in) through `client`. `req` is echoed
    /// back in the client's completion when the read goes to the network.
    pub fn read(
        &mut self,
        client: &mut VmdClient,
        dir: &VmdDirectory,
        now: SimTime,
        slot: u32,
        req: u64,
    ) -> SwapIssue {
        debug_assert_eq!(client.id(), self.client, "device used via a foreign client");
        self.counters.read_ops += 1;
        self.counters.read_bytes += self.page_size;
        match client.read(dir, self.ns, slot, req) {
            ReadIssue::Local { .. } => SwapIssue::CompleteAt(now + LOCAL_HIT_LATENCY),
            ReadIssue::Sent => SwapIssue::Pending,
            // Every replica gone: complete immediately so the guest is not
            // wedged, and count the loss (surfaced in chaos reports).
            ReadIssue::Failed(_) => {
                self.lost_reads += 1;
                SwapIssue::CompleteAt(now + LOCAL_HIT_LATENCY)
            }
        }
    }

    /// Issue a write of `slot` (a swap-out) through `client`. `version` is
    /// the content token being stored (the simulation tracks page
    /// identity, not bytes). The write always completes asynchronously,
    /// as the client's `WriteDone` for `req`.
    pub fn write(
        &mut self,
        client: &mut VmdClient,
        dir: &mut VmdDirectory,
        slot: u32,
        version: u32,
        req: u64,
    ) {
        debug_assert_eq!(client.id(), self.client, "device used via a foreign client");
        self.counters.write_ops += 1;
        self.counters.write_bytes += self.page_size;
        client.write(dir, self.ns, slot, version, req);
    }

    /// Tear down the whole namespace (VM destroyed): drop buffered
    /// writebacks, cancel relocations, and free every placed slot on its
    /// servers. Returns the number of placements released. After this the
    /// namespace owns no storage anywhere — in-flight demotions or
    /// relocations that complete later must not resurrect any slot.
    pub fn purge(&mut self, client: &mut VmdClient, dir: &mut VmdDirectory) -> usize {
        debug_assert_eq!(client.id(), self.client, "device used via a foreign client");
        client.purge_namespace(dir, self.ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ServerId, ServerMsg};

    /// One client, one directory and one device attached through them.
    fn device() -> (VmdClient, VmdDirectory, VmdSwapDevice) {
        let client = VmdClient::new(ClientId(0), [(ServerId(0), 1000u64)]);
        let mut dir = VmdDirectory::new();
        let ns = dir.create_namespace();
        (client, dir, VmdSwapDevice::new(ClientId(0), ns, 4096))
    }

    #[test]
    fn the_vmd_and_device_state_is_send() {
        // Swap devices are handles into state with one owner: none of
        // these may become `!Send` again, as a reference-counted shared
        // handle would make them.
        fn assert_send<T: Send>() {}
        assert_send::<VmdClient>();
        assert_send::<VmdDirectory>();
        assert_send::<crate::VmdServer>();
        assert_send::<VmdSwapDevice>();
        assert_send::<agile_memory::SsdSwap>();
        assert_send::<agile_sim_core::BlockDevice>();
    }

    #[test]
    fn write_is_pending_and_enqueues_message() {
        let (mut client, mut dir, mut d) = device();
        d.write(&mut client, &mut dir, 0, 1, 1);
        assert!(client.has_outbox());
        assert_eq!(d.counters().write_ops, 1);
    }

    #[test]
    fn read_of_buffered_write_completes_locally() {
        let (mut client, mut dir, mut d) = device();
        d.write(&mut client, &mut dir, 0, 1, 1);
        match d.read(&mut client, &dir, SimTime::ZERO, 0, 2) {
            SwapIssue::CompleteAt(t) => assert_eq!(t, SimTime::ZERO + LOCAL_HIT_LATENCY),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_after_ack_goes_to_network() {
        let (mut client, mut dir, mut d) = device();
        d.write(&mut client, &mut dir, 0, 7, 1);
        client.drain_outbox().for_each(drop);
        client.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 999,
            },
        );
        assert_eq!(
            d.read(&mut client, &dir, SimTime::ZERO, 0, 2),
            SwapIssue::Pending
        );
    }

    #[test]
    fn purge_releases_every_placement() {
        let (mut client, mut dir, mut d) = device();
        d.write(&mut client, &mut dir, 0, 1, 1);
        d.write(&mut client, &mut dir, 1, 1, 2);
        assert_eq!(d.purge(&mut client, &mut dir), 2);
        // The directory holds nothing for the namespace and the client
        // queued a Free per placement for the servers.
        assert_eq!(dir.placed_slots(), 0);
        assert!(client.has_outbox());
    }

    #[test]
    fn two_devices_same_client_different_namespaces() {
        let mut client = VmdClient::new(ClientId(0), [(ServerId(0), 1000u64)]);
        let mut dir = VmdDirectory::new();
        let ns1 = dir.create_namespace();
        let ns2 = dir.create_namespace();
        let mut d1 = VmdSwapDevice::new(ClientId(0), ns1, 4096);
        let mut d2 = VmdSwapDevice::new(ClientId(0), ns2, 4096);
        d1.write(&mut client, &mut dir, 0, 1, 1);
        d2.write(&mut client, &mut dir, 0, 2, 2);
        // Same slot number, different namespaces → distinct placements.
        assert_eq!(dir.placed_slots(), 2);
        // Per-device iostat views are independent.
        assert_eq!(d1.counters().write_ops, 1);
        assert_eq!(d2.counters().write_ops, 1);
        d1.read(&mut client, &dir, SimTime::ZERO, 0, 3);
        assert_eq!(d1.counters().read_ops, 1);
        assert_eq!(d2.counters().read_ops, 0);
    }
}
