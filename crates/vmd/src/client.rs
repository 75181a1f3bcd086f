//! VMD client module (runs on source and destination hosts).
//!
//! The client exports each namespace as a block device to the Migration
//! Manager; underneath it routes page reads/writes to intermediate servers.
//! Writes choose a server with the paper's **load-aware round-robin**: walk
//! the server ring from the cursor and pick the first server that reports
//! unused memory. Reads consult the shared namespace directory.
//!
//! The client is sans-IO: requests it wants transmitted accumulate in an
//! *outbox* of `(ServerId, ClientMsg)` that the cluster executor drains
//! onto the simulated network; responses are fed back through
//! [`VmdClient::on_server_msg`], which returns I/O completions.
//!
//! A small writeback buffer holds issued-but-unacked writes; a read of such
//! a slot is served locally (the data is still in client memory), which
//! mirrors real swap-cache/writeback behaviour and avoids a protocol race
//! where a read could overtake its write on a different TCP connection.
//!
//! ## Failure handling
//!
//! With `set_replication(k)`, first writes of a slot fan out to `k`
//! distinct servers (deterministic ring order); overwrites go to the
//! slot's existing replicas. Servers can be marked **suspect** (crashed,
//! per the cluster's failure detector); suspect servers are skipped by
//! placement and reads, pending requests aimed at them fail over to
//! surviving replicas ([`VmdClient::mark_suspect`]), and a slot whose
//! every replica is gone surfaces as a typed [`VmdError::LostSlot`] —
//! counted, never panicked. Availability gossip from a server clears its
//! suspect mark (rejoin). Background re-replication
//! ([`VmdClient::begin_repair`] / [`VmdClient::repair_write`]) restores
//! the replication factor after a crash.

use std::collections::{BTreeSet, VecDeque};
use std::mem::size_of;

use agile_sim_core::hash::{btree_heap_bytes, map_heap_bytes};
use agile_sim_core::IdHashMap;

use crate::directory::{ReplicaSet, VmdDirectory};
use crate::proto::{ClientId, ClientMsg, NamespaceId, ServerId, ServerMsg, VmdError};

/// Client-generated request ids (replica writes, repair traffic) live above
/// this bound so they never collide with executor-assigned ids.
const INTERNAL_REQ_BASE: u64 = 1 << 62;

/// How a client read will complete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadIssue {
    /// Served from the local writeback buffer; `version` is the content.
    Local {
        /// Content version of the locally-buffered page.
        version: u32,
    },
    /// A `ReadReq` was queued in the outbox; completion arrives later via
    /// [`VmdClient::on_server_msg`].
    Sent,
    /// The read cannot be served: no live replica holds the slot. The
    /// failure is data, not a panic — the caller decides how to degrade.
    Failed(VmdError),
}

/// An asynchronous completion surfaced by [`VmdClient::on_server_msg`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmdCompletion {
    /// A read finished; `version` is the page content token.
    ReadDone {
        /// Request id passed to [`VmdClient::read`].
        req: u64,
        /// Stored content version.
        version: u32,
    },
    /// A write was acknowledged by its (primary) server.
    WriteDone {
        /// Request id passed to [`VmdClient::write`].
        req: u64,
    },
    /// A read ran out of replicas to try; the slot's data is lost.
    ReadFailed {
        /// Request id passed to [`VmdClient::read`].
        req: u64,
        /// The underlying failure.
        err: VmdError,
    },
    /// A server NAKed this read; the executor should call
    /// [`VmdClient::read_failover`] with directory access.
    ReadNak {
        /// The NAKed request id.
        req: u64,
    },
    /// A server NAKed this write; the executor should call
    /// [`VmdClient::write_failover`] with directory access.
    WriteNak {
        /// The NAKed request id.
        req: u64,
    },
    /// A repair read completed; the executor should call
    /// [`VmdClient::repair_write`] to copy the page to a new replica.
    RepairRead {
        /// Namespace being repaired.
        ns: NamespaceId,
        /// Slot being repaired.
        slot: u32,
        /// Content version read from the surviving replica.
        version: u32,
    },
    /// A relocation read completed; the executor should call
    /// [`VmdClient::relocate_write`] to copy the page toward its new
    /// server.
    RelocateRead {
        /// Namespace being relocated.
        ns: NamespaceId,
        /// Slot being relocated.
        slot: u32,
        /// Content version read from the source replica.
        version: u32,
        /// The replica being vacated.
        from: ServerId,
    },
    /// A relocation copy was acked; the executor should call
    /// [`VmdClient::finish_relocation`] to swap the directory entry and
    /// free the source copy.
    RelocateDone {
        /// Namespace being relocated.
        ns: NamespaceId,
        /// Slot being relocated.
        slot: u32,
        /// The replica being vacated.
        from: ServerId,
        /// The replica that now holds the copy.
        to: ServerId,
    },
    /// A relocation was abandoned (source crashed mid-read, the copy's
    /// destination failed, or a fresh overwrite superseded it); the pool
    /// manager may pick the slot again on a later tick.
    RelocateAbort {
        /// Namespace whose relocation was dropped.
        ns: NamespaceId,
        /// Slot whose relocation was dropped.
        slot: u32,
    },
}

#[derive(Clone, Copy, Debug)]
struct ServerInfo {
    id: ServerId,
    /// Client's (possibly stale) view of the server's free pages,
    /// optimistically decremented on issued writes and corrected by
    /// acks/gossip.
    free_pages: u64,
    /// View of the server's free *spill-tier* capacity (pages below its
    /// DRAM head tier), from availability gossip. Placement uses it to
    /// prefer servers that can still absorb writes once every server's
    /// leased DRAM is full.
    spill_free: u64,
    /// True while the failure detector considers the server crashed.
    suspect: bool,
}

/// Why a pending read was issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReadPurpose {
    /// Ordinary swap read: completion goes to the swap layer.
    Swap,
    /// Re-replication read: completion triggers a repair write.
    Repair,
    /// Lease-reclaim/rebalance read, pinned to the replica being vacated:
    /// completion triggers a relocation write.
    Relocate,
}

#[derive(Clone, Copy, Debug)]
struct PendingRead {
    ns: NamespaceId,
    slot: u32,
    server: ServerId,
    /// Index into the slot's replica set of the server being tried.
    attempt: u8,
    purpose: ReadPurpose,
}

/// Which role a pending write plays in a replica set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WriteRole {
    /// Carries the caller's request id; its ack surfaces `WriteDone`.
    Primary,
    /// Internal fan-out/repair copy; its ack only updates accounting.
    Replica,
    /// Relocation copy headed to a new server; its ack surfaces
    /// `RelocateDone` so the executor can swap the directory entry.
    Relocate {
        /// The replica being vacated.
        from: ServerId,
    },
}

#[derive(Clone, Copy, Debug)]
struct PendingWrite {
    ns: NamespaceId,
    slot: u32,
    server: ServerId,
    version: u32,
    role: WriteRole,
}

/// One host's VMD client.
#[derive(Clone, Debug)]
pub struct VmdClient {
    id: ClientId,
    servers: Vec<ServerInfo>,
    rr: usize,
    /// Replica count for first writes (1 = the paper's unreplicated VMD).
    replication: usize,
    outbox: VecDeque<(ServerId, ClientMsg)>,
    pending_reads: IdHashMap<u64, PendingRead>,
    pending_writes: IdHashMap<u64, PendingWrite>,
    /// (ns, slot) → (version, latest write req).
    writeback: IdHashMap<(NamespaceId, u32), (u32, u64)>,
    /// Slots with a relocation in flight. The value flips to `false` when
    /// a fresh write or free supersedes the relocated content, so
    /// [`VmdClient::finish_relocation`] never installs a stale copy.
    relocating: IdHashMap<(NamespaceId, u32), bool>,
    next_internal: u64,
    /// Slots whose every replica is gone (observed by failed reads or
    /// crash-time eviction). Sorted for deterministic reporting.
    lost_slots: BTreeSet<(NamespaceId, u32)>,
    /// Replies for requests no longer pending (duplicate delivery after a
    /// crash-time failover re-issue) — dropped, counted.
    stale_msgs: u64,
    /// Copy-on-write breaks `(clone ns, slot)` performed by writes to
    /// still-shared fork slots, queued for the executor to drain (trace
    /// events and counters) — the break happens deep inside the sans-IO
    /// write path where the executor cannot see it.
    cow_breaks: VecDeque<(NamespaceId, u32)>,
}

impl VmdClient {
    /// Create a client that knows about `servers` with their initial
    /// advertised capacities.
    pub fn new(id: ClientId, servers: impl IntoIterator<Item = (ServerId, u64)>) -> Self {
        VmdClient {
            id,
            servers: servers
                .into_iter()
                .map(|(id, free_pages)| ServerInfo {
                    id,
                    free_pages,
                    spill_free: 0,
                    suspect: false,
                })
                .collect(),
            rr: 0,
            replication: 1,
            outbox: VecDeque::new(),
            pending_reads: IdHashMap::default(),
            pending_writes: IdHashMap::default(),
            writeback: IdHashMap::default(),
            relocating: IdHashMap::default(),
            next_internal: INTERNAL_REQ_BASE,
            lost_slots: BTreeSet::new(),
            stale_msgs: 0,
            cow_breaks: VecDeque::new(),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Set the replica count for first writes (clamped to the server
    /// count at placement time). 1 — the default — reproduces the paper's
    /// unreplicated placement exactly.
    pub fn set_replication(&mut self, k: usize) {
        self.replication = k.clamp(1, crate::directory::MAX_REPLICAS);
    }

    /// Current replica count for first writes.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Learn about a server that joined after this client was created
    /// (idempotent; updates the advertised capacities if already known).
    pub fn add_server(&mut self, id: ServerId, free_pages: u64, spill_free_pages: u64) {
        if let Some(info) = self.servers.iter_mut().find(|i| i.id == id) {
            info.free_pages = free_pages;
            info.spill_free = spill_free_pages;
        } else {
            self.servers.push(ServerInfo {
                id,
                free_pages,
                spill_free: spill_free_pages,
                suspect: false,
            });
        }
    }

    /// Messages awaiting transmission (drained by the cluster executor).
    pub fn drain_outbox(&mut self) -> impl Iterator<Item = (ServerId, ClientMsg)> + '_ {
        self.outbox.drain(..)
    }

    /// True if transmissions are pending.
    pub fn has_outbox(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Number of reads/writes in flight.
    pub fn inflight(&self) -> usize {
        self.pending_reads.len() + self.pending_writes.len()
    }

    /// Issued-but-unacked writes still held in the writeback buffer. Zero
    /// means every write this client issued has landed at its replicas —
    /// the quiescence condition the clone controller's master-sealing step
    /// waits for before broadcasting a fork (an in-flight write racing the
    /// `NsFork` broadcast would store with a stale refcount).
    pub fn unacked_writes(&self) -> usize {
        self.writeback.len()
    }

    /// Heap bytes held by the client: request and writeback maps from
    /// their capacities, queues from theirs, the lost-slot set estimated.
    /// For memory attribution only.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        self.servers.capacity() * size_of::<ServerInfo>()
            + self.outbox.capacity() * size_of::<(ServerId, ClientMsg)>()
            + map_heap_bytes(&self.pending_reads)
            + map_heap_bytes(&self.pending_writes)
            + map_heap_bytes(&self.writeback)
            + map_heap_bytes(&self.relocating)
            + btree_heap_bytes(self.lost_slots.len(), size_of::<(NamespaceId, u32)>())
            + self.cow_breaks.capacity() * size_of::<(NamespaceId, u32)>()
    }

    /// Slots observed lost (every replica gone), sorted.
    pub fn lost_slots(&self) -> impl Iterator<Item = (NamespaceId, u32)> + '_ {
        self.lost_slots.iter().copied()
    }

    /// Number of distinct slots observed lost.
    pub fn lost_slot_count(&self) -> usize {
        self.lost_slots.len()
    }

    /// Replies that arrived for requests no longer pending.
    pub fn stale_msgs(&self) -> u64 {
        self.stale_msgs
    }

    /// True while the failure detector considers `server` crashed.
    pub fn is_suspect(&self, server: ServerId) -> bool {
        self.servers.iter().any(|i| i.id == server && i.suspect)
    }

    fn next_internal_req(&mut self) -> u64 {
        let req = self.next_internal;
        self.next_internal += 1;
        req
    }

    /// Issue a page read. Prefers the writeback buffer, then the first
    /// non-suspect replica in directory order; if no live replica holds
    /// the slot the read fails as typed data. A clone namespace's
    /// still-shared slot resolves through its fork parent: the request
    /// goes out under the master namespace, against the master's
    /// placements (the clone has no copy of its own until first write).
    pub fn read(&mut self, dir: &VmdDirectory, ns: NamespaceId, slot: u32, req: u64) -> ReadIssue {
        if let Some(&(version, _)) = self.writeback.get(&(ns, slot)) {
            return ReadIssue::Local { version };
        }
        let target = dir.resolve(ns, slot);
        let set = dir.replicas(target, slot);
        let Some((attempt, server)) = self.first_live_replica(&set, 0) else {
            self.lost_slots.insert((target, slot));
            return ReadIssue::Failed(VmdError::LostSlot { ns: target, slot });
        };
        self.pending_reads.insert(
            req,
            PendingRead {
                ns: target,
                slot,
                server,
                attempt,
                purpose: ReadPurpose::Swap,
            },
        );
        self.outbox.push_back((
            server,
            ClientMsg::ReadReq {
                from: self.id,
                ns: target,
                slot,
                req,
            },
        ));
        ReadIssue::Sent
    }

    /// First replica at index ≥ `from` whose server is not suspect.
    fn first_live_replica(&self, set: &ReplicaSet, from: usize) -> Option<(u8, ServerId)> {
        set.as_slice()
            .iter()
            .enumerate()
            .skip(from)
            .find(|(_, &s)| !self.is_suspect(s))
            .map(|(i, &s)| (i as u8, s))
    }

    /// Issue a page write. First write of a slot chooses (and records) a
    /// replica set with load-aware round-robin; overwrites go to the
    /// slot's existing replicas. A clone namespace's first write to a
    /// still-shared slot breaks the share (copy-on-write): the clone
    /// drops its reference to the master page (`DropRef` to each master
    /// replica) and the write proceeds as a fresh private-overlay
    /// placement under the clone namespace.
    pub fn write(
        &mut self,
        dir: &mut VmdDirectory,
        ns: NamespaceId,
        slot: u32,
        version: u32,
        req: u64,
    ) {
        if dir.is_shared(ns, slot) {
            if let Some(out) = dir.drop_share(ns, slot) {
                for &server in out.replicas.as_slice() {
                    if out.released {
                        if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
                            info.free_pages += 1;
                        }
                    }
                    self.outbox.push_back((
                        server,
                        ClientMsg::DropRef {
                            ns: out.master,
                            slot,
                        },
                    ));
                }
                self.cow_breaks.push_back((ns, slot));
            }
        }
        let mut set = dir.replicas(ns, slot);
        if set.is_empty() {
            let want = self.replication.min(self.servers.len()).max(1);
            set = self.pick_replicas(want);
            dir.set_replicas(ns, slot, set);
            // Optimistic accounting: the page will occupy a server page on
            // every replica — its DRAM if the view says there is room,
            // otherwise a spill tier.
            for &s in set.as_slice() {
                if let Some(info) = self.servers.iter_mut().find(|i| i.id == s) {
                    if info.free_pages > 0 {
                        info.free_pages -= 1;
                    } else {
                        info.spill_free = info.spill_free.saturating_sub(1);
                    }
                }
            }
        }
        self.writeback.insert((ns, slot), (version, req));
        if !self.relocating.is_empty() {
            if let Some(valid) = self.relocating.get_mut(&(ns, slot)) {
                // The relocated copy is now stale; let the move finish but
                // never install it in the directory.
                *valid = false;
            }
        }
        let rc = dir.shared_rc(ns, slot);
        for (i, &server) in set.as_slice().iter().enumerate() {
            let (wreq, role) = if i == 0 {
                (req, WriteRole::Primary)
            } else {
                (self.next_internal_req(), WriteRole::Replica)
            };
            self.pending_writes.insert(
                wreq,
                PendingWrite {
                    ns,
                    slot,
                    server,
                    version,
                    role,
                },
            );
            self.outbox.push_back((
                server,
                ClientMsg::WriteReq {
                    from: self.id,
                    ns,
                    slot,
                    version,
                    req: wreq,
                    rc,
                },
            ));
        }
    }

    /// Free a slot: tells every replica and forgets the placement.
    ///
    /// Fork-aware: a clone freeing a still-shared slot merely drops its
    /// reference (`DropRef`, no placement of its own to forget); a master
    /// freeing a slot that clones still share defers the release — the
    /// placement is retained in the directory, the servers mark the page
    /// owner-freed, and the last clone's `DropRef` releases it for real.
    pub fn free(&mut self, dir: &mut VmdDirectory, ns: NamespaceId, slot: u32) {
        if dir.is_shared(ns, slot) {
            if let Some(out) = dir.drop_share(ns, slot) {
                for &server in out.replicas.as_slice() {
                    if out.released {
                        if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
                            info.free_pages += 1;
                        }
                    }
                    self.outbox.push_back((
                        server,
                        ClientMsg::DropRef {
                            ns: out.master,
                            slot,
                        },
                    ));
                }
            }
            return;
        }
        if let Some(set) = dir.owner_free_slot(ns, slot) {
            // Deferred release: no free-capacity credit — the page stays
            // resident on every replica until the last sharer drops it.
            self.writeback.remove(&(ns, slot));
            for &server in set.as_slice() {
                self.outbox
                    .push_back((server, ClientMsg::Free { ns, slot }));
            }
            return;
        }
        self.writeback.remove(&(ns, slot));
        if !self.relocating.is_empty() {
            if let Some(valid) = self.relocating.get_mut(&(ns, slot)) {
                *valid = false;
            }
        }
        let set = dir.forget_replicas(ns, slot);
        for &server in set.as_slice() {
            if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
                info.free_pages += 1;
            }
            self.outbox
                .push_back((server, ClientMsg::Free { ns, slot }));
        }
    }

    /// Load-aware round-robin: next non-suspect server in ring order that
    /// reports unused memory. When every live server reports full DRAM,
    /// the fallback prefers servers that still advertise spill-tier
    /// headroom (§IV-A's HD/SSD extension — and any lower tier of the
    /// stack) over plain round-robin: a server whose DRAM is full but
    /// whose spill tiers are empty used to be treated the same as one
    /// that is full everywhere, skewing placement away from usable
    /// capacity. Only when no live server has headroom *anywhere* does
    /// placement degenerate to plain round-robin.
    fn pick_server(&mut self) -> ServerId {
        assert!(!self.servers.is_empty(), "VMD has no servers");
        let n = self.servers.len();
        for step in 0..n {
            let idx = (self.rr + step) % n;
            if self.servers[idx].free_pages > 0 && !self.servers[idx].suspect {
                self.rr = (idx + 1) % n;
                return self.servers[idx].id;
            }
        }
        for step in 0..n {
            let idx = (self.rr + step) % n;
            if self.servers[idx].spill_free > 0 && !self.servers[idx].suspect {
                self.rr = (idx + 1) % n;
                return self.servers[idx].id;
            }
        }
        for step in 0..n {
            let idx = (self.rr + step) % n;
            if !self.servers[idx].suspect {
                self.rr = (idx + 1) % n;
                return self.servers[idx].id;
            }
        }
        // Every server suspect: place anyway (the write will be retried by
        // the failover machinery if it never completes).
        let idx = self.rr % n;
        self.rr = (idx + 1) % n;
        self.servers[idx].id
    }

    /// Choose `want` distinct servers: the primary via the load-aware ring
    /// (identical to unreplicated placement), then further distinct
    /// non-suspect servers in ring order, preferring ones with free DRAM.
    fn pick_replicas(&mut self, want: usize) -> ReplicaSet {
        let mut set = ReplicaSet::one(self.pick_server());
        while set.len() < want {
            match self.next_distinct(&set) {
                Some(s) => {
                    set.push(s);
                }
                None => break,
            }
        }
        set
    }

    /// Next non-member, non-suspect server in ring order from the cursor;
    /// first pass insists on free DRAM, second takes any live server.
    fn next_distinct(&mut self, set: &ReplicaSet) -> Option<ServerId> {
        let n = self.servers.len();
        for pass in 0..2 {
            for step in 0..n {
                let idx = (self.rr + step) % n;
                let info = self.servers[idx];
                if set.contains(info.id) || info.suspect {
                    continue;
                }
                if pass == 0 && info.free_pages == 0 {
                    continue;
                }
                self.rr = (idx + 1) % n;
                return Some(info.id);
            }
        }
        None
    }

    /// Feed a server's reply (or gossip) back in; returns completions to
    /// surface to the Migration Manager / swap layer. Replies for unknown
    /// request ids (duplicates after a failover re-issue) are counted and
    /// dropped rather than panicking — after a crash they are expected.
    pub fn on_server_msg(&mut self, from: ServerId, msg: ServerMsg) -> Option<VmdCompletion> {
        match msg {
            ServerMsg::ReadResp {
                req,
                version,
                free_pages,
            } => {
                self.update_availability(from, free_pages, None);
                match self.pending_reads.remove(&req) {
                    None => {
                        self.stale_msgs += 1;
                        None
                    }
                    Some(pr) => match pr.purpose {
                        ReadPurpose::Swap => Some(VmdCompletion::ReadDone { req, version }),
                        ReadPurpose::Repair => Some(VmdCompletion::RepairRead {
                            ns: pr.ns,
                            slot: pr.slot,
                            version,
                        }),
                        ReadPurpose::Relocate => Some(VmdCompletion::RelocateRead {
                            ns: pr.ns,
                            slot: pr.slot,
                            version,
                            from: pr.server,
                        }),
                    },
                }
            }
            ServerMsg::WriteAck { req, free_pages } => {
                self.update_availability(from, free_pages, None);
                match self.pending_writes.remove(&req) {
                    None => {
                        self.stale_msgs += 1;
                        None
                    }
                    Some(pw) => {
                        if let WriteRole::Relocate { from } = pw.role {
                            return Some(VmdCompletion::RelocateDone {
                                ns: pw.ns,
                                slot: pw.slot,
                                from,
                                to: pw.server,
                            });
                        }
                        if pw.role == WriteRole::Replica {
                            return None;
                        }
                        // Only the latest write of a slot clears the
                        // writeback entry; an ack for a superseded write
                        // must not expose a stale read-through.
                        if let Some(&(_, latest_req)) = self.writeback.get(&(pw.ns, pw.slot)) {
                            if latest_req == req {
                                self.writeback.remove(&(pw.ns, pw.slot));
                            }
                        }
                        Some(VmdCompletion::WriteDone { req })
                    }
                }
            }
            ServerMsg::Availability {
                server,
                free_pages,
                spill_free_pages,
            } => {
                self.update_availability(server, free_pages, Some(spill_free_pages));
                None
            }
            ServerMsg::LeaseUpdate {
                server, free_pages, ..
            } => {
                // A lease resize is authoritative gossip: adopt the new
                // free capacity so placement stops aiming at a shrinking
                // server before the next periodic round.
                self.update_availability(server, free_pages, None);
                None
            }
            ServerMsg::Nak {
                req,
                free_pages,
                spill_free_pages,
                ..
            } => {
                self.update_availability(from, free_pages, Some(spill_free_pages));
                if self.pending_reads.contains_key(&req) {
                    Some(VmdCompletion::ReadNak { req })
                } else if self.pending_writes.contains_key(&req) {
                    Some(VmdCompletion::WriteNak { req })
                } else {
                    self.stale_msgs += 1;
                    None
                }
            }
        }
    }

    /// After a [`VmdCompletion::ReadNak`] (or a crash of the server a read
    /// was aimed at): re-issue to the next live replica, or — if none is
    /// left — fail the read as typed data. Returns a completion only when
    /// the read is abandoned.
    pub fn read_failover(&mut self, dir: &VmdDirectory, req: u64) -> Option<VmdCompletion> {
        let pr = *self.pending_reads.get(&req)?;
        if pr.purpose == ReadPurpose::Relocate {
            // The point was to vacate that specific replica; if it cannot
            // serve the read there is nothing to move — abandon.
            self.pending_reads.remove(&req);
            self.relocating.remove(&(pr.ns, pr.slot));
            return Some(VmdCompletion::RelocateAbort {
                ns: pr.ns,
                slot: pr.slot,
            });
        }
        let set = dir.replicas(pr.ns, pr.slot);
        if let Some((attempt, server)) = self.first_live_replica(&set, pr.attempt as usize + 1) {
            let entry = self.pending_reads.get_mut(&req).expect("pending read");
            entry.server = server;
            entry.attempt = attempt;
            self.outbox.push_back((
                server,
                ClientMsg::ReadReq {
                    from: self.id,
                    ns: pr.ns,
                    slot: pr.slot,
                    req,
                },
            ));
            return None;
        }
        self.pending_reads.remove(&req);
        match pr.purpose {
            ReadPurpose::Swap => {
                self.lost_slots.insert((pr.ns, pr.slot));
                Some(VmdCompletion::ReadFailed {
                    req,
                    err: VmdError::LostSlot {
                        ns: pr.ns,
                        slot: pr.slot,
                    },
                })
            }
            // A repair that ran out of sources is abandoned; the slot is
            // either already counted lost or still intact elsewhere.
            ReadPurpose::Repair => None,
            ReadPurpose::Relocate => unreachable!("handled above"),
        }
    }

    /// After a [`VmdCompletion::WriteNak`] (or a crash of the server a
    /// write was aimed at): move the copy to a different server, updating
    /// the directory. Returns `WriteDone` when the write is abandoned
    /// (superseded, or no server can take it) so the executor can retire
    /// its request.
    pub fn write_failover(&mut self, dir: &mut VmdDirectory, req: u64) -> Option<VmdCompletion> {
        let pw = self.pending_writes.remove(&req)?;
        if let WriteRole::Relocate { .. } = pw.role {
            // The destination copy failed. The directory was never
            // touched (it changes only in finish_relocation), so just
            // drop the attempt — the reclaim pump will pick the slot
            // again on a later tick.
            self.relocating.remove(&(pw.ns, pw.slot));
            return Some(VmdCompletion::RelocateAbort {
                ns: pw.ns,
                slot: pw.slot,
            });
        }
        // Superseded: a newer write of the slot owns the writeback entry —
        // this copy's content no longer matters.
        let superseded = match self.writeback.get(&(pw.ns, pw.slot)) {
            None => true,
            Some(&(wver, latest)) => match pw.role {
                WriteRole::Primary => latest != req,
                WriteRole::Replica => wver != pw.version,
                WriteRole::Relocate { .. } => unreachable!("handled above"),
            },
        };
        dir.remove_replica(pw.ns, pw.slot, pw.server);
        if superseded {
            return (pw.role == WriteRole::Primary).then_some(VmdCompletion::WriteDone { req });
        }
        let exclude = dir.replicas(pw.ns, pw.slot);
        let Some(server) = self.next_distinct_excluding(&exclude, pw.server) else {
            // Nowhere to put the copy; give up rather than hang.
            self.lost_slots.insert((pw.ns, pw.slot));
            return (pw.role == WriteRole::Primary).then_some(VmdCompletion::WriteDone { req });
        };
        if exclude.is_empty() {
            dir.set_replicas(pw.ns, pw.slot, ReplicaSet::one(server));
        } else {
            dir.add_replica(pw.ns, pw.slot, server);
        }
        if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
            info.free_pages = info.free_pages.saturating_sub(1);
        }
        self.pending_writes
            .insert(req, PendingWrite { server, ..pw });
        let rc = dir.shared_rc(pw.ns, pw.slot);
        self.outbox.push_back((
            server,
            ClientMsg::WriteReq {
                from: self.id,
                ns: pw.ns,
                slot: pw.slot,
                version: pw.version,
                req,
                rc,
            },
        ));
        None
    }

    fn next_distinct_excluding(&mut self, set: &ReplicaSet, also: ServerId) -> Option<ServerId> {
        let mut exclude = *set;
        exclude.push(also);
        self.next_distinct(&exclude)
    }

    /// Failure-detector verdict: `server` crashed. Marks it suspect (so
    /// placement and reads avoid it) and fails over every pending request
    /// aimed at it, in ascending request order for determinism. Returns
    /// completions for requests that had to be abandoned.
    pub fn mark_suspect(&mut self, dir: &mut VmdDirectory, server: ServerId) -> Vec<VmdCompletion> {
        if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
            info.suspect = true;
        }
        let mut out = Vec::new();
        let mut reads: Vec<u64> = self
            .pending_reads
            .iter()
            .filter(|(_, pr)| pr.server == server)
            .map(|(&req, _)| req)
            .collect();
        reads.sort_unstable();
        for req in reads {
            if let Some(c) = self.read_failover(dir, req) {
                out.push(c);
            }
        }
        let mut writes: Vec<u64> = self
            .pending_writes
            .iter()
            .filter(|(_, pw)| pw.server == server)
            .map(|(&req, _)| req)
            .collect();
        writes.sort_unstable();
        for req in writes {
            if let Some(c) = self.write_failover(dir, req) {
                out.push(c);
            }
        }
        out
    }

    /// Start re-replicating `(ns, slot)`: read it from a surviving replica
    /// so [`VmdCompletion::RepairRead`] can copy it to a new server.
    /// Returns false when no repair is needed or possible.
    pub fn begin_repair(&mut self, dir: &VmdDirectory, ns: NamespaceId, slot: u32) -> bool {
        let set = dir.replicas(ns, slot);
        if set.is_empty() || set.len() >= self.replication {
            return false;
        }
        let Some((attempt, server)) = self.first_live_replica(&set, 0) else {
            return false;
        };
        let req = self.next_internal_req();
        self.pending_reads.insert(
            req,
            PendingRead {
                ns,
                slot,
                server,
                attempt,
                purpose: ReadPurpose::Repair,
            },
        );
        self.outbox.push_back((
            server,
            ClientMsg::ReadReq {
                from: self.id,
                ns,
                slot,
                req,
            },
        ));
        true
    }

    /// Second half of a repair: write the page read from a survivor to a
    /// fresh server and record the new replica.
    pub fn repair_write(
        &mut self,
        dir: &mut VmdDirectory,
        ns: NamespaceId,
        slot: u32,
        version: u32,
    ) {
        let current = dir.replicas(ns, slot);
        if current.is_empty() || current.len() >= self.replication {
            return;
        }
        let Some(server) = self.next_distinct(&current) else {
            return;
        };
        dir.add_replica(ns, slot, server);
        if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
            info.free_pages = info.free_pages.saturating_sub(1);
        }
        let req = self.next_internal_req();
        self.pending_writes.insert(
            req,
            PendingWrite {
                ns,
                slot,
                server,
                version,
                role: WriteRole::Replica,
            },
        );
        // Repair copies of a forked master's page must carry the exact
        // current fork refcount, or a later master purge would release a
        // page clones still reference.
        let rc = dir.shared_rc(ns, slot);
        self.outbox.push_back((
            server,
            ClientMsg::WriteReq {
                from: self.id,
                ns,
                slot,
                version,
                req,
                rc,
            },
        ));
    }

    /// Relocations currently in flight on this client (quiescence checks).
    pub fn relocations_inflight(&self) -> usize {
        self.relocating.len()
    }

    /// Start relocating `(ns, slot)` off `from` (lease reclaim or
    /// rebalance): read the copy from that specific replica so
    /// [`VmdCompletion::RelocateRead`] can copy it to a server with
    /// headroom. Returns false when the slot has no copy on `from`, the
    /// source is suspect, a relocation of the slot is already in flight,
    /// or the slot is mid-overwrite (writeback owns the content — the new
    /// version's fan-out will land wherever the directory says).
    pub fn begin_relocation(
        &mut self,
        dir: &VmdDirectory,
        ns: NamespaceId,
        slot: u32,
        from: ServerId,
    ) -> bool {
        if self.writeback.contains_key(&(ns, slot))
            || self.relocating.contains_key(&(ns, slot))
            || self.is_suspect(from)
        {
            return false;
        }
        let set = dir.replicas(ns, slot);
        let Some(pos) = set.as_slice().iter().position(|&s| s == from) else {
            return false;
        };
        self.relocating.insert((ns, slot), true);
        let req = self.next_internal_req();
        self.pending_reads.insert(
            req,
            PendingRead {
                ns,
                slot,
                server: from,
                attempt: pos as u8,
                purpose: ReadPurpose::Relocate,
            },
        );
        self.outbox.push_back((
            from,
            ClientMsg::ReadReq {
                from: self.id,
                ns,
                slot,
                req,
            },
        ));
        true
    }

    /// Second half of a relocation: write the page read off `from` to a
    /// fresh server, preferring `prefer` when given (the rebalance
    /// planner's target). Unlike ordinary placement there is no
    /// full-server fallback — relocating onto a server without free
    /// leased DRAM would only move the pressure. Returns false when the
    /// move is abandoned (superseded, source no longer a replica, or no
    /// destination with headroom).
    pub fn relocate_write(
        &mut self,
        dir: &VmdDirectory,
        ns: NamespaceId,
        slot: u32,
        version: u32,
        from: ServerId,
        prefer: Option<ServerId>,
    ) -> bool {
        let current = dir.replicas(ns, slot);
        if self.relocating.get(&(ns, slot)) != Some(&true) || !current.contains(from) {
            self.relocating.remove(&(ns, slot));
            return false;
        }
        let dest = prefer
            .filter(|&p| {
                !current.contains(p) && !self.is_suspect(p) && self.known_free(p).unwrap_or(0) > 0
            })
            .or_else(|| self.next_free_distinct(&current));
        let Some(dest) = dest else {
            self.relocating.remove(&(ns, slot));
            return false;
        };
        if let Some(info) = self.servers.iter_mut().find(|i| i.id == dest) {
            info.free_pages = info.free_pages.saturating_sub(1);
        }
        let req = self.next_internal_req();
        self.pending_writes.insert(
            req,
            PendingWrite {
                ns,
                slot,
                server: dest,
                version,
                role: WriteRole::Relocate { from },
            },
        );
        // Relocated copies of a forked master's page carry the current
        // fork refcount so the moved copy's mirror stays exact.
        let rc = dir.shared_rc(ns, slot);
        self.outbox.push_back((
            dest,
            ClientMsg::WriteReq {
                from: self.id,
                ns,
                slot,
                version,
                req,
                rc,
            },
        ));
        true
    }

    /// Complete a relocation after the destination acked: swap the
    /// directory entry in place (replica order — and thus failover
    /// choices — preserved) and free the source copy. When the slot was
    /// overwritten or freed mid-flight the new copy is dropped instead,
    /// so no orphan pages leak. Returns true when the directory moved.
    pub fn finish_relocation(
        &mut self,
        dir: &mut VmdDirectory,
        ns: NamespaceId,
        slot: u32,
        from: ServerId,
        to: ServerId,
    ) -> bool {
        let valid = self.relocating.remove(&(ns, slot)) == Some(true);
        if valid {
            if dir.replace_replica(ns, slot, from, to) {
                if let Some(info) = self.servers.iter_mut().find(|i| i.id == from) {
                    info.free_pages += 1;
                }
                self.outbox.push_back((from, ClientMsg::Free { ns, slot }));
                return true;
            }
            // `from` was already evicted (a crash raced the relocation):
            // the copy at `to` is still the latest acked content, so keep
            // it as a replacement replica instead of dropping it.
            if !dir.replicas(ns, slot).is_empty() && dir.add_replica(ns, slot, to) {
                return true;
            }
        }
        // Superseded (fresh overwrite or free) or no placement left: the
        // destination copy is an orphan — release it.
        if !dir.replicas(ns, slot).contains(to) {
            if let Some(info) = self.servers.iter_mut().find(|i| i.id == to) {
                info.free_pages += 1;
            }
            self.outbox.push_back((to, ClientMsg::Free { ns, slot }));
        }
        false
    }

    /// Tear down a namespace (the VM was destroyed, not migrated): drop
    /// its writeback entries, invalidate any in-flight relocation of its
    /// slots, and tell every replica to free its pages. Returns the
    /// number of placements released.
    ///
    /// The relocation guard is the point: a purge racing a reclaim
    /// demotion/relocation must not resurrect a purged page. In-flight
    /// relocation entries stay pending — their completions still have to
    /// drain — but flip invalid, so [`VmdClient::relocate_write`] abandons
    /// the move and [`VmdClient::finish_relocation`] frees the copy at the
    /// destination instead of re-installing it in the directory.
    ///
    /// Fork-aware in both directions. Purging a *clone* first drops every
    /// still-shared master reference (`DropRef` fan-out; the master's
    /// placements are untouched), then releases the clone's private
    /// overlay through the legacy path, then retires the fork bookkeeping.
    /// Purging a *master* with live clones retains the shared placements:
    /// the directory keeps them (owner-freed), the servers defer the
    /// `Free`s, and no free-capacity credit is taken for retained pages.
    pub fn purge_namespace(&mut self, dir: &mut VmdDirectory, ns: NamespaceId) -> usize {
        let is_clone = dir.parent_of(ns).is_some();
        for slot in dir.shared_slots(ns) {
            if let Some(out) = dir.drop_share(ns, slot) {
                for &server in out.replicas.as_slice() {
                    if out.released {
                        if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
                            info.free_pages += 1;
                        }
                    }
                    self.outbox.push_back((
                        server,
                        ClientMsg::DropRef {
                            ns: out.master,
                            slot,
                        },
                    ));
                }
            }
        }
        self.writeback.retain(|&(n, _), _| n != ns);
        for (&(n, _), valid) in self.relocating.iter_mut() {
            if n == ns {
                *valid = false;
            }
        }
        self.lost_slots.retain(|&(n, _)| n != ns);
        let placements = dir.purge_namespace(ns);
        let count = placements.len();
        for (slot, server) in placements {
            // Placements retained for clones (shared, now owner-freed) stay
            // resident server-side: send the deferred Free, skip the credit.
            let retained = dir.shared_rc(ns, slot) > 0;
            if !retained {
                if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
                    info.free_pages += 1;
                }
            }
            self.outbox
                .push_back((server, ClientMsg::Free { ns, slot }));
        }
        if is_clone {
            dir.release_clone(ns);
        }
        count
    }

    /// Fork `master` into a new copy-on-write clone namespace: the clone
    /// shares every slot the master currently has placed, read-only, and
    /// an `NsFork` is queued to each server holding at least one of the
    /// master's pages so the per-page refcount mirrors bump in lockstep
    /// with the directory. Returns the clone namespace id.
    pub fn fork_namespace(&mut self, dir: &mut VmdDirectory, master: NamespaceId) -> NamespaceId {
        let servers = dir.fork_servers(master);
        let clone = dir.fork_namespace(master);
        for server in servers {
            self.outbox
                .push_back((server, ClientMsg::NsFork { master }));
        }
        clone
    }

    /// Drain the copy-on-write breaks recorded since the last drain
    /// (clone namespace, slot), in write order — the executor turns these
    /// into trace events and counters.
    pub fn drain_cow_breaks(&mut self) -> impl Iterator<Item = (NamespaceId, u32)> + '_ {
        self.cow_breaks.drain(..)
    }

    /// True when copy-on-write breaks await draining.
    pub fn has_cow_breaks(&self) -> bool {
        !self.cow_breaks.is_empty()
    }

    /// Next non-member, non-suspect server in ring order *with free leased
    /// DRAM* — no any-server fallback (see [`VmdClient::relocate_write`]).
    fn next_free_distinct(&mut self, set: &ReplicaSet) -> Option<ServerId> {
        let n = self.servers.len();
        for step in 0..n {
            let idx = (self.rr + step) % n;
            let info = self.servers[idx];
            if set.contains(info.id) || info.suspect || info.free_pages == 0 {
                continue;
            }
            self.rr = (idx + 1) % n;
            return Some(info.id);
        }
        None
    }

    fn update_availability(&mut self, server: ServerId, free_pages: u64, spill_free: Option<u64>) {
        if let Some(info) = self.servers.iter_mut().find(|i| i.id == server) {
            // Hearing from (or authoritatively about) a server means it is
            // up — a rejoined server stops being suspect.
            info.suspect = false;
            // Don't let gossip *raise* free pages above what our optimistic
            // in-flight accounting implies; untransmitted writes still land.
            let inflight_to_server = self
                .outbox
                .iter()
                .filter(|(s, m)| *s == server && matches!(m, ClientMsg::WriteReq { .. }))
                .count() as u64;
            info.free_pages = free_pages.saturating_sub(inflight_to_server);
            // Only gossip and NAKs carry the spill view; per-request acks
            // leave it untouched.
            if let Some(sp) = spill_free {
                info.spill_free = sp;
            }
        }
    }

    /// The client's current view of a server's free pages (tests).
    pub fn known_free(&self, server: ServerId) -> Option<u64> {
        self.servers
            .iter()
            .find(|i| i.id == server)
            .map(|i| i.free_pages)
    }

    /// The client's current view of a server's free spill-tier pages.
    pub fn known_spill_free(&self, server: ServerId) -> Option<u64> {
        self.servers
            .iter()
            .find(|i| i.id == server)
            .map(|i| i.spill_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(free: &[u64]) -> (VmdClient, VmdDirectory) {
        let servers = free
            .iter()
            .enumerate()
            .map(|(i, &f)| (ServerId(i as u32), f));
        (VmdClient::new(ClientId(0), servers), VmdDirectory::new())
    }

    #[test]
    fn writes_round_robin_across_servers() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        let ns = d.create_namespace();
        for slot in 0..6 {
            c.write(&mut d, ns, slot, 1, slot as u64);
        }
        let targets: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        assert_eq!(
            targets,
            vec![
                ServerId(0),
                ServerId(1),
                ServerId(2),
                ServerId(0),
                ServerId(1),
                ServerId(2)
            ]
        );
    }

    #[test]
    fn full_servers_are_skipped() {
        let (mut c, mut d) = setup(&[0, 5, 0]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 1, 1);
        c.write(&mut d, ns, 1, 1, 2);
        let targets: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        assert_eq!(targets, vec![ServerId(1), ServerId(1)]);
    }

    #[test]
    fn overwrite_goes_to_original_server() {
        let (mut c, mut d) = setup(&[10, 10]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 1, 1);
        let first: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        // Ack it so the writeback entry clears.
        c.on_server_msg(
            first[0],
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        c.write(&mut d, ns, 0, 2, 2);
        let second: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        assert_eq!(first, second, "overwrite must not move the slot");
    }

    #[test]
    fn read_of_unacked_write_is_local() {
        let (mut c, mut d) = setup(&[10]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 3, 7, 1);
        assert_eq!(
            c.read(&d, ns, 3, 2),
            ReadIssue::Local { version: 7 },
            "writeback buffer serves the read"
        );
        // After the ack, reads go to the network.
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        assert_eq!(c.read(&d, ns, 3, 3), ReadIssue::Sent);
        let msgs: Vec<ClientMsg> = c.drain_outbox().map(|(_, m)| m).collect();
        assert!(matches!(msgs[0], ClientMsg::ReadReq { slot: 3, .. }));
    }

    #[test]
    fn superseding_write_keeps_writeback_until_its_own_ack() {
        let (mut c, mut d) = setup(&[10]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 1, 1);
        c.write(&mut d, ns, 0, 2, 2); // supersedes before ack
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        // Old ack must not clear the newer buffered version.
        assert_eq!(c.read(&d, ns, 0, 9), ReadIssue::Local { version: 2 });
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 2,
                free_pages: 9,
            },
        );
        assert_eq!(c.read(&d, ns, 0, 10), ReadIssue::Sent);
    }

    #[test]
    fn read_completion_roundtrip() {
        let (mut c, mut d) = setup(&[10]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 42, 1);
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        assert_eq!(c.read(&d, ns, 0, 2), ReadIssue::Sent);
        let done = c.on_server_msg(
            ServerId(0),
            ServerMsg::ReadResp {
                req: 2,
                version: 42,
                free_pages: 9,
            },
        );
        assert_eq!(
            done,
            Some(VmdCompletion::ReadDone {
                req: 2,
                version: 42
            })
        );
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn availability_gossip_updates_view() {
        let (mut c, _) = setup(&[10]);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::Availability {
                server: ServerId(0),
                free_pages: 3,
                spill_free_pages: 5,
            },
        );
        assert_eq!(c.known_free(ServerId(0)), Some(3));
        assert_eq!(c.known_spill_free(ServerId(0)), Some(5));
    }

    #[test]
    fn optimistic_accounting_prevents_overcommit() {
        let (mut c, mut d) = setup(&[2, 2]);
        let ns = d.create_namespace();
        // 4 writes exactly fill both servers in the client's view.
        for slot in 0..4 {
            c.write(&mut d, ns, slot, 1, slot as u64);
        }
        assert_eq!(c.known_free(ServerId(0)), Some(0));
        assert_eq!(c.known_free(ServerId(1)), Some(0));
    }

    #[test]
    fn full_pool_falls_back_to_round_robin() {
        // Every server reports full DRAM: writes still place (the server's
        // disk spill tier absorbs them), cycling the ring.
        let (mut c, mut d) = setup(&[1, 1]);
        let ns = d.create_namespace();
        for slot in 0..4 {
            c.write(&mut d, ns, slot, 1, slot as u64);
        }
        let targets: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        assert_eq!(targets.len(), 4);
        // After the two free slots are consumed, placement keeps cycling.
        assert_ne!(targets[2], targets[3], "fallback must round-robin");
    }

    #[test]
    fn free_returns_capacity_and_notifies_server() {
        let (mut c, mut d) = setup(&[1]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 1, 1);
        c.drain_outbox().for_each(drop);
        c.free(&mut d, ns, 0);
        assert_eq!(c.known_free(ServerId(0)), Some(1));
        let msgs: Vec<ClientMsg> = c.drain_outbox().map(|(_, m)| m).collect();
        assert!(matches!(msgs[0], ClientMsg::Free { slot: 0, .. }));
        // And the slot can be written again.
        c.write(&mut d, ns, 1, 1, 2);
    }

    #[test]
    fn replicated_write_fans_out_to_distinct_servers() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        c.set_replication(2);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 1, 1);
        let targets: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        assert_eq!(targets, vec![ServerId(0), ServerId(1)]);
        assert_eq!(d.replicas(ns, 0).len(), 2);
        // Both copies cost capacity in the optimistic view.
        assert_eq!(c.known_free(ServerId(0)), Some(9));
        assert_eq!(c.known_free(ServerId(1)), Some(9));
        // Only the primary's ack surfaces a completion.
        assert_eq!(
            c.on_server_msg(
                ServerId(0),
                ServerMsg::WriteAck {
                    req: 1,
                    free_pages: 9
                }
            ),
            Some(VmdCompletion::WriteDone { req: 1 })
        );
    }

    #[test]
    fn read_fails_over_to_surviving_replica_on_crash() {
        let (mut c, mut d) = setup(&[10, 10]);
        c.set_replication(2);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 7, 1);
        c.drain_outbox().for_each(drop);
        // Ack both copies so the read leaves the writeback buffer.
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        let replica_req = INTERNAL_REQ_BASE;
        c.on_server_msg(
            ServerId(1),
            ServerMsg::WriteAck {
                req: replica_req,
                free_pages: 9,
            },
        );
        assert_eq!(c.read(&d, ns, 0, 5), ReadIssue::Sent);
        c.drain_outbox().for_each(drop);
        // Primary crashes while the read is in flight.
        let completions = c.mark_suspect(&mut d, ServerId(0));
        assert!(completions.is_empty(), "read re-issued, not abandoned");
        let reissued: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert_eq!(reissued.len(), 1);
        assert_eq!(reissued[0].0, ServerId(1));
        let done = c.on_server_msg(
            ServerId(1),
            ServerMsg::ReadResp {
                req: 5,
                version: 7,
                free_pages: 9,
            },
        );
        assert_eq!(done, Some(VmdCompletion::ReadDone { req: 5, version: 7 }));
    }

    #[test]
    fn unreplicated_crash_reports_lost_slot() {
        let (mut c, mut d) = setup(&[10, 10]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 7, 1);
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        assert_eq!(c.read(&d, ns, 0, 5), ReadIssue::Sent);
        let completions = c.mark_suspect(&mut d, ServerId(0));
        assert_eq!(
            completions,
            vec![VmdCompletion::ReadFailed {
                req: 5,
                err: VmdError::LostSlot { ns, slot: 0 },
            }]
        );
        assert_eq!(c.lost_slot_count(), 1);
        // Later reads of the slot fail as data too (no placement left
        // after the directory evicts the server).
        d.evict_server(ServerId(0));
        assert!(matches!(c.read(&d, ns, 0, 6), ReadIssue::Failed(_)));
    }

    #[test]
    fn crash_moves_pending_write_to_live_server() {
        let (mut c, mut d) = setup(&[10, 10]);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 7, 1); // goes to server 0, unacked
        c.drain_outbox().for_each(drop);
        let completions = c.mark_suspect(&mut d, ServerId(0));
        assert!(completions.is_empty(), "write re-issued, not abandoned");
        let reissued: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert_eq!(reissued.len(), 1);
        assert_eq!(reissued[0].0, ServerId(1), "moved off the crashed server");
        assert_eq!(d.lookup(ns, 0), Some(ServerId(1)));
        // Its eventual ack still completes the original request id.
        let done = c.on_server_msg(
            ServerId(1),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        assert_eq!(done, Some(VmdCompletion::WriteDone { req: 1 }));
    }

    #[test]
    fn nak_on_rejoined_server_fails_over() {
        let (mut c, mut d) = setup(&[10, 10]);
        c.set_replication(2);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 7, 1);
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        c.on_server_msg(
            ServerId(1),
            ServerMsg::WriteAck {
                req: INTERNAL_REQ_BASE,
                free_pages: 9,
            },
        );
        assert_eq!(c.read(&d, ns, 0, 5), ReadIssue::Sent);
        c.drain_outbox().for_each(drop);
        // Server 0 crashed, lost the page, and rejoined before the
        // failure detector noticed: it NAKs instead of timing out.
        let nak = c.on_server_msg(
            ServerId(0),
            ServerMsg::Nak {
                req: 5,
                err: VmdError::UnwrittenSlot { ns, slot: 0 },
                free_pages: 10,
                spill_free_pages: 0,
            },
        );
        assert_eq!(nak, Some(VmdCompletion::ReadNak { req: 5 }));
        assert!(c.read_failover(&d, 5).is_none(), "re-issued to replica");
        let reissued: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert_eq!(reissued[0].0, ServerId(1));
    }

    #[test]
    fn repair_restores_replication_factor() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        c.set_replication(2);
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 7, 1);
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        c.on_server_msg(
            ServerId(1),
            ServerMsg::WriteAck {
                req: INTERNAL_REQ_BASE,
                free_pages: 9,
            },
        );
        // Server 0 crashes; the directory drops it.
        c.mark_suspect(&mut d, ServerId(0));
        d.evict_server(ServerId(0));
        assert_eq!(d.replicas(ns, 0).len(), 1);
        // Repair: read from the survivor, write to a fresh server.
        assert!(c.begin_repair(&d, ns, 0));
        let (src, _) = c.drain_outbox().next().expect("repair read");
        assert_eq!(src, ServerId(1));
        let comp = c.on_server_msg(
            ServerId(1),
            ServerMsg::ReadResp {
                req: INTERNAL_REQ_BASE + 1,
                version: 7,
                free_pages: 9,
            },
        );
        assert_eq!(
            comp,
            Some(VmdCompletion::RepairRead {
                ns,
                slot: 0,
                version: 7
            })
        );
        c.repair_write(&mut d, ns, 0, 7);
        let (dst, msg) = c.drain_outbox().next().expect("repair write");
        assert_eq!(dst, ServerId(2), "fresh replica, not the survivor");
        assert!(matches!(
            msg,
            ClientMsg::WriteReq {
                slot: 0,
                version: 7,
                ..
            }
        ));
        assert_eq!(d.replicas(ns, 0).len(), 2);
        // Fully replicated again: no further repair needed.
        assert!(!c.begin_repair(&d, ns, 0));
    }

    #[test]
    fn stale_replies_are_counted_not_fatal() {
        let (mut c, _) = setup(&[10]);
        assert_eq!(
            c.on_server_msg(
                ServerId(0),
                ServerMsg::ReadResp {
                    req: 99,
                    version: 1,
                    free_pages: 9
                }
            ),
            None
        );
        assert_eq!(
            c.on_server_msg(
                ServerId(0),
                ServerMsg::WriteAck {
                    req: 98,
                    free_pages: 9
                }
            ),
            None
        );
        assert_eq!(c.stale_msgs(), 2);
    }

    /// Write one k=2 slot to servers 0 and 1 and ack both copies.
    fn place_replicated_slot(c: &mut VmdClient, d: &mut VmdDirectory) -> NamespaceId {
        c.set_replication(2);
        let ns = d.create_namespace();
        c.write(d, ns, 0, 7, 1);
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::WriteAck {
                req: 1,
                free_pages: 9,
            },
        );
        c.on_server_msg(
            ServerId(1),
            ServerMsg::WriteAck {
                req: INTERNAL_REQ_BASE,
                free_pages: 9,
            },
        );
        ns
    }

    #[test]
    fn relocation_moves_slot_preserving_order() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        let ns = place_replicated_slot(&mut c, &mut d);
        assert!(c.begin_relocation(&d, ns, 0, ServerId(0)));
        assert!(
            !c.begin_relocation(&d, ns, 0, ServerId(0)),
            "one relocation per slot at a time"
        );
        let (src, _) = c.drain_outbox().next().expect("relocation read");
        assert_eq!(src, ServerId(0), "read pinned to the vacating replica");
        let comp = c.on_server_msg(
            ServerId(0),
            ServerMsg::ReadResp {
                req: INTERNAL_REQ_BASE + 1,
                version: 7,
                free_pages: 9,
            },
        );
        assert_eq!(
            comp,
            Some(VmdCompletion::RelocateRead {
                ns,
                slot: 0,
                version: 7,
                from: ServerId(0),
            })
        );
        assert!(c.relocate_write(&d, ns, 0, 7, ServerId(0), None));
        let (dst, _) = c.drain_outbox().next().expect("relocation write");
        assert_eq!(dst, ServerId(2), "fresh server, not a current replica");
        let comp = c.on_server_msg(
            ServerId(2),
            ServerMsg::WriteAck {
                req: INTERNAL_REQ_BASE + 2,
                free_pages: 9,
            },
        );
        assert_eq!(
            comp,
            Some(VmdCompletion::RelocateDone {
                ns,
                slot: 0,
                from: ServerId(0),
                to: ServerId(2),
            })
        );
        assert!(c.finish_relocation(&mut d, ns, 0, ServerId(0), ServerId(2)));
        assert_eq!(
            d.replicas(ns, 0).as_slice(),
            &[ServerId(2), ServerId(1)],
            "replacement lands in the vacated position"
        );
        let frees: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert_eq!(frees.len(), 1);
        assert_eq!(frees[0].0, ServerId(0), "source copy released");
        assert!(matches!(frees[0].1, ClientMsg::Free { slot: 0, .. }));
        assert_eq!(c.relocations_inflight(), 0);
    }

    #[test]
    fn relocation_superseded_by_overwrite_drops_orphan() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        let ns = place_replicated_slot(&mut c, &mut d);
        assert!(c.begin_relocation(&d, ns, 0, ServerId(0)));
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::ReadResp {
                req: INTERNAL_REQ_BASE + 1,
                version: 7,
                free_pages: 9,
            },
        );
        assert!(c.relocate_write(&d, ns, 0, 7, ServerId(0), None));
        // A fresh overwrite lands while the copy is in flight: the
        // relocated content (v7) is now stale.
        c.write(&mut d, ns, 0, 8, 99);
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(2),
            ServerMsg::WriteAck {
                req: INTERNAL_REQ_BASE + 2,
                free_pages: 9,
            },
        );
        assert!(!c.finish_relocation(&mut d, ns, 0, ServerId(0), ServerId(2)));
        assert_eq!(
            d.replicas(ns, 0).as_slice(),
            &[ServerId(0), ServerId(1)],
            "stale copy must not enter the directory"
        );
        let frees: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert_eq!(frees.len(), 1);
        assert_eq!(frees[0].0, ServerId(2), "orphan copy released");
    }

    #[test]
    fn relocation_aborts_when_source_crashes() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        let ns = place_replicated_slot(&mut c, &mut d);
        assert!(c.begin_relocation(&d, ns, 0, ServerId(0)));
        c.drain_outbox().for_each(drop);
        let completions = c.mark_suspect(&mut d, ServerId(0));
        assert_eq!(
            completions,
            vec![VmdCompletion::RelocateAbort { ns, slot: 0 }]
        );
        assert_eq!(c.relocations_inflight(), 0);
        assert_eq!(
            d.replicas(ns, 0).len(),
            2,
            "abort leaves the directory untouched"
        );
    }

    #[test]
    fn relocation_requires_destination_headroom() {
        // Third server reports no free leased DRAM: the move is abandoned
        // instead of falling back to a full server.
        let (mut c, mut d) = setup(&[10, 10, 0]);
        let ns = place_replicated_slot(&mut c, &mut d);
        assert!(c.begin_relocation(&d, ns, 0, ServerId(0)));
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::ReadResp {
                req: INTERNAL_REQ_BASE + 1,
                version: 7,
                free_pages: 9,
            },
        );
        assert!(!c.relocate_write(&d, ns, 0, 7, ServerId(0), None));
        assert_eq!(c.relocations_inflight(), 0);
    }

    #[test]
    fn relocation_becomes_replacement_when_source_is_evicted() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        let ns = place_replicated_slot(&mut c, &mut d);
        assert!(c.begin_relocation(&d, ns, 0, ServerId(0)));
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::ReadResp {
                req: INTERNAL_REQ_BASE + 1,
                version: 7,
                free_pages: 9,
            },
        );
        assert!(c.relocate_write(&d, ns, 0, 7, ServerId(0), None));
        c.drain_outbox().for_each(drop);
        // The source crashes after serving the read; the directory evicts
        // it while the copy to server 2 is still in flight.
        d.evict_server(ServerId(0));
        let comp = c.on_server_msg(
            ServerId(2),
            ServerMsg::WriteAck {
                req: INTERNAL_REQ_BASE + 2,
                free_pages: 9,
            },
        );
        assert!(matches!(comp, Some(VmdCompletion::RelocateDone { .. })));
        assert!(c.finish_relocation(&mut d, ns, 0, ServerId(0), ServerId(2)));
        assert_eq!(
            d.replicas(ns, 0).as_slice(),
            &[ServerId(1), ServerId(2)],
            "the acked copy substitutes for the lost replica"
        );
    }

    #[test]
    fn lease_update_adopts_free_view() {
        let (mut c, _) = setup(&[10]);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::LeaseUpdate {
                server: ServerId(0),
                lease_pages: 4,
                free_pages: 2,
            },
        );
        assert_eq!(c.known_free(ServerId(0)), Some(2));
    }

    #[test]
    fn relocation_prefers_planner_target() {
        let (mut c, mut d) = setup(&[10, 10, 10, 10]);
        let ns = place_replicated_slot(&mut c, &mut d);
        assert!(c.begin_relocation(&d, ns, 0, ServerId(0)));
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::ReadResp {
                req: INTERNAL_REQ_BASE + 1,
                version: 7,
                free_pages: 9,
            },
        );
        assert!(c.relocate_write(&d, ns, 0, 7, ServerId(0), Some(ServerId(3))));
        let (dst, _) = c.drain_outbox().next().expect("relocation write");
        assert_eq!(dst, ServerId(3), "planner's target wins over the ring");
    }

    #[test]
    fn gossip_clears_suspect_mark() {
        let (mut c, mut d) = setup(&[10, 10]);
        c.mark_suspect(&mut d, ServerId(0));
        assert!(c.is_suspect(ServerId(0)));
        // Placement avoids the suspect while it is down.
        let ns = d.create_namespace();
        c.write(&mut d, ns, 0, 1, 1);
        assert_eq!(d.lookup(ns, 0), Some(ServerId(1)));
        // Rejoin: gossip resumes, suspect mark clears, placement resumes.
        c.on_server_msg(
            ServerId(0),
            ServerMsg::Availability {
                server: ServerId(0),
                free_pages: 10,
                spill_free_pages: 0,
            },
        );
        assert!(!c.is_suspect(ServerId(0)));
    }

    /// Satellite-2 regression: with every server's DRAM full, a server
    /// with empty spill tiers must win placement over one that is full
    /// everywhere — the historical fallback was plain round-robin and
    /// skewed half the writes onto the server with no headroom at all.
    #[test]
    fn full_dram_placement_prefers_spill_headroom() {
        let (mut c, mut d) = setup(&[0, 0]);
        // Gossip: server 0 is full everywhere, server 1 has spill room.
        c.on_server_msg(
            ServerId(0),
            ServerMsg::Availability {
                server: ServerId(0),
                free_pages: 0,
                spill_free_pages: 0,
            },
        );
        c.on_server_msg(
            ServerId(1),
            ServerMsg::Availability {
                server: ServerId(1),
                free_pages: 0,
                spill_free_pages: 4,
            },
        );
        let ns = d.create_namespace();
        for slot in 0..4 {
            c.write(&mut d, ns, slot, 1, slot as u64);
        }
        let targets: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        assert_eq!(
            targets,
            vec![ServerId(1); 4],
            "all writes must aim at the server with spill headroom"
        );
        // The optimistic view consumed the spill headroom as it placed.
        assert_eq!(c.known_spill_free(ServerId(1)), Some(0));
        // With the spill view exhausted too, placement degenerates to
        // plain round-robin (the legacy fallback) instead of wedging.
        c.write(&mut d, ns, 10, 1, 10);
        c.write(&mut d, ns, 11, 1, 11);
        let targets: Vec<ServerId> = c.drain_outbox().map(|(s, _)| s).collect();
        assert_ne!(targets[0], targets[1], "exhausted pool round-robins");
    }

    /// Satellite-3 regression: a purge racing an in-flight relocation
    /// (the reclaim pump vacating a server) must not resurrect the purged
    /// page — the relocated copy has to be dropped, not installed.
    #[test]
    fn purge_racing_relocation_does_not_resurrect_slot() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        let ns = place_replicated_slot(&mut c, &mut d);
        assert!(c.begin_relocation(&d, ns, 0, ServerId(0)));
        c.drain_outbox().for_each(drop);
        c.on_server_msg(
            ServerId(0),
            ServerMsg::ReadResp {
                req: INTERNAL_REQ_BASE + 1,
                version: 7,
                free_pages: 9,
            },
        );
        assert!(c.relocate_write(&d, ns, 0, 7, ServerId(0), None));
        c.drain_outbox().for_each(drop);
        // VM destroyed while the relocation copy is in flight to server 2.
        assert_eq!(c.purge_namespace(&mut d, ns), 2);
        let frees: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert_eq!(frees.len(), 2, "both directory replicas freed");
        assert!(frees
            .iter()
            .all(|(_, m)| matches!(m, ClientMsg::Free { .. })));
        // The copy's ack arrives after the purge: finish_relocation must
        // free the orphan at the destination, not re-enter the directory.
        let comp = c.on_server_msg(
            ServerId(2),
            ServerMsg::WriteAck {
                req: INTERNAL_REQ_BASE + 2,
                free_pages: 9,
            },
        );
        assert!(matches!(comp, Some(VmdCompletion::RelocateDone { .. })));
        assert!(!c.finish_relocation(&mut d, ns, 0, ServerId(0), ServerId(2)));
        assert!(
            d.replicas(ns, 0).is_empty(),
            "purged slot must stay purged — no tier resurrection"
        );
        let frees: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert_eq!(frees.len(), 1);
        assert_eq!(frees[0].0, ServerId(2), "orphan copy released");
        assert_eq!(c.relocations_inflight(), 0);
    }

    // ---- namespace forks (copy-on-write cloning) ----

    use crate::server::VmdServer;
    use std::collections::BTreeMap;

    /// Real servers behind the sans-IO client: drain the outbox into each
    /// server's `handle` and feed replies back until quiescent.
    fn pump(c: &mut VmdClient, servers: &mut BTreeMap<ServerId, VmdServer>) {
        loop {
            let msgs: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
            if msgs.is_empty() {
                break;
            }
            for (sid, msg) in msgs {
                let reply = servers.get_mut(&sid).expect("known server").handle(msg);
                if let Some(m) = reply.msg {
                    c.on_server_msg(sid, m);
                }
            }
        }
    }

    fn one_server(free: u64) -> BTreeMap<ServerId, VmdServer> {
        let mut m = BTreeMap::new();
        m.insert(ServerId(0), VmdServer::new(ServerId(0), free, 0));
        m
    }

    #[test]
    fn fork_read_resolves_through_master() {
        let (mut c, mut d) = setup(&[10]);
        let mut servers = one_server(10);
        let master = d.create_namespace();
        c.write(&mut d, master, 0, 7, 1);
        pump(&mut c, &mut servers);
        let clone = c.fork_namespace(&mut d, master);
        pump(&mut c, &mut servers);
        assert_eq!(
            servers[&ServerId(0)].page_rc(master, 0),
            Some(1),
            "NsFork bumped the server-side mirror"
        );
        // The clone's read goes out under the master namespace.
        assert!(matches!(c.read(&d, clone, 0, 2), ReadIssue::Sent));
        let (_, msg) = c.drain_outbox().next().expect("read issued");
        assert!(matches!(msg, ClientMsg::ReadReq { ns, slot: 0, .. } if ns == master));
        let comp = servers
            .get_mut(&ServerId(0))
            .unwrap()
            .handle(msg)
            .msg
            .and_then(|m| c.on_server_msg(ServerId(0), m));
        assert!(
            matches!(comp, Some(VmdCompletion::ReadDone { version: 7, .. })),
            "clone served the master's gold page: {comp:?}"
        );
    }

    #[test]
    fn cow_break_on_first_clone_write() {
        let (mut c, mut d) = setup(&[10]);
        let mut servers = one_server(10);
        let master = d.create_namespace();
        c.write(&mut d, master, 0, 7, 1);
        pump(&mut c, &mut servers);
        let clone = c.fork_namespace(&mut d, master);
        pump(&mut c, &mut servers);
        c.write(&mut d, clone, 0, 9, 2);
        let breaks: Vec<_> = c.drain_cow_breaks().collect();
        assert_eq!(breaks, vec![(clone, 0)]);
        let msgs: Vec<(ServerId, ClientMsg)> = c.drain_outbox().collect();
        assert!(
            matches!(msgs[0].1, ClientMsg::DropRef { ns, slot: 0 } if ns == master),
            "share dropped before the overlay write: {:?}",
            msgs[0].1
        );
        assert!(matches!(msgs[1].1, ClientMsg::WriteReq { ns, rc: 0, .. } if ns == clone));
        for (sid, m) in msgs {
            let reply = servers.get_mut(&sid).unwrap().handle(m);
            if let Some(r) = reply.msg {
                c.on_server_msg(sid, r);
            }
        }
        let s = &servers[&ServerId(0)];
        assert_eq!(s.page_rc(master, 0), Some(0), "master page back to rc 0");
        assert_eq!(s.page_rc(clone, 0), Some(0), "private overlay placed");
        assert!(s.ledger_consistent());
        assert!(!d.is_shared(clone, 0));
        // Subsequent clone reads stay private.
        assert_eq!(d.resolve(clone, 0), clone);
    }

    #[test]
    fn purging_clone_never_drops_master_or_sibling_pages() {
        let (mut c, mut d) = setup(&[10]);
        let mut servers = one_server(10);
        let master = d.create_namespace();
        c.write(&mut d, master, 0, 7, 1);
        c.write(&mut d, master, 1, 8, 2);
        pump(&mut c, &mut servers);
        let c1 = c.fork_namespace(&mut d, master);
        let c2 = c.fork_namespace(&mut d, master);
        pump(&mut c, &mut servers);
        assert_eq!(servers[&ServerId(0)].page_rc(master, 0), Some(2));
        // Purge one clone: master pages and the sibling's view survive.
        c.purge_namespace(&mut d, c1);
        pump(&mut c, &mut servers);
        let s = &servers[&ServerId(0)];
        assert_eq!(s.stored_pages(), 2, "no master page dropped");
        assert_eq!(s.page_rc(master, 0), Some(1));
        assert_eq!(s.page_rc(master, 1), Some(1));
        assert!(s.ledger_consistent());
        assert!(matches!(c.read(&d, c2, 0, 10), ReadIssue::Sent));
        c.drain_outbox().for_each(drop);
        assert_eq!(d.clone_count(master), 1);
    }

    #[test]
    fn purging_master_defers_release_until_last_clone_drops() {
        let (mut c, mut d) = setup(&[10]);
        let mut servers = one_server(10);
        let master = d.create_namespace();
        c.write(&mut d, master, 0, 7, 1);
        pump(&mut c, &mut servers);
        let clone = c.fork_namespace(&mut d, master);
        pump(&mut c, &mut servers);
        // Master goes away (scale-in of the original, or in-place
        // upgrade): the shared page must survive for the clone.
        c.purge_namespace(&mut d, master);
        pump(&mut c, &mut servers);
        {
            let s = &servers[&ServerId(0)];
            assert_eq!(s.stored_pages(), 1, "deferred release kept the page");
            assert_eq!(s.owner_freed_pages(), 1);
            assert!(s.ledger_consistent());
        }
        assert!(
            matches!(c.read(&d, clone, 0, 5), ReadIssue::Sent),
            "clone still resolves the retained master placement"
        );
        pump(&mut c, &mut servers);
        // Last sharer gone: now the page is really released.
        c.purge_namespace(&mut d, clone);
        pump(&mut c, &mut servers);
        let s = &servers[&ServerId(0)];
        assert_eq!(s.stored_pages(), 0, "last DropRef released the page");
        assert_eq!(s.free_pages(), 10);
        assert!(s.ledger_consistent());
        assert!(!d.is_sealed(master));
    }

    #[test]
    fn clone_free_and_owner_free_commute() {
        // Order A: owner frees first (defer), clone drops second (release).
        let (mut c, mut d) = setup(&[10]);
        let mut servers = one_server(10);
        let master = d.create_namespace();
        c.write(&mut d, master, 0, 7, 1);
        pump(&mut c, &mut servers);
        let clone = c.fork_namespace(&mut d, master);
        pump(&mut c, &mut servers);
        c.free(&mut d, master, 0);
        pump(&mut c, &mut servers);
        assert_eq!(servers[&ServerId(0)].stored_pages(), 1);
        c.free(&mut d, clone, 0);
        pump(&mut c, &mut servers);
        assert_eq!(servers[&ServerId(0)].stored_pages(), 0);
        assert!(servers[&ServerId(0)].ledger_consistent());

        // Order B: clone drops first (page stays, unshared), owner frees
        // second (normal release).
        let (mut c, mut d) = setup(&[10]);
        let mut servers = one_server(10);
        let master = d.create_namespace();
        c.write(&mut d, master, 0, 7, 1);
        pump(&mut c, &mut servers);
        let clone = c.fork_namespace(&mut d, master);
        pump(&mut c, &mut servers);
        c.free(&mut d, clone, 0);
        pump(&mut c, &mut servers);
        assert_eq!(servers[&ServerId(0)].stored_pages(), 1);
        assert_eq!(servers[&ServerId(0)].page_rc(master, 0), Some(0));
        c.free(&mut d, master, 0);
        pump(&mut c, &mut servers);
        assert_eq!(servers[&ServerId(0)].stored_pages(), 0);
        assert!(servers[&ServerId(0)].ledger_consistent());
    }

    #[test]
    fn repair_copies_carry_the_fork_refcount() {
        let (mut c, mut d) = setup(&[10, 10, 10]);
        c.set_replication(2);
        let master = d.create_namespace();
        c.write(&mut d, master, 0, 7, 1);
        c.drain_outbox().for_each(drop);
        let _c1 = c.fork_namespace(&mut d, master);
        let _c2 = c.fork_namespace(&mut d, master);
        c.drain_outbox().for_each(drop);
        // One replica died; the repair re-copy must carry rc = 2 so the
        // fresh server's mirror is exact from the first byte.
        d.remove_replica(master, 0, ServerId(1));
        c.repair_write(&mut d, master, 0, 7);
        let (_, msg) = c.drain_outbox().next().expect("repair write");
        assert!(
            matches!(msg, ClientMsg::WriteReq { rc: 2, .. }),
            "repair write lost the refcount: {msg:?}"
        );
    }
}
