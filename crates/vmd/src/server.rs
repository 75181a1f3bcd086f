//! VMD server module (runs on each intermediate host).
//!
//! Stores pages in the host's spare memory. Memory is allocated only when a
//! write arrives — no reservation up front (§IV-A). Below the DRAM head
//! tier sits a configurable **tier stack** ([`crate::tier`]): the host-SSD
//! disk spill tier, zswap-like compressed memory, CXL-like far memory —
//! each with its own capacity and cost. Writes that exceed the head tier
//! spill to the cheapest lower tier with headroom instead of being
//! rejected; reads report the serving tier index so the cluster executor
//! can charge the right device time.
//!
//! ## Elastic contribution leases
//!
//! The server's DRAM contribution is bounded by a **lease**
//! ([`VmdServer::set_lease`]) sized by the pool manager from the donor
//! host's own memory demand. `free_pages()` — and therefore every reply
//! and availability gossip — advertises lease-aware capacity, so clients
//! never place onto a shrinking server. When a shrink leaves the server
//! holding more DRAM pages than the lease allows
//! ([`VmdServer::over_lease_pages`]), the pool manager reclaims via
//! [`VmdServer::reclaim_victims`] (relocation) and
//! [`VmdServer::demote_victims`] (spill down the stack). Victim order is
//! deterministic: coldest namespace first (a logical access clock, not
//! wall time — the server is sans-IO), slots ascending within a namespace;
//! with the heat policy enabled, coldest *page* first by decayed heat.

use std::collections::HashMap;
use std::mem::size_of;

use agile_sim_core::hash::map_heap_bytes;
use agile_sim_core::IdHashMap;

use crate::proto::{ClientMsg, NamespaceId, ServerId, ServerMsg, VmdError};
use crate::tier::{HeatPolicy, ResolvedTier, TierBacking, TierLedger, TierStackConfig};

/// Outcome of handling one client message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerReply {
    /// The reply to transmit, if any (`Free` is fire-and-forget).
    pub msg: Option<ServerMsg>,
    /// Index of the tier that served/absorbed the request (0 = DRAM head
    /// tier), for device-time accounting via [`VmdServer::tier_backing`].
    pub tier: u8,
}

/// Per-page metadata: the stored version, which tier holds the page, and
/// the decayed-heat state driving promotion (see [`HeatPolicy`]).
#[derive(Clone, Copy, Debug)]
struct PageMeta {
    version: u32,
    tier: u8,
    heat: u16,
    /// Truncated access-clock value of the last touch (heat age base).
    last: u32,
    /// Fork reference count: clone namespaces still sharing this page
    /// (it belongs to a sealed master's gold image while nonzero). Bumped
    /// by [`ClientMsg::NsFork`], carried exactly on repair/relocation
    /// copies via [`ClientMsg::WriteReq::rc`], dropped by
    /// [`ClientMsg::DropRef`].
    rc: u16,
    /// The owning namespace freed this page while clones still shared it:
    /// the release is deferred until `rc` reaches zero.
    owner_freed: bool,
}

/// One intermediate host's VMD server state.
#[derive(Clone, Debug)]
pub struct VmdServer {
    id: ServerId,
    /// The resolved tier stack, fastest first. Tier 0 is always raw DRAM;
    /// the contribution lease applies to it alone.
    tiers: Vec<ResolvedTier>,
    heat: HeatPolicy,
    /// Current contribution lease; DRAM beyond `min(lease, capacity)` is
    /// off-limits to new placements. Starts at the full capacity.
    lease_pages: u64,
    store: IdHashMap<(NamespaceId, u32), PageMeta>,
    /// Checked per-tier occupancy (the satellite-1 fix: decrements
    /// debug-assert and saturate instead of silently wrapping).
    ledger: TierLedger,
    /// Logical access clock: bumped on every read/write so victim
    /// selection can order namespaces coldest-first deterministically.
    access_clock: u64,
    /// Last access-clock value per namespace.
    ns_last_access: IdHashMap<NamespaceId, u64>,
    /// Stored pages per namespace (all tiers).
    ns_pages: IdHashMap<NamespaceId, u64>,
}

impl VmdServer {
    /// Create a server with the default two-tier stack: `mem_capacity_pages`
    /// of spare DRAM and (optionally) `disk_capacity_pages` of spill space
    /// on the host's SSD.
    pub fn new(id: ServerId, mem_capacity_pages: u64, disk_capacity_pages: u64) -> Self {
        let stack = TierStackConfig::default();
        Self::with_tiers(
            id,
            stack.resolve(mem_capacity_pages, disk_capacity_pages),
            stack.heat,
        )
    }

    /// Create a server with an explicit resolved tier stack (tier 0 must
    /// be the raw-DRAM head tier) and heat policy.
    pub fn with_tiers(id: ServerId, tiers: Vec<ResolvedTier>, heat: HeatPolicy) -> Self {
        assert!(!tiers.is_empty(), "tier stack cannot be empty");
        assert!(
            tiers[0].backing == TierBacking::Dram,
            "tier 0 must be the raw-DRAM head tier"
        );
        let lease = tiers[0].capacity_pages;
        let n = tiers.len();
        VmdServer {
            id,
            tiers,
            heat,
            lease_pages: lease,
            store: IdHashMap::default(),
            ledger: TierLedger::new(n),
            access_clock: 0,
            ns_last_access: IdHashMap::default(),
            ns_pages: IdHashMap::default(),
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Number of tiers in this server's stack.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// The backing device of tier `t` (for executor device-time charging).
    pub fn tier_backing(&self, t: u8) -> TierBacking {
        self.tiers[t as usize].backing
    }

    /// Pages stored in tier `t`.
    pub fn tier_used_pages(&self, t: u8) -> u64 {
        self.ledger.used(t as usize)
    }

    /// DRAM pages placements may use right now: `min(lease, capacity)`.
    fn effective_mem(&self) -> u64 {
        self.lease_pages.min(self.tiers[0].capacity_pages)
    }

    /// Usable capacity of tier `t`: the lease bounds the DRAM head tier,
    /// lower tiers use their full resolved capacity.
    fn effective_cap(&self, t: usize) -> u64 {
        if t == 0 {
            self.effective_mem()
        } else {
            self.tiers[t].capacity_pages
        }
    }

    /// Free pages in tier `t` right now.
    fn free_in(&self, t: usize) -> u64 {
        self.effective_cap(t).saturating_sub(self.ledger.used(t))
    }

    /// Free *leased* DRAM pages right now. Every reply and availability
    /// report goes through here, so gossip advertises leased — not raw —
    /// capacity and clients avoid shrinking servers.
    pub fn free_pages(&self) -> u64 {
        self.free_in(0)
    }

    /// Free pages across every tier below the DRAM head — the headroom a
    /// write would spill into. Gossiped so placement can prefer servers
    /// that still absorb writes when their leased DRAM is full
    /// (the satellite-2 fix).
    pub fn spill_free_pages(&self) -> u64 {
        (1..self.tiers.len()).map(|t| self.free_in(t)).sum()
    }

    /// Raw DRAM contribution ceiling (lease-independent).
    pub fn mem_capacity_pages(&self) -> u64 {
        self.tiers[0].capacity_pages
    }

    /// DRAM pages currently storing data.
    pub fn mem_used_pages(&self) -> u64 {
        self.ledger.used(0)
    }

    /// The current contribution lease, in pages (clamped to capacity).
    pub fn lease_pages(&self) -> u64 {
        self.effective_mem()
    }

    /// Resize the contribution lease (clamped to the raw capacity).
    /// Returns the new effective lease. Shrinking below the DRAM usage
    /// does not evict anything by itself — the pool manager drains the
    /// excess via [`VmdServer::reclaim_victims`] /
    /// [`VmdServer::demote_victims`].
    pub fn set_lease(&mut self, pages: u64) -> u64 {
        self.lease_pages = pages.min(self.tiers[0].capacity_pages);
        self.lease_pages
    }

    /// DRAM pages held beyond the current lease (reclaim backlog).
    pub fn over_lease_pages(&self) -> u64 {
        self.ledger.used(0).saturating_sub(self.effective_mem())
    }

    /// Pages currently stored (all tiers).
    pub fn stored_pages(&self) -> u64 {
        self.ledger.total()
    }

    /// Pages stored below the DRAM head tier (the "disk" view:
    /// with the default stack this is exactly the disk tier).
    pub fn disk_pages(&self) -> u64 {
        self.ledger.spill_used()
    }

    /// True if a write arriving now would have to spill (or fail).
    pub fn memory_full(&self) -> bool {
        self.ledger.used(0) >= self.effective_mem()
    }

    /// Consistency check: the ledger matches a recount of the store, the
    /// per-namespace counts sum to the store size, and the fork-refcount
    /// invariant holds — an owner-freed page is *only* retained while a
    /// clone still references it (`rc > 0`); the moment the last DropRef
    /// lands the page must be gone. Cheap enough for tests and debug
    /// audits; not on any hot path.
    pub fn ledger_consistent(&self) -> bool {
        self.ledger.matches(self.store.values().map(|m| m.tier))
            && self.ns_pages.values().sum::<u64>() == self.store.len() as u64
            && self.store.values().all(|m| !m.owner_freed || m.rc > 0)
    }

    /// Retained pages whose owner already freed them (held alive only by
    /// clone references).
    pub fn owner_freed_pages(&self) -> u64 {
        self.store.values().filter(|m| m.owner_freed).count() as u64
    }

    /// Heap bytes held by the server: the page store and the
    /// per-namespace maps, from their capacities. For memory attribution
    /// only.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        self.tiers.capacity() * size_of::<ResolvedTier>()
            + map_heap_bytes(&self.store)
            + map_heap_bytes(&self.ns_last_access)
            + map_heap_bytes(&self.ns_pages)
    }

    /// Fork reference count of a stored page (`None` when absent).
    pub fn page_rc(&self, ns: NamespaceId, slot: u32) -> Option<u16> {
        self.store.get(&(ns, slot)).map(|m| m.rc)
    }

    /// Build the periodic availability report.
    pub fn availability(&self) -> ServerMsg {
        ServerMsg::Availability {
            server: self.id,
            free_pages: self.free_pages(),
            spill_free_pages: self.spill_free_pages(),
        }
    }

    /// Build a lease-change notification (pushed by the pool manager so
    /// clients learn about a shrink before the next gossip round).
    pub fn lease_update(&self) -> ServerMsg {
        ServerMsg::LeaseUpdate {
            server: self.id,
            lease_pages: self.effective_mem(),
            free_pages: self.free_pages(),
        }
    }

    /// Stored pages (all tiers) per namespace, sorted by namespace id.
    pub fn pages_per_namespace(&self) -> Vec<(NamespaceId, u64)> {
        let mut out: Vec<(NamespaceId, u64)> =
            self.ns_pages.iter().map(|(&ns, &n)| (ns, n)).collect();
        out.sort_unstable_by_key(|&(ns, _)| ns.0);
        out
    }

    fn touch(&mut self, ns: NamespaceId) {
        self.access_clock += 1;
        self.ns_last_access.insert(ns, self.access_clock);
    }

    fn note_insert(&mut self, ns: NamespaceId) {
        *self.ns_pages.entry(ns).or_insert(0) += 1;
    }

    fn note_remove(&mut self, ns: NamespaceId) {
        if let Some(n) = self.ns_pages.get_mut(&ns) {
            *n -= 1;
            if *n == 0 {
                self.ns_pages.remove(&ns);
                self.ns_last_access.remove(&ns);
            }
        }
    }

    /// The tier a hit page in tier `from` should be promoted into: the
    /// *cheapest tier with headroom that is strictly cheaper* than `from`
    /// — not "one level up". Equal-cost adjacent tiers therefore behave
    /// exactly like one merged tier (the metamorphic property the tier
    /// tests pin). `None` when no cheaper tier has room.
    fn promote_target(&self, from: u8) -> Option<u8> {
        let from_cost = self.tiers[from as usize].read_cost;
        (0..from as usize)
            .find(|&t| self.tiers[t].read_cost < from_cost && self.free_in(t) > 0)
            .map(|t| t as u8)
    }

    /// The tier a new or demoted page should land in when tier `from` has
    /// no headroom: the cheapest strictly-lower tier with room (index
    /// order is cost order). `None` when the whole stack below is full.
    fn spill_target(&self, from: u8) -> Option<u8> {
        (from as usize + 1..self.tiers.len())
            .find(|&t| self.free_in(t) > 0)
            .map(|t| t as u8)
    }

    /// Whether the heat policy allows promoting this page now. With heat
    /// disabled (the paper's VMD policy) every hit promotes.
    fn heat_allows_promotion(&self, meta: &PageMeta) -> bool {
        if !self.heat.enabled {
            return true;
        }
        let age = (self.access_clock as u32).wrapping_sub(meta.last);
        self.heat.decayed(meta.heat, age) >= self.heat.promote_min_heat
    }

    /// Apply one hit's heat update (no-op when the policy is disabled).
    fn bump_heat(&self, meta: &mut PageMeta, clock: u64) {
        if !self.heat.enabled {
            return;
        }
        let age = (clock as u32).wrapping_sub(meta.last);
        meta.heat = self.heat.bump(self.heat.decayed(meta.heat, age));
        meta.last = clock as u32;
    }

    /// Up to `max` DRAM-tier victim slots in deterministic reclaim order.
    /// Legacy policy: coldest namespace first (least-recently-accessed;
    /// ties break to the lower namespace id), slots ascending within a
    /// namespace. Heat policy: coldest page first by decayed heat, ties
    /// by (namespace, slot).
    ///
    /// Fork-aware: pages carrying a fork reference count are pinned
    /// (skipped). Relocation is driven by the owning namespace's client —
    /// which may already be gone for an owner-freed page — and every
    /// clone's demand-read path depends on the gold image staying where
    /// the fork found it, so shared pages stay put until the last
    /// reference drops.
    pub fn reclaim_victims(&self, max: usize) -> Vec<(NamespaceId, u32)> {
        if max == 0 || self.ledger.used(0) == 0 {
            return Vec::new();
        }
        if self.heat.enabled {
            let clock = self.access_clock as u32;
            let mut pages: Vec<(u16, u32, u32)> = self
                .store
                .iter()
                .filter(|(_, m)| m.tier == 0 && m.rc == 0)
                .map(|(&(ns, slot), m)| {
                    let age = clock.wrapping_sub(m.last);
                    (self.heat.decayed(m.heat, age), ns.0, slot)
                })
                .collect();
            pages.sort_unstable();
            pages.truncate(max);
            return pages
                .into_iter()
                .map(|(_, ns, slot)| (NamespaceId(ns), slot))
                .collect();
        }
        let mut by_ns: HashMap<NamespaceId, Vec<u32>> = HashMap::new();
        for (&(ns, slot), meta) in &self.store {
            if meta.tier == 0 && meta.rc == 0 {
                by_ns.entry(ns).or_default().push(slot);
            }
        }
        let mut order: Vec<NamespaceId> = by_ns.keys().copied().collect();
        order.sort_unstable_by_key(|ns| (self.ns_last_access.get(ns).copied().unwrap_or(0), ns.0));
        let mut out = Vec::with_capacity(max.min(self.ledger.used(0) as usize));
        for ns in order {
            let mut slots = by_ns.remove(&ns).expect("grouped above");
            slots.sort_unstable();
            for slot in slots {
                out.push((ns, slot));
                if out.len() == max {
                    return out;
                }
            }
        }
        out
    }

    /// Demote up to `max` victim slots (same order as
    /// [`VmdServer::reclaim_victims`]) from DRAM down the stack — each
    /// victim lands in the cheapest lower tier with headroom — bounded by
    /// total lower-tier headroom. Returns the demoted slots.
    pub fn demote_victims(&mut self, max: usize) -> Vec<(NamespaceId, u32)> {
        let room: u64 = (1..self.tiers.len()).map(|t| self.free_in(t)).sum();
        let victims = self.reclaim_victims(max.min(room as usize));
        for &(ns, slot) in &victims {
            let dest = self.spill_target(0).expect("bounded by headroom above");
            let entry = self.store.get_mut(&(ns, slot)).expect("victim exists");
            entry.tier = dest;
            self.ledger.transfer(0, dest as usize);
        }
        victims
    }

    /// Nominal per-page cost of demoting one more victim locally (the
    /// read cost of the tier the next victim would land in). `None` when
    /// every lower tier is full. The pool manager weighs this against the
    /// cost of relocating to another server's DRAM.
    pub fn best_demotion_cost(&self) -> Option<agile_sim_core::SimDuration> {
        self.spill_target(0)
            .map(|t| self.tiers[t as usize].read_cost)
    }

    /// Handle one client message. Returns the reply (and which tier did
    /// the work). A read of a never-written slot — which happens when this
    /// server crashed, lost its store, and rejoined — is answered with a
    /// [`ServerMsg::Nak`] so the client can fail over to another replica;
    /// same for a write that exceeds every tier.
    pub fn handle(&mut self, msg: ClientMsg) -> ServerReply {
        match msg {
            ClientMsg::ReadReq { ns, slot, req, .. } => {
                let Some(meta) = self.store.get(&(ns, slot)).copied() else {
                    return ServerReply {
                        msg: Some(ServerMsg::Nak {
                            req,
                            err: VmdError::UnwrittenSlot { ns, slot },
                            free_pages: self.free_pages(),
                            spill_free_pages: self.spill_free_pages(),
                        }),
                        tier: 0,
                    };
                };
                self.touch(ns);
                let tier = meta.tier;
                let mut updated = meta;
                self.bump_heat(&mut updated, self.access_clock);
                // A read hit below the head tier promotes the page to the
                // cheapest strictly-cheaper tier with headroom (demotion
                // without promotion wrecks repeat-access latency; the heat
                // policy, when enabled, gates this on decayed heat). The
                // promoting read still pays the serving tier's time — the
                // reply reports the original tier.
                if tier > 0 && self.heat_allows_promotion(&updated) {
                    if let Some(up) = self.promote_target(tier) {
                        updated.tier = up;
                        self.ledger.transfer(tier as usize, up as usize);
                    }
                }
                self.store.insert((ns, slot), updated);
                ServerReply {
                    msg: Some(ServerMsg::ReadResp {
                        req,
                        version: meta.version,
                        free_pages: self.free_pages(),
                    }),
                    tier,
                }
            }
            ClientMsg::WriteReq {
                ns,
                slot,
                version,
                req,
                rc,
                ..
            } => {
                let prior = self.store.get(&(ns, slot)).copied();
                let tier = match prior {
                    // Overwrite in place — but a slot stranded below the
                    // head tier while memory was full is promoted as soon
                    // as a cheaper tier has headroom again.
                    Some(meta) => {
                        let mut t = meta.tier;
                        if t > 0 && self.heat_allows_promotion(&meta) {
                            if let Some(up) = self.promote_target(t) {
                                self.ledger.transfer(t as usize, up as usize);
                                t = up;
                            }
                        }
                        t
                    }
                    None => {
                        // New write: head tier first, else spill down the
                        // stack to the cheapest tier with headroom.
                        let dest = if self.free_in(0) > 0 {
                            Some(0u8)
                        } else {
                            self.spill_target(0)
                        };
                        match dest {
                            Some(t) => {
                                self.ledger.add(t as usize);
                                self.note_insert(ns);
                                t
                            }
                            None => {
                                // Every tier full (stale availability view
                                // at the client): refuse so the client
                                // re-places.
                                return ServerReply {
                                    msg: Some(ServerMsg::Nak {
                                        req,
                                        err: VmdError::OutOfCapacity { ns, slot },
                                        free_pages: 0,
                                        spill_free_pages: 0,
                                    }),
                                    tier: 0,
                                };
                            }
                        }
                    }
                };
                self.touch(ns);
                debug_assert!(
                    prior.is_none_or(|m| !m.owner_freed),
                    "overwrite of an owner-freed shared page"
                );
                let mut meta = PageMeta {
                    version,
                    tier,
                    heat: prior.map(|m| m.heat).unwrap_or(0),
                    last: prior.map(|m| m.last).unwrap_or(self.access_clock as u32),
                    // A fresh copy (repair/relocation of a shared master
                    // page) lands with the exact count from the header; an
                    // overwrite keeps the count this server already tracks.
                    rc: prior.map(|m| m.rc).unwrap_or(rc),
                    owner_freed: prior.map(|m| m.owner_freed).unwrap_or(false),
                };
                // Only overwrite *hits* accrue heat; the initial store of a
                // page says nothing about its future access rate.
                if prior.is_some() {
                    self.bump_heat(&mut meta, self.access_clock);
                }
                self.store.insert((ns, slot), meta);
                ServerReply {
                    msg: Some(ServerMsg::WriteAck {
                        req,
                        free_pages: self.free_pages(),
                    }),
                    tier,
                }
            }
            ClientMsg::Free { ns, slot } => {
                // A page still referenced by clone namespaces defers its
                // release: mark it owner-freed; the last DropRef frees it.
                if let Some(meta) = self.store.get_mut(&(ns, slot)) {
                    if meta.rc > 0 {
                        meta.owner_freed = true;
                        let tier = meta.tier;
                        return ServerReply { msg: None, tier };
                    }
                }
                let tier = if let Some(meta) = self.store.remove(&(ns, slot)) {
                    self.ledger.remove(meta.tier as usize);
                    self.note_remove(ns);
                    meta.tier
                } else {
                    0
                };
                ServerReply { msg: None, tier }
            }
            ClientMsg::NsFork { master } => {
                // A clone now shares every page of the master's gold image
                // this server holds. Order-independent value updates only —
                // safe over the hash map.
                for ((ns, _), meta) in self.store.iter_mut() {
                    if *ns == master {
                        meta.rc += 1;
                    }
                }
                ServerReply { msg: None, tier: 0 }
            }
            ClientMsg::DropRef { ns, slot } => {
                let mut freed_tier = 0;
                if let Some(meta) = self.store.get_mut(&(ns, slot)) {
                    meta.rc = meta.rc.saturating_sub(1);
                    if meta.rc == 0 && meta.owner_freed {
                        let meta = self.store.remove(&(ns, slot)).expect("present above");
                        self.ledger.remove(meta.tier as usize);
                        self.note_remove(ns);
                        freed_tier = meta.tier;
                    }
                }
                ServerReply {
                    msg: None,
                    tier: freed_tier,
                }
            }
        }
    }

    /// Crash: the host died and its DRAM (and, in our model, spill-tier
    /// contents) are gone. Capacity (and the current lease) is retained
    /// for when the host rejoins empty. Returns the number of pages lost.
    pub fn crash_reset(&mut self) -> u64 {
        let lost = self.stored_pages();
        self.store.clear();
        self.ledger.clear();
        self.ns_last_access.clear();
        self.ns_pages.clear();
        lost
    }

    /// Drop every slot of a namespace (the VM was destroyed, not migrated).
    /// Returns the number of pages released. Fork-aware: pages still
    /// referenced by clone namespaces are retained (marked owner-freed)
    /// and released by their last [`ClientMsg::DropRef`] instead.
    pub fn purge_namespace(&mut self, ns: NamespaceId) -> u64 {
        let before = self.stored_pages();
        let ledger = &mut self.ledger;
        let mut retained = 0u64;
        self.store.retain(|(n, _), meta| {
            if *n != ns {
                return true;
            }
            if meta.rc > 0 {
                meta.owner_freed = true;
                retained += 1;
                return true;
            }
            ledger.remove(meta.tier as usize);
            false
        });
        if retained > 0 {
            self.ns_pages.insert(ns, retained);
        } else {
            self.ns_pages.remove(&ns);
            self.ns_last_access.remove(&ns);
        }
        before - self.stored_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ClientId;
    use crate::tier::TierSpec;
    use agile_sim_core::SimDuration;

    fn write(ns: u32, slot: u32, version: u32, req: u64) -> ClientMsg {
        ClientMsg::WriteReq {
            from: ClientId(0),
            ns: NamespaceId(ns),
            slot,
            version,
            req,
            rc: 0,
        }
    }

    fn read(ns: u32, slot: u32, req: u64) -> ClientMsg {
        ClientMsg::ReadReq {
            from: ClientId(0),
            ns: NamespaceId(1),
            slot,
            req,
        }
        .retag(ns)
    }

    // Helper so the `read` constructor above stays one expression.
    trait Retag {
        fn retag(self, ns: u32) -> Self;
    }
    impl Retag for ClientMsg {
        fn retag(mut self, new_ns: u32) -> Self {
            if let ClientMsg::ReadReq { ref mut ns, .. } = self {
                *ns = NamespaceId(new_ns);
            }
            self
        }
    }

    /// A three-tier stack: 2 DRAM pages, 2 far-memory pages, 4 SSD pages.
    fn tiered_server() -> VmdServer {
        let stack = TierStackConfig::new(
            &[
                TierSpec::dram(),
                TierSpec::far_memory(2, SimDuration::from_micros(2), u64::MAX, 4096),
                TierSpec::host_ssd(),
            ],
            HeatPolicy::default(),
        );
        VmdServer::with_tiers(ServerId(0), stack.resolve(2, 4), HeatPolicy::default())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = VmdServer::new(ServerId(0), 100, 0);
        let r = s.handle(write(1, 5, 42, 7));
        assert_eq!(
            r.msg,
            Some(ServerMsg::WriteAck {
                req: 7,
                free_pages: 99
            })
        );
        let r = s.handle(read(1, 5, 8));
        match r.msg {
            Some(ServerMsg::ReadResp { req, version, .. }) => {
                assert_eq!(req, 8);
                assert_eq!(version, 42);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn memory_allocated_only_on_write() {
        let s = VmdServer::new(ServerId(0), 100, 0);
        assert_eq!(s.free_pages(), 100);
        assert_eq!(s.stored_pages(), 0);
    }

    #[test]
    fn overwrite_does_not_double_count() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        s.handle(write(1, 0, 1, 1));
        s.handle(write(1, 0, 2, 2));
        assert_eq!(s.stored_pages(), 1);
        match s.handle(read(1, 0, 3)).msg {
            Some(ServerMsg::ReadResp { version, .. }) => assert_eq!(version, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn namespaces_are_isolated() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        s.handle(write(1, 0, 11, 1));
        s.handle(write(2, 0, 22, 2));
        match s.handle(read(1, 0, 3)).msg {
            Some(ServerMsg::ReadResp { version, .. }) => assert_eq!(version, 11),
            other => panic!("{other:?}"),
        }
        match s.handle(read(2, 0, 4)).msg {
            Some(ServerMsg::ReadResp { version, .. }) => assert_eq!(version, 22),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spills_to_disk_when_memory_full() {
        let mut s = VmdServer::new(ServerId(0), 1, 4);
        assert_eq!(s.handle(write(1, 0, 1, 1)).tier, 0);
        assert_eq!(s.handle(write(1, 1, 1, 2)).tier, 1);
        assert!(s.memory_full());
        assert_eq!(s.disk_pages(), 1);
        // Reads report the tier so the executor can charge device time.
        assert_eq!(s.handle(read(1, 1, 3)).tier, 1);
        assert_eq!(s.handle(read(1, 0, 4)).tier, 0);
    }

    #[test]
    fn free_releases_capacity() {
        let mut s = VmdServer::new(ServerId(0), 1, 0);
        s.handle(write(1, 0, 1, 1));
        assert!(s.memory_full());
        s.handle(ClientMsg::Free {
            ns: NamespaceId(1),
            slot: 0,
        });
        assert!(!s.memory_full());
        assert_eq!(s.free_pages(), 1);
    }

    #[test]
    fn purge_namespace_only_touches_that_namespace() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        s.handle(write(1, 0, 1, 1));
        s.handle(write(1, 1, 1, 2));
        s.handle(write(2, 0, 1, 3));
        assert_eq!(s.purge_namespace(NamespaceId(1)), 2);
        assert_eq!(s.stored_pages(), 1);
        assert_eq!(
            s.pages_per_namespace(),
            vec![(NamespaceId(2), 1)],
            "per-namespace accounting follows the purge"
        );
        assert!(s.ledger_consistent());
    }

    #[test]
    fn read_of_unwritten_slot_naks() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        let r = s.handle(read(1, 99, 1));
        assert_eq!(
            r.msg,
            Some(ServerMsg::Nak {
                req: 1,
                err: VmdError::UnwrittenSlot {
                    ns: NamespaceId(1),
                    slot: 99,
                },
                free_pages: 10,
                spill_free_pages: 0,
            })
        );
    }

    #[test]
    fn overflow_write_naks_without_storing() {
        let mut s = VmdServer::new(ServerId(0), 1, 0);
        s.handle(write(1, 0, 1, 1));
        let r = s.handle(write(1, 1, 1, 2));
        assert!(matches!(
            r.msg,
            Some(ServerMsg::Nak {
                req: 2,
                err: VmdError::OutOfCapacity { .. },
                ..
            })
        ));
        assert_eq!(s.stored_pages(), 1);
    }

    #[test]
    fn crash_reset_loses_contents_keeps_capacity() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        s.handle(write(1, 0, 1, 1));
        s.handle(write(1, 1, 1, 2));
        assert_eq!(s.crash_reset(), 2);
        assert_eq!(s.free_pages(), 10);
        assert!(s.pages_per_namespace().is_empty());
        // A rejoined server no longer has the page: read NAKs.
        assert!(matches!(
            s.handle(read(1, 0, 3)).msg,
            Some(ServerMsg::Nak { .. })
        ));
    }

    #[test]
    fn availability_reports_free() {
        let mut s = VmdServer::new(ServerId(3), 5, 0);
        s.handle(write(1, 0, 1, 1));
        assert_eq!(
            s.availability(),
            ServerMsg::Availability {
                server: ServerId(3),
                free_pages: 4,
                spill_free_pages: 0,
            }
        );
    }

    #[test]
    fn availability_reports_spill_headroom() {
        let mut s = VmdServer::new(ServerId(3), 1, 3);
        s.handle(write(1, 0, 1, 1));
        s.handle(write(1, 1, 1, 2)); // spills
        assert_eq!(
            s.availability(),
            ServerMsg::Availability {
                server: ServerId(3),
                free_pages: 0,
                spill_free_pages: 2,
            }
        );
    }

    #[test]
    fn overwrite_promotes_stranded_disk_page() {
        // Regression: a slot written while memory was full used to stay on
        // the disk tier forever, even after DRAM freed up.
        let mut s = VmdServer::new(ServerId(0), 1, 4);
        s.handle(write(1, 0, 1, 1)); // fills DRAM
        assert_eq!(s.handle(write(1, 1, 1, 2)).tier, 1);
        s.handle(ClientMsg::Free {
            ns: NamespaceId(1),
            slot: 0,
        });
        // Overwrite with DRAM headroom: the page moves up.
        assert_eq!(s.handle(write(1, 1, 2, 3)).tier, 0);
        assert_eq!(s.disk_pages(), 0);
        assert_eq!(s.handle(read(1, 1, 4)).tier, 0);
    }

    #[test]
    fn read_hit_promotes_stranded_disk_page() {
        let mut s = VmdServer::new(ServerId(0), 1, 4);
        s.handle(write(1, 0, 1, 1));
        s.handle(write(1, 1, 1, 2)); // spills
        s.handle(ClientMsg::Free {
            ns: NamespaceId(1),
            slot: 0,
        });
        // The promoting read itself still pays the disk time…
        assert_eq!(s.handle(read(1, 1, 3)).tier, 1);
        // …but the page now lives in DRAM.
        assert_eq!(s.disk_pages(), 0);
        assert_eq!(s.handle(read(1, 1, 4)).tier, 0);
    }

    #[test]
    fn lease_caps_free_pages_and_placements() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        s.handle(write(1, 0, 1, 1));
        s.handle(write(1, 1, 1, 2));
        assert_eq!(s.free_pages(), 8);
        assert_eq!(s.set_lease(5), 5);
        // Gossip and replies advertise leased capacity (satellite fix).
        assert_eq!(s.free_pages(), 3);
        assert_eq!(
            s.availability(),
            ServerMsg::Availability {
                server: ServerId(0),
                free_pages: 3,
                spill_free_pages: 0,
            }
        );
        // The lease clamps to the raw capacity.
        assert_eq!(s.set_lease(20), 10);
    }

    #[test]
    fn shrunk_lease_rejects_new_writes() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        s.set_lease(1);
        assert_eq!(s.handle(write(1, 0, 1, 1)).tier, 0);
        // Raw capacity has room, the lease does not: NAK, not store.
        assert!(matches!(
            s.handle(write(1, 1, 1, 2)).msg,
            Some(ServerMsg::Nak {
                err: VmdError::OutOfCapacity { .. },
                ..
            })
        ));
        assert_eq!(s.stored_pages(), 1);
    }

    #[test]
    fn over_lease_tracks_reclaim_backlog() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        for slot in 0..4 {
            s.handle(write(1, slot, 1, u64::from(slot)));
        }
        assert_eq!(s.over_lease_pages(), 0);
        s.set_lease(1);
        assert_eq!(s.over_lease_pages(), 3);
        assert_eq!(s.free_pages(), 0);
    }

    #[test]
    fn reclaim_victims_coldest_namespace_first() {
        let mut s = VmdServer::new(ServerId(0), 10, 0);
        s.handle(write(2, 5, 1, 1));
        s.handle(write(2, 3, 1, 2));
        s.handle(write(1, 7, 1, 3));
        // Namespace 2 was touched again: it is now the hottest.
        s.handle(read(2, 3, 4));
        let victims = s.reclaim_victims(3);
        assert_eq!(
            victims,
            vec![
                (NamespaceId(1), 7),
                (NamespaceId(2), 3),
                (NamespaceId(2), 5),
            ],
            "coldest namespace first, slots ascending"
        );
        assert_eq!(s.reclaim_victims(1), vec![(NamespaceId(1), 7)]);
    }

    #[test]
    fn demote_victims_moves_pages_to_disk() {
        let mut s = VmdServer::new(ServerId(0), 4, 2);
        for slot in 0..4 {
            s.handle(write(1, slot, 1, u64::from(slot)));
        }
        s.set_lease(1);
        assert_eq!(s.over_lease_pages(), 3);
        // Bounded by disk headroom (2), not by the request (3).
        let demoted = s.demote_victims(3);
        assert_eq!(demoted.len(), 2);
        assert_eq!(s.disk_pages(), 2);
        assert_eq!(s.over_lease_pages(), 1);
        assert_eq!(s.stored_pages(), 4, "demotion preserves contents");
        assert_eq!(s.pages_per_namespace(), vec![(NamespaceId(1), 4)]);
    }

    #[test]
    fn lease_update_reports_lease_and_free() {
        let mut s = VmdServer::new(ServerId(2), 8, 0);
        s.handle(write(1, 0, 1, 1));
        s.set_lease(4);
        assert_eq!(
            s.lease_update(),
            ServerMsg::LeaseUpdate {
                server: ServerId(2),
                lease_pages: 4,
                free_pages: 3,
            }
        );
    }

    // ----------------------- tier-stack behavior -----------------------

    #[test]
    fn writes_spill_down_the_stack_in_cost_order() {
        let mut s = tiered_server();
        assert_eq!(s.handle(write(1, 0, 1, 1)).tier, 0);
        assert_eq!(s.handle(write(1, 1, 1, 2)).tier, 0);
        // DRAM full → far memory (cheapest spill tier) first…
        assert_eq!(s.handle(write(1, 2, 1, 3)).tier, 1);
        assert_eq!(s.handle(write(1, 3, 1, 4)).tier, 1);
        // …then SSD once far memory is full.
        assert_eq!(s.handle(write(1, 4, 1, 5)).tier, 2);
        assert_eq!(s.tier_used_pages(0), 2);
        assert_eq!(s.tier_used_pages(1), 2);
        assert_eq!(s.tier_used_pages(2), 1);
        assert_eq!(s.spill_free_pages(), 3);
        assert!(s.ledger_consistent());
    }

    #[test]
    fn promotion_targets_cheapest_cheaper_tier_not_one_level_up() {
        let mut s = tiered_server();
        for slot in 0..5 {
            s.handle(write(1, slot, 1, u64::from(slot)));
        }
        // Slot 4 sits on SSD (tier 2). Free a DRAM page: the next hit on
        // slot 4 must promote straight to DRAM (tier 0), skipping the full
        // far-memory tier.
        s.handle(ClientMsg::Free {
            ns: NamespaceId(1),
            slot: 0,
        });
        assert_eq!(s.handle(read(1, 4, 10)).tier, 2, "read pays SSD time");
        assert_eq!(s.handle(read(1, 4, 11)).tier, 0, "page now in DRAM");
        assert!(s.ledger_consistent());
    }

    #[test]
    fn heat_policy_gates_promotion_until_threshold() {
        let stack = TierStackConfig::new(
            &[
                TierSpec::dram(),
                TierSpec::far_memory(4, SimDuration::from_micros(2), u64::MAX, 4096),
            ],
            HeatPolicy::heat_driven(),
        );
        let mut s = VmdServer::with_tiers(ServerId(0), stack.resolve(1, 0), stack.heat);
        s.handle(write(1, 0, 1, 1)); // DRAM
        s.handle(write(1, 1, 1, 2)); // far memory
        s.handle(ClientMsg::Free {
            ns: NamespaceId(1),
            slot: 0,
        });
        // First hit: heat 16 < 24 — stays put despite DRAM headroom.
        assert_eq!(s.handle(read(1, 1, 3)).tier, 1);
        assert_eq!(s.handle(read(1, 1, 4)).tier, 1, "second hit crosses 24");
        // Heat reached 28 on that hit → promoted; third hit served from DRAM.
        assert_eq!(s.handle(read(1, 1, 5)).tier, 0);
        assert!(s.ledger_consistent());
    }

    #[test]
    fn heat_reclaim_orders_coldest_pages_first() {
        let stack = TierStackConfig::new(
            &[TierSpec::dram(), TierSpec::host_ssd()],
            HeatPolicy::heat_driven(),
        );
        let mut s = VmdServer::with_tiers(ServerId(0), stack.resolve(10, 10), stack.heat);
        for slot in 0..3 {
            s.handle(write(1, slot, 1, u64::from(slot)));
        }
        // Heat up slot 1 hard, slot 2 a little.
        for req in 10..15 {
            s.handle(read(1, 1, req));
        }
        s.handle(read(1, 2, 20));
        let victims = s.reclaim_victims(3);
        assert_eq!(victims[0], (NamespaceId(1), 0), "never-read page coldest");
        assert_eq!(victims[2], (NamespaceId(1), 1), "hottest page last");
    }

    #[test]
    fn best_demotion_cost_tracks_next_spill_tier() {
        let mut s = tiered_server();
        let far_cost = s.tiers[1].read_cost;
        assert_eq!(s.best_demotion_cost(), Some(far_cost));
        for slot in 0..4 {
            s.handle(write(1, slot, 1, u64::from(slot)));
        }
        // Far memory full → next demotion lands on SSD.
        assert_eq!(s.best_demotion_cost(), Some(crate::tier::NOMINAL_SSD_READ));
    }

    /// Satellite-1 regression: a purge racing a demotion pipeline must
    /// leave the ledger consistent with the store — the historical raw
    /// counters could drift (and wrap) because each path adjusted them
    /// independently.
    #[test]
    fn purge_racing_demotion_keeps_ledger_consistent() {
        let mut s = VmdServer::new(ServerId(0), 4, 4);
        for slot in 0..4 {
            s.handle(write(1, slot, 1, u64::from(slot)));
        }
        s.handle(write(2, 0, 1, 10));
        s.set_lease(1);
        let demoted = s.demote_victims(8);
        assert!(!demoted.is_empty());
        // Purge the namespace mid-pipeline, then replay the stale frees a
        // crashed client might still emit for already-purged slots.
        s.purge_namespace(NamespaceId(1));
        assert!(s.ledger_consistent());
        for slot in 0..4 {
            s.handle(ClientMsg::Free {
                ns: NamespaceId(1),
                slot,
            });
        }
        assert!(s.ledger_consistent(), "stale frees must not underflow");
        assert_eq!(s.stored_pages(), 1);
        assert_eq!(s.pages_per_namespace(), vec![(NamespaceId(2), 1)]);
        s.crash_reset();
        assert!(s.ledger_consistent());
    }
}
