//! Namespace directory: which servers hold each slot of each namespace.
//!
//! The paper's per-VM swap device is *portable*: after migration the
//! destination host's VMD client must locate pages the source host's client
//! placed. The placement map is namespace metadata that travels with the
//! namespace — we model it as a directory shared by all clients (in the
//! real system it is part of the VMD client state handed off with the
//! block device).
//!
//! Each slot maps to a [`ReplicaSet`] (primary first) so writes can be
//! replicated k ways and reads can fail over when an intermediate host
//! crashes. The placements are dense tables, one per namespace, indexed
//! by slot: a namespace's slots come from its lowest-free
//! `SlotAllocator`, so its table is about as long as the namespace's
//! peak swapped footprint, and a lookup is two array indexings. Walking
//! one namespace's table in slot order gives purge, fork and enumeration
//! their sorted results directly. There is no per-server index: crash
//! eviction scans every table, in `(ns, slot)` order, which is its sorted
//! output.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::mem::size_of;

use agile_sim_core::hash::{btree_heap_bytes, map_heap_bytes, table_heap_bytes};

use crate::proto::{NamespaceId, ServerId};

/// Upper bound on replicas per slot (the ring walk never needs more).
pub const MAX_REPLICAS: usize = 4;

/// Deterministically-ordered set of servers holding one slot. The first
/// entry is the primary (the server the original placement chose); repair
/// appends, crash eviction removes in place, and order is preserved so
/// identical histories give identical failover choices. Entries past
/// `len` are always `ServerId(0)`, so equality is member-and-order
/// equality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplicaSet {
    servers: [ServerId; MAX_REPLICAS],
    len: u8,
}

impl Default for ReplicaSet {
    fn default() -> Self {
        ReplicaSet::EMPTY
    }
}

impl ReplicaSet {
    /// The empty set.
    pub const EMPTY: ReplicaSet = ReplicaSet {
        servers: [ServerId(0); MAX_REPLICAS],
        len: 0,
    };

    /// A set holding a single server.
    pub fn one(server: ServerId) -> Self {
        let mut set = ReplicaSet::EMPTY;
        set.push(server);
        set
    }

    /// The replicas, primary first.
    pub fn as_slice(&self) -> &[ServerId] {
        &self.servers[..self.len as usize]
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no replica holds the slot.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The primary replica, if any.
    pub fn primary(&self) -> Option<ServerId> {
        self.as_slice().first().copied()
    }

    /// True if `server` is one of the replicas.
    pub fn contains(&self, server: ServerId) -> bool {
        self.as_slice().contains(&server)
    }

    /// Append a replica (no-op if present or full). Returns true if added.
    pub fn push(&mut self, server: ServerId) -> bool {
        if self.contains(server) || self.len() == MAX_REPLICAS {
            return false;
        }
        self.servers[self.len as usize] = server;
        self.len += 1;
        true
    }

    /// Replace `old` with `new` *in place* (same position), so failover
    /// order is preserved across a relocation. Returns false when `old` is
    /// absent or `new` is already a member.
    pub fn replace(&mut self, old: ServerId, new: ServerId) -> bool {
        if self.contains(new) {
            return false;
        }
        let Some(pos) = self.as_slice().iter().position(|&s| s == old) else {
            return false;
        };
        self.servers[pos] = new;
        true
    }

    /// Remove a replica, preserving the order of the rest. Returns true if
    /// it was present. The vacated entry is zeroed, so a set that empties
    /// equals [`ReplicaSet::EMPTY`].
    pub fn remove(&mut self, server: ServerId) -> bool {
        let n = self.len();
        let Some(pos) = self.as_slice().iter().position(|&s| s == server) else {
            return false;
        };
        for i in pos..n - 1 {
            self.servers[i] = self.servers[i + 1];
        }
        self.servers[n - 1] = ServerId(0);
        self.len -= 1;
        true
    }
}

/// Fork bookkeeping for one *master* namespace (a namespace with at least
/// one copy-on-write clone forked from it). Forking seals the master: its
/// placed pages become a frozen gold image shared read-only by every
/// clone, and each shared slot carries a per-page reference count — the
/// number of clones still resolving reads through the master's copy.
#[derive(Clone, Debug, Default)]
struct ForkState {
    /// Live clone namespaces forked from this master (deterministic order).
    children: BTreeSet<NamespaceId>,
    /// Per-slot count of clones still sharing the master's copy. A slot
    /// absent from this map is unshared (every clone broke or dropped it).
    rc: HashMap<u32, u16>,
    /// Slots the owner freed/purged while still shared: the placement is
    /// retained so clones keep resolving, and the last
    /// [`VmdDirectory::drop_share`] releases it for real.
    owner_freed: HashSet<u32>,
}

/// Fork bookkeeping for one *clone* namespace.
#[derive(Clone, Debug)]
struct CloneState {
    /// The sealed master this clone was forked from.
    parent: NamespaceId,
    /// Slots still shared with the master (reads resolve through the
    /// parent). First write — or an explicit drop — removes a slot here.
    shared: BTreeSet<u32>,
}

/// Outcome of dropping one clone's share of a master slot.
#[derive(Clone, Copy, Debug)]
pub struct DropOutcome {
    /// The master namespace that owned the shared page.
    pub master: NamespaceId,
    /// The master slot's replicas at drop time ([`crate::ClientMsg::DropRef`]
    /// targets).
    pub replicas: ReplicaSet,
    /// True when this was the last sharer of an owner-freed slot: the
    /// placement has been forgotten here, and the servers release the page
    /// when the `DropRef` reaches them.
    pub released: bool,
}

/// One namespace's placements, indexed by slot; [`ReplicaSet::EMPTY`]
/// marks an unplaced slot.
#[derive(Clone, Debug, Default)]
struct NsTable {
    sets: Vec<ReplicaSet>,
    /// Non-empty entries of `sets`.
    placed: u32,
}

/// Cluster-wide namespace metadata.
///
/// Placements live in one dense [`NsTable`] per namespace, indexed by
/// `NamespaceId.0` (ids come from [`VmdDirectory::create_namespace`]'s
/// counter) and then by slot. **Precondition:** slots are handed out
/// densely — each namespace's slots come from its lowest-free
/// `SlotAllocator` — so a table costs one [`ReplicaSet`] per slot up to
/// the namespace's highest placed slot. A sparse slot number (say
/// `u32::MAX`) is still correct, but sizes its table to match.
#[derive(Clone, Debug, Default)]
pub struct VmdDirectory {
    placement: Vec<NsTable>,
    /// Non-empty sets across all tables.
    placed: usize,
    /// Fork state of each master namespace with live clones or retained
    /// owner-freed shared pages.
    forks: HashMap<NamespaceId, ForkState>,
    /// Fork state of each live clone namespace.
    clones: HashMap<NamespaceId, CloneState>,
    next_ns: u32,
}

impl VmdDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        VmdDirectory::default()
    }

    /// Allocate a fresh namespace id (one per VM).
    pub fn create_namespace(&mut self) -> NamespaceId {
        let id = NamespaceId(self.next_ns);
        self.next_ns += 1;
        id
    }

    /// The primary server for `(ns, slot)`, if it has ever been written.
    pub fn lookup(&self, ns: NamespaceId, slot: u32) -> Option<ServerId> {
        self.replicas(ns, slot).primary()
    }

    /// Every replica of `(ns, slot)` (empty set if unplaced).
    pub fn replicas(&self, ns: NamespaceId, slot: u32) -> ReplicaSet {
        self.placement
            .get(ns.0 as usize)
            .and_then(|t| t.sets.get(slot as usize))
            .copied()
            .unwrap_or(ReplicaSet::EMPTY)
    }

    /// The placed slots of `ns` with their replica sets, in slot order.
    fn placed_in(&self, ns: NamespaceId) -> impl Iterator<Item = (u32, ReplicaSet)> + '_ {
        self.placement
            .get(ns.0 as usize)
            .into_iter()
            .flat_map(|t| t.sets.iter().enumerate())
            .filter(|(_, set)| !set.is_empty())
            .map(|(slot, &set)| (slot as u32, set))
    }

    /// The entry of `(ns, slot)` and its table's `placed` count, if the
    /// table reaches that far.
    fn entry_mut(&mut self, ns: NamespaceId, slot: u32) -> Option<(&mut ReplicaSet, &mut u32)> {
        let t = self.placement.get_mut(ns.0 as usize)?;
        Some((t.sets.get_mut(slot as usize)?, &mut t.placed))
    }

    /// Record a single-server placement decision (replaces any existing
    /// replica set — used by unreplicated writes and tests).
    pub fn record(&mut self, ns: NamespaceId, slot: u32, server: ServerId) {
        self.set_replicas(ns, slot, ReplicaSet::one(server));
    }

    /// Install the full replica set for a slot, replacing any previous one.
    pub fn set_replicas(&mut self, ns: NamespaceId, slot: u32, set: ReplicaSet) {
        if set.is_empty() {
            self.forget(ns, slot);
            return;
        }
        let (n, s) = (ns.0 as usize, slot as usize);
        if self.placement.len() <= n {
            self.placement.resize_with(n + 1, NsTable::default);
        }
        let t = &mut self.placement[n];
        if t.sets.len() <= s {
            t.sets.resize(s + 1, ReplicaSet::EMPTY);
        }
        if t.sets[s].is_empty() {
            t.placed += 1;
            self.placed += 1;
        }
        t.sets[s] = set;
    }

    /// Add one replica to an existing placement (repair / re-replication).
    /// Returns true if the replica was added.
    pub fn add_replica(&mut self, ns: NamespaceId, slot: u32, server: ServerId) -> bool {
        match self.entry_mut(ns, slot) {
            Some((set, _)) if !set.is_empty() => set.push(server),
            _ => false,
        }
    }

    /// Remove one replica of a slot (its server NAKed or crashed). Drops
    /// the placement entirely when no replica remains. Returns true if the
    /// replica was present.
    pub fn remove_replica(&mut self, ns: NamespaceId, slot: u32, server: ServerId) -> bool {
        let Some((set, placed)) = self.entry_mut(ns, slot) else {
            return false;
        };
        if !set.remove(server) {
            return false;
        }
        if set.is_empty() {
            *placed -= 1;
            self.placed -= 1;
        }
        true
    }

    /// Relocation: move one replica of `(ns, slot)` from `old` to `new`,
    /// position preserved (see [`ReplicaSet::replace`]). Returns false
    /// when `old` is not a replica or `new` already is.
    pub fn replace_replica(
        &mut self,
        ns: NamespaceId,
        slot: u32,
        old: ServerId,
        new: ServerId,
    ) -> bool {
        self.entry_mut(ns, slot)
            .is_some_and(|(set, _)| set.replace(old, new))
    }

    /// Forget a slot (freed); returns the primary it was on, if any.
    pub fn forget(&mut self, ns: NamespaceId, slot: u32) -> Option<ServerId> {
        self.forget_replicas(ns, slot).primary()
    }

    /// Forget a slot, returning its whole replica set so every holder can
    /// be notified.
    pub fn forget_replicas(&mut self, ns: NamespaceId, slot: u32) -> ReplicaSet {
        let Some((set, placed)) = self.entry_mut(ns, slot) else {
            return ReplicaSet::EMPTY;
        };
        let old = std::mem::take(set);
        if !old.is_empty() {
            *placed -= 1;
            self.placed -= 1;
        }
        old
    }

    /// Fork a copy-on-write clone namespace off `master`. Every slot the
    /// master has placed becomes shared: the clone resolves reads through
    /// the master's placements until its first write to the slot breaks
    /// the share ([`VmdDirectory::drop_share`]). The master is sealed for
    /// as long as any clone shares at least one of its pages. A clone
    /// cannot itself be forked.
    pub fn fork_namespace(&mut self, master: NamespaceId) -> NamespaceId {
        assert!(
            !self.clones.contains_key(&master),
            "cannot fork a clone namespace"
        );
        let clone = self.create_namespace();
        let shared: BTreeSet<u32> = self.placed_in(master).map(|(slot, _)| slot).collect();
        let fork = self.forks.entry(master).or_default();
        fork.children.insert(clone);
        for &slot in &shared {
            *fork.rc.entry(slot).or_insert(0) += 1;
        }
        self.clones.insert(
            clone,
            CloneState {
                parent: master,
                shared,
            },
        );
        clone
    }

    /// The master namespace `ns` was forked from, if it is a clone.
    pub fn parent_of(&self, ns: NamespaceId) -> Option<NamespaceId> {
        self.clones.get(&ns).map(|c| c.parent)
    }

    /// True while `ns` is a sealed master: at least one clone still shares
    /// pages with it (or holds it open through owner-freed retained pages).
    pub fn is_sealed(&self, ns: NamespaceId) -> bool {
        self.forks
            .get(&ns)
            .is_some_and(|f| !f.children.is_empty() || !f.rc.is_empty())
    }

    /// Number of live clones forked from `ns`.
    pub fn clone_count(&self, ns: NamespaceId) -> usize {
        self.forks.get(&ns).map_or(0, |f| f.children.len())
    }

    /// True when the clone `ns` still shares `slot` with its master.
    pub fn is_shared(&self, ns: NamespaceId, slot: u32) -> bool {
        self.clones
            .get(&ns)
            .is_some_and(|c| c.shared.contains(&slot))
    }

    /// The namespace a read of `(ns, slot)` must be served under: the
    /// parent for a still-shared clone slot, `ns` itself otherwise.
    pub fn resolve(&self, ns: NamespaceId, slot: u32) -> NamespaceId {
        match self.clones.get(&ns) {
            Some(c) if c.shared.contains(&slot) => c.parent,
            _ => ns,
        }
    }

    /// Fork reference count of a master's slot (0 when unshared).
    pub fn shared_rc(&self, master: NamespaceId, slot: u32) -> u16 {
        self.forks
            .get(&master)
            .and_then(|f| f.rc.get(&slot).copied())
            .unwrap_or(0)
    }

    /// The clone's still-shared slots, sorted.
    pub fn shared_slots(&self, clone: NamespaceId) -> Vec<u32> {
        self.clones
            .get(&clone)
            .map(|c| c.shared.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Servers holding at least one of the master's placed pages, sorted
    /// and deduplicated ([`crate::ClientMsg::NsFork`] broadcast targets).
    pub fn fork_servers(&self, master: NamespaceId) -> Vec<ServerId> {
        let mut out: Vec<ServerId> = Vec::new();
        for (_, set) in self.placed_in(master) {
            out.extend_from_slice(set.as_slice());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Drop the clone's share of one master slot (copy-on-write break,
    /// clone purge, or guest slot discard). Returns `None` when the slot
    /// was not shared; otherwise the master, its current replicas (the
    /// caller sends each a [`crate::ClientMsg::DropRef`]), and whether the
    /// last reference to an owner-freed page was just released (the
    /// placement is forgotten here; the servers free on the `DropRef`).
    pub fn drop_share(&mut self, clone: NamespaceId, slot: u32) -> Option<DropOutcome> {
        let c = self.clones.get_mut(&clone)?;
        if !c.shared.remove(&slot) {
            return None;
        }
        let master = c.parent;
        let replicas = self.replicas(master, slot);
        let fork = self
            .forks
            .get_mut(&master)
            .expect("clone without fork state");
        let rc = fork.rc.get_mut(&slot).expect("shared slot without rc");
        *rc -= 1;
        let mut released = false;
        if *rc == 0 {
            fork.rc.remove(&slot);
            if fork.owner_freed.remove(&slot) {
                // The owner already freed it: this DropRef releases the
                // retained placement for real.
                self.forget(master, slot);
                released = true;
            }
        }
        Some(DropOutcome {
            master,
            replicas,
            released,
        })
    }

    /// The owner frees one of its own slots while clones still share it:
    /// retain the placement (marked owner-freed) and return the replicas
    /// so the caller can send each a deferred [`crate::ClientMsg::Free`].
    /// Returns `None` when the slot is unshared (free it normally).
    pub fn owner_free_slot(&mut self, ns: NamespaceId, slot: u32) -> Option<ReplicaSet> {
        let fork = self.forks.get_mut(&ns)?;
        if !fork.rc.contains_key(&slot) {
            return None;
        }
        fork.owner_freed.insert(slot);
        Some(self.replicas(ns, slot))
    }

    /// Release a purged clone's fork bookkeeping. Call after every shared
    /// slot went through [`VmdDirectory::drop_share`] and the clone's own
    /// overlay slots were purged. Unseals the master when this was the
    /// last clone and no owner-freed pages remain retained.
    pub fn release_clone(&mut self, clone: NamespaceId) {
        let Some(c) = self.clones.remove(&clone) else {
            return;
        };
        debug_assert!(c.shared.is_empty(), "release_clone with live shares");
        if let Some(fork) = self.forks.get_mut(&c.parent) {
            fork.children.remove(&clone);
            if fork.children.is_empty() && fork.rc.is_empty() {
                self.forks.remove(&c.parent);
            }
        }
    }

    /// Remove every slot of a namespace; returns `(slot, server)` pairs
    /// (one per replica, sorted) so the caller can notify the servers.
    /// O(slots-in-namespace): one walk of the namespace's table, whose
    /// memory is freed unless retained slots remain.
    ///
    /// Fork-aware: purging a sealed master *retains* the placements of
    /// slots still shared by clones (marked owner-freed — the servers
    /// defer the release when the owner's `Free` arrives, and the last
    /// clone's [`VmdDirectory::drop_share`] forgets them for real), so a
    /// master purge never drops a page a sibling still reads. The shared
    /// placements are still listed in the result: the owner's `Free` must
    /// reach every holder to set the server-side owner-freed mark.
    pub fn purge_namespace(&mut self, ns: NamespaceId) -> Vec<(u32, ServerId)> {
        let Some(t) = self.placement.get_mut(ns.0 as usize) else {
            return Vec::new();
        };
        let mut fork = self.forks.get_mut(&ns);
        let mut out: Vec<(u32, ServerId)> = Vec::with_capacity(t.placed as usize);
        let mut freed = 0u32;
        for (slot, set) in t.sets.iter_mut().enumerate() {
            if set.is_empty() {
                continue;
            }
            let slot = slot as u32;
            let first = out.len();
            out.extend(set.as_slice().iter().map(|&srv| (slot, srv)));
            out[first..].sort_unstable();
            match fork.as_deref_mut() {
                // Still referenced by a clone: keep the placement; just
                // mark it owner-freed.
                Some(f) if f.rc.contains_key(&slot) => {
                    f.owner_freed.insert(slot);
                }
                _ => {
                    *set = ReplicaSet::EMPTY;
                    freed += 1;
                }
            }
        }
        t.placed -= freed;
        self.placed -= freed as usize;
        if t.placed == 0 {
            *t = NsTable::default();
        }
        out
    }

    /// Remove a crashed server from every replica set it appears in.
    /// Returns the affected slots with their *surviving* replica sets,
    /// sorted by `(ns, slot)`; an empty survivor set means the slot's data
    /// is lost (the placement is dropped).
    ///
    /// O(placed slots): a scan of every table in `(ns, slot)` order. Its
    /// only caller outside tests is the chaos crash path, once per crash.
    pub fn evict_server(&mut self, server: ServerId) -> Vec<(NamespaceId, u32, ReplicaSet)> {
        let mut out = Vec::new();
        for (n, t) in self.placement.iter_mut().enumerate() {
            let mut lost = 0u32;
            for (slot, set) in t.sets.iter_mut().enumerate() {
                if set.remove(server) {
                    lost += u32::from(set.is_empty());
                    out.push((NamespaceId(n as u32), slot as u32, *set));
                }
            }
            t.placed -= lost;
            self.placed -= lost as usize;
        }
        out
    }

    /// Slots with a replica on `server`, sorted (crash/rebalance reporting).
    /// O(placed slots), like [`VmdDirectory::evict_server`].
    pub fn slots_on_server(&self, server: ServerId) -> Vec<(NamespaceId, u32)> {
        let mut out = Vec::new();
        for (n, t) in self.placement.iter().enumerate() {
            for (slot, set) in t.sets.iter().enumerate() {
                if set.contains(server) {
                    out.push((NamespaceId(n as u32), slot as u32));
                }
            }
        }
        out
    }

    /// Placed slots of one namespace, sorted (conservation checks).
    pub fn namespace_slots(&self, ns: NamespaceId) -> Vec<u32> {
        self.placed_in(ns).map(|(slot, _)| slot).collect()
    }

    /// Number of placed slots across all namespaces.
    pub fn placed_slots(&self) -> usize {
        self.placed
    }

    /// Consistency check for release-build audits, O(table length): each
    /// table's `placed` count equals a recount of its non-empty sets, and
    /// the counts sum to [`VmdDirectory::placed_slots`]. Panics on drift.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut total = 0usize;
        for (n, t) in self.placement.iter().enumerate() {
            let recount = t.sets.iter().filter(|set| !set.is_empty()).count();
            assert_eq!(
                recount, t.placed as usize,
                "namespace {n}: placed count != non-empty sets"
            );
            total += recount;
        }
        assert_eq!(
            total, self.placed,
            "placed_slots != sum of namespace counts"
        );
    }

    /// Heap bytes held by the directory: table capacities, plus the fork
    /// maps (hash tables from capacity, B-trees estimated). For memory
    /// attribution only.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        let tables = self.placement.capacity() * size_of::<NsTable>()
            + self
                .placement
                .iter()
                .map(|t| t.sets.capacity() * size_of::<ReplicaSet>())
                .sum::<usize>();
        let forks = map_heap_bytes(&self.forks)
            + self
                .forks
                .values()
                .map(|f| {
                    btree_heap_bytes(f.children.len(), size_of::<NamespaceId>())
                        + map_heap_bytes(&f.rc)
                        + table_heap_bytes(f.owner_freed.capacity(), size_of::<u32>())
                })
                .sum::<usize>();
        let clones = map_heap_bytes(&self.clones)
            + self
                .clones
                .values()
                .map(|c| btree_heap_bytes(c.shared.len(), size_of::<u32>()))
                .sum::<usize>();
        tables + forks + clones
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_ids_are_unique() {
        let mut d = VmdDirectory::new();
        let a = d.create_namespace();
        let b = d.create_namespace();
        assert_ne!(a, b);
    }

    #[test]
    fn record_lookup_forget() {
        let mut d = VmdDirectory::new();
        let ns = d.create_namespace();
        assert_eq!(d.lookup(ns, 3), None);
        d.record(ns, 3, ServerId(1));
        assert_eq!(d.lookup(ns, 3), Some(ServerId(1)));
        assert_eq!(d.forget(ns, 3), Some(ServerId(1)));
        assert_eq!(d.lookup(ns, 3), None);
    }

    #[test]
    fn purge_is_scoped_and_sorted() {
        let mut d = VmdDirectory::new();
        let a = d.create_namespace();
        let b = d.create_namespace();
        d.record(a, 2, ServerId(0));
        d.record(a, 1, ServerId(1));
        d.record(b, 1, ServerId(0));
        let purged = d.purge_namespace(a);
        assert_eq!(purged, vec![(1, ServerId(1)), (2, ServerId(0))]);
        assert_eq!(d.placed_slots(), 1);
        assert_eq!(d.lookup(b, 1), Some(ServerId(0)));
    }

    #[test]
    fn purge_lists_every_replica() {
        let mut d = VmdDirectory::new();
        let ns = d.create_namespace();
        let mut set = ReplicaSet::one(ServerId(1));
        set.push(ServerId(0));
        d.set_replicas(ns, 5, set);
        assert_eq!(
            d.purge_namespace(ns),
            vec![(5, ServerId(0)), (5, ServerId(1))]
        );
        assert_eq!(d.placed_slots(), 0);
    }

    #[test]
    fn replica_set_push_remove_preserve_order() {
        let mut set = ReplicaSet::one(ServerId(3));
        assert!(set.push(ServerId(1)));
        assert!(!set.push(ServerId(3)), "duplicates rejected");
        assert_eq!(set.as_slice(), &[ServerId(3), ServerId(1)]);
        assert!(set.remove(ServerId(3)));
        assert_eq!(set.primary(), Some(ServerId(1)));
        assert!(!set.remove(ServerId(3)));
    }

    #[test]
    fn replace_preserves_position() {
        let mut set = ReplicaSet::one(ServerId(3));
        set.push(ServerId(1));
        set.push(ServerId(4));
        assert!(set.replace(ServerId(1), ServerId(9)));
        assert_eq!(
            set.as_slice(),
            &[ServerId(3), ServerId(9), ServerId(4)],
            "replacement lands in the old member's position"
        );
        assert!(
            !set.replace(ServerId(1), ServerId(5)),
            "old must be present"
        );
        assert!(!set.replace(ServerId(3), ServerId(4)), "new must be absent");
        assert_eq!(set.as_slice(), &[ServerId(3), ServerId(9), ServerId(4)]);
    }

    #[test]
    fn replace_replica_moves_server_membership() {
        let mut d = VmdDirectory::new();
        let ns = d.create_namespace();
        let mut set = ReplicaSet::one(ServerId(0));
        set.push(ServerId(1));
        d.set_replicas(ns, 4, set);
        assert!(d.replace_replica(ns, 4, ServerId(0), ServerId(2)));
        assert_eq!(d.replicas(ns, 4).as_slice(), &[ServerId(2), ServerId(1)]);
        assert!(d.slots_on_server(ServerId(0)).is_empty());
        assert_eq!(d.slots_on_server(ServerId(2)), vec![(ns, 4)]);
        assert!(
            !d.replace_replica(ns, 4, ServerId(0), ServerId(3)),
            "old replica already moved"
        );
        assert_eq!(d.namespace_slots(ns), vec![4]);
    }

    #[test]
    fn evict_server_reports_survivors_and_losses() {
        let mut d = VmdDirectory::new();
        let ns = d.create_namespace();
        let mut set = ReplicaSet::one(ServerId(0));
        set.push(ServerId(1));
        d.set_replicas(ns, 7, set); // replicated: survives
        d.record(ns, 9, ServerId(0)); // single copy: lost
        let evicted = d.evict_server(ServerId(0));
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].1, 7);
        assert_eq!(evicted[0].2.as_slice(), &[ServerId(1)]);
        assert_eq!(evicted[1].1, 9);
        assert!(evicted[1].2.is_empty(), "sole replica lost");
        assert_eq!(d.lookup(ns, 7), Some(ServerId(1)));
        assert_eq!(d.lookup(ns, 9), None);
        assert!(d.slots_on_server(ServerId(0)).is_empty());
    }

    #[test]
    fn server_membership_follows_add_and_forget() {
        let mut d = VmdDirectory::new();
        let ns = d.create_namespace();
        d.record(ns, 1, ServerId(0));
        assert!(d.add_replica(ns, 1, ServerId(2)));
        assert!(!d.add_replica(ns, 1, ServerId(2)), "idempotent");
        assert_eq!(d.slots_on_server(ServerId(2)), vec![(ns, 1)]);
        let set = d.forget_replicas(ns, 1);
        assert_eq!(set.as_slice(), &[ServerId(0), ServerId(2)]);
        assert!(d.slots_on_server(ServerId(2)).is_empty());
        assert_eq!(d.placed_slots(), 0);
    }

    #[test]
    fn dense_slots_cost_one_replica_set_each() {
        const N: u32 = 1000;
        let mut d = VmdDirectory::new();
        let ns = d.create_namespace();
        for slot in 0..N {
            d.record(ns, slot, ServerId(slot % 4));
        }
        let set = std::mem::size_of::<ReplicaSet>();
        assert!(d.heap_bytes() >= N as usize * set);
        assert!(
            d.heap_bytes() <= 2 * N as usize * set + 256,
            "{} bytes for {N} slots",
            d.heap_bytes()
        );
        d.check_invariants();
        d.purge_namespace(ns);
        assert_eq!(d.placed_slots(), 0);
        assert!(d.heap_bytes() <= 256, "purge frees the namespace's table");
    }

    #[test]
    fn purge_keeps_the_table_of_retained_slots() {
        let mut d = VmdDirectory::new();
        let master = d.create_namespace();
        d.record(master, 0, ServerId(0));
        d.record(master, 1, ServerId(1));
        let clone = d.fork_namespace(master);
        assert!(d.drop_share(clone, 1).is_some());
        assert_eq!(
            d.purge_namespace(master),
            vec![(0, ServerId(0)), (1, ServerId(1))]
        );
        assert_eq!(d.namespace_slots(master), vec![0], "slot 0 still shared");
        d.check_invariants();
        let out = d.drop_share(clone, 0).expect("shared");
        assert!(out.released);
        assert_eq!(d.placed_slots(), 0);
        d.check_invariants();
    }

    #[test]
    fn evict_scans_in_namespace_slot_order() {
        let mut d = VmdDirectory::new();
        let a = d.create_namespace();
        let b = d.create_namespace();
        d.record(b, 0, ServerId(2));
        d.record(a, 3, ServerId(2));
        d.record(a, 1, ServerId(1));
        d.record(a, 0, ServerId(2));
        assert_eq!(d.slots_on_server(ServerId(2)), vec![(a, 0), (a, 3), (b, 0)]);
        let evicted: Vec<(NamespaceId, u32)> = d
            .evict_server(ServerId(2))
            .into_iter()
            .map(|(ns, slot, _)| (ns, slot))
            .collect();
        assert_eq!(evicted, vec![(a, 0), (a, 3), (b, 0)]);
        assert_eq!(d.placed_slots(), 1);
        d.check_invariants();
    }
}
