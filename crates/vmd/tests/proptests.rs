//! Randomized tests: VMD store consistency under arbitrary operation
//! sequences, namespace isolation, placement stability, and the
//! directory against a reference model, driven by the deterministic
//! simulation RNG (fixed seeds, so failures reproduce).

use agile_memory::SlotAllocator;
use agile_sim_core::DetRng;
use agile_vmd::{
    ClientId, ClientMsg, NamespaceId, ReplicaSet, ServerId, VmdClient, VmdDirectory, VmdServer,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Deliver every outbox message to its server and feed replies back;
/// returns completed read results keyed by req id.
fn pump(client: &mut VmdClient, servers: &mut [VmdServer]) -> HashMap<u64, u32> {
    let mut reads = HashMap::new();
    loop {
        let msgs: Vec<(ServerId, ClientMsg)> = client.drain_outbox().collect();
        if msgs.is_empty() {
            break;
        }
        for (sid, msg) in msgs {
            let reply = servers[sid.0 as usize].handle(msg);
            if let Some(r) = reply.msg {
                if let Some(agile_vmd::VmdCompletion::ReadDone { req, version }) =
                    client.on_server_msg(sid, r)
                {
                    reads.insert(req, version);
                }
            }
        }
    }
    reads
}

/// Whatever interleaving of writes/overwrites across namespaces, a read
/// always returns the latest version written to that (ns, slot).
#[test]
fn store_is_linearizable_per_slot() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0xd1d * 3 + case);
        let n_ops = 1 + rng.index(100) as usize;
        let mut servers: Vec<VmdServer> = (0..3)
            .map(|i| VmdServer::new(ServerId(i), 10_000, 0))
            .collect();
        let mut client = VmdClient::new(
            ClientId(0),
            servers.iter().map(|s| (s.id(), s.free_pages())),
        );
        let mut dir = VmdDirectory::new();
        let namespaces: Vec<_> = (0..3).map(|_| dir.create_namespace()).collect();
        let mut model: HashMap<(u32, u32), u32> = HashMap::new();
        let mut req = 0u64;
        for _ in 0..n_ops {
            let ns_i = rng.index(3) as u32;
            let slot = rng.index(16) as u32;
            let version = 1 + rng.index(999) as u32;
            let ns = namespaces[ns_i as usize];
            client.write(&mut dir, ns, slot, version, req);
            req += 1;
            model.insert((ns_i, slot), version);
            pump(&mut client, &mut servers);
        }
        // Read everything back (BTreeMap-like order via sorted keys for
        // reproducible failure messages).
        let mut keys: Vec<(u32, u32)> = model.keys().copied().collect();
        keys.sort_unstable();
        for (ns_i, slot) in keys {
            let version = model[&(ns_i, slot)];
            let ns = namespaces[ns_i as usize];
            let issue = client.read(&dir, ns, slot, req);
            match issue {
                agile_vmd::ReadIssue::Local { version: v } => {
                    assert_eq!(v, version, "case {case}")
                }
                agile_vmd::ReadIssue::Sent => {
                    let reads = pump(&mut client, &mut servers);
                    assert_eq!(reads.get(&req), Some(&version), "case {case}");
                }
                agile_vmd::ReadIssue::Failed(err) => {
                    panic!("case {case}: read of written slot failed: {err:?}")
                }
            }
            req += 1;
        }
    }
}

/// Placement is stable (overwrites stay on the original server) and
/// server accounting matches the number of distinct slots written.
#[test]
fn placement_stable_and_accounting_exact() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0xd2d * 5 + case);
        let n_slots = 1 + rng.index(80) as usize;
        let slots: Vec<u32> = (0..n_slots).map(|_| rng.index(32) as u32).collect();
        let mut servers: Vec<VmdServer> = (0..4)
            .map(|i| VmdServer::new(ServerId(i), 1_000, 0))
            .collect();
        let mut client = VmdClient::new(
            ClientId(0),
            servers.iter().map(|s| (s.id(), s.free_pages())),
        );
        let mut dir = VmdDirectory::new();
        let ns = dir.create_namespace();
        let mut first_placement: HashMap<u32, ServerId> = HashMap::new();
        for (i, &slot) in slots.iter().enumerate() {
            client.write(&mut dir, ns, slot, i as u32, i as u64);
            let placed = dir.lookup(ns, slot).expect("placed on write");
            if let Some(prev) = first_placement.get(&slot) {
                assert_eq!(*prev, placed, "case {case}: slot {slot} moved servers");
            } else {
                first_placement.insert(slot, placed);
            }
            pump(&mut client, &mut servers);
        }
        let distinct: std::collections::BTreeSet<u32> = slots.iter().copied().collect();
        let stored: u64 = servers.iter().map(|s| s.stored_pages()).sum();
        assert_eq!(stored, distinct.len() as u64, "case {case}");
        assert_eq!(dir.placed_slots(), distinct.len(), "case {case}");
    }
}

/// The directory's contract, spelled out over ordered maps: placements
/// keyed by `(ns, slot)`, plus the fork bookkeeping that decides what a
/// purge retains and a last `drop_share` releases.
#[derive(Default)]
struct DirModel {
    placement: BTreeMap<(u32, u32), ReplicaSet>,
    /// Clone namespace → its master.
    parent: BTreeMap<u32, u32>,
    /// Clone namespace → slots it still shares with its master.
    shared: BTreeMap<u32, BTreeSet<u32>>,
    /// `(master, slot)` → clones sharing it.
    rc: BTreeMap<(u32, u32), u16>,
    owner_freed: BTreeSet<(u32, u32)>,
}

impl DirModel {
    fn get(&self, ns: u32, slot: u32) -> ReplicaSet {
        self.placement
            .get(&(ns, slot))
            .copied()
            .unwrap_or(ReplicaSet::EMPTY)
    }

    /// Apply `f` to a placed set; drop the placement if it empties.
    fn edit(&mut self, ns: u32, slot: u32, f: impl FnOnce(&mut ReplicaSet) -> bool) -> bool {
        let Some(set) = self.placement.get_mut(&(ns, slot)) else {
            return false;
        };
        let changed = f(set);
        if set.is_empty() {
            self.placement.remove(&(ns, slot));
        }
        changed
    }

    fn forget(&mut self, ns: u32, slot: u32) -> ReplicaSet {
        self.placement
            .remove(&(ns, slot))
            .unwrap_or(ReplicaSet::EMPTY)
    }

    fn slots_of(&self, ns: u32) -> Vec<u32> {
        self.placement
            .range((ns, 0)..=(ns, u32::MAX))
            .map(|(&(_, slot), _)| slot)
            .collect()
    }

    fn fork(&mut self, master: u32, clone: u32) {
        let shared: BTreeSet<u32> = self.slots_of(master).into_iter().collect();
        for &slot in &shared {
            *self.rc.entry((master, slot)).or_insert(0) += 1;
        }
        self.parent.insert(clone, master);
        self.shared.insert(clone, shared);
    }

    fn drop_share(&mut self, clone: u32, slot: u32) -> Option<(u32, ReplicaSet, bool)> {
        if !self.shared.get_mut(&clone)?.remove(&slot) {
            return None;
        }
        let master = self.parent[&clone];
        let replicas = self.get(master, slot);
        let rc = self
            .rc
            .get_mut(&(master, slot))
            .expect("shared slot has rc");
        *rc -= 1;
        let mut released = false;
        if *rc == 0 {
            self.rc.remove(&(master, slot));
            if self.owner_freed.remove(&(master, slot)) {
                self.forget(master, slot);
                released = true;
            }
        }
        Some((master, replicas, released))
    }

    fn owner_free(&mut self, ns: u32, slot: u32) -> Option<ReplicaSet> {
        if !self.rc.contains_key(&(ns, slot)) {
            return None;
        }
        self.owner_freed.insert((ns, slot));
        Some(self.get(ns, slot))
    }

    fn purge(&mut self, ns: u32) -> Vec<(u32, ServerId)> {
        let mut out = Vec::new();
        for slot in self.slots_of(ns) {
            for &srv in self.get(ns, slot).as_slice() {
                out.push((slot, srv));
            }
            if self.rc.contains_key(&(ns, slot)) {
                self.owner_freed.insert((ns, slot));
            } else {
                self.forget(ns, slot);
            }
        }
        out.sort_unstable();
        out
    }

    fn evict(&mut self, server: ServerId) -> Vec<(NamespaceId, u32, ReplicaSet)> {
        let mut out = Vec::new();
        for (&(ns, slot), set) in self.placement.iter_mut() {
            if set.remove(server) {
                out.push((NamespaceId(ns), slot, *set));
            }
        }
        self.placement.retain(|_, set| !set.is_empty());
        out
    }

    fn on_server(&self, server: ServerId) -> Vec<(NamespaceId, u32)> {
        self.placement
            .iter()
            .filter(|(_, set)| set.contains(server))
            .map(|(&(ns, slot), _)| (NamespaceId(ns), slot))
            .collect()
    }

    fn servers_of(&self, ns: u32) -> Vec<ServerId> {
        let mut out: Vec<ServerId> = self
            .placement
            .range((ns, 0)..=(ns, u32::MAX))
            .flat_map(|(_, set)| set.as_slice().to_vec())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

const SERVERS: u32 = 5;

fn random_set(rng: &mut DetRng) -> ReplicaSet {
    let mut set = ReplicaSet::EMPTY;
    for _ in 0..rng.index(4) {
        set.push(ServerId(rng.index(SERVERS as u64) as u32));
    }
    set
}

/// Every directory operation, in random sequences, agrees with the
/// ordered-map model: lookups and counts after every op, the sorted
/// enumerations every few ops, purge and evict results exactly.
#[test]
fn directory_matches_ordered_map_model() {
    // Outcomes the sequences must reach at least once: a released share,
    // an owner-freed retention, a purge that retains, an evict that loses.
    let mut reached = [0usize; 4];
    for case in 0..64u64 {
        let mut rng = DetRng::seed_from(0xd3d * 7 + case);
        let mut dir = VmdDirectory::new();
        let mut model = DirModel::default();
        // Per namespace: its slot allocator and the slots it handed out.
        let mut allocs: Vec<(SlotAllocator, Vec<u32>)> = Vec::new();
        for _ in 0..3 {
            assert_eq!(dir.create_namespace().0 as usize, allocs.len());
            allocs.push((SlotAllocator::unbounded(), Vec::new()));
        }
        let n_ops = 200 + rng.index(200);
        for op_i in 0..n_ops {
            let n = rng.index(allocs.len() as u64) as u32;
            let ns = NamespaceId(n);
            // Mostly the allocator's dense slots, a few sparse ones.
            let (alloc, live) = &mut allocs[n as usize];
            let slot = if rng.chance(0.05) {
                10_000 + rng.index(64) as u32
            } else if live.is_empty() || rng.chance(0.3) {
                let s = alloc.alloc().expect("unbounded");
                live.push(s);
                s
            } else {
                live[rng.index(live.len() as u64) as usize]
            };
            let server = ServerId(rng.index(SERVERS as u64) as u32);
            let other = ServerId(rng.index(SERVERS as u64) as u32);
            let ctx = format!("case {case} op {op_i}");
            match rng.index(14) {
                0 | 1 => {
                    dir.record(ns, slot, server);
                    model.placement.insert((n, slot), ReplicaSet::one(server));
                }
                2 | 3 => {
                    let set = random_set(&mut rng);
                    dir.set_replicas(ns, slot, set);
                    if set.is_empty() {
                        model.forget(n, slot);
                    } else {
                        model.placement.insert((n, slot), set);
                    }
                }
                4 => assert_eq!(
                    dir.add_replica(ns, slot, server),
                    model.edit(n, slot, |set| set.push(server)),
                    "{ctx}: add_replica"
                ),
                5 => assert_eq!(
                    dir.remove_replica(ns, slot, server),
                    model.edit(n, slot, |set| set.remove(server)),
                    "{ctx}: remove_replica"
                ),
                6 => assert_eq!(
                    dir.replace_replica(ns, slot, server, other),
                    model.edit(n, slot, |set| set.replace(server, other)),
                    "{ctx}: replace_replica"
                ),
                7 | 8 => {
                    let want = model.forget(n, slot);
                    if rng.chance(0.5) {
                        assert_eq!(dir.forget(ns, slot), want.primary(), "{ctx}: forget");
                    } else {
                        assert_eq!(
                            dir.forget_replicas(ns, slot),
                            want,
                            "{ctx}: forget_replicas"
                        );
                    }
                    if let Some(i) = live.iter().position(|&s| s == slot) {
                        live.swap_remove(i);
                        alloc.free(slot);
                    }
                }
                9 => {
                    // Fork a non-clone namespace (at most 4 clones a case).
                    if model.parent.contains_key(&n) || model.parent.len() >= 4 {
                        continue;
                    }
                    let clone = dir.fork_namespace(ns);
                    assert_eq!(clone.0 as usize, allocs.len(), "{ctx}: fork id");
                    model.fork(n, clone.0);
                    allocs.push((SlotAllocator::unbounded(), Vec::new()));
                }
                10 => {
                    // Drop a share: usually a really shared slot.
                    let Some((&clone, shared)) = model
                        .shared
                        .iter()
                        .nth(rng.index(model.shared.len().max(1) as u64) as usize)
                    else {
                        continue;
                    };
                    let s = match shared
                        .iter()
                        .nth(rng.index(shared.len().max(1) as u64) as usize)
                    {
                        Some(&s) if rng.chance(0.9) => s,
                        _ => slot,
                    };
                    let got = dir
                        .drop_share(NamespaceId(clone), s)
                        .map(|o| (o.master.0, o.replicas, o.released));
                    assert_eq!(got, model.drop_share(clone, s), "{ctx}: drop_share");
                    reached[0] += usize::from(got.is_some_and(|(_, _, released)| released));
                }
                11 => {
                    let got = dir.owner_free_slot(ns, slot);
                    assert_eq!(got, model.owner_free(n, slot), "{ctx}: owner_free_slot");
                    reached[1] += usize::from(got.is_some());
                }
                12 => {
                    if rng.chance(0.3) {
                        let retained = model.owner_freed.len();
                        assert_eq!(dir.purge_namespace(ns), model.purge(n), "{ctx}: purge");
                        reached[2] += usize::from(model.owner_freed.len() > retained);
                    }
                }
                _ => {
                    if rng.chance(0.3) {
                        let got = dir.evict_server(server);
                        assert_eq!(got, model.evict(server), "{ctx}: evict");
                        reached[3] += usize::from(got.iter().any(|(_, _, set)| set.is_empty()));
                    }
                }
            }
            assert_eq!(
                dir.replicas(ns, slot),
                model.get(n, slot),
                "{ctx}: replicas"
            );
            assert_eq!(
                dir.lookup(ns, slot),
                model.get(n, slot).primary(),
                "{ctx}: lookup"
            );
            assert_eq!(
                dir.placed_slots(),
                model.placement.len(),
                "{ctx}: placed_slots"
            );
            if op_i % 8 == 0 {
                dir.check_invariants();
                for n in 0..allocs.len() as u32 {
                    let ns = NamespaceId(n);
                    assert_eq!(
                        dir.namespace_slots(ns),
                        model.slots_of(n),
                        "{ctx}: ns {n} slots"
                    );
                    if !model.parent.contains_key(&n) {
                        assert_eq!(
                            dir.fork_servers(ns),
                            model.servers_of(n),
                            "{ctx}: ns {n} fork servers"
                        );
                    }
                }
                for s in 0..SERVERS {
                    let srv = ServerId(s);
                    assert_eq!(
                        dir.slots_on_server(srv),
                        model.on_server(srv),
                        "{ctx}: server {s}"
                    );
                }
            }
        }
        dir.check_invariants();
        for (&(n, slot), &set) in &model.placement {
            assert_eq!(
                dir.replicas(NamespaceId(n), slot),
                set,
                "case {case}: end state"
            );
        }
        assert_eq!(
            dir.placed_slots(),
            model.placement.len(),
            "case {case}: end count"
        );
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "unreached outcome: {reached:?}"
    );
}
