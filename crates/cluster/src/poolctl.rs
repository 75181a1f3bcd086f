//! Elastic pool-manager executor: contribution leases, paced reclaim, and
//! skew-aware rebalancing over the VMD server fleet.
//!
//! The paper's VMD borrows the *spare* DRAM of intermediate hosts (§IV),
//! but spare memory is elastic: when a donor host's own workloads grow it
//! must take its DRAM back without losing any VM's swapped state. This
//! module is the clocked half of that story (the pure lease/planner logic
//! lives in [`agile_vmd::pool`]):
//!
//! 1. **Lease sizing** — each tick samples every donor host's ledger
//!    (`available_for_vms − reserved_bytes`) and feeds it to that server's
//!    [`LeaseController`]; lease changes apply to the server and are pushed
//!    to every client as [`agile_vmd::ServerMsg::LeaseUpdate`] so placement
//!    steers away *before* the next gossip round.
//! 2. **Reclaim** — a server holding more DRAM pages than its lease sheds
//!    them via the relocation pump (coldest namespace first, paced like the
//!    chaos repair pump); when no other server has leased headroom it
//!    demotes victims to its disk tier instead, and only a full disk makes
//!    new writes NAK.
//! 3. **Rebalance** — with no reclaim backlog, when the per-server
//!    utilization spread crosses the configured threshold, slots move from
//!    the most- to the least-utilized server (deterministic plan, paced).
//!
//! Backpressure hooks: above [`PoolConfig::high_water`] pool pressure,
//! guest eviction flushes are delayed (`throttle_delay`) and the WSS
//! controller defers reservation *shrinks* ([`under_pressure`]) — growing a
//! VM's reservation frees pool pages; shrinking it would add swap traffic
//! exactly when the pool has nowhere to put it.
//!
//! An unarmed pool (`World::pool == None`) schedules nothing and changes
//! nothing: legacy runs stay event-for-event identical.

use std::collections::HashMap;

use agile_sim_core::{FastEvent, SimDuration, Simulation};
use agile_vmd::pool::{pool_pressure, utilization_spread, ReclaimTarget};
use agile_vmd::{LeaseConfig, LeaseController, NamespaceId, PoolPlanner, ServerId, ServerLoad};

use crate::guest;
use crate::netdrv::touch_net;
use crate::world::{NetPayload, World};

/// Tuning for the pool manager.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Interval between pool ticks.
    pub period: SimDuration,
    /// Relocations issued per tick across all servers (pacing keeps
    /// reclaim traffic from starving foreground paging).
    pub relocations_per_tick: usize,
    /// Whether the skew-aware rebalancer runs.
    pub rebalance: bool,
    /// Utilization spread that triggers a rebalance move.
    pub rebalance_threshold: f64,
    /// Relocations per rebalance action.
    pub rebalance_batch: usize,
    /// Pool pressure (stored / leased) above which admission control
    /// engages: eviction flushes throttle and WSS shrinks defer.
    pub high_water: f64,
    /// Delay added to eviction flushes while above the high water mark.
    pub throttle: SimDuration,
    /// Per-server lease controller tuning.
    pub lease: LeaseConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            period: SimDuration::from_millis(500),
            relocations_per_tick: 64,
            rebalance: true,
            rebalance_threshold: 0.15,
            rebalance_batch: 32,
            high_water: 0.90,
            throttle: SimDuration::from_millis(2),
            lease: LeaseConfig::default(),
        }
    }
}

/// What the pool manager did, for reports and assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Lease reductions applied (donor demand grew).
    pub leases_shrunk: u64,
    /// Lease increases applied (donor demand receded).
    pub leases_grown: u64,
    /// Relocations that completed with the directory updated.
    pub pages_relocated: u64,
    /// Pages demoted to the disk tier for lack of pool headroom.
    pub pages_demoted: u64,
    /// Relocations abandoned (superseded, crash race, or no destination).
    pub relocations_aborted: u64,
    /// Rebalance actions taken (each moves up to a batch of slots).
    pub rebalance_moves: u64,
    /// Eviction flushes delayed by high-water admission control.
    pub throttled_flushes: u64,
    /// WSS reservation shrinks deferred by high-water admission control.
    pub deferred_shrinks: u64,
}

/// One in-flight relocation, keyed by `(ns, slot)` in [`PoolExec::moves`].
#[derive(Clone, Copy, Debug)]
pub struct MoveInfo {
    /// The replica being vacated.
    pub from: ServerId,
    /// Pinned destination (rebalance plan); `None` lets the client's ring
    /// placement pick any server with leased headroom.
    pub dest: Option<ServerId>,
}

/// Pool-manager executor state inside [`World`].
pub struct PoolExec {
    /// Tuning.
    pub cfg: PoolConfig,
    /// One lease controller per VMD server (index-aligned).
    pub lease_ctl: Vec<LeaseController>,
    /// Action counters.
    pub counters: PoolCounters,
    /// Relocations in flight (bounds pacing; pins rebalance destinations).
    pub moves: HashMap<(NamespaceId, u32), MoveInfo>,
    /// False once [`disarm_pool`] ran: the next tick does nothing and does
    /// not re-arm.
    pub armed: bool,
    /// Set when a planned rebalance issued zero moves (every candidate
    /// victim already had a replica on the destination): the plan cannot
    /// make progress until leases or placements change, so ticks skip it
    /// instead of re-scanning forever. Cleared by any lease change or
    /// reclaim action.
    pub stalled: bool,
}

fn pool_timer() -> FastEvent {
    FastEvent::Timer {
        kind: crate::fast::K_POOL_TICK,
        a: 0,
        b: 0,
    }
}

/// Arm the pool manager. Leases start at each server's full capacity (the
/// legacy fixed contribution) and adapt from the first tick's samples.
pub fn arm_pool(sim: &mut Simulation<World>, cfg: PoolConfig) {
    let period = cfg.period;
    let w = sim.state_mut();
    assert!(w.pool.is_none(), "pool manager armed twice");
    let lease_ctl = w
        .vmd
        .servers
        .iter()
        .map(|_| LeaseController::new(cfg.lease))
        .collect();
    w.pool = Some(PoolExec {
        cfg,
        lease_ctl,
        counters: PoolCounters::default(),
        moves: HashMap::new(),
        armed: true,
        stalled: false,
    });
    sim.schedule_fast_in(period, pool_timer());
}

/// Stop the pool manager after the current tick. Leases stay where they
/// are (servers keep honoring them); only the clocked loop stops.
pub fn disarm_pool(sim: &mut Simulation<World>) {
    if let Some(p) = sim.state_mut().pool.as_mut() {
        p.armed = false;
    }
}

/// One pool tick: lease sizing, paced reclaim, then (only when the pool
/// is quiescent) a rebalance step.
pub(crate) fn tick(sim: &mut Simulation<World>) {
    let Some(p) = sim.state().pool.as_ref() else {
        return;
    };
    if !p.armed {
        return;
    }
    let period = p.cfg.period;
    update_leases(sim);
    reclaim(sim);
    rebalance(sim);
    sim.schedule_fast_in(period, pool_timer());
}

/// Sample every donor host's ledger and resize its server's lease.
fn update_leases(sim: &mut Simulation<World>) {
    let now = sim.now();
    let page_size = sim.state().cfg.page_size;
    let n_servers = sim.state().vmd.servers.len();
    let n_clients = sim.state().vmd.clients.len();
    let mut touched = false;
    for s in 0..n_servers {
        let update = {
            let w = sim.state_mut();
            let p = w.pool.as_mut().expect("pool armed");
            if !w.vmd.servers[s].alive {
                // A crashed donor contributes nothing; forget its sample
                // window so a rejoin re-primes instead of acting on stale
                // demand.
                p.lease_ctl[s].reset();
                continue;
            }
            let host = w.vmd.servers[s].host;
            let ledger = &w.hosts[host].mem;
            let spare_pages = ledger
                .available_for_vms()
                .saturating_sub(ledger.reserved_bytes())
                / page_size;
            let server = &mut w.vmd.servers[s].server;
            let current = server.lease_pages();
            let next = p.lease_ctl[s].on_sample(server.mem_capacity_pages(), spare_pages, current);
            if next == current {
                None
            } else {
                let applied = server.set_lease(next);
                if applied < current {
                    p.counters.leases_shrunk += 1;
                } else {
                    p.counters.leases_grown += 1;
                }
                p.stalled = false;
                w.trace.record(
                    now,
                    agile_trace::TraceEvent::PoolLease {
                        server: s as u32,
                        lease_pages: applied,
                        shrink: applied < current,
                    },
                );
                Some(server.lease_update())
            }
        };
        // Push the change to every client immediately (don't wait for the
        // next gossip round — a shrinking server must stop attracting
        // placements now).
        if let Some(msg) = update {
            for c in 0..n_clients {
                let w = sim.state_mut();
                let (_, to_client) = w.vmd.channels_between(c, s);
                let bytes = msg.wire_bytes(page_size);
                let tag = w.tag(NetPayload::VmdToClient {
                    client: c,
                    server: s,
                    msg,
                });
                w.net.send(now, to_client, bytes, tag);
                touched = true;
            }
        }
    }
    if touched {
        touch_net(sim);
    }
}

/// Shed pages from servers holding more than their lease: relocate to
/// servers with leased headroom, else demote to the local spill tier.
/// Heat-driven tier stacks additionally compare the spill tier's read
/// cost against a network round trip ([`agile_vmd::pool::reclaim_target`])
/// and demote locally when the local tier is cheaper to fault from.
fn reclaim(sim: &mut Simulation<World>) {
    let now = sim.now();
    let n_servers = sim.state().vmd.servers.len();
    let mut budget = sim
        .state()
        .pool
        .as_ref()
        .map_or(0, |p| p.cfg.relocations_per_tick);
    let mut issued = false;
    for s in 0..n_servers {
        if budget == 0 {
            break;
        }
        let sid = ServerId(s as u32);
        let (over, victims) = {
            let w = sim.state();
            if !w.vmd.servers[s].alive {
                continue;
            }
            let server = &w.vmd.servers[s].server;
            let over = server.over_lease_pages();
            if over == 0 {
                continue;
            }
            (over, server.reclaim_victims(budget.min(over as usize)))
        };
        // Any *other* live server with authoritative leased headroom?
        let headroom = {
            let w = sim.state();
            (0..n_servers).any(|o| {
                o != s && w.vmd.servers[o].alive && w.vmd.servers[o].server.free_pages() > 0
            })
        };
        // Cost-aware reclaim (heat-driven tier stacks only): when the
        // server's next spill tier is cheaper to reach than a round trip
        // through the network, demote locally even though remote headroom
        // exists. Legacy stacks keep the relocate-first policy unchanged.
        let prefer_demote = {
            let w = sim.state();
            w.cfg.vmd_tiers.heat.enabled && {
                let relocation = agile_vmd::pool::relocation_cost(
                    w.cfg.prop_delay,
                    w.cfg.vmd_server_delay,
                    w.cfg.page_size,
                    w.cfg.link_bw.as_bytes_per_sec() as u64,
                );
                let server = &w.vmd.servers[s].server;
                agile_vmd::pool::reclaim_target(server.best_demotion_cost(), headroom, relocation)
                    == ReclaimTarget::Demote
            }
        };
        let mut relocated = 0u32;
        if headroom && !prefer_demote {
            for &(ns, slot) in &victims {
                if budget == 0 {
                    break;
                }
                let skip = {
                    let w = sim.state();
                    let p = w.pool.as_ref().expect("pool armed");
                    p.moves.contains_key(&(ns, slot))
                        || namespace_migrating(w, ns)
                        || namespace_forked(w, ns)
                };
                if skip {
                    continue;
                }
                let client_idx = pump_client_for(sim.state(), ns);
                let begun = {
                    let (client, dir) = sim.state_mut().vmd.client_and_dir(client_idx);
                    client.begin_relocation(dir, ns, slot, sid)
                };
                if begun {
                    let w = sim.state_mut();
                    let p = w.pool.as_mut().expect("pool armed");
                    p.moves.insert(
                        (ns, slot),
                        MoveInfo {
                            from: sid,
                            dest: None,
                        },
                    );
                    relocated += 1;
                    budget -= 1;
                    issued = true;
                }
            }
        }
        let mut demoted = 0u32;
        let pending_from_s = {
            let w = sim.state();
            let p = w.pool.as_ref().expect("pool armed");
            p.moves.values().any(|m| m.from == sid)
        };
        if relocated == 0 && !pending_from_s {
            // Nowhere to relocate (or nothing movable): spill to the disk
            // tier under the same pacing budget. A full disk leaves the
            // backlog for the NAK backstop on future writes.
            let w = sim.state_mut();
            let doomed = w.vmd.servers[s]
                .server
                .demote_victims(budget.min(over as usize));
            demoted = doomed.len() as u32;
            budget -= doomed.len();
            let p = w.pool.as_mut().expect("pool armed");
            p.counters.pages_demoted += u64::from(demoted);
        }
        if relocated > 0 || demoted > 0 {
            sim.state_mut().pool.as_mut().expect("pool armed").stalled = false;
            sim.state_mut().trace.record(
                now,
                agile_trace::TraceEvent::PoolReclaim {
                    server: s as u32,
                    relocated,
                    demoted,
                },
            );
        }
    }
    if issued {
        guest::flush_all_clients(sim);
    }
}

/// One rebalance step: when the pool is quiescent (no over-lease backlog,
/// no moves in flight) and the utilization spread crosses the threshold,
/// relocate a batch of the hot server's coldest slots to the cold server.
fn rebalance(sim: &mut Simulation<World>) {
    let now = sim.now();
    let plan = {
        let w = sim.state();
        let p = w.pool.as_ref().expect("pool armed");
        if !p.cfg.rebalance || p.stalled || !p.moves.is_empty() {
            return;
        }
        let backlog = w
            .vmd
            .servers
            .iter()
            .any(|e| e.alive && e.server.over_lease_pages() > 0);
        if backlog {
            return;
        }
        let loads = server_loads(w);
        let planner = PoolPlanner {
            threshold: p.cfg.rebalance_threshold,
        };
        planner.rebalance_move(&loads)
    };
    let Some((from, to)) = plan else { return };
    let (sid_from, sid_to) = (ServerId(from), ServerId(to));
    let (want, batch) = {
        let w = sim.state();
        let p = w.pool.as_ref().expect("pool armed");
        let dest_free = w.vmd.servers[to as usize].server.free_pages() as usize;
        let want = p.cfg.rebalance_batch.min(dest_free);
        // Over-fetch candidates: with small replica fleets many of the hot
        // server's coldest slots already have a replica on the destination
        // and are skipped below.
        let window = w.vmd.servers[from as usize]
            .server
            .reclaim_victims(want.saturating_mul(4).max(256));
        (want, window)
    };
    let mut moved = 0u32;
    for (ns, slot) in batch {
        if moved as usize >= want {
            break;
        }
        let skip = {
            let w = sim.state();
            // The destination must not already hold a replica of the slot,
            // and relocating a migrating VM's namespace is unsafe (its
            // driving client is about to move hosts).
            namespace_migrating(w, ns)
                || namespace_forked(w, ns)
                || w.vmd.directory.replicas(ns, slot).contains(sid_to)
        };
        if skip {
            continue;
        }
        let client_idx = pump_client_for(sim.state(), ns);
        let begun = {
            let (client, dir) = sim.state_mut().vmd.client_and_dir(client_idx);
            client.begin_relocation(dir, ns, slot, sid_from)
        };
        if begun {
            let w = sim.state_mut();
            let p = w.pool.as_mut().expect("pool armed");
            p.moves.insert(
                (ns, slot),
                MoveInfo {
                    from: sid_from,
                    dest: Some(sid_to),
                },
            );
            moved += 1;
        }
    }
    if moved > 0 {
        {
            let w = sim.state_mut();
            let p = w.pool.as_mut().expect("pool armed");
            p.counters.rebalance_moves += 1;
            w.trace.record(
                now,
                agile_trace::TraceEvent::PoolRebalance {
                    from,
                    to,
                    pages: moved,
                },
            );
        }
        guest::flush_all_clients(sim);
    } else {
        // The plan cannot progress (every candidate already replicated on
        // the destination); stop re-planning until the fleet changes.
        sim.state_mut().pool.as_mut().expect("pool armed").stalled = true;
    }
}

/// Per-server loads of the live fleet, in server-id order (the planner's
/// tie-break relies on this ordering).
pub fn server_loads(w: &World) -> Vec<ServerLoad> {
    w.vmd
        .servers
        .iter()
        .enumerate()
        .filter(|(_, e)| e.alive)
        .map(|(s, e)| ServerLoad {
            server: s as u32,
            stored_mem_pages: e.server.mem_used_pages(),
            lease_pages: e.server.lease_pages(),
        })
        .collect()
}

/// Pool-wide DRAM pressure (stored / leased) across live servers.
pub fn pressure(w: &World) -> f64 {
    pool_pressure(&server_loads(w))
}

/// Max minus min per-server DRAM utilization across live servers.
pub fn spread(w: &World) -> f64 {
    utilization_spread(&server_loads(w))
}

/// Sum of leased free DRAM pages across live servers (scheduler
/// feasibility: a migration into the pool needs somewhere to swap to).
pub fn leased_free_pages(w: &World) -> u64 {
    w.vmd
        .servers
        .iter()
        .filter(|e| e.alive)
        .map(|e| e.server.free_pages())
        .sum()
}

/// True while the armed pool sits above its high water mark (admission
/// control for WSS reservation shrinks). Always false when unarmed.
pub fn under_pressure(w: &World) -> bool {
    match &w.pool {
        Some(p) if p.armed => pressure(w) > p.cfg.high_water,
        _ => false,
    }
}

/// Eviction-flush delay while above the high water mark, `None` otherwise.
pub(crate) fn throttle_delay(w: &World) -> Option<SimDuration> {
    match &w.pool {
        Some(p) if p.armed && pressure(w) > p.cfg.high_water => Some(p.cfg.throttle),
        _ => None,
    }
}

/// Can the swap path absorb another VMD-backed VM? Unarmed pools keep the
/// legacy answer (always yes — the disk tier is the backstop); an armed
/// pool requires leased DRAM headroom somewhere.
pub fn placement_feasible(w: &World) -> bool {
    match &w.pool {
        Some(p) if p.armed => leased_free_pages(w) > 0,
        _ => true,
    }
}

/// True when any relocation is still in flight (quiescence checks).
pub fn relocations_inflight(w: &World) -> bool {
    w.pool.as_ref().is_some_and(|p| !p.moves.is_empty())
}

/// True while the armed rebalancer would still issue a move (quiescence
/// checks — mirrors the plan step of the pool tick).
pub fn rebalance_pending(w: &World) -> bool {
    match &w.pool {
        Some(p) if p.armed && p.cfg.rebalance => {
            if !p.moves.is_empty() || reclaim_backlog(w) {
                return true;
            }
            if p.stalled {
                return false;
            }
            let planner = PoolPlanner {
                threshold: p.cfg.rebalance_threshold,
            };
            planner.rebalance_move(&server_loads(w)).is_some()
        }
        _ => false,
    }
}

/// True when any live server still holds more DRAM than its lease.
pub fn reclaim_backlog(w: &World) -> bool {
    w.vmd
        .servers
        .iter()
        .any(|e| e.alive && e.server.over_lease_pages() > 0)
}

/// The namespace participates in a fork (sealed master or live clone):
/// its placements carry refcounted shares whose retention rules relocation
/// must not second-guess, so the pump pins them in place. Shared master
/// pages are already excluded server-side (`reclaim_victims` skips pages
/// with a nonzero fork refcount); this guard also covers clone overlays
/// and owner-freed placements. Forks exist only when the clone controller
/// ran, so legacy pool runs pay two cheap map lookups here.
fn namespace_forked(w: &World, ns: NamespaceId) -> bool {
    let dir = &w.vmd.directory;
    dir.is_sealed(ns) || dir.parent_of(ns).is_some()
}

/// The namespace belongs to a VM whose migration is still in flight: its
/// driving client is about to change hosts, so leave its slots alone.
fn namespace_migrating(w: &World, ns: NamespaceId) -> bool {
    w.vms
        .iter()
        .any(|slot| slot.swap.namespace() == Some(ns) && slot.migration.is_some())
}

/// The client that drives relocations for a namespace: the one on the
/// host of the VM bound to it (falling back to client 0) — same choice
/// the chaos repair pump makes, so pump traffic originates where the
/// namespace's foreground I/O already flows.
fn pump_client_for(w: &World, ns: NamespaceId) -> usize {
    for slot in &w.vms {
        if slot.swap.namespace() == Some(ns) {
            if let Some(c) = w.hosts[slot.host].vmd_client {
                return c;
            }
        }
    }
    0
}
