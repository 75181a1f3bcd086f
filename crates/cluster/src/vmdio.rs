//! VMD transport glue: moves protocol messages between client and server
//! state machines over the simulated network, and resolves swap-I/O
//! completions back into the guest/migration paths.

use agile_sim_core::Simulation;
use agile_vmd::{ClientMsg, ServerId, ServerMsg, TierBacking, VmdCompletion};

use crate::netdrv::touch_net;
use crate::world::{NetPayload, SwapReqCtx, World};
use crate::{guest, migrate};

/// Drain a client's outbox onto the network.
pub fn flush_client(sim: &mut Simulation<World>, client_idx: usize) {
    let now = sim.now();
    let page_size = sim.state().cfg.page_size;
    // Copy-on-write breaks queued by the sans-IO client: trace them and
    // feed the clone controller's counter. One empty-queue branch on the
    // hot path; nonempty only after a namespace fork.
    if sim.state().vmd.clients[client_idx]
        .client
        .borrow()
        .has_cow_breaks()
    {
        let breaks: Vec<(agile_vmd::NamespaceId, u32)> = sim.state().vmd.clients[client_idx]
            .client
            .borrow_mut()
            .drain_cow_breaks()
            .collect();
        let w = sim.state_mut();
        if let Some(c) = w.clone.as_mut() {
            c.counters.cow_breaks += breaks.len() as u64;
        }
        for (ns, slot) in breaks {
            w.trace
                .record(now, agile_trace::TraceEvent::CowBreak { ns: ns.0, slot });
        }
    }
    loop {
        let batch: Vec<(ServerId, ClientMsg)> = {
            let w = sim.state_mut();
            let mut c = w.vmd.clients[client_idx].client.borrow_mut();
            c.drain_outbox().collect()
        };
        if batch.is_empty() {
            break;
        }
        for (server, msg) in batch {
            let server_idx = server.0 as usize;
            let bytes = msg.wire_bytes(page_size);
            let w = sim.state_mut();
            let (to_server, _) = w.vmd.channels_between(client_idx, server_idx);
            let tag = w.tag(NetPayload::VmdToServer {
                server: server_idx,
                client: client_idx,
                msg,
            });
            w.net.send(now, to_server, bytes, tag);
        }
    }
    touch_net(sim);
}

/// A client message arrived at an intermediate host: process it after the
/// server's lookup delay (plus disk time if the page sits on the spill
/// tier), then transmit the reply.
pub fn on_server_recv(
    sim: &mut Simulation<World>,
    server_idx: usize,
    client_idx: usize,
    msg: ClientMsg,
) {
    let delay = sim.state().cfg.vmd_server_delay;
    sim.schedule_in(delay, move |sim| {
        let now = sim.now();
        let page_size = sim.state().cfg.page_size;
        let (reply, tier) = {
            let w = sim.state_mut();
            if !w.vmd.servers[server_idx].alive {
                // Crashed host: the message is silently lost; the client's
                // failure detector and failover machinery deal with it.
                return;
            }
            let r = w.vmd.servers[server_idx].server.handle(msg);
            (r.msg, r.tier)
        };
        let Some(reply) = reply else { return };
        // Requests served below the DRAM head tier pay that tier's device
        // time before the reply leaves: the host's shared SSD queue for
        // the HD/SSD-backed VMD extension, or the tier's fixed latency for
        // zswap/CXL-like backings (no queueing — they are memory-class
        // devices, not a spindle).
        let backing = sim.state().vmd.servers[server_idx]
            .server
            .tier_backing(tier);
        let send_at = match backing {
            TierBacking::Dram => now,
            TierBacking::HostSsd => {
                let w = sim.state_mut();
                let host = w.vmd.servers[server_idx].host;
                match &w.hosts[host].ssd {
                    Some(dev) => {
                        let kind = match msg {
                            ClientMsg::ReadReq { .. } => agile_sim_core::IoKind::Read,
                            _ => agile_sim_core::IoKind::Write,
                        };
                        dev.borrow_mut().submit(now, kind, page_size)
                    }
                    None => now,
                }
            }
            TierBacking::Fixed { read, write } => match msg {
                ClientMsg::ReadReq { .. } => {
                    if sim.state().cfg.vmd_fixed_tier_queueing {
                        // Far-memory/CXL-like tiers have one transfer
                        // engine, not infinite parallelism: serialize
                        // concurrent reads through a per-(server, tier)
                        // busy-until horizon.
                        let w = sim.state_mut();
                        let busy = w
                            .fixed_tier_busy
                            .entry((server_idx, tier))
                            .or_insert(agile_sim_core::SimTime::ZERO);
                        let start = if *busy > now { *busy } else { now };
                        let done = start + read;
                        *busy = done;
                        done
                    } else {
                        now + read
                    }
                }
                _ => now + write,
            },
        };
        sim.schedule_at(send_at, move |sim| {
            let t = sim.now();
            let page_size = sim.state().cfg.page_size;
            let w = sim.state_mut();
            let (_, to_client) = w.vmd.channels_between(client_idx, server_idx);
            let bytes = reply.wire_bytes(page_size);
            let tag = w.tag(NetPayload::VmdToClient {
                client: client_idx,
                server: server_idx,
                msg: reply,
            });
            w.net.send(t, to_client, bytes, tag);
            touch_net(sim);
        });
    });
}

/// A server reply arrived back at a client host.
pub fn on_client_recv(
    sim: &mut Simulation<World>,
    client_idx: usize,
    server_idx: usize,
    msg: ServerMsg,
) {
    let completion = {
        let w = sim.state_mut();
        if !w.vmd.servers[server_idx].alive {
            // A reply that was in flight when the server crashed: drop it,
            // or it would clear the suspect mark and re-route traffic to a
            // dead host.
            return;
        }
        let mut c = w.vmd.clients[client_idx].client.borrow_mut();
        c.on_server_msg(ServerId(server_idx as u32), msg)
    };
    if let Some(completion) = completion {
        handle_completion(sim, client_idx, completion);
        if sim.state().vmd.clients[client_idx]
            .client
            .borrow()
            .has_outbox()
        {
            flush_client(sim, client_idx);
        }
    }
}

/// Act on a client completion: resolve swap I/O, or run the failover /
/// repair step the sans-IO client asked the executor to perform.
pub fn handle_completion(sim: &mut Simulation<World>, client_idx: usize, c: VmdCompletion) {
    if sim.state().trace.is_enabled() {
        use agile_trace::VmdKind;
        let now = sim.now();
        let kind = match &c {
            VmdCompletion::ReadDone { .. } => VmdKind::ReadDone,
            VmdCompletion::WriteDone { .. } => VmdKind::WriteDone,
            VmdCompletion::ReadFailed { .. } => VmdKind::ReadFailed,
            VmdCompletion::ReadNak { .. } => VmdKind::ReadNak,
            VmdCompletion::WriteNak { .. } => VmdKind::WriteNak,
            VmdCompletion::RepairRead { .. } => VmdKind::RepairWrite,
            VmdCompletion::RelocateRead { .. } => VmdKind::RelocateWrite,
            VmdCompletion::RelocateDone { .. } => VmdKind::RelocateDone,
            VmdCompletion::RelocateAbort { .. } => VmdKind::RelocateAbort,
        };
        sim.state_mut().trace.record(
            now,
            agile_trace::TraceEvent::Vmd {
                client: client_idx as u32,
                kind,
            },
        );
    }
    match c {
        VmdCompletion::ReadDone { req, .. } => resolve_swap_completion(sim, req),
        VmdCompletion::WriteDone { req } => {
            // Eviction write-backs need no follow-up.
            sim.state_mut().swap_reqs.remove(&req);
        }
        VmdCompletion::ReadFailed { req, .. } => {
            // Every replica is gone: the read's content is lost. Unblock
            // whoever waits on it with stale data and count the loss —
            // reported, never wedged.
            sim.state_mut().chaos.lost_reads += 1;
            resolve_swap_completion(sim, req);
        }
        VmdCompletion::ReadNak { req } => {
            let next = {
                let w = sim.state_mut();
                let dir = std::rc::Rc::clone(&w.vmd.directory);
                let dir = dir.borrow();
                let mut client = w.vmd.clients[client_idx].client.borrow_mut();
                client.read_failover(&dir, req)
            };
            if let Some(next) = next {
                handle_completion(sim, client_idx, next);
            }
        }
        VmdCompletion::WriteNak { req } => {
            let next = {
                let w = sim.state_mut();
                let dir = std::rc::Rc::clone(&w.vmd.directory);
                let mut dir = dir.borrow_mut();
                let mut client = w.vmd.clients[client_idx].client.borrow_mut();
                client.write_failover(&mut dir, req)
            };
            if let Some(next) = next {
                handle_completion(sim, client_idx, next);
            }
        }
        VmdCompletion::RepairRead { ns, slot, version } => {
            let w = sim.state_mut();
            let dir = std::rc::Rc::clone(&w.vmd.directory);
            let mut dir = dir.borrow_mut();
            let mut client = w.vmd.clients[client_idx].client.borrow_mut();
            client.repair_write(&mut dir, ns, slot, version);
        }
        VmdCompletion::RelocateRead {
            ns,
            slot,
            version,
            from,
        } => {
            // The pool manager may have pinned a destination (rebalance
            // plan); reclaim moves let the client's ring placement pick.
            let prefer = sim
                .state()
                .pool
                .as_ref()
                .and_then(|p| p.moves.get(&(ns, slot)).and_then(|m| m.dest));
            let issued = {
                let w = sim.state_mut();
                let dir = std::rc::Rc::clone(&w.vmd.directory);
                let dir = dir.borrow();
                let mut client = w.vmd.clients[client_idx].client.borrow_mut();
                client.relocate_write(&dir, ns, slot, version, from, prefer)
            };
            if !issued {
                if let Some(p) = sim.state_mut().pool.as_mut() {
                    p.moves.remove(&(ns, slot));
                    p.counters.relocations_aborted += 1;
                }
            }
        }
        VmdCompletion::RelocateDone { ns, slot, from, to } => {
            let moved = {
                let w = sim.state_mut();
                let dir = std::rc::Rc::clone(&w.vmd.directory);
                let mut dir = dir.borrow_mut();
                let mut client = w.vmd.clients[client_idx].client.borrow_mut();
                client.finish_relocation(&mut dir, ns, slot, from, to)
            };
            if let Some(p) = sim.state_mut().pool.as_mut() {
                p.moves.remove(&(ns, slot));
                if moved {
                    p.counters.pages_relocated += 1;
                } else {
                    p.counters.relocations_aborted += 1;
                }
            }
        }
        VmdCompletion::RelocateAbort { ns, slot } => {
            if let Some(p) = sim.state_mut().pool.as_mut() {
                p.moves.remove(&(ns, slot));
                p.counters.relocations_aborted += 1;
            }
        }
    }
}

/// Dispatch a completed swap read to its context.
pub fn resolve_swap_completion(sim: &mut Simulation<World>, req: u64) {
    let ctx = sim
        .state_mut()
        .swap_reqs
        .remove(&req)
        .expect("unknown swap request");
    match ctx {
        SwapReqCtx::GuestFault {
            vm,
            pfn,
            epoch,
            dest_stat,
            issued,
        } => {
            // Every guest-fault completion funnels through here — local
            // SSD reads and VMD reads alike — so this one observation
            // point covers the whole guest-visible latency distribution.
            let now = sim.now();
            if let Some(hist) = sim.state_mut().fault_hist.as_deref_mut() {
                hist.observe(now - issued);
            }
            guest::complete_guest_fault(sim, vm, pfn, epoch, dest_stat)
        }
        SwapReqCtx::MigrationSwapIn { mig, batch, pfn } => {
            migrate::complete_migration_swapin(sim, mig, batch, pfn)
        }
        SwapReqCtx::EvictionWrite => {}
        SwapReqCtx::CloneHydrate { vm, pfn } => crate::clonectl::complete_hydrate(sim, vm, pfn),
    }
}

/// Broadcast every server's availability to every client (the periodic
/// gossip of §IV-A). Returns `true` so `schedule_every` keeps running.
pub fn gossip_availability(sim: &mut Simulation<World>) -> bool {
    let now = sim.now();
    let page_size = sim.state().cfg.page_size;
    let n_servers = sim.state().vmd.servers.len();
    let n_clients = sim.state().vmd.clients.len();
    for s in 0..n_servers {
        if !sim.state().vmd.servers[s].alive {
            // A crashed host gossips nothing; its silence is what the
            // clients' failure detector keys on.
            continue;
        }
        let msg = sim.state().vmd.servers[s].server.availability();
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
        }
    }
    touch_net(sim);
    true
}
