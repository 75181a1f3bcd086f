//! Fault-injection executor: replays an [`agile_chaos::ChaosSchedule`]
//! against the cluster and runs the recovery machinery the faults exercise.
//!
//! Installation ([`install`]) schedules one fast event per fault; a run
//! with an empty schedule schedules **nothing**, so non-chaos runs are
//! event-for-event identical to a build without this module (the
//! golden-trace tests pin this down).
//!
//! The recovery side implements the failure model the paper's design
//! implies but never spells out: a VMD server crash loses that host's
//! DRAM contribution, a missed-gossip failure detector marks it suspect
//! at every client after [`crate::config::ClusterConfig::vmd_detect_delay`],
//! in-flight requests fail over to surviving replicas, the directory
//! evicts the dead server, and a paced background pump re-replicates
//! under-replicated slots from survivors. With `vmd_replication = 1`
//! there is nowhere to fail over to: affected slots are *reported* as
//! lost (never a panic — the guest is unblocked with stale content).

use agile_chaos::{ChaosSchedule, FaultKind};
use agile_sim_core::{Bandwidth, FastEvent, SimDuration, SimTime, Simulation};
use agile_vmd::{NamespaceId, ServerId};

use crate::netdrv::touch_net;
use crate::world::World;
use crate::{guest, migrate, vmdio};

/// Slots re-replicated per repair tick (pacing keeps repair traffic from
/// starving foreground paging).
const REPAIR_SLOTS_PER_TICK: usize = 64;

/// Interval between repair ticks.
const REPAIR_TICK: SimDuration = SimDuration::from_millis(10);

/// One server crash and everything the cluster did about it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashRecord {
    /// Index of the crashed VMD server.
    pub server: usize,
    /// When the crash fired.
    pub at: SimTime,
    /// When the failure detector fired (suspect marks + directory evict).
    pub detected_at: Option<SimTime>,
    /// When the server rejoined (empty), if it did.
    pub rejoined_at: Option<SimTime>,
    /// When background re-replication of every survivor slot finished.
    pub repaired_at: Option<SimTime>,
    /// Pages of VM state the crash wiped from the server's DRAM/disk.
    pub pages_wiped: u64,
    /// Slots the directory evicted from the dead server.
    pub slots_evicted: u64,
    /// Evicted slots with no surviving replica (lost state).
    pub slots_lost: u64,
    /// Evicted slots queued for re-replication from survivors.
    pub slots_queued_for_repair: u64,
}

/// Fault-injection executor state inside [`World`].
#[derive(Default)]
pub struct ChaosExec {
    /// The installed schedule (empty when chaos is off).
    pub schedule: ChaosSchedule,
    /// Crash history, in injection order.
    pub crashes: Vec<CrashRecord>,
    /// Under-replicated slots awaiting background repair.
    pub repair_queue: std::collections::VecDeque<(NamespaceId, u32)>,
    /// Whether a repair tick is currently scheduled.
    pub repair_armed: bool,
    /// Slots successfully re-replicated so far.
    pub slots_repaired: u64,
    /// Swap reads that completed with lost content (the guest was
    /// unblocked with stale data and the loss counted, never wedged).
    pub lost_reads: u64,
    /// Migration connection drops injected.
    pub conn_drops: u64,
}

impl ChaosExec {
    /// Sum of slots reported lost across all crashes.
    pub fn total_slots_lost(&self) -> u64 {
        self.crashes.iter().map(|c| c.slots_lost).sum()
    }

    /// Widest crash-to-repaired (or crash-to-detected, when nothing
    /// needed repair) window across all crashes, in seconds.
    pub fn worst_unavailability_secs(&self) -> f64 {
        self.crashes
            .iter()
            .filter_map(|c| {
                let end = c.repaired_at.or(c.detected_at)?;
                Some(end.saturating_since(c.at).as_secs_f64())
            })
            .fold(0.0, f64::max)
    }
}

/// Install a fault schedule: one fast event per fault. An empty schedule
/// installs nothing — zero events, zero divergence from a chaos-free run.
pub fn install(sim: &mut Simulation<World>, schedule: ChaosSchedule) {
    let times: Vec<SimTime> = schedule.events().iter().map(|e| e.at).collect();
    sim.state_mut().chaos.schedule = schedule;
    for (i, at) in times.into_iter().enumerate() {
        sim.schedule_fast(
            at,
            FastEvent::Timer {
                kind: crate::fast::K_CHAOS_FAULT,
                a: i as u64,
                b: 0,
            },
        );
    }
}

/// Fire fault `idx` of the installed schedule.
pub(crate) fn fire(sim: &mut Simulation<World>, idx: usize) {
    let kind = sim.state().chaos.schedule.events()[idx].kind;
    if sim.state().trace.is_enabled() {
        use agile_trace::ChaosKind;
        let now = sim.now();
        let (tk, target, start) = match kind {
            FaultKind::ServerCrash { server } => (ChaosKind::ServerCrash, server, true),
            FaultKind::ServerRejoin { server } => (ChaosKind::ServerRejoin, server, false),
            FaultKind::NicDegrade { host, .. } => (ChaosKind::NicDegrade, host, true),
            FaultKind::NicRestore { host } => (ChaosKind::NicRestore, host, false),
            FaultKind::SwapSlow { host, .. } => (ChaosKind::SwapSlow, host, true),
            FaultKind::SwapRestore { host } => (ChaosKind::SwapRestore, host, false),
            FaultKind::MigrationConnDrop { mig } => (ChaosKind::MigConnDrop, mig, true),
        };
        sim.state_mut().trace.record(
            now,
            agile_trace::TraceEvent::ChaosFault {
                kind: tk,
                target,
                start,
            },
        );
    }
    match kind {
        FaultKind::ServerCrash { server } => server_crash(sim, server as usize),
        FaultKind::ServerRejoin { server } => server_rejoin(sim, server as usize),
        FaultKind::NicDegrade { host, bw_permille } => {
            nic_set(sim, host as usize, bw_permille);
        }
        FaultKind::NicRestore { host } => nic_set(sim, host as usize, 1000),
        FaultKind::SwapSlow { host, extra_us } => {
            swap_latency(sim, host as usize, SimDuration::from_micros(extra_us));
        }
        FaultKind::SwapRestore { host } => swap_latency(sim, host as usize, SimDuration::ZERO),
        FaultKind::MigrationConnDrop { mig } => {
            sim.state_mut().chaos.conn_drops += 1;
            migrate::drop_connections(sim, mig as usize);
        }
    }
}

/// Crash a VMD server: its store is wiped, it stops answering, and the
/// failure detector is armed.
fn server_crash(sim: &mut Simulation<World>, server: usize) {
    let now = sim.now();
    let detect_delay = sim.state().cfg.vmd_detect_delay;
    let record = {
        let w = sim.state_mut();
        if server >= w.vmd.servers.len() || !w.vmd.servers[server].alive {
            return; // no such server, or already down
        }
        let entry = &mut w.vmd.servers[server];
        let pages_wiped = entry.server.crash_reset();
        entry.alive = false;
        w.chaos.crashes.push(CrashRecord {
            server,
            at: now,
            pages_wiped,
            ..CrashRecord::default()
        });
        w.chaos.crashes.len() - 1
    };
    sim.schedule_in(detect_delay, move |sim| detect_crash(sim, record));
}

/// The failure detector fired: clients mark the server suspect and fail
/// over, the directory evicts it, and re-replication is queued.
fn detect_crash(sim: &mut Simulation<World>, record: usize) {
    let now = sim.now();
    let server = sim.state().chaos.crashes[record].server;
    let sid = ServerId(server as u32);
    // Every client fails its in-flight requests over to live replicas.
    let n_clients = sim.state().vmd.clients.len();
    for c in 0..n_clients {
        let completions = {
            let (client, dir) = sim.state_mut().vmd.client_and_dir(c);
            client.mark_suspect(dir, sid)
        };
        for completion in completions {
            vmdio::handle_completion(sim, c, completion);
        }
    }
    // The directory drops the dead server from every placement.
    let evicted = {
        let w = sim.state_mut();
        let evicted = w.vmd.directory.evict_server(sid);
        let rec = &mut w.chaos.crashes[record];
        rec.detected_at = Some(now);
        rec.slots_evicted = evicted.len() as u64;
        evicted
    };
    let replication = sim
        .state()
        .vmd
        .clients
        .iter()
        .map(|c| c.client.replication())
        .max()
        .unwrap_or(1);
    let mut lost = 0u64;
    let mut queued = 0u64;
    {
        let w = sim.state_mut();
        for (ns, slot, survivors) in evicted {
            if survivors.is_empty() {
                lost += 1;
            } else if replication > 1 {
                w.chaos.repair_queue.push_back((ns, slot));
                queued += 1;
            }
        }
        let rec = &mut w.chaos.crashes[record];
        rec.slots_lost = lost;
        rec.slots_queued_for_repair = queued;
        if queued == 0 {
            rec.repaired_at = Some(now);
        }
    }
    guest::flush_all_clients(sim);
    arm_repair(sim);
}

/// A crashed server rejoins, empty. Gossip (which skips dead servers)
/// resumes naturally and clears the suspect marks at the clients.
fn server_rejoin(sim: &mut Simulation<World>, server: usize) {
    let now = sim.now();
    let w = sim.state_mut();
    if server >= w.vmd.servers.len() || w.vmd.servers[server].alive {
        return;
    }
    w.vmd.servers[server].alive = true;
    if let Some(rec) = w
        .chaos
        .crashes
        .iter_mut()
        .rev()
        .find(|c| c.server == server && c.rejoined_at.is_none())
    {
        rec.rejoined_at = Some(now);
    }
}

/// Scale a host's NIC to `permille`/1000 of nominal (0 = partition).
fn nic_set(sim: &mut Simulation<World>, host: usize, permille: u32) {
    let now = sim.now();
    let w = sim.state_mut();
    if host >= w.hosts.len() {
        return;
    }
    let bw = Bandwidth::bytes_per_sec(
        w.cfg.link_bw.as_bytes_per_sec() * f64::from(permille.min(1000)) / 1000.0,
    );
    let node = w.hosts[host].node;
    w.net.set_node_bw(now, node, bw, bw);
    touch_net(sim);
}

/// Inject (or clear) per-command latency on a host's swap SSD.
fn swap_latency(sim: &mut Simulation<World>, host: usize, extra: SimDuration) {
    let w = sim.state_mut();
    if let Some(ssd) = w.hosts.get_mut(host).and_then(|h| h.ssd.as_mut()) {
        ssd.set_extra_latency(extra);
    }
}

/// Arm the paced repair pump if work is queued and it is not running.
pub(crate) fn arm_repair(sim: &mut Simulation<World>) {
    let w = sim.state_mut();
    if w.chaos.repair_armed || w.chaos.repair_queue.is_empty() {
        return;
    }
    w.chaos.repair_armed = true;
    sim.schedule_fast_in(
        REPAIR_TICK,
        FastEvent::Timer {
            kind: crate::fast::K_REPAIR_PUMP,
            a: 0,
            b: 0,
        },
    );
}

/// One repair tick: re-replicate up to [`REPAIR_SLOTS_PER_TICK`] slots.
pub(crate) fn repair_tick(sim: &mut Simulation<World>) {
    sim.state_mut().chaos.repair_armed = false;
    let mut issued = false;
    for _ in 0..REPAIR_SLOTS_PER_TICK {
        let Some((ns, slot)) = sim.state_mut().chaos.repair_queue.pop_front() else {
            break;
        };
        let client_idx = repair_client_for(sim.state(), ns);
        let begun = {
            let (client, dir) = sim.state_mut().vmd.client_and_dir(client_idx);
            client.begin_repair(dir, ns, slot)
        };
        if begun {
            issued = true;
            sim.state_mut().chaos.slots_repaired += 1;
        }
    }
    if issued {
        guest::flush_all_clients(sim);
    }
    let drained = sim.state().chaos.repair_queue.is_empty();
    if drained {
        let now = sim.now();
        let w = sim.state_mut();
        for rec in w.chaos.crashes.iter_mut() {
            if rec.detected_at.is_some() && rec.repaired_at.is_none() {
                rec.repaired_at = Some(now);
            }
        }
    } else {
        arm_repair(sim);
    }
}

/// The client that should drive repairs for a namespace: the one on the
/// host of the VM bound to it (falling back to client 0).
fn repair_client_for(w: &World, ns: NamespaceId) -> usize {
    for slot in &w.vms {
        if slot.swap.namespace() == Some(ns) {
            if let Some(c) = w.hosts[slot.host].vmd_client {
                return c;
            }
        }
    }
    0
}
