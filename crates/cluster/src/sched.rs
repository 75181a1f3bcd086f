//! Cluster-scale watermark scheduler (§III-B beyond a single host pair).
//!
//! The paper's experiments push every selected VM to one fixed
//! destination with no capacity check — fine for two hosts, wrong for a
//! cluster: a firing can overload the destination and ping-pong VMs
//! straight back. This module manages a *set* of hosts (a two-host pair
//! is the set of both):
//!
//! * On each tick, every managed host is checked against its watermark
//!   trigger and the paper's fewest-VMs selection runs per overloaded
//!   host (suspect-aware: VMs whose portable namespace is mid-repair
//!   after a VMD server crash are deferred).
//! * Each selected VM is *placed* on a destination chosen by
//!   [`PlacementPolicy`]: least-loaded by free reservation headroom (the
//!   default) or first-fit by host index. Feasibility mirrors what the
//!   migration executor will demand: a VMD client on the destination for
//!   portable namespaces, a swap SSD for host-partition VMs.
//! * A **ping-pong guard** rejects any destination whose post-arrival
//!   aggregate WSS — counting migrations already in flight toward it —
//!   would cross its own high watermark minus a hysteresis margin, so an
//!   accepted VM cannot immediately re-trigger the destination.
//! * **Admission control** caps concurrent in-flight migrations; excess
//!   selections join a FIFO queue and start as slots free (re-validated
//!   at dequeue: a selection whose host recovered meanwhile is dropped).
//!
//! Every decision is recorded in the world's tracer as a
//! [`TraceEvent::SchedDecision`] and in [`SchedExec::decisions`] for
//! deterministic reports; counters surface through
//! [`crate::report::metrics_registry`].

use std::collections::{HashSet, VecDeque};

use agile_migration::SourceConfig;
use agile_sim_core::{FastEvent, SimDuration, SimTime, Simulation};
use agile_trace::{SchedAction, TraceEvent};
use agile_vmd::NamespaceId;
use agile_wss::WatermarkTrigger;

use crate::world::World;
use crate::{migrate, wssctl};

/// How the scheduler picks a destination for a selected VM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementPolicy {
    /// The feasible host with the most free reservation headroom; ties
    /// break on the lowest host index.
    LeastLoaded,
    /// The first feasible host in index order.
    FirstFit,
}

impl PlacementPolicy {
    /// Stable lower-snake name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::LeastLoaded => "least-loaded",
            PlacementPolicy::FirstFit => "first-fit",
        }
    }
}

/// Scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Destination selection policy.
    pub policy: PlacementPolicy,
    /// Admission-control cap on concurrent scheduler-started migrations.
    pub max_in_flight: usize,
    /// Ping-pong guard margin as a fraction of each destination's
    /// low→high watermark band: a destination is rejected unless its
    /// post-arrival aggregate WSS stays at or below
    /// `high - hysteresis * (high - low)`.
    pub hysteresis: f64,
    /// How often every managed host is re-checked.
    pub period: SimDuration,
    /// How long after a VM's scheduler migration completes before it may
    /// be selected again (the direct anti-ping-pong backstop).
    pub cooldown: SimDuration,
    /// Protocol configuration for scheduler-started migrations.
    pub src_cfg: SourceConfig,
    /// Arm the end-to-end content check on every scheduled migration.
    pub verify_content: bool,
}

impl SchedConfig {
    /// Defaults around a given migration configuration: least-loaded
    /// placement, 2 concurrent migrations, 25% hysteresis, 5 s period,
    /// 300 s cooldown.
    pub fn new(src_cfg: SourceConfig) -> Self {
        SchedConfig {
            policy: PlacementPolicy::LeastLoaded,
            max_in_flight: 2,
            hysteresis: 0.25,
            period: SimDuration::from_secs(5),
            cooldown: SimDuration::from_secs(300),
            src_cfg,
            verify_content: false,
        }
    }
}

/// One host under scheduler management.
#[derive(Clone, Copy, Debug)]
pub struct ManagedHost {
    /// Host index.
    pub host: usize,
    /// This host's watermark trigger.
    pub trigger: WatermarkTrigger,
}

/// One logged scheduler decision (the deterministic report's spine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// When the decision was made.
    pub at: SimTime,
    /// The selected VM.
    pub vm: usize,
    /// Its (overloaded) host at selection time.
    pub src: usize,
    /// The chosen destination, for [`SchedAction::Start`] decisions.
    pub dest: Option<usize>,
    /// What happened.
    pub action: SchedAction,
}

/// Scheduler counters (exported via the metrics registry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Migrations the scheduler started.
    pub started: u64,
    /// Selections that waited in the admission queue.
    pub queued: u64,
    /// Selections with no feasible destination this tick.
    pub deferred_no_dest: u64,
    /// Queued selections dropped because their host recovered.
    pub dropped_recovered: u64,
    /// Scheduler-started migrations that finalized.
    pub completed: u64,
    /// High-water mark of concurrent scheduler migrations.
    pub max_in_flight_observed: u64,
}

/// Scheduler executor state, stored in [`World::sched`].
pub struct SchedExec {
    /// Configuration.
    pub cfg: SchedConfig,
    /// Managed hosts, checked in the order given at arm time.
    pub hosts: Vec<ManagedHost>,
    /// FIFO of selected VMs waiting for an admission slot.
    pub queue: VecDeque<usize>,
    /// VMs whose scheduler-started migration is in flight.
    pub inflight: Vec<usize>,
    /// Per-VM completion time of the last scheduler migration (cooldown).
    pub last_done: Vec<Option<SimTime>>,
    /// Per-VM count of scheduler-started migrations (ping-pong metric).
    pub times_migrated: Vec<u32>,
    /// Counters.
    pub counters: SchedCounters,
    /// Every decision, in the order it was made.
    pub decisions: Vec<Decision>,
    /// False after [`disarm_scheduler`]: the next tick unschedules itself.
    pub armed: bool,
    /// Trough-deferral overlay ([`arm_predictor`]). `None` — the default
    /// — leaves every code path byte-identical to the plain scheduler.
    pub predict: Option<crate::predict::PredictExec>,
}

/// The scheduler tick's fast-event payload.
fn tick_timer() -> FastEvent {
    FastEvent::Timer {
        kind: crate::fast::K_SCHED_TICK,
        a: 0,
        b: 0,
    }
}

/// Install the scheduler over `hosts` and start its periodic check. The
/// first tick fires one period after *arming* (not after t = 0).
pub fn arm_scheduler(sim: &mut Simulation<World>, hosts: Vec<ManagedHost>, cfg: SchedConfig) {
    assert!(cfg.max_in_flight >= 1, "admission cap must be at least 1");
    assert!(
        (0.0..1.0).contains(&cfg.hysteresis),
        "hysteresis must be in [0, 1)"
    );
    assert!(!hosts.is_empty(), "scheduler needs at least one host");
    let n_vms = sim.state().vms.len();
    {
        let w = sim.state_mut();
        for mh in &hosts {
            assert!(mh.host < w.hosts.len(), "managed host out of range");
        }
        assert!(w.sched.is_none(), "scheduler already armed");
        w.sched = Some(SchedExec {
            cfg,
            hosts,
            queue: VecDeque::new(),
            inflight: Vec::new(),
            last_done: vec![None; n_vms],
            times_migrated: vec![0; n_vms],
            counters: SchedCounters::default(),
            decisions: Vec::new(),
            armed: true,
            predict: None,
        });
    }
    sim.schedule_fast_in(cfg.period, tick_timer());
}

/// Stop the periodic check. Already-queued selections stay queued (and
/// still start as in-flight migrations complete); no new host checks run.
pub fn disarm_scheduler(sim: &mut Simulation<World>) {
    if let Some(s) = sim.state_mut().sched.as_mut() {
        s.armed = false;
    }
}

/// Overlay the cycle predictor on an armed scheduler: each tick samples
/// every managed host's aggregate WSS into a per-host
/// [`crate::predict::CycleDetector`], and watermark selections on hosts
/// with a confident cycle are deferred to the predicted trough (bounded
/// by `cfg.max_defer`) instead of firing immediately. Unarmed, the
/// scheduler is byte-identical to the plain watermark scheduler.
pub fn arm_predictor(sim: &mut Simulation<World>, cfg: crate::predict::PredictConfig) {
    let s = sim
        .state_mut()
        .sched
        .as_mut()
        .expect("arm the scheduler before the predictor");
    assert!(s.predict.is_none(), "predictor already armed");
    assert!(
        cfg.min_period >= 2 && cfg.max_period >= cfg.min_period,
        "bad period range"
    );
    let n = s.hosts.len();
    s.predict = Some(crate::predict::PredictExec {
        cfg,
        detectors: vec![crate::predict::CycleDetector::new(cfg.window); n],
        had_cycle: vec![false; n],
        cycles: vec![None; n],
        deferred: Vec::new(),
        counters: crate::predict::PredictCounters::default(),
    });
}

/// One predictor pass, run at the top of every scheduler tick when the
/// overlay is armed: sample each managed host, refresh its cycle cache
/// (edge-counting detections), then fire deferred migrations whose time
/// has come.
fn predict_tick(sim: &mut Simulation<World>) {
    let now = sim.now();
    // Sample + refresh cycles.
    let due: Vec<crate::predict::DeferredMig> = {
        let w = sim.state_mut();
        let Some(s) = w.sched.as_mut() else { return };
        if s.predict.is_none() {
            return;
        }
        let hosts: Vec<usize> = s.hosts.iter().map(|mh| mh.host).collect();
        let samples: Vec<f64> = {
            // Reborrow immutably for the aggregate scan.
            let w_ref: &World = w;
            hosts
                .iter()
                .map(|&h| host_aggregate(w_ref, h) as f64)
                .collect()
        };
        let s = w.sched.as_mut().expect("checked above");
        let p = s.predict.as_mut().expect("checked above");
        for (i, v) in samples.into_iter().enumerate() {
            p.detectors[i].push(v);
            let cycle = p.detectors[i].detect(&p.cfg);
            if cycle.is_some() && !p.had_cycle[i] {
                p.counters.cycles_detected += 1;
            }
            p.had_cycle[i] = cycle.is_some();
            p.cycles[i] = cycle;
        }
        // Split out due deferrals (stable order: as recorded).
        let mut due = Vec::new();
        p.deferred.retain(|d| {
            if d.fire_at <= now {
                due.push(*d);
                false
            } else {
                true
            }
        });
        due
    };
    for d in due {
        let (alive, load_now) = {
            let w = sim.state();
            let slot = &w.vms[d.vm];
            let alive =
                slot.migration.is_none() && slot.host == d.src && slot.vm.state().can_execute();
            (alive, host_aggregate(w, d.src))
        };
        {
            let w = sim.state_mut();
            let p = w
                .sched
                .as_mut()
                .and_then(|s| s.predict.as_mut())
                .expect("predictor armed");
            if !alive {
                p.counters.cancelled += 1;
                continue;
            }
            if d.clamped {
                // Already counted as a window expiry at defer time; the
                // firing is the naive fallback, not a trough claim.
            } else if load_now < d.load_at_defer {
                p.counters.trough_hits += 1;
            } else {
                p.counters.trough_misses += 1;
            }
        }
        admit(sim, d.vm, d.src);
    }
}

/// Defer `vm` toward the predicted trough of `src`'s cycle. Returns
/// false when the predictor is unarmed, shows no confident cycle for the
/// host, or predicts the trough is *now* — callers then admit naively.
fn try_defer(sim: &mut Simulation<World>, vm: usize, src: usize, host_slot: usize) -> bool {
    let now = sim.now();
    let period = {
        let Some(s) = sim.state().sched.as_ref() else {
            return false;
        };
        s.cfg.period
    };
    let (fire_at, clamped, load_now) = {
        let w = sim.state();
        let s = w.sched.as_ref().expect("scheduler armed");
        let Some(p) = s.predict.as_ref() else {
            return false;
        };
        let Some(cycle) = p.cycles[host_slot] else {
            return false;
        };
        let ticks = cycle.ticks_to_trough();
        if ticks == 0 {
            return false; // the trough is now: fire naively
        }
        let mut wait = SimDuration::from_nanos(period.as_nanos() * ticks as u64);
        // Trough capacity is limited: migrations stacked into one trough
        // share the source NIC and re-create the interference the
        // deferral avoids. Stagger same-source deferrals across
        // successive troughs, one full cycle apart (still bounded by
        // `max_defer` below).
        let cycle_len = SimDuration::from_nanos(period.as_nanos() * cycle.period as u64);
        let half = SimDuration::from_nanos(cycle_len.as_nanos() / 2);
        while p.deferred.iter().any(|d| {
            let t = now + wait;
            d.src == src
                && d.fire_at
                    .saturating_since(t)
                    .max(t.saturating_since(d.fire_at))
                    < half
        }) {
            wait += cycle_len;
        }
        let bound = p.cfg.max_defer;
        if wait > bound {
            (now + bound, true, host_aggregate(w, src))
        } else {
            (now + wait, false, host_aggregate(w, src))
        }
    };
    let w = sim.state_mut();
    let s = w.sched.as_mut().expect("scheduler armed");
    let p = s.predict.as_mut().expect("checked above");
    p.deferred.push(crate::predict::DeferredMig {
        vm,
        src,
        fire_at,
        load_at_defer: load_now,
        clamped,
    });
    p.counters.deferrals += 1;
    if clamped {
        p.counters.window_expiries += 1;
    }
    s.decisions.push(Decision {
        at: now,
        vm,
        src,
        dest: None,
        action: SchedAction::TroughDefer,
    });
    w.trace.record(
        now,
        TraceEvent::SchedDecision {
            vm: vm as u32,
            src: src as u32,
            dest: u32::MAX,
            action: SchedAction::TroughDefer,
        },
    );
    w.trace.record(
        now,
        TraceEvent::SchedDefer {
            vm: vm as u32,
            src: src as u32,
            fire_t_ns: fire_at.as_nanos(),
            clamped,
        },
    );
    true
}

/// One scheduler tick: drain the admission queue into free slots, then
/// run watermark selection over every managed host in order.
pub(crate) fn tick(sim: &mut Simulation<World>) {
    let (armed, period) = match sim.state().sched.as_ref() {
        Some(s) => (s.armed, s.cfg.period),
        None => return,
    };
    if !armed {
        return;
    }
    predict_tick(sim);
    drain_queue(sim);
    let hosts: Vec<ManagedHost> = sim
        .state()
        .sched
        .as_ref()
        .expect("armed above")
        .hosts
        .clone();
    for (slot, mh) in hosts.into_iter().enumerate() {
        check_host(sim, slot, mh);
    }
    sim.schedule_fast_in(period, tick_timer());
}

/// Watermark-check one managed host and admit its selected VMs.
/// `host_slot` is the host's position in [`SchedExec::hosts`] (the
/// predictor's cycle cache is parallel to that list).
fn check_host(sim: &mut Simulation<World>, host_slot: usize, mh: ManagedHost) {
    let now = sim.now();
    let selected: Vec<u32> = {
        let w = sim.state();
        let s = w.sched.as_ref().expect("scheduler armed");
        // Queued VMs are already committed to leave: they contribute
        // neither pressure nor candidacy to this firing (counting their
        // WSS would over-select; re-selecting them would double-migrate).
        // Trough-deferred VMs are equally committed and get the same
        // treatment.
        let mut vms = wssctl::host_wss_of(w, mh.host);
        vms.retain(|v| !s.queue.contains(&(v.vm as usize)));
        if let Some(p) = s.predict.as_ref() {
            vms.retain(|v| !p.deferred.iter().any(|d| d.vm == v.vm as usize));
        }
        // Suspect-aware + cooldown-aware eligibility. A VM whose portable
        // namespace still has slots queued for re-replication after a VMD
        // server crash is deferred: migrating it would ship offset markers
        // whose only surviving replica is mid-repair. With no chaos the
        // repair queue is empty and only the cooldown filters.
        let deferred: HashSet<NamespaceId> =
            w.chaos.repair_queue.iter().map(|&(ns, _)| ns).collect();
        mh.trigger.select_vms_filtered(&vms, |vm| {
            let vmi = vm as usize;
            let ns_ok = match w.vms[vmi].swap.namespace() {
                Some(ns) => !deferred.contains(&ns),
                None => true,
            };
            let cooled = match s.last_done[vmi] {
                Some(done) => now.saturating_since(done) >= s.cfg.cooldown,
                None => true,
            };
            ns_ok && cooled
        })
    };
    for vm in selected {
        if !try_defer(sim, vm as usize, mh.host, host_slot) {
            admit(sim, vm as usize, mh.host);
        }
    }
}

/// Route one selected VM: start its migration if an admission slot and a
/// destination exist, queue it when the cap is full, defer it when no
/// destination passes the guards.
fn admit(sim: &mut Simulation<World>, vm: usize, src: usize) {
    let now = sim.now();
    let at_cap = {
        let s = sim.state().sched.as_ref().expect("scheduler armed");
        s.inflight.len() >= s.cfg.max_in_flight
    };
    if at_cap {
        let w = sim.state_mut();
        let s = w.sched.as_mut().expect("scheduler armed");
        s.queue.push_back(vm);
        s.counters.queued += 1;
        s.decisions.push(Decision {
            at: now,
            vm,
            src,
            dest: None,
            action: SchedAction::Queue,
        });
        w.trace.record(
            now,
            TraceEvent::SchedDecision {
                vm: vm as u32,
                src: src as u32,
                dest: u32::MAX,
                action: SchedAction::Queue,
            },
        );
        return;
    }
    match place(sim.state(), vm) {
        Some(dest) => start_scheduled(sim, vm, src, dest),
        None => {
            let w = sim.state_mut();
            let s = w.sched.as_mut().expect("scheduler armed");
            s.counters.deferred_no_dest += 1;
            s.decisions.push(Decision {
                at: now,
                vm,
                src,
                dest: None,
                action: SchedAction::Defer,
            });
            w.trace.record(
                now,
                TraceEvent::SchedDecision {
                    vm: vm as u32,
                    src: src as u32,
                    dest: u32::MAX,
                    action: SchedAction::Defer,
                },
            );
        }
    }
}

/// Reservation bytes of unfinished migrations headed to `host`.
///
/// Returns `(committed, pre_resume)`: `committed` counts every unfinished
/// inbound migration (its WSS will be on `host` — used by the ping-pong
/// guard, whose `host_wss_of` term excludes still-migrating VMs);
/// `pre_resume` counts only migrations that have not resumed yet, whose
/// reservation the host ledger does not carry yet (used for headroom).
fn inbound_bytes(w: &World, host: usize) -> (u64, u64) {
    let mut committed = 0u64;
    let mut pre_resume = 0u64;
    for m in &w.migrations {
        if m.finished || m.dest_host != host {
            continue;
        }
        committed += m.dest_reservation;
        if m.dest_mem.is_some() {
            pre_resume += m.dest_reservation;
        }
    }
    (committed, pre_resume)
}

/// Pick a destination for `vm` per the configured policy, or `None` when
/// no managed host passes feasibility, headroom, and the ping-pong guard.
pub fn place(w: &World, vm: usize) -> Option<usize> {
    let s = w.sched.as_ref()?;
    let vm_wss = w.vms[vm].vm.memory().limit_bytes();
    let src = w.vms[vm].host;
    let mut best: Option<(u64, usize)> = None;
    for mh in &s.hosts {
        let h = mh.host;
        if h == src {
            continue;
        }
        // Mirror the migration executor's destination requirements. A
        // VMD-backed VM additionally needs the pool to have leased DRAM
        // headroom somewhere (an armed pool manager narrows the advertised
        // capacity to what donors actually contribute right now).
        let feasible = match w.vms[vm].swap.namespace() {
            Some(_) => w.vmd.host_client.contains_key(&h) && crate::poolctl::placement_feasible(w),
            None => w.hosts[h].ssd.is_some(),
        };
        if !feasible {
            continue;
        }
        let (committed, pre_resume) = inbound_bytes(w, h);
        let headroom = w.hosts[h].mem.free_bytes().saturating_sub(pre_resume);
        if headroom < vm_wss {
            continue;
        }
        // Ping-pong guard: the post-arrival aggregate (running VMs +
        // everything already in flight toward this host + this VM) must
        // sit a hysteresis margin below the destination's own high
        // watermark, or it would fire right back.
        let resident: u64 = wssctl::host_wss_of(w, h).iter().map(|v| v.wss_bytes).sum();
        let post_arrival = resident + committed + vm_wss;
        let band = mh.trigger.high_bytes - mh.trigger.low_bytes;
        let margin = (band as f64 * s.cfg.hysteresis) as u64;
        if post_arrival > mh.trigger.high_bytes.saturating_sub(margin) {
            continue;
        }
        match s.cfg.policy {
            PlacementPolicy::FirstFit => return Some(h),
            PlacementPolicy::LeastLoaded => {
                if best.map(|(b, _)| headroom > b).unwrap_or(true) {
                    best = Some((headroom, h));
                }
            }
        }
    }
    best.map(|(_, h)| h)
}

/// Start one admitted migration and record the decision.
fn start_scheduled(sim: &mut Simulation<World>, vm: usize, src: usize, dest: usize) {
    let now = sim.now();
    let (resv, verify, src_cfg) = {
        let w = sim.state();
        let s = w.sched.as_ref().expect("scheduler armed");
        (
            w.vms[vm].vm.memory().limit_bytes(),
            s.cfg.verify_content,
            s.cfg.src_cfg,
        )
    };
    let mig = migrate::start_migration(sim, vm, dest, src_cfg, resv);
    let w = sim.state_mut();
    w.migrations[mig].verify_content = verify;
    let s = w.sched.as_mut().expect("scheduler armed");
    s.inflight.push(vm);
    s.counters.started += 1;
    s.counters.max_in_flight_observed = s
        .counters
        .max_in_flight_observed
        .max(s.inflight.len() as u64);
    s.times_migrated[vm] += 1;
    s.decisions.push(Decision {
        at: now,
        vm,
        src,
        dest: Some(dest),
        action: SchedAction::Start,
    });
    w.trace.record(
        now,
        TraceEvent::SchedDecision {
            vm: vm as u32,
            src: src as u32,
            dest: dest as u32,
            action: SchedAction::Start,
        },
    );
}

/// Hook from the migration executor: migration of `vm` finalized. If the
/// scheduler started it, release its admission slot, stamp the cooldown,
/// and start queued selections while slots are free.
pub(crate) fn on_migration_finished(sim: &mut Simulation<World>, vm: usize) {
    let now = sim.now();
    let was_scheduled = {
        let w = sim.state_mut();
        match w.sched.as_mut() {
            Some(s) => match s.inflight.iter().position(|&v| v == vm) {
                Some(i) => {
                    s.inflight.remove(i);
                    s.counters.completed += 1;
                    s.last_done[vm] = Some(now);
                    true
                }
                None => false,
            },
            None => false,
        }
    };
    if was_scheduled {
        drain_queue(sim);
    }
}

/// Start queued selections while admission slots are free, re-validating
/// each at dequeue. Keeps FIFO order: a head entry that currently has no
/// destination holds the queue until the next tick or completion.
fn drain_queue(sim: &mut Simulation<World>) {
    enum Verdict {
        /// The selection is stale: drop it (src recorded for the log).
        Drop { src: usize },
        /// Start toward this destination.
        Start { src: usize, dest: usize },
        /// No destination right now; keep waiting.
        Hold,
    }
    loop {
        let now = sim.now();
        let vm = {
            let Some(s) = sim.state().sched.as_ref() else {
                return;
            };
            if s.inflight.len() >= s.cfg.max_in_flight {
                return;
            }
            match s.queue.front() {
                Some(&vm) => vm,
                None => return,
            }
        };
        let verdict = {
            let w = sim.state();
            let s = w.sched.as_ref().expect("checked above");
            let src = w.vms[vm].host;
            // The host may have recovered while the VM waited (earlier
            // departures already relieved it), or something else may have
            // migrated the VM meanwhile; in both cases the selection is
            // stale. "Recovered" counts the VMs that would stay — every
            // running VM not itself queued — plus this one.
            let migrating_elsewhere = w.vms[vm].migration.is_some();
            let recovered = s
                .hosts
                .iter()
                .find(|mh| mh.host == src)
                .map(|mh| {
                    let agg: u64 = wssctl::host_wss_of(w, src)
                        .iter()
                        .filter(|v| v.vm as usize == vm || !s.queue.contains(&(v.vm as usize)))
                        .map(|v| v.wss_bytes)
                        .sum();
                    agg <= mh.trigger.low_bytes
                })
                .unwrap_or(false);
            if migrating_elsewhere || recovered {
                Verdict::Drop { src }
            } else {
                match place(w, vm) {
                    Some(dest) => Verdict::Start { src, dest },
                    None => Verdict::Hold,
                }
            }
        };
        match verdict {
            Verdict::Drop { src } => {
                let w = sim.state_mut();
                let s = w.sched.as_mut().expect("checked above");
                s.queue.pop_front();
                s.counters.dropped_recovered += 1;
                s.decisions.push(Decision {
                    at: now,
                    vm,
                    src,
                    dest: None,
                    action: SchedAction::Drop,
                });
                w.trace.record(
                    now,
                    TraceEvent::SchedDecision {
                        vm: vm as u32,
                        src: src as u32,
                        dest: u32::MAX,
                        action: SchedAction::Drop,
                    },
                );
            }
            Verdict::Start { src, dest } => {
                sim.state_mut()
                    .sched
                    .as_mut()
                    .expect("checked above")
                    .queue
                    .pop_front();
                start_scheduled(sim, vm, src, dest);
            }
            Verdict::Hold => return,
        }
    }
}

/// Aggregate tracked WSS (running, non-migrating VMs) of `host`.
pub fn host_aggregate(w: &World, host: usize) -> u64 {
    wssctl::host_wss_of(w, host)
        .iter()
        .map(|v| v.wss_bytes)
        .sum()
}
