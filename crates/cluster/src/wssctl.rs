//! Working-set-tracking executor (§IV-D). The watermark trigger it feeds
//! (§III-B) runs in [`crate::sched`].
//!
//! Per tracked VM, a sampling chain drives a pluggable
//! [`WssEstimator`]: it snapshots the per-VM swap device's cumulative
//! counters (iostat), drains the memory image's simulated-PML epoch
//! tracker when armed, hands both to the estimator, applies the chosen
//! reservation to the cgroup (evictions go to the swap device), and
//! reschedules itself at the estimator's chosen interval. Under the
//! default swap-I/O estimator this is bit-for-bit the legacy α/β/τ
//! chain — 2 s while converging, 30 s once stable.

use agile_sim_core::{FastEvent, SimTime, Simulation};
use agile_wss::{
    ControllerParams, EpochSample, EstimateSignal, PmlEstimator, PmlParams, SwapIoEstimator, VmWss,
    WssEstimator, WssObservation,
};

use crate::config::WssEstimatorKind;
use crate::guest::{evict_with, EvictTarget};
use crate::world::{World, WssExec};

/// Enable WSS tracking on a VM and start the sampling chain at `at`.
/// The estimator comes from the world's [`crate::config::ClusterConfig`]
/// (`wss_estimator`); `params` bounds the reservation either way.
pub fn enable_tracking(
    sim: &mut Simulation<World>,
    vm_idx: usize,
    params: ControllerParams,
    at: SimTime,
) {
    let cfg = sim.state().cfg;
    match cfg.wss_estimator {
        WssEstimatorKind::SwapIo => enable_tracking_with(
            sim,
            vm_idx,
            Box::new(SwapIoEstimator::new(params)),
            None,
            at,
        ),
        WssEstimatorKind::Pml => {
            let pml = PmlParams {
                epoch: cfg.pml_epoch,
                window: cfg.pml_window,
                headroom_num: cfg.pml_headroom_num,
                headroom_den: cfg.pml_headroom_den,
                page_size: cfg.page_size,
                min_bytes: params.min_bytes,
                max_bytes: params.max_bytes,
                ..PmlParams::defaults(cfg.page_size, params.min_bytes, params.max_bytes)
            };
            enable_tracking_with(
                sim,
                vm_idx,
                Box::new(PmlEstimator::new(pml)),
                Some(cfg.pml_log_cap as usize),
                at,
            )
        }
    }
}

/// Enable WSS tracking with an explicit estimator. `epoch_log_cap`
/// arms simulated-PML epoch tracking on the VM's memory image (and
/// re-arms it after migration replaces the image).
pub fn enable_tracking_with(
    sim: &mut Simulation<World>,
    vm_idx: usize,
    estimator: Box<dyn WssEstimator>,
    epoch_log_cap: Option<usize>,
    at: SimTime,
) {
    {
        let w = sim.state_mut();
        let epoch_seen = w.vms[vm_idx].mem_epoch;
        if let Some(cap) = epoch_log_cap {
            w.vms[vm_idx].vm.memory_mut().arm_epoch_tracking(cap);
        }
        w.vms[vm_idx].wss = Some(WssExec {
            estimator,
            epoch_seen,
            epoch_log_cap,
        });
    }
    sim.schedule_fast(at, sample_timer(vm_idx));
}

/// Arm the ground-truth epoch oracle alongside an already-enabled
/// estimator: the memory image's epoch tracker is armed (so every tick
/// drains it and emits a `wss_estimate` trace event with the exact
/// count), but the installed estimator keeps ignoring inputs it does
/// not consume — the swap-I/O arithmetic is unperturbed. Test/bench
/// instrumentation for the accuracy harness.
pub fn arm_oracle(sim: &mut Simulation<World>, vm_idx: usize, log_cap: usize) {
    let w = sim.state_mut();
    let slot = &mut w.vms[vm_idx];
    let wss = slot
        .wss
        .as_mut()
        .expect("arm_oracle requires enable_tracking first");
    wss.epoch_log_cap = Some(log_cap);
    slot.vm.memory_mut().arm_epoch_tracking(log_cap);
}

/// The sampling chain's timer payload.
fn sample_timer(vm_idx: usize) -> FastEvent {
    FastEvent::Timer {
        kind: crate::fast::K_WSS_SAMPLE,
        a: vm_idx as u64,
        b: 0,
    }
}

/// One sampling tick.
pub(crate) fn sample(sim: &mut Simulation<World>, vm_idx: usize) {
    let now = sim.now();
    if sim.state().vms[vm_idx].wss.is_none() {
        return;
    }
    // Above the pool's high water mark, reservation *shrinks* are deferred:
    // they would push evictions into a pool with nowhere to put them.
    let defer_shrink = crate::poolctl::under_pressure(sim.state());
    let (next, resize) = {
        let w = sim.state_mut();
        let slot = &mut w.vms[vm_idx];
        if slot.migration.is_some() || !slot.vm.state().can_execute() {
            // Tracking pauses during migration; resume sampling shortly.
            // Drop the window history now: the first post-resume sample
            // must re-prime rather than average the cumulative counters
            // over the whole paused interval, which would read as a
            // near-zero rate and trigger a bogus shrink.
            slot.wss.as_mut().expect("checked above").estimator.reset();
            (agile_sim_core::SimDuration::from_secs(2), None)
        } else {
            let counters = slot.swap.counters();
            let epoch = slot.mem_epoch;
            let wss = slot.wss.as_mut().expect("checked above");
            if wss.epoch_seen != epoch {
                // The VM resumed on another host between our ticks: the
                // swap-device binding (and its cumulative counters) was
                // replaced under the estimator, so any retained window
                // would difference counters of two different devices.
                // The destination image is a fresh VmMemory, so epoch
                // tracking (when in use) must also be re-armed on it.
                wss.epoch_seen = epoch;
                wss.estimator.reset();
                if let Some(cap) = wss.epoch_log_cap {
                    slot.vm.memory_mut().arm_epoch_tracking(cap);
                }
            }
            // Drain the simulated-PML epoch whenever tracking is armed —
            // estimators that don't consume it (swap-I/O) ignore it, which
            // is what lets the accuracy harness run the ground-truth
            // oracle alongside either estimator without perturbing it.
            let epoch_sample = if slot.vm.memory().epoch_armed() {
                let rep = slot.vm.memory_mut().drain_epoch();
                w.wss_counters.epoch_drains += 1;
                if rep.overflowed {
                    w.wss_counters.pml_overflows += 1;
                }
                Some(EpochSample {
                    pml_pages: rep.pml_pages as u64,
                    exact_pages: rep.distinct_pages as u64,
                    overflowed: rep.overflowed,
                })
            } else {
                None
            };
            let obs = WssObservation {
                io: counters,
                epoch: epoch_sample,
            };
            let current = slot.vm.memory().limit_bytes();
            match wss.estimator.on_tick(now, &obs, current) {
                Some(tick) => {
                    let adj = tick.adjustment;
                    let new_reservation = if defer_shrink && adj.new_reservation < current {
                        if let Some(p) = w.pool.as_mut() {
                            p.counters.deferred_shrinks += 1;
                        }
                        current
                    } else {
                        adj.new_reservation
                    };
                    slot.reservation_series.push(now, new_reservation as f64);
                    let host = slot.host;
                    w.hosts[host]
                        .mem
                        .set_reservation(vm_idx as u64, new_reservation);
                    w.wss_counters.samples += 1;
                    if let EstimateSignal::SwapRate { kbps } = tick.signal {
                        w.trace.record(
                            now,
                            agile_trace::TraceEvent::WssSample {
                                vm: vm_idx as u32,
                                rate_kbps: kbps,
                                reservation: new_reservation,
                                stable: adj.stable,
                            },
                        );
                    }
                    if let Some(ep) = obs.epoch {
                        let est_bytes = wss.estimator.wss_estimate().unwrap_or(new_reservation);
                        w.trace.record(
                            now,
                            agile_trace::TraceEvent::WssEstimate {
                                vm: vm_idx as u32,
                                estimator: wss.estimator.kind(),
                                est_bytes,
                                truth_bytes: ep.exact_pages * w.cfg.page_size,
                                reservation: new_reservation,
                                overflowed: ep.overflowed,
                            },
                        );
                    }
                    (adj.next_sample_in, Some(new_reservation))
                }
                None => {
                    // Still priming (e.g. the swap monitor's first window).
                    slot.reservation_series
                        .push(now, slot.vm.memory().limit_bytes() as f64);
                    (wss.estimator.priming_interval(), None)
                }
            }
        }
    };
    if let Some(bytes) = resize {
        evict_with(sim, EvictTarget::Vm(vm_idx), |e| {
            e.mem.set_limit_bytes(bytes, e.slots, e.evs)
        });
    }
    sim.schedule_fast_in(next, sample_timer(vm_idx));
}

/// The tracked working-set sizes of every running VM on `host`.
pub fn host_wss(sim: &Simulation<World>, host: usize) -> Vec<VmWss> {
    host_wss_of(sim.state(), host)
}

/// Like [`host_wss`], over a `&World` (for callers already holding state).
pub fn host_wss_of(world: &World, host: usize) -> Vec<VmWss> {
    world
        .vms
        .iter()
        .enumerate()
        .filter(|(_, s)| s.host == host && s.vm.state().can_execute() && s.migration.is_none())
        .map(|(i, s)| VmWss {
            vm: i as u32,
            wss_bytes: s.vm.memory().limit_bytes(),
        })
        .collect()
}
