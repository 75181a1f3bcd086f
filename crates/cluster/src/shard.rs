//! Sharded parallel execution with conservative epoch synchronization.
//!
//! A *shard* is one complete world — its own event queue, hosts, VM
//! slots, fluid network, and VMD traffic — so all intra-shard simulation
//! is the ordinary single-threaded executor, untouched. Cross-shard
//! coupling goes through one explicit boundary: in-world code pushes
//! [`BoundaryMsg`]s into its [`BoundaryState::outbox`]; the harness
//! drains every outbox at an *epoch barrier*, merges the messages in the
//! deterministic order `(send_time, shard_id, seq)`, hands them to a
//! [`Coordinator`], and schedules the coordinator's [`GlobalSignal`]s
//! back into target shards one full lookahead later.
//!
//! # Conservative lookahead
//!
//! Shards advance independently up to `epoch_start + lookahead` and then
//! synchronize. Because a signal emitted from epoch *k*'s merge is
//! delivered at `epoch_end + lookahead` — i.e. no earlier than the end of
//! epoch *k+1* — no shard ever receives a message in simulated time it
//! has already executed past. `lookahead` is therefore the minimum
//! cross-shard latency: the classic conservative-PDES contract
//! (null-message-free because barriers are global).
//!
//! # Determinism at any worker count
//!
//! The `workers` knob maps shards onto OS threads and nothing else.
//! Logical shards are fixed by construction (one world per rack),
//! barriers are global, outboxes are drained in shard order, and the
//! merge sort key is independent of thread scheduling — so a run with 1
//! worker and a run with 16 produce byte-identical worlds, traces, and
//! reports. The equivalence tests pin this at 1, 2, and 4 workers.

use std::time::{Duration, Instant};

use agile_sim_core::{SimDuration, SimTime, Simulation};

use crate::world::World;

/// A message crossing the shard boundary, drained at the next barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundaryMsg {
    /// Periodic per-rack load report for the cluster coordinator.
    LoadReport {
        /// Reporting rack (== shard id).
        rack: usize,
        /// Sum of managed-host aggregate WSS (bytes).
        aggregate: u64,
        /// Managed hosts currently above their high watermark.
        hot_hosts: u32,
        /// Migrations started on this rack so far.
        migrations: u64,
    },
    /// The rack's scheduler has nothing queued or in flight.
    Quiesced {
        /// Reporting rack.
        rack: usize,
    },
}

/// A control signal the coordinator injects into a shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalSignal {
    /// Cluster-wide load summary, delivered to every rack.
    ClusterLoad {
        /// Mean managed-host aggregate across all racks (bytes).
        mean_aggregate: u64,
        /// Racks reporting at least one hot host.
        hot_racks: u32,
    },
}

/// Per-world boundary state. Empty — and free — when the world runs
/// standalone outside a sharded harness.
#[derive(Debug, Default)]
pub struct BoundaryState {
    /// Outgoing `(send_time, message)` pairs; in-world code appends in
    /// event-execution order, the harness drains at each barrier.
    pub outbox: Vec<(SimTime, BoundaryMsg)>,
    /// Signals received from the coordinator, in delivery order.
    pub signals: Vec<(SimTime, GlobalSignal)>,
}

/// One boundary message after the deterministic epoch merge.
#[derive(Clone, Debug)]
pub struct MergedMsg {
    /// Simulated send instant.
    pub time: SimTime,
    /// Emitting shard.
    pub shard: usize,
    /// Merge sequence number (emission order within the epoch).
    pub seq: u64,
    /// The message.
    pub msg: BoundaryMsg,
}

/// The cross-shard decision maker, invoked once per epoch barrier with
/// the merged message stream.
pub trait Coordinator {
    /// Consume this epoch's messages (sorted by `(time, shard, seq)`) and
    /// return `(target shard, signal)` pairs. Each signal is delivered at
    /// `epoch_end + lookahead`, which every shard has yet to simulate.
    fn merge(&mut self, epoch_end: SimTime, msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)>;
}

/// A coordinator that never replies — fully independent shards
/// (replicated scenario runs).
pub struct NullCoordinator;

impl Coordinator for NullCoordinator {
    fn merge(&mut self, _epoch_end: SimTime, _msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)> {
        Vec::new()
    }
}

/// A shard: one complete, closed world, movable to a worker thread.
///
/// The VMD directory, clients and servers, each host's SSD and every
/// swap-slot allocator have one owner, the world, and are `Send`, as are
/// the WSS estimators. `Simulation<World>` is still `!Send` because of
/// exactly these, none of which crosses worlds:
///
/// * boxed event closures (`Box<dyn FnOnce>` carries no `Send` bound);
/// * the clone controller's `CloneCtlConfig::make_workload` factory, an
///   `Rc<dyn Fn>`;
/// * the `Rc`'d bindings that `scenario::schedule_step_signals` closures
///   capture.
///
/// Each such value is created inside the world it belongs to (by
/// `ClusterBuilder`, a scenario's set-up or a controller), and nothing
/// ever hands one (or a closure capturing one) across worlds:
/// cross-shard traffic is the plain-data [`BoundaryMsg`]/[`GlobalSignal`]
/// values only.
///
/// The harness keeps the cells in one `Vec` and runs neighbours on
/// different threads, so each cell starts on its own 128-byte boundary
/// (two cache lines, for the adjacent-line prefetcher). Otherwise the hot
/// fields at one world's end and the next world's start can share a line,
/// depending on `World`'s layout: on a 2-vCPU host, one added `Host` field
/// made `diurnal_ycsb` and `clone_crowd` ~35 % slower.
#[repr(align(128))]
pub struct ShardCell(pub Simulation<World>);

// SAFETY: each cell's `!Send` values (listed on the type) are reachable
// from that cell only, and the harness hands each cell to at most one
// worker thread per epoch via disjoint `chunks_mut` borrows under
// `std::thread::scope`, so no two threads ever touch the same world's
// reference counts concurrently — which is exactly the exclusive-access
// guarantee moving a `Send` value encodes. This is the crate's only
// `unsafe`: `lib.rs` denies it everywhere else.
#[allow(unsafe_code)]
unsafe impl Send for ShardCell {}

/// Wall-clock accounting for one sharded run. Measurement only — never
/// part of any deterministic output.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Per-shard busy wall time summed over epochs.
    pub shard_busy: Vec<Duration>,
    /// Sum over epochs of the slowest shard's time — the floor a
    /// perfectly parallel executor cannot beat.
    pub critical_path: Duration,
}

impl RunStats {
    /// Total busy wall time across every shard.
    pub fn busy_total(&self) -> Duration {
        self.shard_busy.iter().sum()
    }

    /// Available parallelism: total busy work over the critical path —
    /// the speedup a machine with enough cores could extract from this
    /// decomposition, independent of how many cores this machine has.
    pub fn available_parallelism(&self) -> f64 {
        let cp = self.critical_path.as_secs_f64();
        if cp <= 0.0 {
            1.0
        } else {
            self.busy_total().as_secs_f64() / cp
        }
    }
}

/// A set of shards advancing in lockstep epochs.
pub struct ShardedRun {
    cells: Vec<ShardCell>,
    lookahead: SimDuration,
}

impl ShardedRun {
    /// Wrap `worlds` as shards 0..n. `lookahead` is the epoch length and
    /// the minimum cross-shard signal latency; it must not exceed the
    /// real coupling latency the scenario's boundary traffic assumes.
    pub fn new(worlds: Vec<Simulation<World>>, lookahead: SimDuration) -> Self {
        let cells = worlds
            .into_iter()
            .enumerate()
            .map(|(i, mut sim)| {
                sim.state_mut().shard_id = i;
                ShardCell(sim)
            })
            .collect();
        ShardedRun { cells, lookahead }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the run holds no shards.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Direct access to one shard's simulation (setup, inspection).
    pub fn shard(&mut self, i: usize) -> &mut Simulation<World> {
        &mut self.cells[i].0
    }

    /// Run epochs until every shard's `done` predicate holds at a barrier
    /// or the deadline is reached. A shard whose predicate fires is
    /// frozen — it stops advancing while the rest finish. `workers` is
    /// purely a wall-clock knob; see the module docs.
    pub fn run(
        &mut self,
        workers: usize,
        deadline: SimTime,
        coordinator: &mut dyn Coordinator,
        mut done: impl FnMut(usize, &mut Simulation<World>) -> bool,
    ) -> RunStats {
        let n = self.cells.len();
        let mut active = vec![true; n];
        let mut stats = RunStats {
            epochs: 0,
            shard_busy: vec![Duration::ZERO; n],
            critical_path: Duration::ZERO,
        };
        let mut seq = 0u64;
        let mut epoch_start = SimTime::ZERO;
        while active.iter().any(|&a| a) {
            let target = (epoch_start + self.lookahead).min(deadline);
            let epoch_times = advance(&mut self.cells, &active, workers, target);
            stats.epochs += 1;
            let mut slowest = Duration::ZERO;
            for (busy, t) in stats.shard_busy.iter_mut().zip(&epoch_times) {
                *busy += *t;
                slowest = slowest.max(*t);
            }
            stats.critical_path += slowest;

            // Deterministic merge: drain outboxes in shard order, stamp
            // sequence numbers, sort by (send time, shard, seq). Nothing
            // here depends on worker count or thread interleaving.
            let mut merged: Vec<MergedMsg> = Vec::new();
            for (i, cell) in self.cells.iter_mut().enumerate() {
                for (time, msg) in cell.0.state_mut().boundary.outbox.drain(..) {
                    merged.push(MergedMsg {
                        time,
                        shard: i,
                        seq,
                        msg,
                    });
                    seq += 1;
                }
            }
            merged.sort_by_key(|m| (m.time, m.shard, m.seq));
            let deliver_at = target + self.lookahead;
            for (shard, sig) in coordinator.merge(target, &merged) {
                self.cells[shard].0.schedule_at(deliver_at, move |sim| {
                    let now = sim.now();
                    sim.state_mut().boundary.signals.push((now, sig));
                });
            }

            for (i, cell) in self.cells.iter_mut().enumerate() {
                if active[i] && done(i, &mut cell.0) {
                    active[i] = false;
                }
            }
            if target >= deadline {
                break;
            }
            epoch_start = target;
        }
        stats
    }

    /// Unwrap the shards back into plain simulations, in shard order.
    pub fn into_worlds(self) -> Vec<Simulation<World>> {
        self.cells.into_iter().map(|c| c.0).collect()
    }
}

/// Advance every active cell to `target`, distributing cells over at most
/// `workers` OS threads. Returns each shard's wall time for this epoch.
fn advance(
    cells: &mut [ShardCell],
    active: &[bool],
    workers: usize,
    target: SimTime,
) -> Vec<Duration> {
    let n = cells.len();
    let workers = workers.clamp(1, n.max(1));
    let mut times = vec![Duration::ZERO; n];
    if workers <= 1 {
        for ((cell, &a), t) in cells.iter_mut().zip(active).zip(times.iter_mut()) {
            if a {
                let t0 = Instant::now();
                cell.0.run_until(target);
                *t = t0.elapsed();
            }
        }
        return times;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        for ((cc, ac), tc) in cells
            .chunks_mut(chunk)
            .zip(active.chunks(chunk))
            .zip(times.chunks_mut(chunk))
        {
            s.spawn(move || {
                for ((cell, &a), t) in cc.iter_mut().zip(ac).zip(tc.iter_mut()) {
                    if a {
                        let t0 = Instant::now();
                        cell.0.run_until(target);
                        *t = t0.elapsed();
                    }
                }
            });
        }
    });
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ClusterBuilder;
    use crate::config::ClusterConfig;
    use agile_sim_core::GIB;

    fn empty_world(seed: u64) -> Simulation<World> {
        let b = ClusterBuilder::new(ClusterConfig {
            seed,
            ..ClusterConfig::default()
        });
        b.build()
    }

    #[test]
    fn merge_orders_by_time_then_shard_then_seq() {
        struct Capture(Vec<(u64, usize, BoundaryMsg)>);
        impl Coordinator for Capture {
            fn merge(&mut self, _end: SimTime, msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)> {
                self.0.extend(
                    msgs.iter()
                        .map(|m| (m.time.as_nanos(), m.shard, m.msg.clone())),
                );
                Vec::new()
            }
        }
        let mut run = ShardedRun::new(
            vec![empty_world(1), empty_world(2)],
            SimDuration::from_secs(1),
        );
        // Shard 1 emits earlier in simulated time than shard 0; shard 0
        // emits twice at the same instant (seq breaks the tie in emission
        // order).
        run.shard(0).schedule_at(SimTime::from_millis(500), |sim| {
            let now = sim.now();
            let out = &mut sim.state_mut().boundary.outbox;
            out.push((now, BoundaryMsg::Quiesced { rack: 10 }));
            out.push((now, BoundaryMsg::Quiesced { rack: 11 }));
        });
        run.shard(1).schedule_at(SimTime::from_millis(100), |sim| {
            let now = sim.now();
            sim.state_mut()
                .boundary
                .outbox
                .push((now, BoundaryMsg::Quiesced { rack: 20 }));
        });
        let mut cap = Capture(Vec::new());
        run.run(2, SimTime::from_secs(1), &mut cap, |_, sim| {
            sim.now() >= SimTime::from_secs(1)
        });
        let racks: Vec<usize> = cap
            .0
            .iter()
            .map(|(_, _, m)| match m {
                BoundaryMsg::Quiesced { rack } => *rack,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(racks, vec![20, 10, 11]);
        assert!(cap.0[0].0 < cap.0[1].0);
    }

    #[test]
    fn signals_arrive_one_lookahead_after_the_barrier() {
        struct Echo;
        impl Coordinator for Echo {
            fn merge(&mut self, _end: SimTime, msgs: &[MergedMsg]) -> Vec<(usize, GlobalSignal)> {
                msgs.iter()
                    .map(|_| {
                        (
                            0usize,
                            GlobalSignal::ClusterLoad {
                                mean_aggregate: 7,
                                hot_racks: 1,
                            },
                        )
                    })
                    .collect()
            }
        }
        let mut run = ShardedRun::new(vec![empty_world(3)], SimDuration::from_secs(1));
        run.shard(0).schedule_at(SimTime::from_millis(250), |sim| {
            let now = sim.now();
            sim.state_mut()
                .boundary
                .outbox
                .push((now, BoundaryMsg::Quiesced { rack: 0 }));
        });
        run.run(1, SimTime::from_secs(3), &mut Echo, |_, sim| {
            sim.now() >= SimTime::from_secs(3)
        });
        let worlds = run.into_worlds();
        let signals = &worlds[0].state().boundary.signals;
        assert_eq!(signals.len(), 1);
        // Barrier at t=1s, delivery one lookahead later.
        assert_eq!(signals[0].0, SimTime::from_secs(2));
    }

    #[test]
    fn idle_shard_schedules_zero_net_polls() {
        // A shard with hosts but no traffic must never arm a poll event;
        // a busy neighbor polling its own network must not change that.
        use agile_sim_core::MIB;
        use agile_vm::VmConfig;
        use agile_workload::{Dataset, KeyDist, YcsbParams, YcsbRedis};

        let mut busy_b = ClusterBuilder::new(ClusterConfig {
            seed: 7,
            ..ClusterConfig::default()
        });
        let page = busy_b.world().cfg.page_size;
        let host = busy_b.add_host("work", GIB, 32 * MIB, true);
        let client_host = busy_b.add_host("client", GIB, 32 * MIB, false);
        let vm = busy_b.add_vm(
            host,
            VmConfig {
                mem_bytes: 256 * MIB,
                page_size: page,
                vcpus: 1,
                reservation_bytes: 256 * MIB,
                guest_os_bytes: 16 * MIB,
            },
            crate::build::SwapKind::HostSsd,
        );
        let (index_region, data_region) = {
            let layout = busy_b.world_mut().vms[vm].vm.layout_mut();
            let idx = layout.alloc_region("redis-index", 64);
            let dat = layout.alloc_region("redis-data", 4096);
            (idx, dat)
        };
        let dataset = Dataset::new(data_region, 8192, 1024, page);
        let model = YcsbRedis::new(
            dataset,
            index_region,
            KeyDist::UniformPrefix,
            YcsbParams::update_heavy(),
        );
        busy_b.attach_workload(vm, client_host, crate::world::WorkloadKind::Ycsb(model));
        busy_b.preload_layout(vm);
        let mut busy = busy_b.build();
        crate::build::start_all_workloads(&mut busy, SimTime::from_millis(10));

        let mut idle_b = ClusterBuilder::new(ClusterConfig {
            seed: 8,
            ..ClusterConfig::default()
        });
        idle_b.add_host("quiet", GIB, 0, false);
        let idle = idle_b.build();

        let mut run = ShardedRun::new(vec![busy, idle], SimDuration::from_secs(1));
        run.run(2, SimTime::from_secs(2), &mut NullCoordinator, |_, sim| {
            sim.now() >= SimTime::from_secs(2)
        });
        let worlds = run.into_worlds();
        assert!(worlds[0].state().netdrv.polls > 0, "busy shard polled");
        assert_eq!(
            worlds[1].state().netdrv.polls,
            0,
            "idle shard must schedule zero net-poll events"
        );
        assert_eq!(worlds[1].state().netdrv.armed, None);
    }
}
