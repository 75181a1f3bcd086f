//! # agile-chaos
//!
//! Deterministic fault injection for the simulated testbed.
//!
//! The paper's Agile design widens a VM's failure domain from one host to
//! many: cold pages live on *intermediate* hosts (VMD servers), so an
//! intermediate-host crash mid-migration is a first-class event the system
//! must survive. This crate turns that question into reproducible
//! experiments: a [`ChaosSchedule`] is a **seeded, pre-compiled list of
//! fault events with absolute simulation times** that the cluster executor
//! replays as ordinary DES events. Faults are therefore part of the
//! deterministic event stream — identical seeds give byte-identical runs,
//! fault included, which is what lets the golden-trace test pin chaos runs
//! down.
//!
//! Two ways to build a schedule:
//!
//! * [`ChaosSchedule::builder`] — explicit, scripted faults ("crash server
//!   1 at t=42s, rejoin at t=55s").
//! * [`ChaosSchedule::generate`] — draw a schedule from a [`ChaosProfile`]
//!   (counts and mean durations) using a labelled RNG stream, for
//!   property-style sweeps over many interleavings.
//!
//! The crate is deliberately sans-everything: no knowledge of the cluster
//! wiring. Targets are named by small indices (server index, host index,
//! migration index) that the executor maps onto its own state.

#![forbid(unsafe_code)]

use agile_sim_core::{SeedSequence, SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// An intermediate (VMD server) host crashes: its DRAM contents are
    /// lost and it stops answering until it rejoins.
    ServerCrash {
        /// Index of the VMD server (executor order).
        server: u32,
    },
    /// A previously-crashed server rejoins, empty. Availability gossip
    /// resumes and clears its suspect mark at the clients.
    ServerRejoin {
        /// Index of the VMD server (executor order).
        server: u32,
    },
    /// A host's NIC degrades to `bw_permille`/1000 of its nominal
    /// bandwidth (0 = full partition: the host is unreachable).
    NicDegrade {
        /// Index of the host (executor order).
        host: u32,
        /// Remaining bandwidth, in thousandths of nominal.
        bw_permille: u32,
    },
    /// The host's NIC returns to nominal bandwidth.
    NicRestore {
        /// Index of the host (executor order).
        host: u32,
    },
    /// A host's local swap device develops a latency spike: every I/O
    /// completion is delayed by `extra_us` microseconds.
    SwapSlow {
        /// Index of the host (executor order).
        host: u32,
        /// Added per-I/O latency, microseconds.
        extra_us: u64,
    },
    /// The host's swap device returns to nominal latency.
    SwapRestore {
        /// Index of the host (executor order).
        host: u32,
    },
    /// The TCP connections of an in-flight migration drop. Before the
    /// destination has resumed this aborts the attempt (rollback + retry
    /// with backoff); after resume the destination keeps running and
    /// demand-pages from the per-VM swap device.
    MigrationConnDrop {
        /// Index of the migration (executor order).
        mig: u32,
    },
}

/// A fault with its absolute injection time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A compiled fault schedule: events sorted by time (ties keep insertion
/// order, so schedules are total orders and replay deterministically).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosSchedule {
    events: Vec<FaultEvent>,
}

impl ChaosSchedule {
    /// An empty schedule (injects nothing; a run with an empty schedule is
    /// event-for-event identical to a run without chaos wiring).
    pub fn none() -> Self {
        ChaosSchedule::default()
    }

    /// Start building an explicit schedule.
    pub fn builder() -> ChaosScheduleBuilder {
        ChaosScheduleBuilder::default()
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Draw a schedule from `profile` using the `"chaos"` stream of
    /// `seeds`. Identical `(profile, master seed)` pairs give identical
    /// schedules; categories are drawn in a fixed order so adding events
    /// of one kind never perturbs another kind's draws.
    pub fn generate(profile: &ChaosProfile, seeds: &SeedSequence) -> ChaosSchedule {
        let mut b = ChaosSchedule::builder();
        let horizon_us =
            profile.window_end.as_nanos() / 1_000 - profile.window_start.as_nanos() / 1_000;
        if horizon_us == 0 {
            return b.build();
        }
        let draw_at = |rng: &mut agile_sim_core::DetRng| {
            profile.window_start + SimDuration::from_micros(rng.index(horizon_us))
        };

        let mut rng = seeds.stream("chaos.server_crash");
        for _ in 0..profile.server_crashes {
            let server = rng.index(profile.n_servers.max(1) as u64) as u32;
            let at = draw_at(&mut rng);
            let down_us = rng.exponential((profile.mean_downtime.as_nanos() / 1_000) as f64) as u64;
            b = b.fault(at, FaultKind::ServerCrash { server });
            if profile.rejoin {
                b = b.fault(
                    at + SimDuration::from_micros(down_us.max(1)),
                    FaultKind::ServerRejoin { server },
                );
            }
        }

        let mut rng = seeds.stream("chaos.nic");
        for _ in 0..profile.nic_degradations {
            let host = rng.index(profile.n_hosts.max(1) as u64) as u32;
            let at = draw_at(&mut rng);
            let dur_us =
                rng.exponential((profile.mean_fault_duration.as_nanos() / 1_000) as f64) as u64;
            // Half the degradations are full partitions, half keep 10–50%.
            let bw_permille = if rng.chance(0.5) {
                0
            } else {
                100 + rng.index(400) as u32
            };
            b = b.fault(at, FaultKind::NicDegrade { host, bw_permille });
            b = b.fault(
                at + SimDuration::from_micros(dur_us.max(1)),
                FaultKind::NicRestore { host },
            );
        }

        let mut rng = seeds.stream("chaos.swap");
        for _ in 0..profile.swap_spikes {
            let host = rng.index(profile.n_hosts.max(1) as u64) as u32;
            let at = draw_at(&mut rng);
            let dur_us =
                rng.exponential((profile.mean_fault_duration.as_nanos() / 1_000) as f64) as u64;
            let extra_us = 200 + rng.index(4800);
            b = b.fault(at, FaultKind::SwapSlow { host, extra_us });
            b = b.fault(
                at + SimDuration::from_micros(dur_us.max(1)),
                FaultKind::SwapRestore { host },
            );
        }

        let mut rng = seeds.stream("chaos.conn");
        for _ in 0..profile.conn_drops {
            let at = draw_at(&mut rng);
            b = b.fault(at, FaultKind::MigrationConnDrop { mig: 0 });
        }

        b.build()
    }
}

/// Builder for explicit fault schedules.
#[derive(Clone, Debug, Default)]
pub struct ChaosScheduleBuilder {
    events: Vec<FaultEvent>,
}

impl ChaosScheduleBuilder {
    /// Add one fault at an absolute time.
    pub fn fault(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Convenience: crash `server` at `at` and rejoin it `downtime` later.
    pub fn server_outage(self, server: u32, at: SimTime, downtime: SimDuration) -> Self {
        self.fault(at, FaultKind::ServerCrash { server })
            .fault(at + downtime, FaultKind::ServerRejoin { server })
    }

    /// Finish: sort by time, keeping insertion order among ties.
    pub fn build(self) -> ChaosSchedule {
        let mut indexed: Vec<(usize, FaultEvent)> = self.events.into_iter().enumerate().collect();
        indexed.sort_by_key(|(i, ev)| (ev.at, *i));
        ChaosSchedule {
            events: indexed.into_iter().map(|(_, ev)| ev).collect(),
        }
    }
}

/// Parameters for randomly-drawn schedules (property sweeps). Events are
/// drawn uniformly inside `[window_start, window_end)`; durations are
/// exponential around their means.
#[derive(Clone, Copy, Debug)]
pub struct ChaosProfile {
    /// Earliest fault injection time.
    pub window_start: SimTime,
    /// Latest fault injection time (exclusive).
    pub window_end: SimTime,
    /// Number of VMD servers fault targets are drawn from.
    pub n_servers: u32,
    /// Number of hosts NIC/swap fault targets are drawn from.
    pub n_hosts: u32,
    /// Server crash events to draw.
    pub server_crashes: u32,
    /// Whether crashed servers rejoin (after an exponential downtime).
    pub rejoin: bool,
    /// Mean downtime before a crashed server rejoins.
    pub mean_downtime: SimDuration,
    /// NIC degradation/partition episodes to draw.
    pub nic_degradations: u32,
    /// Swap-device latency spike episodes to draw.
    pub swap_spikes: u32,
    /// Migration connection drops to draw.
    pub conn_drops: u32,
    /// Mean duration of NIC and swap episodes.
    pub mean_fault_duration: SimDuration,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            window_start: SimTime::ZERO,
            window_end: SimTime::from_secs(60),
            n_servers: 1,
            n_hosts: 1,
            server_crashes: 0,
            rejoin: true,
            mean_downtime: SimDuration::from_secs(10),
            nic_degradations: 0,
            swap_spikes: 0,
            conn_drops: 0,
            mean_fault_duration: SimDuration::from_secs(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_by_time_stably() {
        let s = ChaosSchedule::builder()
            .fault(SimTime::from_secs(5), FaultKind::ServerCrash { server: 1 })
            .fault(SimTime::from_secs(2), FaultKind::NicRestore { host: 0 })
            .fault(SimTime::from_secs(5), FaultKind::ServerRejoin { server: 1 })
            .build();
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0].kind, FaultKind::NicRestore { host: 0 });
        // Ties keep insertion order: crash before rejoin.
        assert_eq!(s.events()[1].kind, FaultKind::ServerCrash { server: 1 });
        assert_eq!(s.events()[2].kind, FaultKind::ServerRejoin { server: 1 });
    }

    #[test]
    fn outage_helpers_pair_up() {
        let s = ChaosSchedule::builder()
            .server_outage(0, SimTime::from_secs(1), SimDuration::from_secs(3))
            .build();
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].at, SimTime::from_secs(1));
        assert_eq!(s.events()[1].at, SimTime::from_secs(4));
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let profile = ChaosProfile {
            n_servers: 3,
            n_hosts: 4,
            server_crashes: 2,
            nic_degradations: 2,
            swap_spikes: 1,
            conn_drops: 1,
            ..ChaosProfile::default()
        };
        let a = ChaosSchedule::generate(&profile, &SeedSequence::new(42));
        let b = ChaosSchedule::generate(&profile, &SeedSequence::new(42));
        assert_eq!(a, b, "same seed, same schedule");
        let c = ChaosSchedule::generate(&profile, &SeedSequence::new(43));
        assert_ne!(a, c, "different seed, different schedule");
        // 2 crash+rejoin pairs, 2 degrade+restore pairs, 1 slow+restore
        // pair, 1 connection drop.
        assert_eq!(a.len(), 2 * 2 + 2 * 2 + 2 + 1);
    }

    #[test]
    fn generated_events_sit_inside_the_window() {
        let profile = ChaosProfile {
            window_start: SimTime::from_secs(10),
            window_end: SimTime::from_secs(20),
            n_servers: 2,
            n_hosts: 2,
            server_crashes: 5,
            rejoin: false,
            nic_degradations: 0,
            swap_spikes: 0,
            conn_drops: 0,
            ..ChaosProfile::default()
        };
        let s = ChaosSchedule::generate(&profile, &SeedSequence::new(7));
        assert_eq!(s.len(), 5);
        for ev in s.events() {
            assert!(ev.at >= SimTime::from_secs(10));
            assert!(ev.at < SimTime::from_secs(20));
            assert!(matches!(ev.kind, FaultKind::ServerCrash { .. }));
        }
    }

    #[test]
    fn empty_profile_injects_nothing() {
        let s = ChaosSchedule::generate(&ChaosProfile::default(), &SeedSequence::new(1));
        assert!(s.is_empty());
        assert!(ChaosSchedule::none().is_empty());
    }
}
