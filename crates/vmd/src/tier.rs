//! The swap **tier stack**: an ordered list of page stores a VMD server
//! places pages into, fastest first.
//!
//! PR 5 bolted a single disk tier onto the server as a hardcoded escape
//! valve (`Tier::Memory | Tier::Disk`). Real cloud swap backends are
//! multi-tier — zswap-like compressed local memory, remote DRAM, SSD,
//! CXL-like far memory — with page heat deciding placement (*Flexible
//! Swapping for the Cloud*, *HMM-V*). This module generalizes the pair
//! into a configurable stack:
//!
//! * [`TierSpec`] — one level: capacity, backing device, nominal cost.
//! * [`TierStackConfig`] — the `Copy` cluster-level description resolved
//!   per server (capacities may be expressed as "the server's DRAM/disk
//!   contribution").
//! * [`HeatPolicy`] — decayed per-page access counters driving promotion
//!   on hit; disabled by default, the paper's VMD policy (promote on
//!   any hit).
//! * [`TierLedger`] — checked per-tier occupancy accounting. The old
//!   `mem_used -= 1` / `disk_used -= 1` scattered through retain closures
//!   could silently wrap in release builds when a purge raced a demotion;
//!   every decrement now flows through [`TierLedger::remove`], which
//!   debug-asserts and saturates.
//!
//! Placement policy (uniform across stacks, which is what makes a tier
//! split metamorphically invisible — see the tests):
//!
//! * **Promotion** moves a hit page to the *cheapest tier with headroom
//!   that is strictly cheaper* than its current tier — not "one level
//!   up". Two adjacent tiers with identical cost therefore behave exactly
//!   like one merged tier.
//! * **Spill/demotion** targets the cheapest tier with headroom that is
//!   strictly costlier than the source (index order = cost order).

use agile_sim_core::SimDuration;

/// Maximum number of tiers a stack may carry. Fixed so the cluster-level
/// [`TierStackConfig`] stays `Copy` inside `ClusterConfig`.
pub const MAX_TIERS: usize = 4;

/// How a tier's capacity is sized when the stack is resolved per server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TierCapacity {
    /// The server's leased DRAM contribution (the `mem_bytes` argument of
    /// `add_vmd_server`).
    MemContribution,
    /// The server's disk contribution (the `disk_bytes` argument).
    DiskContribution,
    /// A fraction (numerator / denominator) of the server's DRAM
    /// contribution — e.g. a zswap arena carved out of the same DRAM.
    MemFraction(u32, u32),
    /// An absolute page count, independent of the server's contributions.
    Pages(u64),
}

/// The device behind a tier — decides how the executor charges time for
/// an access that is *served* from this tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TierBacking {
    /// Raw server DRAM: nothing beyond the server's lookup delay.
    Dram,
    /// The host's shared SSD block device: accesses queue on the real
    /// [`agile_memory::BlockDevice`], so contention and queueing delays
    /// emerge (the default stack's disk tier).
    HostSsd,
    /// A fixed-function device — zswap codec, CXL far memory: every
    /// access pays `latency + page_size / bandwidth`, no queueing.
    Fixed {
        /// Per-page read time.
        read: SimDuration,
        /// Per-page write time.
        write: SimDuration,
    },
}

/// One level of the tier stack, as configured cluster-wide.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TierSpec {
    /// How big this tier is on each server.
    pub capacity: TierCapacity,
    /// The device serving it.
    pub backing: TierBacking,
    /// Nominal per-page read cost used to *rank* tiers (promotion and
    /// demotion targets, the pool manager's relocate-vs-demote decision).
    /// Never charged directly — [`TierBacking`] decides charged time.
    pub read_cost: SimDuration,
}

/// Nominal SSD page-read cost used for ranking the host-SSD disk tier
/// (roughly a SATA-SSD random 4K read; the *charged* time still comes
/// from the host's queued block device).
pub const NOMINAL_SSD_READ: SimDuration = SimDuration::from_micros(90);

impl TierSpec {
    /// The raw-DRAM head tier sized to the server's memory contribution.
    pub fn dram() -> Self {
        TierSpec {
            capacity: TierCapacity::MemContribution,
            backing: TierBacking::Dram,
            read_cost: SimDuration::ZERO,
        }
    }

    /// The disk tier: the server's disk contribution on the host's
    /// queued SSD.
    pub fn host_ssd() -> Self {
        TierSpec {
            capacity: TierCapacity::DiskContribution,
            backing: TierBacking::HostSsd,
            read_cost: NOMINAL_SSD_READ,
        }
    }

    /// A zswap-like compressed-memory tier: a fraction of the server's
    /// DRAM contribution behind a fixed (de)compression cost.
    pub fn zswap(num: u32, den: u32, decompress: SimDuration, compress: SimDuration) -> Self {
        TierSpec {
            capacity: TierCapacity::MemFraction(num, den),
            backing: TierBacking::Fixed {
                read: decompress,
                write: compress,
            },
            read_cost: decompress,
        }
    }

    /// A CXL-like far-memory tier: `pages` of capacity at a fixed
    /// per-page latency plus the page transfer at `bandwidth_bytes_per_s`.
    pub fn far_memory(
        pages: u64,
        latency: SimDuration,
        bandwidth_bytes_per_s: u64,
        page_size: u64,
    ) -> Self {
        let xfer_ns = page_size.saturating_mul(1_000_000_000) / bandwidth_bytes_per_s.max(1);
        let per_page = latency + SimDuration::from_nanos(xfer_ns);
        TierSpec {
            capacity: TierCapacity::Pages(pages),
            backing: TierBacking::Fixed {
                read: per_page,
                write: per_page,
            },
            read_cost: per_page,
        }
    }

    /// Resolve the configured capacity against a server's contributions.
    pub fn capacity_pages(&self, mem_pages: u64, disk_pages: u64) -> u64 {
        match self.capacity {
            TierCapacity::MemContribution => mem_pages,
            TierCapacity::DiskContribution => disk_pages,
            TierCapacity::MemFraction(num, den) => {
                mem_pages * u64::from(num) / u64::from(den.max(1))
            }
            TierCapacity::Pages(n) => n,
        }
    }
}

/// Decayed per-page access-counter policy.
///
/// Heat is a small EWMA updated on every read or overwrite hit:
/// `heat ← heat − (heat >> decay_shift) + hit_weight`, and ranking reads
/// apply an age decay of one halving per `half_life_accesses` server
/// accesses since the page was last touched. With `enabled = false`
/// (default, the paper's VMD policy) pages carry no heat: promote on any
/// hit when the head tier has headroom, pick demotion victims in
/// coldest-*namespace* order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HeatPolicy {
    /// Heat-driven placement on. Off = the paper's VMD policy.
    pub enabled: bool,
    /// Heat added by one hit.
    pub hit_weight: u16,
    /// EWMA decay shift applied per hit.
    pub decay_shift: u8,
    /// Minimum decayed heat before a hit page is promoted.
    pub promote_min_heat: u16,
    /// Age (in server-wide accesses since last touch) that halves a
    /// page's effective heat when ranking victims.
    pub half_life_accesses: u32,
}

impl Default for HeatPolicy {
    fn default() -> Self {
        HeatPolicy {
            enabled: false,
            hit_weight: 16,
            decay_shift: 2,
            promote_min_heat: 24,
            half_life_accesses: 1024,
        }
    }
}

impl HeatPolicy {
    /// The heat-driven policy with default constants.
    pub fn heat_driven() -> Self {
        HeatPolicy {
            enabled: true,
            ..HeatPolicy::default()
        }
    }

    /// One hit's EWMA update.
    #[inline]
    pub fn bump(&self, heat: u16) -> u16 {
        heat.saturating_sub(heat >> self.decay_shift)
            .saturating_add(self.hit_weight)
    }

    /// Effective heat of a page last touched `age` server accesses ago.
    #[inline]
    pub fn decayed(&self, heat: u16, age: u32) -> u16 {
        let halvings = (age / self.half_life_accesses.max(1)).min(15);
        heat >> halvings
    }
}

/// The cluster-wide tier-stack description: `Copy`, bounded by
/// [`MAX_TIERS`], resolved per server against its contributions. The
/// default is the paper's VMD stack: the server's DRAM contribution plus
/// its host-SSD disk contribution, heat off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TierStackConfig {
    tiers: [TierSpec; MAX_TIERS],
    len: u8,
    /// The heat policy every server in the cluster runs.
    pub heat: HeatPolicy,
}

impl TierStackConfig {
    /// A stack from explicit tiers. Tier 0 must be the raw-DRAM head
    /// (the lease applies to it); costs must be non-decreasing.
    pub fn new(tiers: &[TierSpec], heat: HeatPolicy) -> Self {
        assert!(
            !tiers.is_empty() && tiers.len() <= MAX_TIERS,
            "tier stack must have 1..={MAX_TIERS} tiers"
        );
        assert!(
            tiers[0].backing == TierBacking::Dram,
            "tier 0 must be the raw-DRAM head tier"
        );
        for pair in tiers.windows(2) {
            assert!(
                pair[0].read_cost <= pair[1].read_cost,
                "tiers must be ordered fastest-first"
            );
        }
        let mut arr = [TierSpec::dram(); MAX_TIERS];
        arr[..tiers.len()].copy_from_slice(tiers);
        TierStackConfig {
            tiers: arr,
            len: tiers.len() as u8,
            heat,
        }
    }

    /// The configured tiers, in order.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers[..self.len as usize]
    }

    /// Resolve per-server capacities against the server's contributions.
    pub fn resolve(&self, mem_pages: u64, disk_pages: u64) -> Vec<ResolvedTier> {
        self.tiers()
            .iter()
            .map(|t| ResolvedTier {
                capacity_pages: t.capacity_pages(mem_pages, disk_pages),
                backing: t.backing,
                read_cost: t.read_cost,
            })
            .collect()
    }
}

impl Default for TierStackConfig {
    fn default() -> Self {
        TierStackConfig::new(
            &[TierSpec::dram(), TierSpec::host_ssd()],
            HeatPolicy::default(),
        )
    }
}

/// A tier with its capacity resolved for one concrete server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResolvedTier {
    /// Pages this tier can hold on this server.
    pub capacity_pages: u64,
    /// The device serving it.
    pub backing: TierBacking,
    /// Nominal ranking cost (see [`TierSpec::read_cost`]).
    pub read_cost: SimDuration,
}

/// Checked per-tier occupancy accounting.
///
/// All increments and decrements of a server's tier counters flow through
/// this ledger. A decrement of an empty tier is a bug (historically a
/// silent `u64` wrap in release builds); the ledger debug-asserts and
/// saturates so release builds degrade to a consistent zero instead of a
/// 2^64 page count that wedges every capacity check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TierLedger {
    used: Vec<u64>,
}

impl TierLedger {
    /// A ledger for `n` tiers, all empty.
    pub fn new(n: usize) -> Self {
        TierLedger { used: vec![0; n] }
    }

    /// Pages currently accounted to tier `t`.
    #[inline]
    pub fn used(&self, t: usize) -> u64 {
        self.used[t]
    }

    /// Account one page into tier `t`.
    #[inline]
    pub fn add(&mut self, t: usize) {
        self.used[t] += 1;
    }

    /// Release one page from tier `t`. Underflow is a bug: debug builds
    /// assert, release builds saturate at zero.
    #[inline]
    pub fn remove(&mut self, t: usize) {
        debug_assert!(self.used[t] > 0, "tier {t} occupancy underflow");
        self.used[t] = self.used[t].saturating_sub(1);
    }

    /// Move one page's accounting between tiers.
    #[inline]
    pub fn transfer(&mut self, from: usize, to: usize) {
        self.remove(from);
        self.add(to);
    }

    /// Total pages across all tiers.
    pub fn total(&self) -> u64 {
        self.used.iter().sum()
    }

    /// Pages in every tier below the head (the spill tiers).
    pub fn spill_used(&self) -> u64 {
        self.used.iter().skip(1).sum()
    }

    /// Number of tiers tracked.
    pub fn tiers(&self) -> usize {
        self.used.len()
    }

    /// Reset every tier to empty (server crash wipes the store).
    pub fn clear(&mut self) {
        self.used.iter_mut().for_each(|u| *u = 0);
    }

    /// Check the ledger against a recount (tier index per stored page).
    /// Returns `true` when every tier's counter matches.
    pub fn matches<I: Iterator<Item = u8>>(&self, tiers_of_pages: I) -> bool {
        let mut recount = vec![0u64; self.used.len()];
        for t in tiers_of_pages {
            let Some(slot) = recount.get_mut(t as usize) else {
                return false;
            };
            *slot += 1;
        }
        recount == self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stack_is_dram_plus_host_ssd_with_heat_off() {
        let s = TierStackConfig::default();
        assert_eq!(s.tiers().len(), 2);
        assert_eq!(s.tiers()[0].backing, TierBacking::Dram);
        assert_eq!(s.tiers()[1].backing, TierBacking::HostSsd);
        assert!(!s.heat.enabled);
        let resolved = s.resolve(100, 200);
        assert_eq!(resolved[0].capacity_pages, 100);
        assert_eq!(resolved[1].capacity_pages, 200);
    }

    #[test]
    fn capacity_resolution_modes() {
        assert_eq!(TierSpec::dram().capacity_pages(64, 7), 64);
        assert_eq!(TierSpec::host_ssd().capacity_pages(64, 7), 7);
        let z = TierSpec::zswap(
            1,
            4,
            SimDuration::from_micros(3),
            SimDuration::from_micros(5),
        );
        assert_eq!(z.capacity_pages(64, 7), 16);
        let f = TierSpec::far_memory(33, SimDuration::from_micros(2), u64::MAX, 4096);
        assert_eq!(f.capacity_pages(64, 7), 33);
    }

    #[test]
    fn far_memory_cost_includes_transfer() {
        // 4 KiB at 16 GiB/s ≈ 238 ns on top of the 2 µs latency.
        let f = TierSpec::far_memory(1, SimDuration::from_micros(2), 16 << 30, 4096);
        assert!(f.read_cost > SimDuration::from_micros(2));
        assert!(f.read_cost < SimDuration::from_micros(3));
    }

    #[test]
    #[should_panic(expected = "fastest-first")]
    fn unordered_stack_rejected() {
        let mut slow = TierSpec::host_ssd();
        slow.read_cost = SimDuration::from_millis(1);
        TierStackConfig::new(
            &[TierSpec::dram(), slow, TierSpec::host_ssd()],
            HeatPolicy::default(),
        );
    }

    #[test]
    fn heat_bump_and_decay() {
        let h = HeatPolicy::heat_driven();
        let mut heat = 0u16;
        heat = h.bump(heat);
        assert_eq!(heat, 16);
        heat = h.bump(heat);
        assert_eq!(heat, 28); // 16 - 4 + 16: crosses promote_min_heat = 24
        assert!(heat >= h.promote_min_heat);
        // Age decay halves per half-life.
        assert_eq!(h.decayed(28, 0), 28);
        assert_eq!(h.decayed(28, 1024), 14);
        assert_eq!(h.decayed(28, 4096), 1);
    }

    #[test]
    fn ledger_tracks_adds_removes_transfers() {
        let mut l = TierLedger::new(3);
        l.add(0);
        l.add(0);
        l.add(2);
        assert_eq!(l.used(0), 2);
        assert_eq!(l.total(), 3);
        assert_eq!(l.spill_used(), 1);
        l.transfer(0, 1);
        assert_eq!(l.used(0), 1);
        assert_eq!(l.used(1), 1);
        assert!(l.matches([0u8, 1, 2].into_iter()));
        assert!(!l.matches([0u8, 1, 1].into_iter()));
        l.clear();
        assert_eq!(l.total(), 0);
    }

    /// The satellite-1 regression: the historical unchecked `-= 1` wrapped
    /// to ~2^64 on a double-remove in release builds; the ledger saturates
    /// (and debug-asserts) instead, so capacity math stays sane.
    #[test]
    fn ledger_remove_saturates_never_wraps() {
        let mut l = TierLedger::new(2);
        l.add(1);
        l.remove(1);
        // A second remove is the bug condition. In release builds it must
        // leave the counter at zero, not u64::MAX (the pre-fix behavior of
        // the raw `disk_used -= 1`).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.remove(1);
        }));
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "debug build must assert on underflow");
        } else {
            assert!(result.is_ok());
        }
        assert_eq!(l.used(1), 0, "occupancy must saturate, not wrap");
        assert_eq!(l.total(), 0);
    }
}
