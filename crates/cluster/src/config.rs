//! Cluster-wide simulation configuration.
//!
//! Defaults reproduce the paper's testbed (§V): 1 Gbps Ethernet behind a
//! ToR switch, SATA-SSD swap, 4 KB pages, Linux-like swap readahead.

use agile_sim_core::{Bandwidth, BlockDeviceSpec, SimDuration};
use agile_vmd::TierStackConfig;

/// Which working-set estimator `wssctl::enable_tracking` installs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WssEstimatorKind {
    /// The paper's iostat path: swap-device I/O rates into the α/β/τ
    /// controller. The default — legacy traces replay byte-identically.
    #[default]
    SwapIo,
    /// Simulated-PML dirty-epoch sampling (Bitchebe et al.): sees
    /// working-set growth with zero swap pressure.
    Pml,
}

/// Static parameters of a simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Guest/host page size.
    pub page_size: u64,
    /// NIC bandwidth (full duplex, per direction).
    pub link_bw: Bandwidth,
    /// One-way propagation delay through the switch.
    pub prop_delay: SimDuration,
    /// Swap-device spec for host SSD swap partitions.
    pub ssd_spec: BlockDeviceSpec,
    /// Pages read from swap per guest major fault (Linux `page-cluster`
    /// readahead: 1 wanted + N-1 speculative; speculative reads are wasted
    /// IOPS under random access). VMD reads are always exact (KV store).
    pub guest_readahead_pages: u32,
    /// Migration-channel flow-control window, in chunks.
    pub migration_window: usize,
    /// VMD server request-processing delay (kernel TCP receive + hash
    /// lookup + page copy on the paper's 2.1 GHz Xeons).
    pub vmd_server_delay: SimDuration,
    /// Per-minor-fault CPU cost (zero-fill).
    pub minor_fault_cost: SimDuration,
    /// Replication factor for VMD writes (1 = unreplicated, the paper's
    /// baseline; k > 1 places every slot on k distinct intermediate hosts
    /// so a server crash loses no swapped-out state).
    pub vmd_replication: usize,
    /// How long after a VMD server crash the cluster's failure detector
    /// fires (missed-gossip timeout): clients then mark the server
    /// suspect, fail over in-flight requests, and background
    /// re-replication starts.
    pub vmd_detect_delay: SimDuration,
    /// Which WSS estimator tracking installs (see [`WssEstimatorKind`]).
    pub wss_estimator: WssEstimatorKind,
    /// Swap tier stack every VMD server is built with. The default is the
    /// paper's VMD stack, DRAM + host-SSD with heat tracking disabled
    /// (the policy every benchmark world runs); richer stacks add
    /// zswap-like compressed memory or CXL-like far-memory tiers with
    /// their own capacity/latency points (see [`agile_vmd::tier`]).
    pub vmd_tiers: TierStackConfig,
    /// Simulated-PML log capacity in entries (real hardware: 512; the
    /// buffer overflows into a full PTE-bit scan at drain).
    pub pml_log_cap: u32,
    /// PML sampling epoch (fixed cadence; no fast/slow switch).
    pub pml_epoch: SimDuration,
    /// PML sliding window, in epochs, the estimate is the max over.
    pub pml_window: u32,
    /// PML reservation headroom: reservation = estimate × num / den.
    /// `den` must divide `page_size` (exactly-linear sizing).
    pub pml_headroom_num: u64,
    /// PML reservation headroom denominator.
    pub pml_headroom_den: u64,
    /// Serialize reads served by `Fixed`-backed spill tiers (zswap/CXL-like
    /// far memory) through a per-(server, tier) queue: a second concurrent
    /// read waits for the first to finish instead of overlapping for free.
    /// Off by default — the legacy unqueued model replays all historical
    /// traces byte-identically.
    pub vmd_fixed_tier_queueing: bool,
    /// Master seed for all RNG streams.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            page_size: 4096,
            link_bw: Bandwidth::gbps(1.0),
            prop_delay: SimDuration::from_micros(50),
            ssd_spec: BlockDeviceSpec::sata_ssd(),
            guest_readahead_pages: 8,
            migration_window: 4,
            vmd_server_delay: SimDuration::from_micros(40),
            minor_fault_cost: SimDuration::from_micros(2),
            vmd_replication: 1,
            vmd_detect_delay: SimDuration::from_millis(500),
            wss_estimator: WssEstimatorKind::default(),
            vmd_tiers: TierStackConfig::default(),
            pml_log_cap: 512,
            pml_epoch: SimDuration::from_secs(2),
            pml_window: 3,
            pml_headroom_num: 5,
            pml_headroom_den: 4,
            vmd_fixed_tier_queueing: false,
            seed: 42,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.page_size, 4096);
        assert!((c.link_bw.as_bytes_per_sec() - 125e6).abs() < 1.0);
        assert!(c.guest_readahead_pages >= 1);
    }
}
