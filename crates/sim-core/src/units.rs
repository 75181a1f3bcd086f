//! Byte-size and bandwidth units.
//!
//! The paper's testbed is specified in GB of DRAM, GB datasets, and Gbps
//! Ethernet; this module provides the conversion helpers so scenario code
//! can be written in the paper's own units.

/// One kibibyte (1024 bytes).
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// Bandwidth in bytes per second.
///
/// Stored as `f64` because the fluid-flow network model divides capacity
/// among flows; all conversions to simulated time go through
/// [`Bandwidth::transfer_time`] which rounds to integer nanoseconds.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth (an idle or disconnected link).
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from bytes per second.
    #[inline]
    pub fn bytes_per_sec(b: f64) -> Self {
        assert!(
            b.is_finite() && b >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(b)
    }

    /// Construct from megabytes (10^6 bytes) per second, the unit disk
    /// vendors quote.
    #[inline]
    pub fn mb_per_sec(mb: f64) -> Self {
        Bandwidth::bytes_per_sec(mb * 1e6)
    }

    /// Construct from gigabits (10^9 bits) per second, the unit network
    /// links are quoted in. 1 Gbps = 125 MB/s.
    #[inline]
    pub fn gbps(g: f64) -> Self {
        Bandwidth::bytes_per_sec(g * 1e9 / 8.0)
    }

    /// Raw bytes per second.
    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time to move `bytes` at this rate. Returns [`crate::SimDuration::MAX`]
    /// for zero bandwidth.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> crate::SimDuration {
        if self.0 <= 0.0 {
            return crate::SimDuration::MAX;
        }
        crate::SimDuration::from_secs_f64(bytes as f64 / self.0)
    }

    /// Bytes moved in `dur` at this rate.
    #[inline]
    pub fn bytes_in(self, dur: crate::SimDuration) -> f64 {
        self.0 * dur.as_secs_f64()
    }
}

/// Format a byte count in a human-friendly unit (B, KiB, MiB, GiB).
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 10 * GIB {
        format!("{:.1} GiB", bytes as f64 / GIB as f64)
    } else if bytes >= GIB {
        format!("{:.2} GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1} MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1} KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants() {
        assert_eq!(KIB, 1024);
        assert_eq!(MIB, 1_048_576);
        assert_eq!(GIB, 1_073_741_824);
    }

    #[test]
    fn gbps_is_125_mbytes() {
        let bw = Bandwidth::gbps(1.0);
        assert!((bw.as_bytes_per_sec() - 125e6).abs() < 1e-6);
    }

    #[test]
    fn transfer_time_matches_rate() {
        let bw = Bandwidth::mb_per_sec(100.0);
        let t = bw.transfer_time(200_000_000);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        assert_eq!(Bandwidth::ZERO.transfer_time(1), crate::SimDuration::MAX);
    }

    #[test]
    fn bytes_in_inverse_of_transfer_time() {
        let bw = Bandwidth::gbps(1.0);
        let d = crate::SimDuration::from_secs(4);
        assert!((bw.bytes_in(d) - 500e6).abs() < 1.0);
    }

    #[test]
    fn human_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * MIB + MIB / 2), "3.5 MiB");
        assert_eq!(fmt_bytes(12 * GIB), "12.0 GiB");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite")]
    fn negative_bandwidth_rejected() {
        let _ = Bandwidth::bytes_per_sec(-1.0);
    }
}
