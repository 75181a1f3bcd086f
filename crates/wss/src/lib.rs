//! # agile-wss
//!
//! Transparent working-set tracking (§III-B, §IV-D of the paper):
//!
//! * [`SwapActivityMonitor`] — samples the per-VM swap device's cumulative
//!   I/O counters (the iostat path) into windowed KB/s rates.
//! * [`ReservationController`] — the multiplicative controller: swap rate
//!   above τ grows the cgroup reservation by β, below τ shrinks it by α;
//!   sampling runs every 2 s until the reservation stabilizes at the
//!   working-set size, then relaxes to 30 s (Figures 9–10).
//! * [`WatermarkTrigger`] — starts migration when the aggregate WSS
//!   crosses the high watermark and selects the provably-fewest VMs that
//!   bring it back below the low watermark.
//! * [`WssEstimator`] — the pluggable estimator trait over both signal
//!   paths: [`SwapIoEstimator`] (monitor + controller, the default) and
//!   [`PmlEstimator`] (simulated-PML dirty-epoch sampling), plus the
//!   test-only [`GroundTruthWss`] oracle.
//!
//! Everything here is pure logic over sampled numbers — no clock, no
//! devices — so the control behaviour is exactly unit-testable.

#![forbid(unsafe_code)]

pub mod controller;
pub mod estimator;
pub mod monitor;
pub mod watermark;

pub use controller::{Adjustment, ControllerParams, ReservationController};
pub use estimator::{
    EpochSample, EstimateSignal, EstimatorTick, GroundTruthWss, PmlEstimator, PmlParams,
    SwapIoEstimator, WssEstimator, WssObservation,
};
pub use monitor::{SwapActivityMonitor, SwapRate};
pub use watermark::{VmWss, WatermarkTrigger};
