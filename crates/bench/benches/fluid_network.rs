//! Fluid-network microbenchmarks: the per-event cost of the max-min
//! water-filling allocator and the poll loop under realistic channel
//! counts (the simulation's hottest path after the guest op engine).
#![allow(missing_docs)]

use agile_bench::harness::{bench, black_box};
use agile_bench::kernels;
use agile_sim_core::{Bandwidth, Network, SimDuration, SimTime};

fn bench_drain_bulk() {
    // Bulk migration pattern: 1 MiB chunks back to back.
    bench("network/drain_1000_chunks", || {
        let mut net = Network::new(SimDuration::from_micros(50));
        let a = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let b = net.add_symmetric_node(Bandwidth::gbps(1.0));
        let ch = net.open_channel(a, b);
        for i in 0..1000u64 {
            net.send(SimTime::ZERO, ch, 1_050_000, i);
        }
        let mut out = Vec::new();
        while let Some(t) = net.next_event_time() {
            net.poll(t, &mut out);
        }
        black_box(out.len());
    });
}

fn main() {
    // The steady-state workload pattern: small messages on ~16 channels.
    kernels::send_poll();
    // Short messages on the intra-rack pairs of a `datacenter` shard's shape.
    kernels::send_poll_rack_trunk();
    // One small message at a time on a channel alone on its NICs.
    kernels::lone_channel();
    // Worst case: every channel active, full water-filling pass.
    kernels::waterfill();
    bench_drain_bulk();
}
