//! Fluid-network microbenchmarks: the per-event cost of the max-min
//! water-filling allocator and the poll loop under realistic channel
//! counts (the simulation's hottest path after the guest op engine).
#![allow(missing_docs)]

use agile_bench::harness::{bench, black_box};
use agile_bench::seed_baseline::{seed_waterfill, SeedChannel};
use agile_sim_core::{Bandwidth, Network, SimDuration, SimTime};

fn make_net(nodes: usize, channels: usize) -> (Network, Vec<agile_sim_core::ChannelId>) {
    let mut net = Network::new(SimDuration::from_micros(50));
    let ns: Vec<_> = (0..nodes)
        .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
        .collect();
    let chs: Vec<_> = (0..channels)
        .map(|i| net.open_channel(ns[i % nodes], ns[(i + 1) % nodes]))
        .collect();
    (net, chs)
}

fn bench_send_poll_cycle() {
    // The steady-state workload pattern: small messages on ~16 channels.
    let (mut net, chs) = make_net(5, 16);
    let mut t = SimTime::ZERO;
    let mut i = 0usize;
    let mut out = Vec::new();
    bench("network/send_poll_cycle_16ch", || {
        t += SimDuration::from_micros(10);
        net.send(t, chs[i % chs.len()], 1100, i as u64);
        i += 1;
        if let Some(next) = net.next_event_time() {
            if next <= t {
                out.clear();
                net.poll(t, &mut out);
                black_box(out.len());
            }
        }
    });
}

fn bench_send_poll_rack_trunk() {
    // Short messages on the intra-rack pairs of a `datacenter` shard's shape.
    let (mut net, pairs) = agile_bench::rack_trunk_network();
    let mut t = SimTime::ZERO;
    let mut i = 0usize;
    let mut out = Vec::new();
    bench("network/send_poll_rack_trunk", || {
        t += SimDuration::from_micros(10);
        net.send(t, pairs[i % pairs.len()], 1100, i as u64);
        i += 1;
        if let Some(next) = net.next_event_time() {
            if next <= t {
                out.clear();
                net.poll(t, &mut out);
                black_box(out.len());
            }
        }
    });
}

fn bench_rate_recompute() {
    // Worst case: every channel active, full water-filling pass.
    let (mut net, chs) = make_net(8, 32);
    for (i, ch) in chs.iter().enumerate() {
        net.send(SimTime::ZERO, *ch, 100_000_000, i as u64);
    }
    let mut t = SimTime::ZERO;
    let mut i = 0u64;
    bench("network/waterfill_32_active", || {
        // Each send triggers a recompute (membership unchanged ones are
        // cheap; this alternates to force real work).
        t += SimDuration::from_micros(1);
        net.send(t, chs[(i % 32) as usize], 1000, i);
        i += 1;
        black_box(net.channel_rate(chs[0]));
    });
}

fn bench_seed_waterfill() {
    // The same 32-channel/8-node topology as waterfill_32_active, run
    // through the seed's allocation pattern (see `seed_baseline`).
    let node_caps: Vec<(f64, f64)> = (0..8).map(|_| (125e6, 125e6)).collect();
    let mut channels: Vec<SeedChannel> = (0..32).map(|i| (i % 8, (i + 1) % 8, None, 0.0)).collect();
    bench("network/SEED_waterfill_32_active", || {
        seed_waterfill(&node_caps, &mut channels);
        black_box(channels[0].3);
    });
}

fn bench_drain_bulk() {
    // Bulk migration pattern: 1 MiB chunks back to back.
    bench("network/drain_1000_chunks", || {
        let (mut net, chs) = make_net(2, 1);
        for i in 0..1000u64 {
            net.send(SimTime::ZERO, chs[0], 1_050_000, i);
        }
        let mut out = Vec::new();
        while let Some(t) = net.next_event_time() {
            net.poll(t, &mut out);
        }
        black_box(out.len());
    });
}

fn main() {
    bench_send_poll_cycle();
    bench_send_poll_rack_trunk();
    bench_rate_recompute();
    bench_seed_waterfill();
    bench_drain_bulk();
}
