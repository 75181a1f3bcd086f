//! Randomized property tests for the simulation kernel, driven by the
//! deterministic simulation RNG (fixed seeds, so failures reproduce).

use agile_sim_core::{
    Bandwidth, BlockDevice, BlockDeviceSpec, DetRng, IoKind, Network, SimDuration, SimTime,
    Simulation,
};

/// Events fire in nondecreasing time order regardless of the scheduling
/// order, and ties preserve scheduling order.
#[test]
fn event_order_is_total() {
    for case in 0..150u64 {
        let mut rng = DetRng::seed_from(0xe0e0 * 3 + case);
        let n = 1 + rng.index(49) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.index(1000)).collect();
        let mut sim = Simulation::new(Vec::<(u64, usize)>::new());
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_millis(t), move |s| {
                let now = s.now().as_nanos();
                s.state_mut().push((now, i));
            });
        }
        sim.run();
        let fired = sim.state();
        assert_eq!(fired.len(), times.len(), "case {case}");
        for w in fired.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: tie broke scheduling order");
            }
        }
    }
}

/// run_until never executes events past the deadline, and a subsequent
/// run() executes exactly the rest.
#[test]
fn run_until_partitions_events() {
    for case in 0..150u64 {
        let mut rng = DetRng::seed_from(0xe1e1 * 5 + case);
        let n = 1 + rng.index(49) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.index(1000)).collect();
        let split = rng.index(1000);
        let mut sim = Simulation::new(0usize);
        for &t in &times {
            sim.schedule_at(SimTime::from_millis(t), |s| *s.state_mut() += 1);
        }
        sim.run_until(SimTime::from_millis(split));
        let before = *sim.state();
        let expect_before = times.iter().filter(|&&t| t <= split).count();
        assert_eq!(before, expect_before, "case {case}");
        sim.run();
        assert_eq!(*sim.state(), times.len(), "case {case}");
    }
}

/// Block device: completions are FIFO and total busy time equals the sum
/// of service times.
#[test]
fn blockdev_fifo_and_conservation() {
    for case in 0..150u64 {
        let mut rng = DetRng::seed_from(0xe2e2 * 7 + case);
        let n = 1 + rng.index(39) as usize;
        let mut ops: Vec<(u64, usize, u64)> = (0..n)
            .map(|_| {
                (
                    rng.index(1000),
                    rng.index(2) as usize,
                    512 + rng.index(65536 - 512),
                )
            })
            .collect();
        ops.sort_by_key(|(t, _, _)| *t);
        let mut dev = BlockDevice::new(BlockDeviceSpec::sata_ssd());
        let mut last_completion = SimTime::ZERO;
        let mut service_sum = SimDuration::ZERO;
        for (t, kind, bytes) in ops {
            let kind = if kind == 0 {
                IoKind::Read
            } else {
                IoKind::Write
            };
            let done = dev.submit(SimTime::from_micros(t), kind, bytes);
            assert!(
                done >= last_completion,
                "case {case}: completions must be FIFO"
            );
            last_completion = done;
            service_sum += dev.spec().service_time(kind, bytes);
        }
        assert_eq!(
            dev.counters().busy_nanos,
            service_sum.as_nanos(),
            "case {case}"
        );
    }
}

/// Fluid network conservation: with arbitrary concurrent transfers, every
/// byte sent is eventually delivered, and per-node tx equals the sum of
/// its channels' bytes.
#[test]
fn network_delivers_every_byte() {
    for case in 0..120u64 {
        let mut rng = DetRng::seed_from(0xe3e3 * 11 + case);
        let n = 1 + rng.index(19) as usize;
        let transfers: Vec<(usize, usize, u64)> = (0..n)
            .map(|_| {
                (
                    rng.index(3) as usize,
                    rng.index(3) as usize,
                    1 + rng.index(2_000_000 - 1),
                )
            })
            .collect();
        let mut net = Network::new(SimDuration::from_micros(50));
        let nodes: Vec<_> = (0..3)
            .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
            .collect();
        let mut chans = Vec::new();
        let mut total = 0u64;
        let mut per_node_tx = [0u64; 3];
        for (i, &(s, d, bytes)) in transfers.iter().enumerate() {
            let ch = net.open_channel(nodes[s], nodes[d]);
            net.send(SimTime::ZERO, ch, bytes, i as u64);
            chans.push((ch, bytes));
            total += bytes;
            per_node_tx[s] += bytes;
        }
        let mut delivered = 0u64;
        let mut seen = std::collections::HashSet::new();
        let mut guard = 0;
        let mut out = Vec::new();
        while let Some(t) = net.next_event_time() {
            guard += 1;
            assert!(guard < 10_000, "case {case}: network did not quiesce");
            out.clear();
            net.poll(t, &mut out);
            for d in &out {
                delivered += d.bytes;
                assert!(seen.insert(d.tag), "case {case}: duplicate delivery");
            }
        }
        assert_eq!(delivered, total, "case {case}");
        assert_eq!(seen.len(), transfers.len(), "case {case}");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(net.node_tx_bytes(*node), per_node_tx[i], "case {case}");
        }
        for (ch, bytes) in chans {
            assert_eq!(net.delivered_bytes(ch), bytes, "case {case}");
        }
    }
}

/// Drive `sends` (`(at, channel, bytes)`, time-ordered; the tag is the
/// index) through a 3-node network, polling at every `next_event_time`.
/// With `extra` set, also poll at random instants in between. Returns the
/// `(tag, delivered_at)` sequence in collection order and per-node tx
/// bytes.
fn drive_sends(
    chans: &[(usize, usize)],
    sends: &[(SimTime, usize, u64)],
    mut extra: Option<DetRng>,
) -> (Vec<(u64, SimTime)>, Vec<u64>) {
    let mut net = Network::new(SimDuration::from_micros(50));
    let nodes: Vec<_> = (0..3)
        .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
        .collect();
    let ids: Vec<_> = chans
        .iter()
        .map(|&(s, d)| net.open_channel(nodes[s], nodes[d]))
        .collect();
    let mut seen = Vec::new();
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next_send = 0;
    loop {
        let send_at = sends.get(next_send).map_or(SimTime::MAX, |s| s.0);
        let due = net.next_event_time().unwrap_or(SimTime::MAX);
        let at = send_at.min(due);
        if at == SimTime::MAX {
            break;
        }
        if let Some(rng) = extra.as_mut() {
            if at > now && rng.chance(0.5) {
                let gap = at.as_nanos() - now.as_nanos();
                let t = SimTime::from_nanos(now.as_nanos() + rng.index(gap));
                out.clear();
                net.poll(t, &mut out);
                seen.extend(out.iter().map(|d| (d.tag, d.delivered_at)));
            }
        }
        now = at;
        if send_at <= due {
            let (_, ch, bytes) = sends[next_send];
            net.send(at, ids[ch], bytes, next_send as u64);
            next_send += 1;
        } else {
            out.clear();
            net.poll(at, &mut out);
            seen.extend(out.iter().map(|d| (d.tag, d.delivered_at)));
        }
    }
    let tx = nodes.iter().map(|&n| net.node_tx_bytes(n)).collect();
    (seen, tx)
}

/// Lazy channel progress: deliveries depend only on sends, completions and
/// rate changes, never on when or how often the driver polls. Staggered
/// random sends over 6 channels are driven twice, once polling only at
/// `next_event_time` and once with extra polls at random instants.
#[test]
fn network_deliveries_do_not_depend_on_poll_schedule() {
    for case in 0..200u64 {
        let mut rng = DetRng::seed_from(0xe6e6 * 19 + case);
        let chans: Vec<(usize, usize)> = (0..6)
            .map(|_| (rng.index(3) as usize, rng.index(3) as usize))
            .collect();
        let n = 1 + rng.index(40) as usize;
        let mut at = 0u64;
        let sends: Vec<(SimTime, usize, u64)> = (0..n)
            .map(|_| {
                at += rng.index(2_000_000);
                let bytes = if rng.chance(0.1) {
                    0
                } else {
                    1 + rng.index(500_000)
                };
                (SimTime::from_nanos(at), rng.index(6) as usize, bytes)
            })
            .collect();
        let (plain, plain_tx) = drive_sends(&chans, &sends, None);
        let extra = DetRng::seed_from(0xe7e7 + case);
        let (polled, polled_tx) = drive_sends(&chans, &sends, Some(extra));
        assert_eq!(plain.len(), n, "case {case}: lost a delivery");
        assert_eq!(plain, polled, "case {case}: deliveries moved");
        assert_eq!(plain_tx, polled_tx, "case {case}: tx bytes moved");
    }
}

/// The slab queue pops in exactly the order a reference binary heap
/// (lazy-cancellation model, the seed implementation) would, under random
/// interleavings of schedules and cancels mixing boxed closures with
/// typed fast events.
#[test]
fn slab_pop_order_matches_reference_heap_under_cancel() {
    use agile_sim_core::FastEvent;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    for case in 0..150u64 {
        let mut rng = DetRng::seed_from(0xe5e5 * 17 + case);
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.set_fast_handler(|sim, ev| {
            if let FastEvent::Timer { a, .. } = ev {
                sim.state_mut().push(a);
            }
        });
        // Reference model: a min-heap of (time, seq) keys with a cancelled
        // set consulted lazily at pop — the seed's BinaryHeap + HashSet.
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut live: Vec<(agile_sim_core::EventId, u64, u64)> = Vec::new();
        let mut label = 0u64;
        for _ in 0..300 {
            if rng.chance(0.35) && !live.is_empty() {
                let k = rng.index(live.len() as u64) as usize;
                let (id, _, l) = live.swap_remove(k);
                assert!(sim.cancel(id), "case {case}: live event failed to cancel");
                cancelled.insert(l);
            } else {
                let t = rng.index(1000);
                let l = label;
                label += 1;
                let id = if rng.chance(0.5) {
                    sim.schedule_fast(
                        SimTime::from_millis(t),
                        FastEvent::Timer {
                            kind: 0,
                            a: l,
                            b: 0,
                        },
                    )
                } else {
                    sim.schedule_at(SimTime::from_millis(t), move |s| s.state_mut().push(l))
                };
                reference.push(Reverse((t, l)));
                live.push((id, t, l));
            }
        }
        assert_eq!(sim.events_pending(), live.len(), "case {case}");
        sim.run();
        let mut expect = Vec::new();
        while let Some(Reverse((_, l))) = reference.pop() {
            if !cancelled.contains(&l) {
                expect.push(l);
            }
        }
        assert_eq!(sim.state(), &expect, "case {case}: pop order diverged");
    }
}

/// Max-min allocation never exceeds any NIC's capacity.
#[test]
fn network_rates_respect_capacity() {
    for case in 0..150u64 {
        let mut rng = DetRng::seed_from(0xe4e4 * 13 + case);
        let n = 2 + rng.index(14) as usize;
        let transfers: Vec<(usize, usize, u64)> = (0..n)
            .map(|_| {
                (
                    rng.index(4) as usize,
                    rng.index(4) as usize,
                    1 + rng.index(10_000_000 - 1),
                )
            })
            .collect();
        let mut net = Network::new(SimDuration::from_micros(50));
        let nodes: Vec<_> = (0..4)
            .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
            .collect();
        let mut chans = Vec::new();
        for (i, &(s, d, bytes)) in transfers.iter().enumerate() {
            let ch = net.open_channel(nodes[s], nodes[d]);
            net.send(SimTime::ZERO, ch, bytes, i as u64);
            chans.push((ch, s, d));
        }
        let cap = 125e6;
        let mut tx = [0.0f64; 4];
        let mut rx = [0.0f64; 4];
        for &(ch, s, d) in &chans {
            let r = net.channel_rate(ch);
            assert!(r >= 0.0, "case {case}");
            tx[s] += r;
            rx[d] += r;
        }
        for nn in 0..4 {
            assert!(
                tx[nn] <= cap * 1.000001,
                "case {case}: tx overcommitted: {}",
                tx[nn]
            );
            assert!(
                rx[nn] <= cap * 1.000001,
                "case {case}: rx overcommitted: {}",
                rx[nn]
            );
        }
    }
}

/// Component-scoped recomputation leaves every channel at exactly the rate
/// a water-fill seeded with every active channel gives, bit for bit.
/// Random racked topologies (some nodes behind rack trunks, some
/// spine-attached) take random staggered sends (zero-byte ones too),
/// closes, cap changes and NIC speed changes (partitions to zero and later
/// restores); the check runs after every mutation and every poll.
#[test]
fn scoped_rates_equal_a_full_water_fill() {
    fn check(net: &Network, chans: &[agile_sim_core::ChannelId], case: u64, step: usize) {
        let full = net.full_waterfill_rates();
        for &ch in chans {
            assert_eq!(
                net.channel_rate(ch).to_bits(),
                full[ch.0].to_bits(),
                "case {case} step {step}: {ch:?} at {} vs full fill {}",
                net.channel_rate(ch),
                full[ch.0]
            );
        }
    }

    for case in 0..240u64 {
        let mut rng = DetRng::seed_from(0xe8e8 * 23 + case);
        let mut net = Network::new(SimDuration::from_micros(50));
        let n_nodes = 3 + rng.index(8) as usize;
        let nodes: Vec<_> = (0..n_nodes)
            .map(|_| net.add_symmetric_node(Bandwidth::gbps(0.5 + rng.index(4) as f64 * 0.5)))
            .collect();
        let n_racks = 1 + rng.index(3) as usize;
        let racks: Vec<_> = (0..n_racks)
            .map(|_| {
                net.add_rack(
                    Bandwidth::gbps(0.25 + rng.index(8) as f64 * 0.25),
                    Bandwidth::gbps(0.25 + rng.index(8) as f64 * 0.25),
                )
            })
            .collect();
        for &n in &nodes {
            if rng.chance(0.75) {
                net.set_node_rack(n, racks[rng.index(n_racks as u64) as usize]);
            }
        }
        let mut chans = Vec::new();
        let mut open = Vec::new();
        for _ in 0..4 + rng.index(12) {
            let s = nodes[rng.index(n_nodes as u64) as usize];
            let d = nodes[rng.index(n_nodes as u64) as usize];
            chans.push(net.open_channel(s, d));
            open.push(true);
        }
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        for step in 0..80 {
            now += SimDuration::from_nanos(rng.index(3_000_000));
            while let Some(t) = net.next_event_time().filter(|&t| t <= now) {
                net.poll(t, &mut out);
                check(&net, &chans, case, step);
            }
            let k = rng.index(chans.len() as u64) as usize;
            let n = nodes[rng.index(n_nodes as u64) as usize];
            match rng.index(10) {
                0..=5 => {
                    let bytes = if rng.chance(0.15) {
                        0
                    } else {
                        1 + rng.index(4_000_000)
                    };
                    if open[k] {
                        net.send(now, chans[k], bytes, step as u64);
                    }
                }
                6 => {
                    net.close_channel(now, chans[k]);
                    open[k] = false;
                }
                7 => {
                    let cap = rng
                        .chance(0.7)
                        .then(|| Bandwidth::mb_per_sec(1.0 + rng.index(150) as f64));
                    net.set_channel_cap(now, chans[k], cap);
                }
                8 => {
                    let bw = match rng.index(3) {
                        0 => Bandwidth::bytes_per_sec(0.0),
                        1 => Bandwidth::gbps(0.1 + rng.index(10) as f64 * 0.1),
                        _ => Bandwidth::gbps(1.0),
                    };
                    net.set_node_bw(now, n, bw, bw);
                }
                _ => {
                    // A later restore of every NIC.
                    for &m in &nodes {
                        net.set_node_bw(now, m, Bandwidth::gbps(1.0), Bandwidth::gbps(1.0));
                    }
                }
            }
            check(&net, &chans, case, step);
        }
    }
}
