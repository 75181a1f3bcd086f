//! The hot-path micro-kernels `perf_report` records in `BENCH_1.json`
//! and gates against it, one function each; the `benches/` suites run
//! the same functions alongside their extra kernels.

use crate::harness::{bench, black_box, BenchResult};
use agile_cluster::world::NetPayload;
use agile_memory::{Eviction, SlotAllocator, Touch, VmMemory, VmMemoryConfig};
use agile_migration::Bitmap;
use agile_sim_core::{Bandwidth, DetRng, FastEvent, Network, SimDuration, SimTime, Simulation};

/// Every kernel, in `BENCH_1.json` row order.
pub const ALL: [fn() -> BenchResult; 12] = [
    event_queue,
    timeout_cancel,
    waterfill,
    send_poll,
    send_poll_rack_trunk,
    bitmap_scan,
    bitmap_scan_ultra,
    touch_path,
    build_sparse_vm,
    payload_tag_take,
    rearm_poll,
    lone_channel,
];

/// events/sec through the slab queue with typed fast events: the DES
/// inner loop (pop → dispatch → schedule) at 1k pending events.
pub fn event_queue() -> BenchResult {
    let mut sim = Simulation::new(0u64);
    sim.set_fast_handler(|sim, _ev| {
        let now = sim.now();
        *sim.state_mut() += 1;
        sim.schedule_fast(
            now + SimDuration::from_micros(1000),
            FastEvent::Timer {
                kind: 0,
                a: 0,
                b: 0,
            },
        );
    });
    for i in 0..1000u64 {
        sim.schedule_fast(
            SimTime::from_micros(i),
            FastEvent::Timer {
                kind: 0,
                a: i,
                b: 0,
            },
        );
    }
    bench("event_queue/fast_schedule_pop_1k_pending", || {
        sim.step();
        black_box(sim.now());
    })
}

/// schedule/cancel/pop cycles per second: the fate of timeout-style events
/// (a far timeout scheduled and cancelled while a near event fires).
pub fn timeout_cancel() -> BenchResult {
    let mut sim = Simulation::new(0u64);
    sim.set_fast_handler(|_, _| {});
    bench("event_queue/timeout_cancel_cycle", || {
        let now = sim.now();
        let timeout = sim.schedule_fast(
            now + SimDuration::from_millis(100),
            FastEvent::Timer {
                kind: 1,
                a: 0,
                b: 0,
            },
        );
        sim.schedule_fast(
            now + SimDuration::from_micros(1),
            FastEvent::Timer {
                kind: 0,
                a: 0,
                b: 0,
            },
        );
        sim.cancel(timeout);
        black_box(sim.step());
    })
}

/// events/sec of the network poll pattern: 32 periodic timers pending on
/// the heap (one firing per µs), each firing arms the poll unless it is
/// already armed sooner, as `netdrv::touch_net` does after a send. Even
/// timers ask for a poll 2.5 µs ahead and odd ones 0.7 µs ahead, so every
/// other arm moves a pending poll earlier and the poll fires once per two
/// timer firings.
pub fn rearm_poll() -> BenchResult {
    let mut sim = Simulation::new(0u64);
    sim.set_fast_handler(|sim, ev| {
        if let FastEvent::Timer { a, .. } = ev {
            let now = sim.now();
            sim.schedule_fast(now + SimDuration::from_micros(32), ev);
            let lead = if a % 2 == 0 { 2500 } else { 700 };
            let poll = now + SimDuration::from_nanos(lead);
            if sim.rearmed_at().is_none_or(|t| t > poll) {
                sim.rearm_fast(poll, FastEvent::FlowDue { token: 0 });
            }
        }
        *sim.state_mut() += 1;
    });
    for i in 0..32u64 {
        sim.schedule_fast(
            SimTime::from_micros(i),
            FastEvent::Timer {
                kind: 0,
                a: i,
                b: 0,
            },
        );
    }
    bench("event_queue/rearm_poll_cycle", || {
        sim.step();
        black_box(sim.now());
    })
}

/// recompute calls/sec: every send on a 32-active-channel network triggers
/// a full incremental water-filling pass.
pub fn waterfill() -> BenchResult {
    let mut net = Network::new(SimDuration::from_micros(50));
    let nodes: Vec<_> = (0..8)
        .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
        .collect();
    let chs: Vec<_> = (0..32)
        .map(|i| net.open_channel(nodes[i % 8], nodes[(i + 1) % 8]))
        .collect();
    for (i, ch) in chs.iter().enumerate() {
        net.send(SimTime::ZERO, *ch, 100_000_000, i as u64);
    }
    let mut t = SimTime::ZERO;
    let mut i = 0u64;
    bench("network/waterfill_32_active", || {
        t += SimDuration::from_micros(1);
        net.send(t, chs[(i % 32) as usize], 1000, i);
        i += 1;
        black_box(net.channel_rate(chs[0]));
    })
}

/// Full send→drain cycles/sec on the steady-state 16-channel pattern.
pub fn send_poll() -> BenchResult {
    let mut net = Network::new(SimDuration::from_micros(50));
    let nodes: Vec<_> = (0..5)
        .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
        .collect();
    let chs: Vec<_> = (0..16)
        .map(|i| net.open_channel(nodes[i % 5], nodes[(i + 1) % 5]))
        .collect();
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
    })
}

/// Send→drain cycles/sec of short messages on the fluid network of a
/// `datacenter` shard: 32 racked 1 Gbps NICs, the first 24 each running
/// an endless bulk flow over the rack's 10 Gbps uplink to a spine node,
/// and 16 idle intra-rack pairs `i → i + 1` for `i` in 16..32, so half
/// the pairs send from a NIC a bulk flow also uses.
pub fn send_poll_rack_trunk() -> BenchResult {
    let mut net = Network::new(SimDuration::from_micros(50));
    let hosts: Vec<_> = (0..32)
        .map(|_| net.add_symmetric_node(Bandwidth::gbps(1.0)))
        .collect();
    let spine = net.add_symmetric_node(Bandwidth::gbps(40.0));
    let rack = net.add_rack(Bandwidth::gbps(10.0), Bandwidth::gbps(10.0));
    for &h in &hosts {
        net.set_node_rack(h, rack);
    }
    for (i, &h) in hosts[..24].iter().enumerate() {
        let bulk = net.open_channel(h, spine);
        net.send(SimTime::ZERO, bulk, 1 << 40, i as u64);
    }
    let pairs: Vec<_> = (16..32)
        .map(|i| net.open_channel(hosts[i], hosts[(i + 1) % 32]))
        .collect();
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
    })
}

/// Send→deliver cycles/sec of one small segment at a time on a channel
/// alone on its NICs: each send starts the channel and each delivery
/// idles it again, the YCSB request/response pattern between quiet hosts.
pub fn lone_channel() -> BenchResult {
    let mut net = Network::new(SimDuration::from_micros(50));
    let a = net.add_symmetric_node(Bandwidth::gbps(1.0));
    let b = net.add_symmetric_node(Bandwidth::gbps(1.0));
    let ch = net.open_channel(a, b);
    let mut t = SimTime::ZERO;
    let mut i = 0u64;
    let mut out = Vec::new();
    bench("network/lone_channel_send_poll", || {
        net.send(t, ch, 1100, i);
        i += 1;
        t = net.next_event_time().expect("one segment pending");
        out.clear();
        net.poll(t, &mut out);
        black_box(out.len());
    })
}

/// Word-level sparse scan of a 10 GiB VM's bitmap (2.6 M pages).
pub fn bitmap_scan() -> BenchResult {
    let n: u32 = 2_621_440;
    let mut bm = Bitmap::zeros(n);
    for p in (0..n).step_by(97) {
        bm.set(p);
    }
    bench("bitmap/for_each_set_sparse_2.6M", || {
        let mut count = 0u32;
        bm.for_each_set(|_| count += 1);
        black_box(count);
    })
}

/// Ultra-sparse scan: one set bit every 8192 pages, so entire 8-word
/// stride blocks are zero and the scan's OR-fold skip does the work (the
/// 97-step kernel above has a bit in ~2/3 of all words and never skips a
/// block — it pins the dense path instead).
pub fn bitmap_scan_ultra() -> BenchResult {
    let n: u32 = 2_621_440;
    let mut bm = Bitmap::zeros(n);
    for p in (0..n).step_by(8192) {
        bm.set(p);
    }
    bench("bitmap/for_each_set_ultra_sparse_2.6M", || {
        let mut count = 0u32;
        bm.for_each_set(|_| count += 1);
        black_box(count);
    })
}

/// Guest touch/fault/evict cycle under a reservation (shadow word maps
/// maintained on every transition).
pub fn touch_path() -> BenchResult {
    let mut mem = VmMemory::new(VmMemoryConfig {
        pages: 65_536,
        page_size: 4096,
        limit_pages: 32_768,
    });
    let mut slots = SlotAllocator::unbounded();
    let mut evs = Vec::new();
    for p in 0..65_536u32 {
        mem.touch(p, true, &mut slots);
        mem.fault_in(p, true, &mut slots, &mut evs);
        evs.clear();
    }
    let mut rng = DetRng::seed_from(3);
    bench("vmmemory/touch_fault_evict_cycle", || {
        let p = rng.index(65_536) as u32;
        match mem.touch(p, false, &mut slots) {
            Touch::Hit => {}
            Touch::MajorFault { .. } => {
                mem.begin_swap_in(p);
                mem.fault_in(p, false, &mut slots, &mut evs);
                evs.clear();
            }
            Touch::MinorFault => {
                mem.fault_in(p, false, &mut slots, &mut evs);
                evs.clear();
            }
            Touch::InFlight => unreachable!(),
        }
        black_box(p);
    })
}

/// World set-up per VM: build a 16,384-page memory image and fault in
/// its first 2,048 pages by writes, the shape of every VM the
/// `datacenter` scenario builds. The previous
/// image is dropped only once the next is built, so its memory is reused
/// instead of being returned to the OS and faulted back in: the kernel
/// times the build, not the host's page faults.
pub fn build_sparse_vm() -> BenchResult {
    let mut evs = Vec::new();
    let mut prev = sparse_vm(&mut evs);
    bench("vmmemory/build_sparse_vm", || {
        prev = sparse_vm(&mut evs);
        black_box(&prev);
    })
}

/// One send and one delivery through the world's payload registry:
/// register a 112-byte payload, take the oldest of 16,384 live ones.
pub fn payload_tag_take() -> BenchResult {
    let mut churn = PayloadChurn::new();
    bench("world/payload_tag_take", || {
        black_box(churn.step());
    })
}

/// One preloaded idle VM's memory image: a 16,384-page (64 MiB) guest
/// whose first 2,048 pages are faulted in by writes.
fn sparse_vm(evictions: &mut Vec<Eviction>) -> VmMemory {
    let mut mem = VmMemory::new(VmMemoryConfig {
        pages: 16_384,
        page_size: 4096,
        limit_pages: 16_384,
    });
    let mut slots = SlotAllocator::unbounded();
    for p in 0..2_048u32 {
        mem.touch(p, true, &mut slots);
        mem.fault_in(p, true, &mut slots, evictions);
    }
    mem
}

/// The world's delivery-payload registry in steady state, for the
/// `world/payload_tag_take` kernel: [`PayloadChurn::LIVE`] payloads of
/// the full 112-byte [`NetPayload`] size stay registered, and every step
/// registers one more and takes the oldest, as one send and one delivery
/// do.
struct PayloadChurn {
    slab: agile_cluster::Slab<NetPayload>,
    live: std::collections::VecDeque<u32>,
    next_pfn: u32,
}

impl PayloadChurn {
    /// Payloads registered throughout.
    const LIVE: usize = 16_384;

    /// A registry holding [`PayloadChurn::LIVE`] payloads.
    fn new() -> Self {
        let mut churn = PayloadChurn {
            slab: agile_cluster::Slab::new(),
            live: std::collections::VecDeque::with_capacity(Self::LIVE + 1),
            next_pfn: 0,
        };
        for _ in 0..Self::LIVE {
            churn.insert();
        }
        churn
    }

    fn insert(&mut self) {
        self.next_pfn = self.next_pfn.wrapping_add(1);
        let tag = self.slab.insert(NetPayload::DemandReq {
            mig: 0,
            pfn: self.next_pfn,
        });
        self.live.push_back(tag);
    }

    /// Register one payload, then take the oldest live one.
    fn step(&mut self) -> NetPayload {
        self.insert();
        let oldest = self.live.pop_front().expect("live payloads");
        self.slab.take(oldest).expect("live tag")
    }
}
