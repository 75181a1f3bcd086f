//! Microbenchmarks of the hot data structures: the slab event queue, the
//! intrusive LRU, the migration bitmaps, YCSB's zipfian generator, the
//! page-table touch path and the world's delivery-payload registry. These
//! are the per-event costs that bound simulation throughput.
#![allow(missing_docs)]

use agile_bench::harness::{bench, black_box};
use agile_memory::{LruLinks, LruList, Touch, VmMemory, VmMemoryConfig};
use agile_migration::Bitmap;
use agile_sim_core::{DetRng, FastEvent, SimDuration, SimTime, Simulation};
use agile_workload::Zipfian;

use agile_bench::seed_baseline as seed_queue;

fn bench_event_queue() {
    // Steady-state schedule/pop churn with typed fast events: the queue
    // holds ~1000 pending events while one fires and one is scheduled per
    // step — the DES hot loop.
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
    });

    // The same churn through boxed closures (the general path). The
    // closure captures the two payload words a real event carries (object
    // id + generation) — a sized closure, so every schedule allocates.
    let mut sim = Simulation::new(0u64);
    fn refire(sim: &mut Simulation<u64>, a: u64, b: u64) {
        *sim.state_mut() += 1;
        let (a, b) = (black_box(a), black_box(b));
        sim.schedule_in(SimDuration::from_micros(1000), move |s| refire(s, a, b));
    }
    for i in 0..1000u64 {
        sim.schedule_at(SimTime::from_micros(i), move |s| refire(s, i, 1));
    }
    bench("event_queue/boxed_schedule_pop_1k_pending", || {
        sim.step();
        black_box(sim.now());
    });

    // The seed baseline for the same churn: payload-capturing boxed
    // closures in a BinaryHeap with HashSet cancellation — exactly what
    // every guest timer looked like before the typed fast path.
    let mut seed = seed_queue::SeedSim::new();
    fn seed_refire(sim: &mut seed_queue::SeedSim, a: u64, b: u64) {
        let (a, b) = (black_box(a), black_box(b));
        sim.schedule_in(SimDuration::from_micros(1000), move |s| {
            seed_refire(s, a, b)
        });
    }
    for i in 0..1000u64 {
        seed.schedule_at(SimTime::from_micros(i), move |s| seed_refire(s, i, 1));
    }
    bench("event_queue/SEED_schedule_pop_1k_pending", || {
        seed.step();
        black_box(seed.now);
    });

    // Schedule + cancel + fire: the fate of most timeout-style events. One
    // near event fires per iteration while a far "timeout" (at the OS
    // timeout scale, ~100 ms, vs the ~1 µs event spacing) is scheduled and
    // immediately cancelled — the slab reclaims the slot at cancel and only
    // a 24-byte key lingers; the seed carries the 40-byte entry, its boxed
    // closure allocation, and a HashSet tombstone until the time comes up.
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
    });

    let mut seed = seed_queue::SeedSim::new();
    bench("event_queue/SEED_timeout_cancel_cycle", || {
        let now = seed.now;
        let (a, b) = (black_box(1u64), black_box(2u64));
        let timeout = seed.schedule_at(now + SimDuration::from_millis(100), move |s| {
            s.fired += black_box(a + b);
        });
        seed.schedule_at(now + SimDuration::from_micros(1), move |s| {
            s.fired += black_box(a.wrapping_mul(b));
        });
        seed.cancel(timeout);
        black_box(seed.step());
    });
}

fn bench_lru() {
    let n: u32 = 100_000;
    let mut links = LruLinks::new(n as usize);
    let mut list = LruList::new();
    for p in 0..n {
        list.push_front(&mut links, p);
    }
    bench("lru/push_remove_cycle", || {
        let victim = list.pop_back(&mut links).unwrap();
        list.push_front(&mut links, victim);
        black_box(victim);
    });
}

fn bench_bitmap() {
    // A 10 GiB VM's bitmap: 2.6 M pages.
    let n: u32 = 2_621_440;
    let mut b10 = Bitmap::zeros(n);
    for p in (0..n).step_by(97) {
        b10.set(p);
    }
    bench("bitmap/scan_sparse_2.6M", || {
        let mut count = 0u32;
        let mut cursor = 0;
        while let Some(p) = b10.next_set(cursor) {
            count += 1;
            cursor = p + 1;
        }
        black_box(count);
    });
    bench("bitmap/for_each_set_sparse_2.6M", || {
        let mut count = 0u32;
        b10.for_each_set(|_| count += 1);
        black_box(count);
    });
    let mut bm = Bitmap::zeros(n);
    let mut p = 0u32;
    bench("bitmap/set_clear", || {
        bm.set(p % n);
        bm.clear(p % n);
        p = p.wrapping_add(7919);
    });
}

fn bench_zipfian() {
    let z = Zipfian::ycsb(9_437_184); // the paper's 9 GB / 1 KB records
    let mut rng = DetRng::seed_from(7);
    bench("zipfian/sample_9.4M_keys", || {
        black_box(z.sample(&mut rng));
    });
}

fn bench_touch_path() {
    // Steady-state touch/fault cycle under a reservation.
    let mut mem = VmMemory::new(VmMemoryConfig {
        pages: 65_536,
        page_size: 4096,
        limit_pages: 32_768,
    });
    let mut evs = Vec::new();
    for p in 0..65_536u32 {
        mem.touch(p, true);
        mem.fault_in(p, true, &mut evs);
        evs.clear();
    }
    let mut rng = DetRng::seed_from(3);
    bench("vmmemory/touch_fault_evict_cycle", || {
        let p = rng.index(65_536) as u32;
        match mem.touch(p, false) {
            Touch::Hit => {}
            Touch::MajorFault { .. } => {
                mem.begin_swap_in(p);
                mem.fault_in(p, false, &mut evs);
                evs.clear();
            }
            Touch::MinorFault => {
                mem.fault_in(p, false, &mut evs);
                evs.clear();
            }
            Touch::InFlight => unreachable!(),
        }
        black_box(p);
    });
}

fn bench_build_sparse_vm() {
    // World set-up per VM: a 64 MiB guest with 8 MiB preloaded. The
    // previous image is dropped only once the next is built, so the heap
    // is reused rather than trimmed and faulted back in.
    let mut evs = Vec::new();
    let mut prev = agile_bench::build_sparse_vm(&mut evs);
    bench("vmmemory/build_sparse_vm", || {
        prev = agile_bench::build_sparse_vm(&mut evs);
        black_box(&prev);
    });
}

fn bench_payload_registry() {
    let mut churn = agile_bench::PayloadChurn::new();
    bench("world/payload_tag_take", || {
        black_box(churn.step());
    });
}

fn main() {
    bench_event_queue();
    bench_lru();
    bench_bitmap();
    bench_zipfian();
    bench_touch_path();
    bench_build_sparse_vm();
    bench_payload_registry();
}
