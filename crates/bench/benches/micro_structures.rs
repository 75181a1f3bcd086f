//! Microbenchmarks of the hot data structures: the slab event queue, the
//! intrusive LRU, the migration bitmaps, YCSB's zipfian generator, the
//! page-table touch path and the world's delivery-payload registry. These
//! are the per-event costs that bound simulation throughput.
#![allow(missing_docs)]

use agile_bench::harness::{bench, black_box};
use agile_bench::kernels;
use agile_memory::{LruLinks, LruList};
use agile_migration::Bitmap;
use agile_sim_core::{DetRng, SimDuration, SimTime, Simulation};
use agile_workload::Zipfian;

fn bench_boxed_event_queue() {
    // The same churn as `event_queue/fast_schedule_pop_1k_pending` through
    // boxed closures (the general path). The closure captures the two
    // payload words a real event carries (object id + generation) — a
    // sized closure, so every schedule allocates.
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

fn main() {
    // Steady-state schedule/pop churn with typed fast events: the queue
    // holds ~1000 pending events while one fires and one is scheduled per
    // step — the DES hot loop.
    kernels::event_queue();
    bench_boxed_event_queue();
    // Schedule + cancel + fire: the fate of most timeout-style events.
    kernels::timeout_cancel();
    bench_lru();
    bench_bitmap();
    kernels::bitmap_scan();
    bench_zipfian();
    // Steady-state touch/fault cycle under a reservation.
    kernels::touch_path();
    // World set-up per VM: a 64 MiB guest with 8 MiB preloaded.
    kernels::build_sparse_vm();
    kernels::payload_tag_take();
}
