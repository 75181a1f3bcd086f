//! Machine-readable performance report: times the DES hot-path
//! micro-kernels (slab event queue, incremental water-filling, word-level
//! bitmap scans) plus one reduced Figure-7 end-to-end sweep, and writes
//! the numbers to `BENCH_1.json`.
//!
//! ```sh
//! cargo run --release -p agile-bench --bin perf_report -- --out .
//! ```
//!
//! The JSON is flat: a `results` array of `{name, ns_per_iter, per_sec}`
//! micro-kernel entries plus the sweep wall-clock, so a driver can diff
//! two runs without parsing human-oriented output.
//!
//! `--check-against <BENCH_1.json>` turns the run into a regression gate:
//! each measured kernel is compared against the same-named entry in the
//! baseline report and the process exits non-zero if any hot path slowed
//! down by more than 25%. `SEED_*` kernels (the checked-in reference
//! implementations) are measured but not gated — they exist to compute
//! speedups, not to be fast.

use agile_bench::harness::{bench, black_box, BenchResult};
use agile_bench::Args;
use agile_cluster::scenario::single_vm::{self, SingleVmConfig};
use agile_memory::{Touch, VmMemory, VmMemoryConfig};
use agile_migration::{Bitmap, Technique};
use agile_sim_core::{
    Bandwidth, DetRng, FastEvent, Network, SimDuration, SimTime, Simulation, GIB,
};
use std::time::Instant;

/// events/sec through the slab queue with typed fast events: the DES
/// inner loop (pop → dispatch → schedule) at 1k pending events.
fn kernel_event_queue() -> BenchResult {
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
fn kernel_event_cancel() -> BenchResult {
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

/// The same schedule/cancel/pop cycle on the seed event queue
/// (boxed closures + BinaryHeap + HashSet cancellation).
fn kernel_seed_event_cancel() -> BenchResult {
    use agile_bench::seed_baseline::SeedSim;
    let mut seed = SeedSim::new();
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
    })
}

/// recompute calls/sec: every send on a 32-active-channel network triggers
/// a full incremental water-filling pass.
fn kernel_waterfill() -> BenchResult {
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

/// The seed's allocating water-filling pass on the same 32-channel/8-node
/// topology.
fn kernel_seed_waterfill() -> BenchResult {
    use agile_bench::seed_baseline::{seed_waterfill, SeedChannel};
    let node_caps: Vec<(f64, f64)> = (0..8).map(|_| (125e6, 125e6)).collect();
    let mut channels: Vec<SeedChannel> = (0..32).map(|i| (i % 8, (i + 1) % 8, None, 0.0)).collect();
    bench("network/SEED_waterfill_32_active", || {
        seed_waterfill(&node_caps, &mut channels);
        black_box(channels[0].3);
    })
}

/// Full send→drain cycles/sec on the steady-state 16-channel pattern.
fn kernel_send_poll() -> BenchResult {
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

/// Send→drain cycles/sec of short messages on the intra-rack pairs of
/// [`agile_bench::rack_trunk_network`], a `datacenter` shard's shape.
fn kernel_send_poll_rack_trunk() -> BenchResult {
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
    })
}

/// Word-level sparse scan of a 10 GiB VM's bitmap (2.6 M pages).
fn kernel_bitmap_scan() -> BenchResult {
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
fn kernel_bitmap_scan_ultra() -> BenchResult {
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
fn kernel_touch_path() -> BenchResult {
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
    })
}

/// World set-up per VM: build a 16,384-page memory image and fault in
/// its first 2,048 pages ([`agile_bench::build_sparse_vm`]). The previous
/// image is dropped only once the next is built, so its memory is reused
/// instead of being returned to the OS and faulted back in: the kernel
/// times the build, not the host's page faults.
fn kernel_build_sparse_vm() -> BenchResult {
    let mut evs = Vec::new();
    let mut prev = agile_bench::build_sparse_vm(&mut evs);
    bench("vmmemory/build_sparse_vm", || {
        prev = agile_bench::build_sparse_vm(&mut evs);
        black_box(&prev);
    })
}

/// One send and one delivery through the world's payload registry:
/// register a 112-byte payload, take the oldest of 16,384 live ones
/// ([`agile_bench::PayloadChurn`]).
fn kernel_payload_tag_take() -> BenchResult {
    let mut churn = agile_bench::PayloadChurn::new();
    bench("world/payload_tag_take", || {
        black_box(churn.step());
    })
}

/// One reduced Figure-7 sweep (3 techniques × 2 VM sizes, idle, scale
/// 1/64): end-to-end wall-clock, plus total simulator events.
fn end_to_end_sweep() -> (f64, f64) {
    let t0 = Instant::now();
    let mut sim_secs_total = 0.0;
    for technique in [Technique::PreCopy, Technique::PostCopy, Technique::Agile] {
        for size_gib in [4u64, 8u64] {
            let r = single_vm::run(&SingleVmConfig {
                technique,
                vm_mem: size_gib * GIB,
                host_mem: 6 * GIB,
                busy: false,
                scale: 64,
                ..Default::default()
            });
            sim_secs_total += r.migration_secs;
        }
    }
    (t0.elapsed().as_secs_f64(), sim_secs_total)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Max tolerated slowdown before the gate fails: current may be at most
/// 1.25× the baseline ns/iter. Micro-benchmarks on shared CI runners
/// jitter by ~10%; 25% headroom keeps the gate quiet on noise while still
/// catching a hot path regressing to allocation or linear scans.
const GATE_SLOWDOWN: f64 = 1.25;

/// Scrape `(name, ns_per_iter)` pairs out of a baseline `BENCH_1.json`.
///
/// The file is this binary's own flat output — one result object per
/// line — so a line scan is exact and no JSON library is needed (the
/// workspace is dependency-free by design).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
        else {
            continue;
        };
        let Some(ns) = line
            .split("\"ns_per_iter\": ")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|num| num.trim().parse::<f64>().ok())
        else {
            continue;
        };
        out.push((name.to_string(), ns));
    }
    out
}

/// Indices of non-`SEED_` kernels whose measured ns/iter exceeds
/// [`GATE_SLOWDOWN`] × their baseline entry.
fn failing_kernels(results: &[BenchResult], baseline: &[(String, f64)]) -> Vec<usize> {
    results
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.name.contains("SEED_"))
        .filter(|(_, r)| {
            baseline
                .iter()
                .find(|(n, _)| n == &r.name)
                .is_some_and(|(_, base)| r.ns_per_iter > base * GATE_SLOWDOWN)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Re-measure one kernel by its result name (for gate retries).
fn kernel_by_name(name: &str) -> Option<fn() -> BenchResult> {
    Some(match name {
        "event_queue/fast_schedule_pop_1k_pending" => kernel_event_queue,
        "event_queue/timeout_cancel_cycle" => kernel_event_cancel,
        "network/waterfill_32_active" => kernel_waterfill,
        "network/send_poll_cycle_16ch" => kernel_send_poll,
        "network/send_poll_rack_trunk" => kernel_send_poll_rack_trunk,
        "bitmap/for_each_set_sparse_2.6M" => kernel_bitmap_scan,
        "bitmap/for_each_set_ultra_sparse_2.6M" => kernel_bitmap_scan_ultra,
        "vmmemory/touch_fault_evict_cycle" => kernel_touch_path,
        "vmmemory/build_sparse_vm" => kernel_build_sparse_vm,
        "world/payload_tag_take" => kernel_payload_tag_take,
        _ => return None,
    })
}

/// Gate the measured kernels against a baseline report. A kernel that
/// reads slow gets re-measured up to twice (keeping its best time) —
/// wall-clock micro-benchmarks on shared runners see transient 1.5–2x
/// spikes from scheduler interference, and only a *persistent* slowdown
/// is a regression. Returns whether any kernel still fails after retries.
fn check_against(results: &[BenchResult], baseline: &[(String, f64)]) -> bool {
    let mut gated: Vec<BenchResult> = results.to_vec();
    let mut failing = failing_kernels(&gated, baseline);
    for retry in 0..2 {
        if failing.is_empty() {
            break;
        }
        println!(
            "-- gate retry {} ({} kernel(s) read slow; re-measuring) --",
            retry + 1,
            failing.len()
        );
        for &i in &failing {
            if let Some(f) = kernel_by_name(&gated[i].name) {
                let r = f();
                if r.ns_per_iter < gated[i].ns_per_iter {
                    gated[i] = r;
                }
            }
        }
        failing = failing_kernels(&gated, baseline);
    }
    println!("-- regression gate (fail above {GATE_SLOWDOWN:.2}x baseline) --");
    for r in &gated {
        if r.name.contains("SEED_") {
            continue;
        }
        let Some((_, base_ns)) = baseline.iter().find(|(n, _)| n == &r.name) else {
            println!("{:<44} (new kernel, no baseline — skipped)", r.name);
            continue;
        };
        let ratio = r.ns_per_iter / base_ns;
        let verdict = if ratio > GATE_SLOWDOWN { "FAIL" } else { "ok" };
        println!(
            "{:<44} {:>10.1} ns vs {:>10.1} ns baseline  ({:>5.2}x)  {}",
            r.name, r.ns_per_iter, base_ns, ratio, verdict
        );
    }
    !failing.is_empty()
}

fn main() {
    let args = Args::parse();
    let out_dir = args
        .get::<String>("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));

    println!("-- micro-kernels --");
    let cancel_cycle = kernel_event_cancel();
    let seed_cancel_cycle = kernel_seed_event_cancel();
    let waterfill = kernel_waterfill();
    let seed_waterfill_r = kernel_seed_waterfill();
    let results = [
        kernel_event_queue(),
        cancel_cycle.clone(),
        seed_cancel_cycle.clone(),
        waterfill.clone(),
        seed_waterfill_r.clone(),
        kernel_send_poll(),
        kernel_send_poll_rack_trunk(),
        kernel_bitmap_scan(),
        kernel_bitmap_scan_ultra(),
        kernel_touch_path(),
        kernel_build_sparse_vm(),
        kernel_payload_tag_take(),
    ];
    let queue_speedup = seed_cancel_cycle.ns_per_iter / cancel_cycle.ns_per_iter;
    let waterfill_speedup = seed_waterfill_r.ns_per_iter / waterfill.ns_per_iter;
    println!("speedup vs seed: event queue {queue_speedup:.2}x, waterfill {waterfill_speedup:.2}x");
    println!("-- end-to-end reduced Fig. 7 sweep (scale 1/64) --");
    let (sweep_wall_s, sweep_sim_s) = end_to_end_sweep();
    println!("sweep: {sweep_wall_s:.2} s wall for {sweep_sim_s:.1} simulated s of migration");

    let mut json = String::from("{\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.2}, \"per_sec\": {:.0}}}{}\n",
            json_escape(&r.name),
            r.ns_per_iter,
            r.per_sec(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_vs_seed\": {{\"event_queue_timeout_cancel_cycle\": {queue_speedup:.2}, \"waterfill_32_active\": {waterfill_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"fig7_sweep\": {{\"wall_secs\": {sweep_wall_s:.3}, \"simulated_migration_secs\": {sweep_sim_s:.3}, \"scale\": 64, \"points\": 6}}\n"
    ));
    json.push_str("}\n");

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let path = out_dir.join("BENCH_1.json");
    std::fs::write(&path, &json).expect("write BENCH_1.json");
    println!("wrote {}", path.display());

    let bench2_failed = run_bench2(&args, &out_dir);

    if let Some(baseline_path) = args.get::<String>("check-against") {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline = parse_baseline(&text);
        assert!(
            !baseline.is_empty(),
            "baseline {baseline_path} contains no results — wrong file?"
        );
        if check_against(&results, &baseline) {
            eprintln!("perf_report: hot-path regression beyond {GATE_SLOWDOWN:.2}x baseline");
            std::process::exit(1);
        }
        println!("gate passed: no kernel above {GATE_SLOWDOWN:.2}x baseline");
    }
    if bench2_failed {
        eprintln!("perf_report: sharded scaling gate failed");
        std::process::exit(1);
    }
}

/// Required 1→4-worker throughput scaling when the machine actually has
/// the cores to run 4 shard workers in parallel.
const SCALING_GATE: f64 = 2.0;

/// Sharded-DES scaling curve → `BENCH_2.json`: the datacenter scenario
/// at 1, 2, and 4 workers, reporting simulated-seconds-per-wall-second
/// plus the engine-measured available parallelism (busy / critical
/// path). Deterministic outputs are cross-checked across worker counts.
///
/// `--dc-scale large` runs the 1,024-host preset (the checked-in
/// artifact); the default `small` keeps CI fast. The scaling gate only
/// applies when `host_cpus >= 4` — on smaller machines worker threads
/// time-share cores and wall-clock scaling is physically impossible, so
/// the gate records the honest numbers and skips.
fn run_bench2(args: &Args, out_dir: &std::path::Path) -> bool {
    use agile_cluster::scenario::datacenter::{self, DatacenterConfig};

    let dc_scale: String = args.get("dc-scale").unwrap_or_else(|| "small".to_string());
    let base = match dc_scale.as_str() {
        "small" => DatacenterConfig::small(),
        "large" => DatacenterConfig::large(),
        other => panic!("unknown --dc-scale {other} (small|large)"),
    };
    println!("-- sharded-DES scaling (datacenter --scale {dc_scale}) --");

    let mut curve = Vec::new();
    let mut report0: Option<String> = None;
    for workers in [1usize, 2, 4] {
        let cfg = DatacenterConfig {
            workers,
            ..base.clone()
        };
        let r = datacenter::run(&cfg);
        assert!(r.converged, "datacenter run failed to converge");
        match &report0 {
            None => report0 = Some(r.report.clone()),
            Some(base_report) => assert_eq!(
                base_report, &r.report,
                "sharded run not byte-identical at workers={workers}"
            ),
        }
        let sims_per_wall = r.sim_secs / r.wall.wall_secs.max(1e-9);
        println!(
            "workers={workers} hosts={} vms={} sim_secs={:.1} wall_secs={:.3} \
             sims_per_wall={:.1} available_parallelism={:.2}",
            r.hosts,
            r.vms,
            r.sim_secs,
            r.wall.wall_secs,
            sims_per_wall,
            r.wall.available_parallelism
        );
        curve.push((workers, r));
    }

    let host_cpus = curve[0].1.wall.host_cpus;
    let spw = |i: usize| curve[i].1.sim_secs / curve[i].1.wall.wall_secs.max(1e-9);
    let speedup_4_over_1 = spw(2) / spw(0).max(1e-9);
    let gate_applicable = host_cpus >= 4;
    let gate_passed = !gate_applicable || speedup_4_over_1 >= SCALING_GATE;

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    let r0 = &curve[0].1;
    json.push_str(&format!(
        "  \"config\": {{\"scale\": \"{dc_scale}\", \"racks\": {}, \"hosts\": {}, \"vms\": {}, \
         \"migrations\": {}, \"events_executed\": {}}},\n",
        r0.racks, r0.hosts, r0.vms, r0.migrations, r0.events_executed
    ));
    json.push_str("  \"curve\": [\n");
    for (i, (workers, r)) in curve.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {workers}, \"sim_secs\": {:.3}, \"wall_secs\": {:.4}, \
             \"sims_per_wall\": {:.2}, \"busy_secs\": {:.4}, \"critical_path_secs\": {:.4}, \
             \"available_parallelism\": {:.3}}}{}\n",
            r.sim_secs,
            r.wall.wall_secs,
            r.sim_secs / r.wall.wall_secs.max(1e-9),
            r.wall.busy_secs,
            r.wall.critical_path_secs,
            r.wall.available_parallelism,
            if i + 1 < curve.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_4_over_1\": {speedup_4_over_1:.3},\n  \"gate\": {{\"required_speedup\": \
         {SCALING_GATE:.1}, \"applicable\": {gate_applicable}, \"passed\": {gate_passed}}}\n"
    ));
    json.push_str("}\n");

    let path = out_dir.join("BENCH_2.json");
    std::fs::write(&path, &json).expect("write BENCH_2.json");
    println!("wrote {}", path.display());
    if !gate_applicable {
        println!(
            "scaling gate skipped: host_cpus={host_cpus} < 4 workers (wall-clock scaling \
             impossible; available_parallelism={:.2} recorded instead)",
            curve[2].1.wall.available_parallelism
        );
    } else if gate_passed {
        println!(
            "scaling gate passed: {speedup_4_over_1:.2}x >= {SCALING_GATE:.1}x (1 -> 4 workers)"
        );
    }
    !gate_passed
}
