//! One repetition of a workload: build it, run it, and read back what it
//! did. A traced repetition also counts every fast event by kind, times a
//! sample of them, and takes timestamps and samples at the epoch barriers.
//!
//! Boxed-closure events cannot be timed from outside: the closure queue's
//! self time is what is left of each shard's busy time after the
//! fast-event spans.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use agile_cluster::fast;
use agile_sim_core::FastEvent;

use crate::worlds::{self, Sim, Size, Workload};

/// Fast-event kinds in dispatch order: `FlowDue`, `DeviceOp`, then the
/// timer kinds `fast::K_STEP_OP..=fast::K_CLONE_HYDRATE`.
pub const KINDS: [&str; 14] = [
    "netdrv.poll",
    "vmdio.device_op",
    "guest.step_op",
    "guest.finish_op",
    "guest.client_send",
    "guest.os_bg",
    "wssctl.sample",
    "chaos.fault",
    "chaos.repair",
    "sched.tick",
    "poolctl.tick",
    "wlctl.tick",
    "clonectl.tick",
    "clonectl.hydrate",
];
const _: () = assert!(fast::K_STEP_OP == 0 && fast::K_CLONE_HYDRATE as usize + 3 == KINDS.len());

/// Upper bound on shards in one traced run (one accumulator each).
const MAX_SHARDS: usize = 64;

/// One fast event in this many (at random) is timed; counts are exact.
/// Two clock reads cost about 65 ns on a 2-vCPU cloud VM, so timing every
/// event would slow a poll-heavy run by half and inflate every span.
const SAMPLE_ONE_IN: u64 = 8;

/// Per-shard accumulators, on their own cache lines. A shard runs on one
/// worker thread at a time and the epoch harness joins its threads at
/// every barrier, so each accumulator has a single writer at a time and
/// plain relaxed loads and stores suffice.
#[repr(align(128))]
struct ShardSpans {
    count: [AtomicU64; KINDS.len()],
    timed: [AtomicU64; KINDS.len()],
    nanos: [AtomicU64; KINDS.len()],
    rng: AtomicU64,
}

impl ShardSpans {
    const fn new() -> Self {
        ShardSpans {
            count: [const { AtomicU64::new(0) }; KINDS.len()],
            timed: [const { AtomicU64::new(0) }; KINDS.len()],
            nanos: [const { AtomicU64::new(0) }; KINDS.len()],
            rng: AtomicU64::new(0),
        }
    }
}

// The fast handler is a plain `fn`, so its accumulators are process-wide.
// One traced run at a time: `run_rep` resets them before each.
static SPANS: [ShardSpans; MAX_SHARDS] = [const { ShardSpans::new() }; MAX_SHARDS];

fn bump(a: &AtomicU64, by: u64) {
    a.store(a.load(Relaxed) + by, Relaxed);
}

fn kind_index(ev: &FastEvent) -> usize {
    match *ev {
        FastEvent::FlowDue { .. } => 0,
        FastEvent::DeviceOp { .. } => 1,
        FastEvent::Timer { kind, .. } => 2 + kind as usize,
    }
}

/// The traced fast handler: count every call into the library dispatcher
/// by event kind, and time a random sample of them. Random rather than
/// every n-th, so that no periodic event pattern aliases with the sample.
fn traced(sim: &mut Sim, ev: FastEvent) {
    let acc = &SPANS[sim.state().shard_id];
    let k = kind_index(&ev);
    bump(&acc.count[k], 1);
    let mut x = acc.rng.load(Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc.rng.store(x, Relaxed);
    if !x.is_multiple_of(SAMPLE_ONE_IN) {
        fast::dispatch(sim, ev);
        return;
    }
    let t0 = Instant::now();
    fast::dispatch(sim, ev);
    bump(&acc.nanos[k], t0.elapsed().as_nanos() as u64);
    bump(&acc.timed[k], 1);
}

/// Mean host nanoseconds an empty timed span reads: the clock's own cost,
/// subtracted from every sampled span.
fn clock_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let total: u128 = (0..N).map(|_| Instant::now().elapsed().as_nanos()).sum();
    total as f64 / f64::from(N)
}

/// Per-kind `(count, estimated host seconds)` summed over shards.
fn fast_spans(clock_ns: f64) -> Vec<(u64, f64)> {
    (0..KINDS.len())
        .map(|k| {
            let sum = |f: fn(&ShardSpans) -> &[AtomicU64; KINDS.len()]| -> u64 {
                SPANS.iter().map(|a| f(a)[k].load(Relaxed)).sum()
            };
            let (count, timed, nanos) = (sum(|a| &a.count), sum(|a| &a.timed), sum(|a| &a.nanos));
            let per_event = if timed == 0 {
                0.0
            } else {
                (nanos as f64 / timed as f64 - clock_ns).max(0.0)
            };
            (count, per_event * count as f64 / 1e9)
        })
        .collect()
}

/// What one repetition measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Host seconds from the start of world construction to just before
    /// the run: builder, preload, arming.
    pub setup_s: f64,
    /// Host seconds of `ShardedRun::run`: first event to settled.
    pub run_s: f64,
    /// Resident set right after set-up, MB.
    pub rss_after_build_mb: f64,
    /// Peak resident set of the process, MB.
    pub peak_rss_mb: f64,
    /// The workload's checks, `(name, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Counters read from the worlds. Deterministic: equal in every run
    /// of one workload and seed, traced or not.
    pub counts: Vec<(String, u64)>,
    /// Deterministic counters only a traced run observes: fast events by
    /// kind and the barrier samples.
    pub traced_counts: Vec<(String, u64)>,
    /// Host seconds: shard busy and critical path always, fast-event
    /// spans by kind when traced.
    pub spans: Vec<(String, f64)>,
    /// Traced only: host seconds of each epoch, barrier to barrier.
    pub epochs: Vec<f64>,
    /// Host seconds of one [`Reference`] pass: the mean of the passes the
    /// parent ran just before and just after this repetition. Set by the
    /// parent; the child does not send it.
    pub ref_s: f64,
}

/// Host seconds one [`Reference`] pass is scaled to: about what it takes
/// on a 2-vCPU cloud VM, so that normalised times read close to wall
/// times there.
pub const REF_NOMINAL_S: f64 = 0.06;

/// A fixed host workload that runs none of the simulator's code but has
/// its mix, each part about a quarter of the time: random reads over a
/// 32 MiB table (page and world tables), a binary heap of timestamps (the
/// event queue), boxed small objects through a FIFO (closures and
/// messages), and an integer hash chain. Its host time tracks how fast the
/// machine is at the moment; timed around every repetition, it turns
/// measured seconds into seconds at a nominal machine speed (see
/// [`Rep::norm`]). A change to the simulator cannot move it.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: (0..1u64 << 22)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        }
    }

    /// Host seconds of one pass.
    pub fn time(&self) -> f64 {
        let mask = self.table.len() - 1;
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..1_500_000 {
            acc = acc.wrapping_add(self.table[next() as usize & mask]);
        }
        let mut heap = std::collections::BinaryHeap::with_capacity(4096);
        for _ in 0..300_000 {
            heap.push(std::cmp::Reverse(next() >> 20));
            if heap.len() > 4000 {
                heap.pop();
            }
        }
        let mut fifo = std::collections::VecDeque::with_capacity(1024);
        for i in 0..600_000u64 {
            fifo.push_back(Box::new([i; 6]));
            if fifo.len() > 1000 {
                acc = acc.wrapping_add(fifo.pop_front().map_or(0, |b| b[0]));
            }
        }
        for i in 0..7_000_000u64 {
            acc = (acc ^ i).wrapping_mul(0x100_0000_01b3).rotate_left(7);
        }
        std::hint::black_box((acc, heap.len(), fifo.len()));
        t0.elapsed().as_secs_f64()
    }
}

/// Build and run one repetition of `workload`.
pub fn run_rep(workload: Workload, seed: u64, size: Size, workers: usize, trace: bool) -> Rep {
    let t0 = Instant::now();
    let (mut run, mut coordinator, plan) = worlds::build(workload, seed, size).into_run();
    if trace {
        assert!(run.len() <= MAX_SHARDS, "too many shards to trace");
        for (i, acc) in SPANS.iter().enumerate() {
            for a in acc.count.iter().chain(&acc.timed).chain(&acc.nanos) {
                a.store(0, Relaxed);
            }
            acc.rng.store(0x9e37_79b9_7f4a_7c15 ^ i as u64, Relaxed);
        }
        for i in 0..run.len() {
            run.shard(i).set_fast_handler(traced);
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let rss_after_build_mb = proc_status_mb("VmRSS:");

    let mut barriers = Vec::new();
    let mut last_shard: Option<usize> = None;
    let (mut pending_max, mut channels_max) = (0usize, 0usize);
    let t1 = Instant::now();
    let stats = run.run(workers, plan.deadline, coordinator.as_mut(), |i, sim| {
        if trace {
            // `done` visits the active shards in index order once per
            // barrier, so a non-increasing index starts the next barrier.
            if last_shard.is_none_or(|l| i <= l) {
                barriers.push(t1.elapsed().as_secs_f64());
            }
            last_shard = Some(i);
            pending_max = pending_max.max(sim.events_pending());
            channels_max = channels_max.max(sim.state().net.debug_active_channels().len());
        }
        plan.settled(i, sim)
    });
    let run_s = t1.elapsed().as_secs_f64();
    let worlds = run.into_worlds();

    let mut spans = vec![
        ("shard.busy_s".to_string(), stats.busy_total().as_secs_f64()),
        (
            "shard.critical_path_s".to_string(),
            stats.critical_path.as_secs_f64(),
        ),
    ];
    let mut traced_counts = Vec::new();
    if trace {
        for (name, (count, secs)) in KINDS.iter().zip(fast_spans(clock_cost_ns())) {
            traced_counts.push((format!("fast.{name}"), count));
            spans.push((format!("fast.{name}_s"), secs));
        }
        traced_counts.push(("event.pending_max".to_string(), pending_max as u64));
        traced_counts.push(("net.active_channels_max".to_string(), channels_max as u64));
    }
    let epochs = barriers
        .iter()
        .scan(0.0, |prev, &t| Some(t - std::mem::replace(prev, t)))
        .collect();
    Rep {
        setup_s,
        run_s,
        rss_after_build_mb,
        checks: plan.checks(&worlds),
        counts: exact_counts(&worlds, stats.epochs),
        traced_counts,
        spans,
        epochs,
        peak_rss_mb: proc_status_mb("VmHWM:"),
        ref_s: 0.0,
    }
}

/// Counters read from the finished worlds, summed over shards.
fn exact_counts(worlds: &[Sim], epochs: u64) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = vec![("shard.epochs".to_string(), epochs)];
    let mut add = |name: &str, v: u64| match out.iter_mut().find(|(n, _)| n == name) {
        Some((_, sum)) => *sum += v,
        None => out.push((name.to_string(), v)),
    };
    for sim in worlds {
        let w = sim.state();
        add("event.events", sim.events_executed());
        add("netdrv.polls", w.netdrv.polls);
        add("netdrv.idle_polls", w.netdrv.idle_polls);
        let tx = w.hosts.iter().map(|h| w.net.node_tx_bytes(h.node)).sum();
        add("net.tx_bytes", tx);
        // A migrated VM's source-side swap device and memory image are
        // retained on its migration record.
        let swaps = w.vms.iter().map(|v| &v.swap);
        let retained = w.migrations.iter().filter_map(|m| m.source_swap.as_ref());
        let io: Vec<_> = swaps.chain(retained).map(|s| s.counters()).collect();
        add("swap.read_bytes", io.iter().map(|c| c.read_bytes).sum());
        add("swap.write_bytes", io.iter().map(|c| c.write_bytes).sum());
        let mems = w.vms.iter().map(|v| v.vm.memory());
        let retained = w.migrations.iter().filter_map(|m| m.source_mem.as_ref());
        let faults = mems.chain(retained).map(|m| m.counters().major_faults);
        add("guest.major_faults", faults.sum());
        let migs = || w.migrations.iter();
        let met = || migs().map(|m| m.src.metrics());
        add("migrate.count", migs().count() as u64);
        add(
            "migrate.finished",
            migs().filter(|m| m.finished).count() as u64,
        );
        add("migrate.bytes", met().map(|m| m.migration_bytes).sum());
        add("migrate.pages_full", met().map(|m| m.pages_sent_full).sum());
        add(
            "migrate.pages_retransmitted",
            met().map(|m| m.pages_retransmitted).sum(),
        );
        add(
            "sched.started",
            w.sched.as_ref().map_or(0, |s| s.counters.started),
        );
        add(
            "wlctl.ticks",
            w.wldrv.as_ref().map_or(0, |d| d.counters.ticks),
        );
        add(
            "clonectl.hydrated_pages",
            w.clone.as_ref().map_or(0, |x| x.counters.hydrated_pages),
        );
    }
    out
}

/// FNV-1a over counter names and values: one number that changes when
/// any simulated output the benchmark reads changes.
pub fn digest(counts: &[(String, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, v) in counts {
        for b in name.bytes().chain(v.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A `/proc/self/status` size field (`VmRSS:`, `VmHWM:`) in MB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("status field present");
    kib * 1024.0 / 1e6
}

impl Rep {
    /// Serialise for the parent process: one `kind name value` line each.
    pub fn to_lines(&self) -> String {
        let mut s = format!(
            "setup_s {}\nrun_s {}\nrss_after_build_mb {}\npeak_rss_mb {}\n",
            self.setup_s, self.run_s, self.rss_after_build_mb, self.peak_rss_mb
        );
        for (n, ok) in &self.checks {
            s += &format!("check {n} {ok}\n");
        }
        for (n, v) in &self.counts {
            s += &format!("count {n} {v}\n");
        }
        for (n, v) in &self.traced_counts {
            s += &format!("tcount {n} {v}\n");
        }
        for (n, v) in &self.spans {
            s += &format!("span {n} {v}\n");
        }
        for e in &self.epochs {
            s += &format!("epoch {e}\n");
        }
        s
    }

    /// Inverse of [`Rep::to_lines`].
    pub fn parse(text: &str) -> Result<Rep, String> {
        let mut r = Rep::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("bad line from child: {line:?}");
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match f.as_slice() {
                ["setup_s", v] => r.setup_s = num(v)?,
                ["run_s", v] => r.run_s = num(v)?,
                ["rss_after_build_mb", v] => r.rss_after_build_mb = num(v)?,
                ["peak_rss_mb", v] => r.peak_rss_mb = num(v)?,
                ["check", n, v] => r.checks.push((n.to_string(), *v == "true")),
                ["count", n, v] => r.counts.push((n.to_string(), int(v)?)),
                ["tcount", n, v] => r.traced_counts.push((n.to_string(), int(v)?)),
                ["span", n, v] => r.spans.push((n.to_string(), num(v)?)),
                ["epoch", v] => r.epochs.push(num(v)?),
                _ => return Err(bad()),
            }
        }
        if r.run_s > 0.0 && r.peak_rss_mb > 0.0 && !r.counts.is_empty() {
            Ok(r)
        } else {
            Err(format!("incomplete result from child: {text:?}"))
        }
    }

    /// `raw_s` host seconds of this repetition at the nominal machine
    /// speed: scaled by [`REF_NOMINAL_S`] over the reference time
    /// measured around it.
    pub fn norm(&self, raw_s: f64) -> f64 {
        raw_s * REF_NOMINAL_S / self.ref_s
    }

    /// Host seconds of a named span (0 when absent).
    pub fn span(&self, name: &str) -> f64 {
        lookup(&self.spans, name).unwrap_or(0.0)
    }

    /// A deterministic counter, from either list (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        lookup(&self.counts, name)
            .or_else(|| lookup(&self.traced_counts, name))
            .unwrap_or(0)
    }
}

fn lookup<T: Copy>(list: &[(String, T)], name: &str) -> Option<T> {
    list.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}
