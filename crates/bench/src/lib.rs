//! # agile-bench
//!
//! The benchmark harness: one binary per paper figure/table (see
//! `src/bin/`) plus self-contained micro- and ablation benches
//! (`benches/`, built on [`harness`]).
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig4_6_ycsb_timeline` | Figures 4–6 (YCSB throughput timelines) |
//! | `fig7_8_single_vm_sweep` | Figures 7–8 (migration time / data vs VM size) |
//! | `table1_3_app_perf` | Tables I–III (app perf, migration time, data) |
//! | `fig9_10_wss_tracking` | Figures 9–10 (WSS tracking) |
//! | `run_all` | everything above, writing CSVs under `--out` |
//!
//! All binaries accept `--scale N` (divide the paper's byte sizes by `N`;
//! default 8 — qualitatively identical in a fraction of the wall time) and
//! `--out DIR` for CSV output.

use std::path::{Path, PathBuf};

use agile_cluster::world::NetPayload;

/// Minimal CLI argument scraper shared by the experiment binaries.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--name <v>`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// The scale divisor (default 8).
    pub fn scale(&self) -> u64 {
        self.get("scale").unwrap_or(8)
    }

    /// The output directory for CSVs (default `target/experiments`).
    pub fn out_dir(&self) -> PathBuf {
        self.get::<String>("out")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/experiments"))
    }

    /// Presence of a bare `--name` flag.
    pub fn flag(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::parse()
    }
}

/// Map `f` over `items` on up to `available_parallelism()` scoped threads,
/// returning results in input order. The experiment binaries use this for
/// their embarrassingly parallel sweep points; each point is an
/// independent simulation, so ordering the results by input index keeps
/// the output deterministic regardless of scheduling.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|o| o.expect("worker produced result"))
            .collect()
    })
}

/// Write a CSV file, creating the directory as needed.
pub fn write_csv(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Render a `(seconds, value)` series as CSV text.
pub fn series_csv(header: &str, series: &[(u64, f64)]) -> String {
    let mut s = String::with_capacity(series.len() * 12 + header.len() + 1);
    s.push_str(header);
    s.push('\n');
    for (t, v) in series {
        s.push_str(&format!("{t},{v:.2}\n"));
    }
    s
}

/// Format seconds for table cells.
pub fn fmt_secs(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:.1}"),
        None => "—".into(),
    }
}

pub mod seed_baseline;

/// The fluid network of a `datacenter` shard, for the
/// `network/send_poll_rack_trunk` kernel: 32 racked 1 Gbps NICs, the first
/// 24 each running an endless bulk flow over the rack's 10 Gbps uplink to
/// a spine node, and 16 idle intra-rack pairs `i → i + 1` for `i` in
/// 16..32, so half the pairs send from a NIC a bulk flow also uses.
/// Returns the network and the pairs.
pub fn rack_trunk_network() -> (agile_sim_core::Network, Vec<agile_sim_core::ChannelId>) {
    use agile_sim_core::{Bandwidth, Network, SimDuration, SimTime};
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
    (net, pairs)
}

/// One preloaded idle VM's memory image, for the
/// `vmmemory/build_sparse_vm` kernel: a 16,384-page (64 MiB) guest whose
/// first 2,048 pages are faulted in by writes, the shape of every VM the
/// `datacenter` scenario builds.
pub fn build_sparse_vm(evictions: &mut Vec<agile_memory::Eviction>) -> agile_memory::VmMemory {
    use agile_memory::{VmMemory, VmMemoryConfig};
    let mut mem = VmMemory::new(VmMemoryConfig {
        pages: 16_384,
        page_size: 4096,
        limit_pages: 16_384,
    });
    for p in 0..2_048u32 {
        mem.touch(p, true);
        mem.fault_in(p, true, evictions);
    }
    mem
}

/// The world's delivery-payload registry in steady state, for the
/// `world/payload_tag_take` kernel: [`PayloadChurn::LIVE`] payloads of
/// the full 112-byte [`NetPayload`] size stay registered, and every step
/// registers one more and takes the oldest, as one send and one delivery
/// do.
pub struct PayloadChurn {
    slab: agile_cluster::Slab<NetPayload>,
    live: std::collections::VecDeque<u32>,
    next_pfn: u32,
}

impl PayloadChurn {
    /// Payloads registered throughout.
    pub const LIVE: usize = 16_384;

    /// A registry holding [`PayloadChurn::LIVE`] payloads.
    pub fn new() -> Self {
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
    pub fn step(&mut self) -> NetPayload {
        self.insert();
        let oldest = self.live.pop_front().expect("live payloads");
        self.slab.take(oldest).expect("live tag")
    }
}

impl Default for PayloadChurn {
    fn default() -> Self {
        Self::new()
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// MB, or `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Minimal wall-clock micro-benchmark harness. The `benches/` targets and
/// `perf_report` build on this instead of an external framework: calibrate
/// a batch size against the clock, run a few batches, keep the fastest
/// (least-interfered) one.
pub mod harness {
    pub use std::hint::black_box;
    use std::time::Instant;

    /// One measured benchmark.
    #[derive(Clone, Debug)]
    pub struct BenchResult {
        /// Benchmark label, e.g. `"event_queue/schedule_pop"`.
        pub name: String,
        /// Best observed nanoseconds per iteration.
        pub ns_per_iter: f64,
        /// Iterations per measured batch (after calibration).
        pub iters_per_batch: u64,
    }

    impl BenchResult {
        /// Iterations per second at the best observed rate.
        pub fn per_sec(&self) -> f64 {
            1e9 / self.ns_per_iter
        }
    }

    /// Measure `f`, printing one line and returning the result.
    ///
    /// Calibration doubles the batch until it runs ≥ 20 ms, then scales to
    /// a ~100 ms batch; five batches are measured and the fastest kept.
    pub fn bench(name: &str, mut f: impl FnMut()) -> BenchResult {
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt.as_millis() >= 20 {
                let scale = 0.1 / dt.as_secs_f64().max(1e-9);
                iters = ((iters as f64 * scale).ceil() as u64).max(1);
                break;
            }
            iters *= 2;
        }
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            if ns < best {
                best = ns;
            }
        }
        let r = BenchResult {
            name: name.to_string(),
            ns_per_iter: best,
            iters_per_batch: iters,
        };
        println!(
            "{:<44} {:>14.1} ns/iter {:>16.0} iter/s",
            r.name,
            r.ns_per_iter,
            r.per_sec()
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_csv_renders() {
        let csv = series_csv("t,ops", &[(0, 1.0), (1, 2.5)]);
        assert_eq!(csv, "t,ops\n0,1.00\n1,2.50\n");
    }

    #[test]
    fn fmt_secs_handles_none() {
        assert_eq!(fmt_secs(None), "—");
        assert_eq!(fmt_secs(Some(1.25)), "1.2");
    }
}
