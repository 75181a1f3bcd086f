//! # agile-bench
//!
//! The benchmark harness: one binary per paper figure/table and per
//! extension study (see `src/bin/`), plus self-contained micro- and
//! ablation benches (`benches/`, built on [`harness`]). Every bin writes
//! its artifacts through [`ledger::write_artifact`] and checks its claims
//! through one [`ledger::Gate`].
//!
//! | binary | regenerates | writes under `--out` |
//! |--------|-------------|----------------------|
//! | `fig4_6_ycsb_timeline` | Figures 4–6 (YCSB throughput timelines) | `fig4_precopy.csv`, `fig5_postcopy.csv`, `fig6_agile.csv` |
//! | `fig7_8_single_vm_sweep` | Figures 7–8 (migration time / data vs VM size) | `fig7_time_{idle,busy}.csv`, `fig8_bytes_{idle,busy}.csv` |
//! | `table1_3_app_perf` | Tables I–III (app perf, migration time, data) | `table1_3.csv` |
//! | `fig9_10_wss_tracking` | Figures 9–10 (WSS tracking) | `fig9_wss_tracking.csv`, `fig10_wss_throughput.csv` |
//! | `ablations` | the DESIGN.md ablations | stdout only |
//! | `run_all` | the five bins above, in sequence | their CSVs |
//! | `perf_report` | hot-path kernels and sharded scaling | `BENCH_1.json`, `BENCH_2.json` (default `--out .`) |
//! | `trace_export` | phase timelines per technique | `TRACE_<technique>.json`, `TRACE_<technique>.jsonl` |
//! | `chaos_recovery` | fault recovery under VMD crashes and connection drops | `chaos_recovery.csv` (only with `--out`) |
//! | `multihost` | watermark rebalancing | `MULTIHOST_{report.txt,trace.jsonl,metrics.json}` |
//! | `pressure` | elastic-pool reclaim | `PRESSURE_{report.txt,trace.jsonl,metrics.json}` |
//! | `datacenter` | sharded datacenter scaling | `DATACENTER_report.txt`, `DATACENTER_scaling.csv` |
//! | `diurnal` | cycle-predictive scheduling A/B | `BENCH_3.json`, `DIURNAL_*` reports, traces, metrics |
//! | `estimators` | WSS estimator accuracy A/B | `BENCH_4.json`, `ESTIMATORS_*` reports, traces, metrics |
//! | `tiers` | swap-tier crossover sweep | `BENCH_5.json`, `TIERS_report.txt` |
//! | `scaleout` | streamed vs pre-copy cloning A/B | `BENCH_6.json`, `SCALEOUT_report.txt` |
//!
//! The figure bins accept `--scale N` (divide the paper's byte sizes by
//! `N`; default 8 — qualitatively identical in a fraction of the wall
//! time); every bin but `ablations` accepts `--out DIR` (default
//! `target/experiments`, `.` for `perf_report`). A flag value that does
//! not parse is fatal.

#![forbid(unsafe_code)]

use std::path::PathBuf;

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

    /// Value of `--name <v>`, parsed. A value that does not parse exits
    /// the process with status 2, naming the flag and the value.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_get(name).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Value of `--name <v>`: `Ok(None)` if the flag is absent, `Err`
    /// naming the flag and the value if the value does not parse.
    fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let flag = format!("--{name}");
        let Some(v) = self
            .raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
        else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| format!("invalid value {v:?} for {flag}"))
    }

    /// The scale divisor (default 8).
    pub fn scale(&self) -> u64 {
        self.get("scale").unwrap_or(8)
    }

    /// The output directory for artifacts (default `target/experiments`).
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

pub mod kernels;
pub mod ledger;

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
    fn malformed_flag_values_are_errors_naming_flag_and_value() {
        let args = Args {
            raw: ["--scale", "6x4", "--workers", "4", "--out", "dir"]
                .map(String::from)
                .to_vec(),
        };
        let err = args.try_get::<u64>("scale").unwrap_err();
        assert!(err.contains("--scale") && err.contains("6x4"), "{err}");
        assert_eq!(args.try_get::<usize>("workers"), Ok(Some(4)));
        assert_eq!(args.try_get::<u64>("seed"), Ok(None));
        assert_eq!(args.out_dir(), PathBuf::from("dir"));
    }

    #[test]
    fn fmt_secs_handles_none() {
        assert_eq!(fmt_secs(None), "—");
        assert_eq!(fmt_secs(Some(1.25)), "1.2");
    }
}
