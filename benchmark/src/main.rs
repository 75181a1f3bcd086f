//! Host-time, set-up and memory benchmark of the agile-migration simulator.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1
//!     Repeat W for T seconds and print one JSON line: the end-to-end
//!     metrics (--trace 0) or the per-layer metrics (--trace 1).
//! benchmark --runs R [--seed S] [--out DIR]
//!     Every workload R times, interleaved, then one traced run each;
//!     prints every metric and writes DIR/results.json and
//!     DIR/trace_<workload>.json.
//! benchmark --compare PARENT.json CHANGE.json
//!     Compare two results.json files against the BENCHMARK.json bounds.
//! ```
//!
//! Every repetition is a fresh child process (`--child W --seed S --trace
//! 0|1`), so each has its own peak RSS and a cold start, as a user running
//! one simulation has. Children run one at a time.

mod probe;
mod report;
mod worlds;

use std::io::Read;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use probe::Rep;
use report::{median, metrics_json, num, per_layer, Json, Metric};
use worlds::{Size, Workload};

/// A child still running after this long is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// An end-to-end metric: name, unit, and how to read it off a repetition.
type EndToEnd = (&'static str, &'static str, fn(&Rep) -> f64);

/// All are host-side and lower is better; times are at the nominal
/// machine speed (`Rep::norm`).
const END_TO_END: [EndToEnd; 3] = [
    ("run_s", "s", |r| r.norm(r.run_s)),
    ("setup_s", "s", |r| r.norm(r.setup_s)),
    ("peak_rss_mb", "MB", |r| r.peak_rss_mb),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Worker threads for the epoch harness: at most two, never more than
/// the machine has.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Every flag and how many values it takes.
const FLAGS: [(&str, usize); 8] = [
    ("--workload", 1),
    ("--seed", 1),
    ("--seconds", 1),
    ("--trace", 1),
    ("--runs", 1),
    ("--out", 1),
    ("--child", 1),
    ("--compare", 2),
];

/// Split the command line into `(flag, values)`; unknown flags and
/// missing values are errors.
fn parse_flags(args: &[String]) -> Result<Vec<(&str, Vec<&str>)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let &(flag, n) = FLAGS
            .iter()
            .find(|(f, _)| f == arg)
            .ok_or(format!("unknown argument {arg:?}"))?;
        let values: Vec<&str> = it.by_ref().take(n).map(String::as_str).collect();
        if values.len() < n {
            return Err(format!("{flag} takes {n} value(s)"));
        }
        out.push((flag, values));
    }
    Ok(out)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let values = |flag: &str| flags.iter().find(|(f, _)| *f == flag).map(|(_, v)| v);
    let value = |flag: &str| values(flag).map(|v| v[0]);
    let int = |flag: &str, default: Option<u64>| -> Result<u64, String> {
        match value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number")),
            None => default.ok_or(format!("{flag} is required")),
        }
    };
    let workload = |flag: &str| -> Result<Workload, String> {
        let name = value(flag).ok_or(format!("{flag} is required"))?;
        Workload::parse(name).ok_or(format!("unknown workload {name:?}"))
    };
    let trace = || match value("--trace") {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("--trace takes 0 or 1, not {v:?}")),
    };

    if value("--child").is_some() {
        let rep = probe::run_rep(
            workload("--child")?,
            int("--seed", None)?,
            Size::Bench,
            workers(),
            trace()?,
        );
        print!("{}", rep.to_lines());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(paths) = values("--compare") {
        return compare(paths[0], paths[1]);
    }
    if value("--runs").is_some() {
        let out = value("--out").unwrap_or("target/benchmark");
        return suite(
            int("--seed", Some(42))?,
            int("--runs", None)?,
            Path::new(out),
        );
    }
    measure(
        workload("--workload")?,
        int("--seed", None)?,
        int("--seconds", None)?,
        trace()?,
    )
}

/// Run one repetition in a fresh child process.
fn spawn_rep(workload: Workload, seed: u64, trace: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", workload.name(), "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if start.elapsed() <= CHILD_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(match other {
                    Err(e) => format!("wait: {e}"),
                    _ => format!("timed out after {CHILD_TIMEOUT:?}"),
                });
            }
        }
    };
    let out = reader
        .join()
        .expect("stdout reader does not panic")
        .map_err(|e| format!("read child output: {e}"))?;
    match status? {
        s if !s.success() => Err(format!("child {s}")),
        _ => Rep::parse(&out),
    }
}

/// Runs repetitions one after another, with a reference pass between
/// each two, so that every repetition is bracketed by two passes.
struct Runner {
    reference: probe::Reference,
    last_ref_s: f64,
}

impl Runner {
    fn new() -> Self {
        let reference = probe::Reference::new();
        let last_ref_s = reference.time();
        Runner {
            reference,
            last_ref_s,
        }
    }

    fn rep(&mut self, workload: Workload, seed: u64, trace: bool) -> Result<Rep, String> {
        let result = spawn_rep(workload, seed, trace);
        let after = self.reference.time();
        let ref_s = (self.last_ref_s + after) / 2.0;
        self.last_ref_s = after;
        result.map(|rep| Rep { ref_s, ..rep })
    }
}

/// The repetitions of one workload at one seed.
#[derive(Default)]
struct RepSet {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    attempted: u64,
    /// Repetitions that crashed, timed out, failed a check, or read
    /// counters different from the set's first repetition.
    failed: u64,
}

impl RepSet {
    fn add(&mut self, workload: Workload, result: Result<Rep, String>) {
        self.attempted += 1;
        match result.and_then(|rep| self.accept(rep)) {
            Ok(()) => {}
            Err(e) => {
                self.failed += 1;
                eprintln!("{}: repetition failed: {e}", workload.name());
            }
        }
    }

    fn accept(&mut self, rep: Rep) -> Result<(), String> {
        let failing: Vec<&str> = rep
            .checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(n, _)| n.as_str())
            .collect();
        if !failing.is_empty() {
            return Err(format!("checks failed: {}", failing.join(", ")));
        }
        if self.first().is_some_and(|f| f.counts != rep.counts) {
            return Err("counters differ from the first repetition".into());
        }
        let traced = !rep.traced_counts.is_empty();
        if traced {
            if let Some(f) = self.traced.first() {
                if f.traced_counts != rep.traced_counts {
                    return Err("traced counters differ from the first traced repetition".into());
                }
            }
            self.traced.push(rep);
        } else {
            self.plain.push(rep);
        }
        Ok(())
    }

    fn samples(&self, f: fn(&Rep) -> f64) -> Vec<f64> {
        self.plain.iter().map(f).collect()
    }

    fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|&(name, unit, f)| Metric {
                name,
                unit,
                value: median(&self.samples(f)),
            })
            .collect()
    }

    fn per_layer(&self) -> Vec<Metric> {
        let none = [Rep::default()];
        let traced = if self.traced.is_empty() {
            &none[..]
        } else {
            &self.traced
        };
        per_layer(&self.plain, traced, workers())
    }

    /// The first accepted repetition; every other one read the same counts.
    fn first(&self) -> Option<&Rep> {
        self.plain.first().or(self.traced.first())
    }
}

/// One measured run: repeat one workload for `seconds` and print one
/// JSON line. With `trace`, untraced and traced repetitions alternate
/// so the tracing overhead is measured against the same window.
fn measure(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<ExitCode, String> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut set = RepSet::default();
    let mut runner = Runner::new();
    loop {
        let traced = trace && set.attempted % 2 == 1;
        set.add(workload, runner.rep(workload, seed, traced));
        if start.elapsed() >= budget && (!trace || set.attempted >= 2) {
            break;
        }
    }
    let complete = !set.plain.is_empty() && (!trace || !set.traced.is_empty());
    let metrics = if trace {
        set.per_layer()
    } else {
        set.end_to_end()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        set.failed == 0 && complete,
        set.attempted,
        set.failed,
        metrics_json(&metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload `runs` times, interleaved round-robin so that machine
/// drift hits every workload alike, then one traced run each.
fn suite(seed: u64, runs: u64, out: &Path) -> Result<ExitCode, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut sets: Vec<RepSet> = Workload::ALL.iter().map(|_| RepSet::default()).collect();
    let mut runner = Runner::new();
    for r in 0..runs {
        for (w, set) in Workload::ALL.into_iter().zip(&mut sets) {
            eprintln!("run {}/{runs}: {}", r + 1, w.name());
            set.add(w, runner.rep(w, seed, false));
        }
    }
    for (w, set) in Workload::ALL.into_iter().zip(&mut sets) {
        eprintln!("traced run: {}", w.name());
        set.add(w, runner.rep(w, seed, true));
        if let Some(rep) = set.traced.first() {
            let path = out.join(format!("trace_{}.json", w.name()));
            let text = report::trace_json(w.name(), seed, rep);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let entries: Vec<String> = Workload::ALL
        .into_iter()
        .zip(&sets)
        .map(|(w, set)| report_workload(w, seed, set))
        .collect();
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"runs\": {runs},\n  \"workers\": {},\n  \
         \"workloads\": {{\n{}\n  }}\n}}\n",
        workers(),
        entries.join(",\n")
    );
    let path = out.join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {} and the trace files", path.display());
    Ok(if sets.iter().all(|s| s.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Print one workload's metrics and return its `results.json` entry.
fn report_workload(w: Workload, seed: u64, set: &RepSet) -> String {
    let first = set.first();
    let digest = first.map_or("none".into(), |r| {
        format!("{:#018x}", probe::digest(&r.counts))
    });
    println!(
        "\n== {} (seed {seed}, workers {}, digest {digest})",
        w.name(),
        workers()
    );
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>12} {:>3}",
        "end-to-end", "unit", "median", "min", "max", "n"
    );
    let mut e2e = Vec::new();
    for &(name, unit, f) in &END_TO_END {
        let v = set.samples(f);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let med = median(&v);
        println!(
            "{name:<28} {unit:>6} {med:>12.4} {min:>12.4} {max:>12.4} {:>3}",
            v.len()
        );
        let samples: Vec<String> = v.iter().map(|&x| num(x)).collect();
        e2e.push(format!(
            "\"{name}\": {{\"unit\": \"{unit}\", \"better\": \"lower\", \"median\": {}, \
             \"min\": {}, \"max\": {}, \"n\": {}, \"samples\": [{}]}}",
            num(med),
            num(min),
            num(max),
            v.len(),
            samples.join(", ")
        ));
    }
    println!(
        "{:<28} {:>6} {:>12} of {} runs",
        "failed_runs", "count", set.failed, set.attempted
    );
    let layers = set.per_layer();
    println!(
        "{:<28} {:>6} {:>16}",
        "per-layer (traced run)", "unit", "value"
    );
    for m in &layers {
        let v = m.value;
        let v = if v.fract() == 0.0 {
            format!("{v}")
        } else {
            format!("{v:.6}")
        };
        println!("{:<28} {:>6} {v:>16}", m.name, m.unit);
    }
    let pairs = |f: &dyn Fn(&Rep) -> Vec<String>| first.map(f).unwrap_or_default().join(", ");
    let checks = pairs(&|r| {
        r.checks
            .iter()
            .map(|(n, ok)| format!("\"{n}\": {ok}"))
            .collect()
    });
    let counters = pairs(&|r| {
        r.counts
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect()
    });
    format!(
        "    \"{}\": {{\n      \"digest\": \"{digest}\",\n      \"attempted\": {},\n      \
         \"failed_runs\": {},\n      \"checks\": {{{checks}}},\n      \
         \"end_to_end\": {{{}}},\n      \"per_layer\": {},\n      \
         \"counters\": {{{counters}}}\n    }}",
        w.name(),
        set.attempted,
        set.failed,
        e2e.join(", "),
        metrics_json(&layers),
    )
}

/// `--compare`: print one verdict row per (workload, end-to-end metric)
/// and fail when any metric got worse by more than its bound.
fn compare(parent: &str, change: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, worse) = report::compare(&load(parent)?, &load(change)?, &load("BENCHMARK.json")?);
    print!("{table}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use agile_cluster::scenario::{datacenter, diurnal, scaleout, single_vm};
    use agile_migration::Technique;
    use agile_sim_core::GIB;

    use super::*;

    /// Run a ported workload at its smoke size and hand back the worlds.
    fn ported(workload: Workload) -> Vec<worlds::Sim> {
        let (mut run, mut coordinator, plan) = worlds::build(workload, 42, Size::Smoke).into_run();
        run.run(2, plan.deadline, coordinator.as_mut(), |i, sim| {
            plan.settled(i, sim)
        });
        run.into_worlds()
    }

    fn events(worlds: &[worlds::Sim]) -> Vec<u64> {
        worlds.iter().map(|s| s.events_executed()).collect()
    }

    // One test: the traced handler's accumulators are process-wide.
    #[test]
    fn every_workload_passes_its_checks_traced_and_untraced() {
        for w in Workload::ALL {
            let plain = probe::run_rep(w, 42, Size::Smoke, 2, false);
            let traced = probe::run_rep(w, 42, Size::Smoke, 2, true);
            for (name, ok) in &plain.checks {
                assert!(ok, "{}: check {name} failed", w.name());
            }
            assert_eq!(plain.checks, traced.checks, "{}", w.name());
            assert_eq!(
                plain.counts,
                traced.counts,
                "{}: tracing perturbed",
                w.name()
            );
            let fast: u64 = probe::KINDS
                .iter()
                .map(|k| traced.count(&format!("fast.{k}")))
                .sum();
            let events = plain.count("event.events");
            assert!(
                fast > 0 && fast <= events,
                "{}: {fast} of {events}",
                w.name()
            );
            assert!(!traced.epochs.is_empty());
            assert_eq!(Rep::parse(&traced.to_lines()), Ok(traced));
        }
    }

    #[test]
    fn ported_worlds_reproduce_the_library_scenarios() {
        let dc = datacenter::run(&datacenter::DatacenterConfig::small());
        let ported_dc: u64 = events(&ported(Workload::Datacenter)).iter().sum();
        assert_eq!(ported_dc, dc.events_executed);

        let arms = [scaleout::CloneArm::Streamed, scaleout::CloneArm::Precopy];
        let clone = scaleout::run_replicated(
            &arms.map(|arm| scaleout::ScaleoutConfig {
                arm,
                clones: worlds::CLONES,
                scale: 64,
                ..Default::default()
            }),
            2,
        );
        let want: Vec<u64> = clone.iter().map(|r| r.events_executed).collect();
        assert_eq!(events(&ported(Workload::CloneCrowd)), want);

        let day = diurnal::run_replicated(
            &[false, true].map(|predict| diurnal::DiurnalConfig {
                predict,
                scale: 256,
                period_secs: worlds::DIURNAL_PERIOD_S,
                flash1_secs: worlds::DIURNAL_FLASH_S[0],
                flash2_secs: worlds::DIURNAL_FLASH_S[1],
                deadline_secs: worlds::DIURNAL_DEADLINE_S,
                ..Default::default()
            }),
            2,
        );
        let want: Vec<u64> = day.iter().map(|r| r.events_executed).collect();
        assert_eq!(events(&ported(Workload::DiurnalYcsb)), want);

        // `single_vm` reports no event count; its migrations must match.
        let fig7 = ported(Workload::Fig7Busy);
        for (sim, technique) in
            fig7.iter()
                .zip([Technique::PreCopy, Technique::PostCopy, Technique::Agile])
        {
            let lib = single_vm::run(&single_vm::SingleVmConfig {
                technique,
                vm_mem: 12 * GIB,
                busy: true,
                scale: 64,
                ..Default::default()
            });
            let met = sim.state().migrations[0].src.metrics();
            assert_eq!(met.migration_bytes, lib.migration_bytes, "{technique:?}");
            assert_eq!(
                met.pages_sent_full, lib.metrics.pages_sent_full,
                "{technique:?}"
            );
        }
    }
}
