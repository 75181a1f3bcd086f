//! Statistics, the per-layer table, `results.json`, and the comparison of
//! two result files.

use std::fmt::Write;

use crate::probe::{Rep, KINDS};

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

// Which fast-event kinds belong to a layer. Controller ticks (sched,
// wlctl, clonectl, wssctl, poolctl, chaos) are every kind outside the
// network, device and guest layers.
fn is_net(k: &str) -> bool {
    k.starts_with("netdrv.")
}
fn is_device(k: &str) -> bool {
    k.starts_with("vmdio.")
}
fn is_guest(k: &str) -> bool {
    k.starts_with("guest.")
}
fn is_ctl(k: &str) -> bool {
    !is_net(k) && !is_device(k) && !is_guest(k)
}
/// Guest ops and controller ticks: every timer kind. Reported as one
/// time because each alone is zero on some workload.
fn is_timer(k: &str) -> bool {
    is_guest(k) || is_ctl(k)
}
fn is_any(_: &str) -> bool {
    true
}

/// A named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The per-layer table from the untraced (`plain`) and traced (at least
/// one) repetitions of a run. Host times are raw medians over the traced
/// repetitions; counts come from the first, since every traced
/// repetition's counts are checked equal.
pub fn per_layer(plain: &[Rep], traced: &[Rep], workers: usize) -> Vec<Metric> {
    let first = &traced[0];
    let plain_med = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let run_wall_s = plain_med(&|r| r.run_s);
    let count = |name: &str| first.count(name) as f64;
    let fast_count = |layer: fn(&str) -> bool| -> f64 {
        KINDS
            .iter()
            .filter(|k| layer(k))
            .map(|k| first.count(&format!("fast.{k}")) as f64)
            .sum()
    };
    let fast_s = |r: &Rep, layer: fn(&str) -> bool| -> f64 {
        KINDS
            .iter()
            .filter(|k| layer(k))
            .map(|k| r.span(&format!("fast.{k}_s")))
            .sum()
    };
    let med = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let events = count("event.events");
    let polls = count("netdrv.polls");
    let idle = count("netdrv.idle_polls");
    let poll_s = med(&|r| fast_s(r, is_net));
    let busy_s = med(&|r| r.span("shard.busy_s"));
    let critical_s = med(&|r| r.span("shard.critical_path_s"));
    let traced_run_s = med(&|r| r.run_s);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("host.run_wall_s", "s", run_wall_s),
        m("host.ref_s", "s", plain_med(&|r| r.ref_s)),
        m("event.events", "count", events),
        m("event.closures", "count", events - fast_count(is_any)),
        m("event.per_s", "1/s", ratio(events, run_wall_s)),
        m(
            "event.closure_queue_s",
            "s",
            med(&|r| r.span("shard.busy_s") - fast_s(r, is_any)),
        ),
        m("event.pending_max", "count", count("event.pending_max")),
        m("netdrv.polls", "count", polls),
        m("netdrv.idle_polls", "count", idle),
        m("netdrv.useful_ratio", "ratio", ratio(polls - idle, polls)),
        m("netdrv.poll_s", "s", poll_s),
        m("netdrv.ns_per_poll", "ns", ratio(poll_s * 1e9, polls)),
        m(
            "net.active_channels_max",
            "count",
            count("net.active_channels_max"),
        ),
        m("net.tx_bytes", "B", count("net.tx_bytes")),
        m("vmdio.device_ops", "count", fast_count(is_device)),
        m("swap.read_bytes", "B", count("swap.read_bytes")),
        m("swap.write_bytes", "B", count("swap.write_bytes")),
        m("guest.ops", "count", fast_count(is_guest)),
        m("guest.major_faults", "count", count("guest.major_faults")),
        m("ctl.ticks", "count", fast_count(is_ctl)),
        m("timers.s", "s", med(&|r| fast_s(r, is_timer))),
        m("migrate.count", "count", count("migrate.count")),
        m("migrate.bytes", "B", count("migrate.bytes")),
        m("migrate.pages_full", "count", count("migrate.pages_full")),
        m(
            "migrate.pages_retransmitted",
            "count",
            count("migrate.pages_retransmitted"),
        ),
        m("shard.epochs", "count", count("shard.epochs")),
        m("shard.busy_s", "s", busy_s),
        m("shard.critical_path_s", "s", critical_s),
        m("shard.parallelism", "ratio", ratio(busy_s, critical_s)),
        m(
            "shard.efficiency",
            "ratio",
            ratio(busy_s, workers as f64 * traced_run_s),
        ),
        m(
            "mem.rss_after_build_mb",
            "MB",
            med(&|r| r.rss_after_build_mb),
        ),
        m(
            "trace.overhead",
            "ratio",
            ratio(med(&|r| r.norm(r.run_s)), plain_med(&|r| r.norm(r.run_s))) - 1.0,
        ),
    ]
}

/// A JSON number; JSON has no NaN or infinity, so those become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` (names need no escaping).
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The trace file of one traced repetition: self time per fast-event
/// kind, the closure queue as busy time minus every fast span, and the
/// epoch spans.
pub fn trace_json(workload: &str, seed: u64, rep: &Rep) -> String {
    let mut s = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"run_s\": {},\n  \
         \"shard_busy_s\": {},\n  \"fast_events\": {{\n",
        num(rep.run_s),
        num(rep.span("shard.busy_s")),
    );
    let rows: Vec<String> = KINDS
        .iter()
        .map(|k| {
            format!(
                "    \"{k}\": {{\"count\": {}, \"self_s\": {}}}",
                rep.count(&format!("fast.{k}")),
                num(rep.span(&format!("fast.{k}_s")))
            )
        })
        .collect();
    let fast_total: f64 = KINDS.iter().map(|k| rep.span(&format!("fast.{k}_s"))).sum();
    let epochs: Vec<String> = rep.epochs.iter().map(|&e| num(e)).collect();
    let _ = write!(
        s,
        "{}\n  }},\n  \"closure_queue_self_s\": {},\n  \"epoch_spans_s\": [{}]\n}}\n",
        rows.join(",\n"),
        num(rep.span("shard.busy_s") - fast_total),
        epochs.join(", ")
    );
    s
}

// ------------------------------------------------------------- JSON input

/// A parsed JSON value (enough for `results.json` and `BENCHMARK.json`).
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing data at byte {}", p.i))
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON: expected {what} at byte {}", self.i))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return self.err("':'");
                    }
                    kv.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(kv));
                    }
                    if !self.eat(",") {
                        return self.err("',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.err("',' or ']'");
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                match text.parse() {
                    Ok(v) => Ok(Json::Num(v)),
                    Err(_) => self.err("a value"),
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("a string");
        }
        let mut out = Vec::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = self.s.get(self.i).copied();
                    self.i += 1;
                    match e {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return self.err("a supported escape"),
                    }
                }
                c => out.push(c),
            }
        }
        self.err("a closing quote")
    }
}

// ---------------------------------------------------------------- compare

/// One row per (workload, end-to-end metric) of two `results.json` files,
/// judged against the bounds in `BENCHMARK.json`. Returns the table and
/// whether any row is "worse".
pub fn compare(parent: &Json, change: &Json, bench: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>30} {:>30}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]"
    );
    for (wname, pw) in parent.get("workloads").map_or(&[][..], Json::entries) {
        let Some(cw) = change.get("workloads").and_then(|w| w.get(wname)) else {
            let _ = writeln!(out, "{wname:<14} missing from the change's results");
            continue;
        };
        for spec in bench.get("end_to_end").map_or(&[][..], Json::items) {
            let (Some(metric), Some(bound)) = (
                spec.get("name").and_then(Json::as_str),
                spec.get("bound").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let lower_better = spec.get("better").and_then(Json::as_str) != Some("higher");
            let samples = |w: &Json| -> Vec<f64> {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(|m| m.get("samples"))
                    .map_or(&[][..], Json::items)
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect()
            };
            let (p, c) = (samples(pw), samples(cw));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let verdict = verdict(&p, &c, bound, lower_better);
            any_worse |= verdict == "worse";
            let show = |v: &[f64]| {
                let (q1, q3) = quartiles(v).unwrap_or((v[0], v[0]));
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            let _ = writeln!(
                out,
                "{wname:<14} {metric:<12} {:>30} {:>30}  {verdict}",
                show(&p),
                show(&c)
            );
        }
        let digest = |w: &Json| w.get("digest").and_then(Json::as_str).map(str::to_string);
        if digest(pw) != digest(cw) {
            let _ = writeln!(out, "{wname:<14} simulated output changed (counter digest)");
        }
    }
    (out, any_worse)
}

/// better / same / worse / unresolved for one metric. Better when every
/// change sample beats every parent sample, or when the change wins nine
/// tenths of all (parent, change) pairs and its median is better by more
/// than the parent's quartile spread. Otherwise unresolved when that
/// spread exceeds the bound, worse when the median is worse by more than
/// the bound.
fn verdict(parent: &[f64], change: &[f64], bound: f64, lower_better: bool) -> &'static str {
    // Orient so that smaller is always better.
    let sign = if lower_better { 1.0 } else { -1.0 };
    let p: Vec<f64> = parent.iter().map(|v| v * sign).collect();
    let c: Vec<f64> = change.iter().map(|v| v * sign).collect();
    let (pm, cm) = (median(&p), median(&c));
    let (q1, q3) = quartiles(&p).unwrap_or((pm, pm));
    let spread = (q3 - q1) / pm.abs();
    let pairs = p.len() * c.len();
    let wins = c
        .iter()
        .map(|cv| p.iter().filter(|&pv| cv < pv).count())
        .sum::<usize>();
    let rel = (cm - pm) / pm.abs();
    if wins == pairs || (wins * 10 >= pairs * 9 && cm < pm - (q3 - q1)) {
        "better"
    } else if spread > bound {
        "unresolved"
    } else if rel > bound {
        "worse"
    } else {
        "same"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_round_trips_what_the_benchmark_writes() {
        let j = Json::parse(r#"{"a": [1, 2.5e0, -3], "b": {"c": "x\"y"}, "d": true, "e": null}"#)
            .expect("valid JSON");
        assert_eq!(j.get("a").map(Json::items).map(<[Json]>::len), Some(3));
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"y")
        );
        assert!(Json::parse("{\"a\": }").is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_parent_spread() {
        let p = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(verdict(&p, &[1.3, 1.31, 1.29], 0.1, true), "worse");
        assert_eq!(verdict(&p, &[1.0, 1.01, 1.0], 0.1, true), "same");
        assert_eq!(verdict(&p, &[0.8, 0.81, 0.79], 0.1, true), "better");
        let noisy = [1.0, 2.0, 0.5, 1.5, 0.7];
        assert_eq!(verdict(&noisy, &[1.1, 1.2, 1.0], 0.1, true), "unresolved");
    }
}
