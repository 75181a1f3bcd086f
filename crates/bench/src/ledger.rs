//! One way to emit results. Every bench bin writes its artifacts through
//! [`write_artifact`], builds its `BENCH_*.json` ledger as an ordered
//! [`Object`], and checks its claims through one [`Gate`]: each claim is
//! one named check, evaluated once, recorded in the ledger, and fatal to
//! the process if false.
//!
//! The ledger layout is fixed so that checked-in ledgers diff line by
//! line: one top-level member per line, the elements of a top-level array
//! one per line, everything deeper inline.

use std::fmt;
use std::path::{Path, PathBuf};

/// A JSON value. Objects keep their members in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A number, already rendered (integers verbatim, floats via [`fixed`]).
    Number(String),
    /// A string, escaped on rendering.
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Object),
}

/// A JSON object with members in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

/// `x` rendered with `decimals` digits after the point.
pub fn fixed(x: f64, decimals: usize) -> Value {
    Value::Number(format!("{x:.decimals$}"))
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Number(v.to_string())
            }
        }
    )*};
}
number_from!(u64, usize, i64, i128);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Object> for Value {
    fn from(v: Object) -> Self {
        Value::Object(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// An [`Object`] literal, members in the order written:
/// `obj! { "scale": 64u64, "arm": obj! { "ok": true } }`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::ledger::Object::new()$(.field($key, $value))*
    };
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object(Vec::new())
    }

    /// Append the member `key: value`.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Render as a ledger file (see the module docs for the layout).
    pub fn to_ledger(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            s.push_str(&format!("  {}: ", Str(key)));
            match value {
                Value::Array(items) if !items.is_empty() => {
                    s.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        let sep = if j + 1 < items.len() { "," } else { "" };
                        s.push_str(&format!("    {item}{sep}\n"));
                    }
                    s.push_str("  ]");
                }
                _ => s.push_str(&value.to_string()),
            }
            s.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        s.push_str("}\n");
        s
    }
}

/// A string rendered as a quoted, escaped JSON string.
struct Str<'a>(&'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }
}

/// Inline rendering: `{"a": 1, "b": [2, 3]}`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(n) => f.write_str(n),
            Value::Str(s) => Str(s).fmt(f),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(o) => {
                f.write_str("{")?;
                for (i, (key, value)) in o.0.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{}: {value}", Str(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The `(name, ns_per_iter)` records of a `BENCH_1.json` ledger, in file
/// order. The ledger layout puts each record of its `results` array on
/// one line, so a line scan is exact and the workspace needs no JSON
/// library.
pub fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let name = read_str(line.split_once("\"name\": \"")?.1)?;
            let ns = line.split_once("\"ns_per_iter\": ")?.1;
            let ns = ns.split([',', '}']).next()?.trim().parse().ok()?;
            Some((name, ns))
        })
        .collect()
}

/// The JSON string body at the start of `s` (just past its opening
/// quote) with `\"` and `\\` unescaped, or `None` if it is unterminated.
/// Kernel names hold no control characters, so no other escape occurs.
fn read_str(s: &str) -> Option<String> {
    let mut out = String::new();
    let mut chars = s.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

/// Write one artifact (report, trace, CSV, metrics JSON or ledger) as
/// `dir/name`, creating `dir` as needed, and return its path. An
/// artifact that cannot be written is fatal: the run produced nothing.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// The named checks behind one bin's claims. A ledger records the gate
/// as its last member, `"gate": {<params>, "checks": {<name>: <ok>},
/// "passed": <all ok>}`; [`Gate::finish`] then fails the process,
/// listing every failed check by name.
#[derive(Debug, Default)]
pub struct Gate {
    params: Object,
    checks: Vec<(String, bool)>,
}

impl Gate {
    /// A gate with no checks.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Record a fixed parameter of the gate ahead of its checks.
    pub fn param(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.params = self.params.field(key, value);
        self
    }

    /// Record the check `name`; returns `ok`. Names are unique per gate.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) -> bool {
        let name = name.into();
        assert!(
            self.checks.iter().all(|(n, _)| *n != name),
            "duplicate gate check {name:?}"
        );
        self.checks.push((name, ok));
        ok
    }

    /// Whether every check so far holds.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Names of the checks that failed, in check order.
    pub fn failed(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// The gate as a ledger member value.
    pub fn to_value(&self) -> Value {
        let checks = self
            .checks
            .iter()
            .fold(Object::new(), |o, (n, ok)| o.field(n, *ok));
        let gate = self
            .params
            .clone()
            .field("checks", checks)
            .field("passed", self.passed());
        gate.into()
    }

    /// Write `ledger` with this gate appended as its `gate` member to
    /// `dir/name`, and return the path.
    pub fn write_ledger(&self, dir: &Path, name: &str, ledger: Object) -> PathBuf {
        let ledger = ledger.field("gate", self.to_value());
        let path = write_artifact(dir, name, &ledger.to_ledger());
        println!("wrote {}", path.display());
        path
    }

    /// Exit with status 1 listing every failed check, or report that all
    /// `n` checks passed.
    pub fn finish(&self, bin: &str) {
        let failed = self.failed();
        if failed.is_empty() {
            println!("{bin}: all {} gate checks passed", self.checks.len());
            return;
        }
        for name in &failed {
            eprintln!("{bin}: gate check failed: {name}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let v = Value::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn nested_objects_and_arrays_render_inline() {
        let inner = Object::new().field("x", 1u64).field("ok", true);
        let v: Value = Object::new()
            .field("inner", inner)
            .field(
                "list",
                vec![Value::from(-2i64), fixed(0.125, 2), "s".into()],
            )
            .field("empty", Object::new())
            .into();
        assert_eq!(
            v.to_string(),
            r#"{"inner": {"x": 1, "ok": true}, "list": [-2, 0.12, "s"], "empty": {}}"#
        );
    }

    #[test]
    fn u64_vec_renders_like_its_debug_form() {
        for pages in [vec![30_646u64, 0], vec![], vec![7]] {
            assert_eq!(Value::from(pages.clone()).to_string(), format!("{pages:?}"));
        }
    }

    #[test]
    fn ledger_puts_members_and_top_level_array_elements_on_lines() {
        let ledger = Object::new()
            .field("config", Object::new().field("scale", 64u64))
            .field(
                "points",
                vec![
                    Object::new().field("a", 1u64),
                    Object::new().field("a", 2u64),
                ],
            )
            .field("none", Vec::<u64>::new());
        assert_eq!(
            ledger.to_ledger(),
            "{\n  \"config\": {\"scale\": 64},\n  \"points\": [\n    {\"a\": 1},\n    \
             {\"a\": 2}\n  ],\n  \"none\": []\n}\n"
        );
    }

    #[test]
    fn gate_reports_a_failed_check_by_name() {
        let mut gate = Gate::new().param("required", fixed(2.0, 1));
        assert!(gate.check("first holds", true));
        assert!(!gate.check("second holds", false));
        assert!(!gate.passed());
        assert_eq!(gate.failed(), vec!["second holds"]);
        assert_eq!(
            gate.to_value().to_string(),
            r#"{"required": 2.0, "checks": {"first holds": true, "second holds": false}, "passed": false}"#
        );
    }

    #[test]
    #[should_panic(expected = "duplicate gate check")]
    fn gate_rejects_duplicate_names() {
        let mut gate = Gate::new();
        gate.check("same", true);
        gate.check("same", true);
    }
}
