//! Timing of calls into the program's public functions, plus the span
//! tree the traced run records around them.
//!
//! [`Probe::time`] times one call with `Instant` and, when telemetry is
//! enabled, wraps it in a `snia-telemetry` span. The spans are captured in
//! memory by a `CaptureSink` and turned into a self-time table at the end
//! of the run ([`self_times`]).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;
use snia_telemetry::{CaptureSink, Event, SpanGuard};

/// Interns a span name: span guards need `'static` names, and the
/// benchmark builds a bounded set of them (one per layer and phase).
fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES.lock().expect("span name table poisoned");
    if let Some(&s) = names.get(name) {
        return s;
    }
    let s: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(name.to_string(), s);
    s
}

/// Opens a root span of the benchmark's own tree (`perfbench.<what>`);
/// [`Probe::time`] spans opened while it lives nest under it.
pub fn root(what: &str) -> SpanGuard {
    if snia_telemetry::enabled() {
        SpanGuard::enter(intern(&format!("perfbench.{what}")), Vec::new())
    } else {
        SpanGuard::inert("untraced")
    }
}

/// Named duration samples, in milliseconds.
#[derive(Debug, Default)]
pub struct Probe {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Probe {
    /// Runs `f` inside a span called `name` and records its wall time.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let span = if snia_telemetry::enabled() {
            SpanGuard::enter(intern(name), Vec::new())
        } else {
            SpanGuard::inert("untraced")
        };
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        drop(span);
        self.record(name, dt.as_secs_f64() * 1e3);
        out
    }

    pub fn record(&mut self, name: &str, ms: f64) {
        self.samples.entry(name.to_string()).or_default().push(ms);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Median of the samples recorded under `name`, in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics when nothing was recorded under `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        let v = self.samples(name);
        assert!(!v.is_empty(), "no samples recorded for {name}");
        crate::stats::median(v)
    }
}

/// Self time per span name over the captured span tree: a span's elapsed
/// time minus the time covered by its direct children. Only spans the
/// benchmark opened on its own thread are considered (their paths start
/// with `perfbench`), so the per-thread nesting is exact.
pub fn self_times(sink: &CaptureSink) -> Value {
    #[derive(Default)]
    struct Row {
        count: u64,
        total_ns: u64,
        self_ns: u64,
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    // Stack of (name, child time accumulated so far).
    let mut stack: Vec<(String, u64)> = Vec::new();
    for event in sink.events() {
        match event {
            Event::SpanEnter { name, path, .. } if path.starts_with("perfbench") => {
                stack.push((name, 0));
            }
            Event::SpanExit {
                name,
                path,
                elapsed_ns,
                ..
            } if path.starts_with("perfbench") => {
                let Some((open, children)) = stack.pop() else {
                    continue;
                };
                debug_assert_eq!(open, name, "span tree out of order");
                if let Some(parent) = stack.last_mut() {
                    parent.1 += elapsed_ns;
                }
                let row = rows.entry(name).or_default();
                row.count += 1;
                row.total_ns += elapsed_ns;
                row.self_ns += elapsed_ns.saturating_sub(children);
            }
            _ => {}
        }
    }
    Value::Map(
        rows.into_iter()
            .map(|(name, r)| {
                (
                    name,
                    Value::Map(vec![
                        ("count".into(), Value::U64(r.count)),
                        ("total_ms".into(), Value::F64(r.total_ns as f64 / 1e6)),
                        ("self_ms".into(), Value::F64(r.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}
