//! In-memory span recorder for the traced run.
//!
//! A span is recorded by the benchmark's own code around a call into one
//! layer's public function: name (`layer.what`), start, end, recording
//! thread and the id of the span that was open on that thread when it
//! started. Nothing is recorded while tracing is off, so untraced runs
//! pay one relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread, `0` at top level.
    pub parent: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end_ns = epoch().elapsed().as_nanos() as u64;
    OPEN.with(|s| s.borrow_mut().pop());
    let tid = TID.with(|t| *t);
    SPANS.lock().expect("span buffer poisoned").push(Span {
        id,
        parent,
        name,
        tid,
        start_ns,
        end_ns,
    });
    out
}

/// Removes and returns every span recorded so far, in start order.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Per span name: (self time in ms, span count). Self time is a span's
/// duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
        let e = out.entry(s.name).or_default();
        e.0 += own as f64 / 1e6;
        e.1 += 1;
    }
    out
}

/// Human-readable self-time table, one row per span name, plus a
/// per-layer total (the part of the name before the first `.`).
pub fn self_time_table(spans: &[Span]) -> String {
    let rows = self_times(spans);
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    let mut out = String::from("span                          count      self_ms\n");
    for (name, (ms, n)) in &rows {
        let _ = writeln!(out, "{name:<28} {n:>7} {ms:>12.3}");
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry(layer).or_default() += ms;
    }
    out.push_str("layer                                  self_ms\n");
    for (layer, ms) in &layers {
        let _ = writeln!(out, "{layer:<28}         {ms:>12.3}");
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for `spans`.
/// `meta` lands in the file's `otherData` object.
pub fn chrome_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            cat,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{k}\":\"{}\"",
            if i == 0 { "" } else { "," },
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "sim.simulate",
                tid: 1,
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                id: 2,
                parent: 1,
                name: "sched.hbo",
                tid: 1,
                start_ns: 1_000_000,
                end_ns: 4_000_000,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["sim.simulate"], (7.0, 1));
        assert_eq!(t["sched.hbo"], (3.0, 1));
    }
}
