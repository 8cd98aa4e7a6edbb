//! One measuring process. The parent process runs several of these one
//! after another and pools what they report, because a process's speed
//! depends on where it lands on the host: setup times that agree to a
//! few percent within one process differed by up to 1.7x between
//! processes on a 2-vCPU VM.
//!
//! A worker prints its results as `@`-lines on standard output:
//!
//! ```text
//! @setup <s> <s> ...             every setup repetition's time
//! @gen <ms>                      spans of the last setup repetition (traced)
//! @rep <plain|traced> <run_s> <digest> <attempted> <failed>
//! @layers <name>=<value> ...     per-layer values of one traced repetition
//! @waves <ms> <ms> ...           per-wave scheduling latencies of one traced repetition
//! @single <run_s> <digest>       the repetition at one worker thread
//! @sim <makespan_ms> <imbalance> <cost> <results>
//! @rss <MB>
//! @error <message>
//! ```
//!
//! Lines starting with `#` are for people and are passed through.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace;
use crate::workloads::{self, Inputs, Kind, Outcome};

/// Setup repeats at least this often and for at least `SETUP_MIN_S`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.2;
const SETUP_MAX_REPS: usize = 200;
/// Timed repetitions per phase, whatever the budget says.
const MIN_REPS: usize = 2;
const MAX_REPS: usize = 1_000;

/// What a worker is asked to do.
pub struct Task {
    pub kind: Kind,
    pub seed: u64,
    /// Measuring time of this worker (split in two when traced).
    pub budget: Duration,
    pub trace: bool,
    /// Run one more repetition at a single worker thread.
    pub single_thread_check: bool,
    /// Write the Chrome trace of the last traced repetition here.
    pub trace_file: Option<String>,
    pub threads: usize,
}

/// Generates the inputs repeatedly. Returns the last inputs, the
/// per-repetition setup times in seconds, and the spans of the last
/// repetition (empty unless tracing is on).
fn setup(kind: Kind, seed: u64) -> (Inputs, Vec<f64>, Vec<trace::Span>) {
    let mut times = Vec::new();
    let mut inputs = None;
    let mut spans = Vec::new();
    let started = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        // Free the previous copy first so peak memory holds one copy.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(workloads::setup(kind, seed));
        times.push(t.elapsed().as_secs_f64());
        spans = trace::drain();
    }
    (inputs.expect("at least one setup repetition"), times, spans)
}

/// Times repetitions for `budget`, at least `MIN_REPS` of them.
fn timed(
    inputs: &Inputs,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Vec<(Outcome, Vec<trace::Span>)> {
    let mut reps = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_REPS || (started.elapsed() < budget && reps.len() < MAX_REPS) {
        trace::set_enabled(traced);
        let outcome = workloads::run(inputs, seed, traced);
        trace::set_enabled(false);
        reps.push((outcome, trace::drain()));
    }
    reps
}

/// Per-layer values of one traced repetition: the program's own counters
/// and busy times, span self-times, and the time neither accounts for.
fn layer_metrics(
    kind: Kind,
    o: &Outcome,
    spans: &[trace::Span],
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let mut m = o.layers.clone();
    let selfs = trace::self_times(spans);
    let get = |n: &str| selfs.get(n).copied().unwrap_or((0.0, 0));
    let mut calls = 0;
    for (_, span, metric) in workloads::SCHEDULERS {
        let (ms, n) = get(span);
        if n > 0 {
            m.insert(metric, ms);
            calls += n;
        }
    }
    if calls > 0 {
        m.insert("sched.calls", calls as f64);
    }
    let (cache_ms, builds) = get("eval.cache_build");
    if builds > 0 {
        m.insert("eval.cache_build_ms", cache_ms);
        m.insert("eval.cache_builds", builds as f64);
    }
    let (sim_ms, sims) = get("sim.simulate");
    let events = m.get("sim.events").copied().unwrap_or(0.0);
    if sims > 0 {
        m.insert("sim.simulate_ms", sim_ms);
        if events > 0.0 {
            m.insert("sim.ns_per_event", sim_ms * 1e6 / events);
        }
    }
    let (replan_ms, replans) = get("workload.replan");
    m.insert("workload.replans", replans as f64);
    m.insert("workload.replan_self_ms", replan_ms);
    let run_ms = o.run_s * 1e3;
    let val = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    // The sweep's layer times are busy times summed over worker threads;
    // the stream's are wall time of its sequential wave loop; the batch's
    // timed region is covered by top-level spans.
    let remainder = match kind {
        Kind::Fig6Sweep => {
            let busy: f64 = workloads::SCHEDULERS
                .iter()
                .map(|(_, _, metric)| *metric)
                .chain(["eval.cache_build_ms"])
                .map(|k| val(&m, k))
                .sum();
            run_ms - busy / threads as f64
        }
        Kind::StreamWarm => run_ms - val(&m, "stream.sched_busy_ms"),
        Kind::ChaosBatch => {
            let covered: u64 = spans
                .iter()
                .filter(|s| s.parent == 0)
                .map(trace::Span::dur_ns)
                .sum();
            run_ms - covered as f64 / 1e6
        }
    };
    m.insert("derived.remainder_ms", remainder);
    m
}

fn floats(xs: &[f64]) -> String {
    xs.iter().map(f64::to_string).collect::<Vec<_>>().join(" ")
}

fn report_rep(phase: &str, o: &Outcome) {
    println!(
        "@rep {phase} {} {:016x} {} {}",
        o.run_s, o.digest, o.attempted, o.failed
    );
    for e in &o.errors {
        println!("@error {e}");
    }
    for (name, x) in [
        ("makespan_ms", o.makespan_ms),
        ("imbalance", o.imbalance),
        ("cost", o.cost),
    ] {
        if !(x.is_finite() && x > 0.0) {
            println!("@error {name} = {x}");
        }
    }
}

pub fn run(task: &Task) {
    trace::set_enabled(task.trace);
    let (inputs, setup_times, gen_spans) = setup(task.kind, task.seed);
    trace::set_enabled(false);
    println!("@setup {}", floats(&setup_times));

    let plain_budget = if task.trace {
        task.budget / 2
    } else {
        task.budget
    };
    let plain = timed(&inputs, task.seed, plain_budget, false);
    for (o, _) in &plain {
        report_rep("plain", o);
    }
    let first = &plain[0].0;
    println!(
        "@sim {} {} {} {}",
        first.makespan_ms, first.imbalance, first.cost, first.results
    );

    if task.trace {
        let gen_ms: u64 = gen_spans.iter().map(trace::Span::dur_ns).sum();
        println!("@gen {}", gen_ms as f64 / 1e6);
        let traced = timed(&inputs, task.seed, task.budget / 2, true);
        for (o, spans) in &traced {
            report_rep("traced", o);
            let layers = layer_metrics(task.kind, o, spans, task.threads);
            let pairs: Vec<String> = layers.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("@layers {}", pairs.join(" "));
            if !o.wave_ms.is_empty() {
                println!("@waves {}", floats(&o.wave_ms));
            }
        }
        if let (Some(path), Some((_, spans))) = (&task.trace_file, traced.last()) {
            let mut all = gen_spans;
            all.extend(spans.iter().cloned());
            for row in trace::self_time_table(&all).lines() {
                println!("# {row}");
            }
            let meta = [
                ("workload", task.kind.name().to_string()),
                ("seed", task.seed.to_string()),
                ("threads", task.threads.to_string()),
            ];
            let written = std::path::Path::new(path)
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, trace::chrome_json(&all, &meta)));
            match written {
                Ok(()) => println!("# chrome trace: {path}"),
                Err(e) => println!("@error writing {path}: {e}"),
            }
        }
    }

    if task.single_thread_check {
        crate::set_threads(1);
        let single = workloads::run(&inputs, task.seed, false);
        crate::set_threads(task.threads);
        println!("@single {} {:016x}", single.run_s, single.digest);
        for e in &single.errors {
            println!("@error at 1 thread: {e}");
        }
    }
    let rss = biosched_bench::rss::peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    println!("@rss {rss}");
}
