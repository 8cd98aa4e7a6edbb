//! End-to-end and per-layer benchmark of the biosched workspace.
//!
//! ```text
//! layerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! layerbench --check [--workload <name>] [--seed <n>]
//! ```
//!
//! A run starts `WORKERS` measuring processes one after another (see
//! `worker.rs`); each generates the inputs from the seed several times,
//! then times repetitions for its share of `--seconds`. `setup_s` and
//! `run_s` are medians over every worker's repetitions. Every
//! repetition's deterministic digest must equal the first one's, and
//! one repetition at a single worker thread must reproduce it too.
//! `--trace 1` spends half of each worker's time on traced repetitions,
//! reports per-layer metrics from them, and writes a Chrome trace of the
//! last one to `layerbench/out/`. `--check` runs every workload (or one)
//! on the seed and on a held-out seed and asserts that the digest does
//! not depend on the thread count and does depend on the seed.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod trace;
mod worker;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Duration;

use workloads::Kind;

/// Measuring processes per run.
const WORKERS: usize = 3;
/// Offset of the held-out seed used by `--check`.
const HELD_OUT: u64 = 0x9e37_79b9_7f4a_7c15;

/// End-to-end metrics (name, unit), in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_ms", "ms"),
    ("imbalance", "ratio"),
    ("cost", "units"),
    ("completion_ratio", "ratio"),
];

/// Per-layer metrics (name, unit), in output order.
const PER_LAYER: [(&str, &str); 28] = [
    ("workload.gen_ms", "ms"),
    ("workload.replans", "count"),
    ("workload.replan_self_ms", "ms"),
    ("eval.cache_build_ms", "ms"),
    ("eval.cache_builds", "count"),
    ("sched.aco_ms", "ms"),
    ("sched.hbo_ms", "ms"),
    ("sched.rbs_ms", "ms"),
    ("sched.base_ms", "ms"),
    ("sched.calls", "count"),
    ("stream.sched_busy_ms", "ms"),
    ("stream.waves", "count"),
    ("stream.peak_backlog", "count"),
    ("stream.wave_ms_p50", "ms"),
    ("stream.wave_ms_p99", "ms"),
    ("stream.mean_wait_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.retries", "count"),
    ("sim.abandoned", "count"),
    ("sim.wasted_work_ms", "ms"),
    ("derived.remainder_ms", "ms"),
    ("rayon.single_thread_run_s", "s"),
    ("rayon.speedup", "ratio"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    /// Set in the measuring processes the parent starts.
    worker: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
        worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--worker" => {
                let k: usize = value.parse().map_err(|e| format!("--worker: {e}"))?;
                if k >= WORKERS {
                    return Err(format!("--worker must be below {WORKERS}"));
                }
                args.worker = Some(k);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.check {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("the vendored pool accepts any thread count");
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, or `None` unless at least ten samples lie
/// beyond it.
fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    (v.len() >= rank + 10).then(|| v[rank - 1])
}

fn first_line(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Commit of the source tree, read from `.git` without running git;
/// `unknown` in an exported checkout.
fn git_revision() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let Ok(head) = std::fs::read_to_string(format!("{git}/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    std::fs::read_to_string(format!("{git}/{reference}"))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            let packed = std::fs::read_to_string(format!("{git}/packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { -1.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

/// Everything the workers reported, pooled.
#[derive(Default)]
struct Pooled {
    setup_s: Vec<f64>,
    gen_ms: Vec<f64>,
    plain_run_s: Vec<f64>,
    traced_run_s: Vec<f64>,
    digests: Vec<String>,
    attempted: u64,
    failed: u64,
    layers: Vec<BTreeMap<String, f64>>,
    wave_ms: Vec<f64>,
    single: Option<(f64, String)>,
    sim: Vec<[f64; 4]>,
    rss_mb: Vec<f64>,
    errors: Vec<String>,
}

fn num(s: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
}

impl Pooled {
    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let mut words = line.split_whitespace();
        let tag = words.next().unwrap_or("");
        let rest: Vec<&str> = words.collect();
        let nums = |xs: &[&str]| xs.iter().map(|x| num(x)).collect::<Result<Vec<_>, _>>();
        match (tag, rest.as_slice()) {
            ("@setup", xs) => self.setup_s.extend(nums(xs)?),
            ("@gen", [ms]) => self.gen_ms.push(num(ms)?),
            ("@rep", [phase, run_s, digest, attempted, failed]) => {
                let run_s = num(run_s)?;
                match *phase {
                    "plain" => self.plain_run_s.push(run_s),
                    _ => self.traced_run_s.push(run_s),
                }
                self.digests.push(digest.to_string());
                self.attempted += num(attempted)? as u64;
                self.failed += num(failed)? as u64;
            }
            ("@layers", pairs) => {
                let mut m = BTreeMap::new();
                for p in pairs {
                    let (k, v) = p.split_once('=').ok_or("bad @layers pair")?;
                    m.insert(k.to_string(), num(v)?);
                }
                self.layers.push(m);
            }
            ("@waves", xs) => self.wave_ms.extend(nums(xs)?),
            ("@single", [run_s, digest]) => self.single = Some((num(run_s)?, digest.to_string())),
            ("@sim", xs) => {
                let v = nums(xs)?;
                self.sim.push(v.try_into().map_err(|_| "bad @sim line")?);
            }
            ("@rss", [mb]) => self.rss_mb.push(num(mb)?),
            ("@error", _) => self.errors.push(rest.join(" ")),
            _ => return Err(format!("unexpected worker line {line:?}")),
        }
        Ok(())
    }
}

/// Starts the workers one after another and pools their reports.
fn collect(kind: Kind, args: &Args) -> Result<Pooled, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut pooled = Pooled::default();
    for k in 0..WORKERS {
        let out = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / WORKERS as f64).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--worker", &k.to_string()])
            .output()
            .map_err(|e| format!("starting worker {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "worker {k} failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            if line.starts_with('#') {
                println!("{line}");
            } else {
                pooled.parse_line(line)?;
            }
        }
    }
    Ok(pooled)
}

fn bench(kind: Kind, args: &Args, threads: usize) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} trace={} nproc={nproc} threads={threads} engine={} workers={WORKERS} cpu={} git={}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        kind.engine().name(),
        first_line("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        git_revision()
    );
    let p = match collect(kind, args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errors = p.errors.clone();
    let reference = p.digests.first().cloned().unwrap_or_default();
    let mismatched = p.digests.iter().filter(|d| **d != reference).count();
    if mismatched > 0 {
        errors.push(format!(
            "{mismatched} of {} repetitions differ from digest {reference}",
            p.digests.len()
        ));
    }
    match &p.single {
        Some((_, d)) if *d == reference => {}
        Some((_, d)) => errors.push(format!(
            "digest at 1 thread {d} differs from {reference} at {threads}"
        )),
        None => errors.push("no single-thread repetition".into()),
    }
    if p.sim
        .windows(2)
        .any(|w| w[0].map(f64::to_bits) != w[1].map(f64::to_bits))
    {
        errors.push("workers disagree on simulated metrics".into());
    }
    let [makespan, imbalance, cost, results] = p.sim.first().copied().unwrap_or([f64::NAN; 4]);
    let single_run_s = p.single.as_ref().map_or(f64::NAN, |s| s.0);

    println!(
        "# digest={reference} (all {} repetitions and the 1-thread one)",
        p.digests.len()
    );
    let reps: Vec<String> = p.plain_run_s.iter().map(|t| format!("{t:.4}")).collect();
    println!("# run_s per repetition: {}", reps.join(" "));
    let e2e: Vec<(&str, f64, usize)> = vec![
        ("setup_s", median(&p.setup_s), p.setup_s.len()),
        ("run_s", median(&p.plain_run_s), p.plain_run_s.len()),
        ("peak_rss_mb", median(&p.rss_mb), p.rss_mb.len()),
        ("makespan_ms", makespan, results as usize),
        ("imbalance", imbalance, results as usize),
        ("cost", cost, results as usize),
        (
            "completion_ratio",
            1.0 - p.failed as f64 / p.attempted.max(1) as f64,
            p.attempted as usize,
        ),
    ];
    println!(
        "# {:<26} {:>18} {:<6} {:>8}",
        "end-to-end metric", "value", "unit", "samples"
    );
    for (name, value, n) in &e2e {
        println!("# {name:<26} {value:>18.6} {:<6} {n:>8}", unit_of(name));
    }

    let mut metrics: Vec<(&str, f64)> = e2e.iter().map(|(n, v, _)| (*n, *v)).collect();
    if args.trace {
        metrics.clear();
        let plain = median(&p.plain_run_s);
        let traced = median(&p.traced_run_s);
        println!(
            "# {:<26} {:>18} {:<6} {:>8}",
            "per-layer metric", "value", "unit", "samples"
        );
        for (name, unit) in PER_LAYER {
            let (value, n) = match name {
                "workload.gen_ms" => (median(&p.gen_ms), p.gen_ms.len()),
                "stream.wave_ms_p50" => {
                    (percentile(&p.wave_ms, 0.50).unwrap_or(0.0), p.wave_ms.len())
                }
                "stream.wave_ms_p99" => {
                    (percentile(&p.wave_ms, 0.99).unwrap_or(0.0), p.wave_ms.len())
                }
                "rayon.single_thread_run_s" => (single_run_s, 1),
                "rayon.speedup" => (single_run_s / plain, 1),
                "trace.run_s" => (traced, p.traced_run_s.len()),
                "trace.untraced_run_s" => (plain, p.plain_run_s.len()),
                "trace.overhead_s" => (traced - plain, p.traced_run_s.len()),
                _ => {
                    let xs: Vec<f64> = p
                        .layers
                        .iter()
                        .map(|m| m.get(name).copied().unwrap_or(0.0))
                        .collect();
                    (median(&xs), xs.len())
                }
            };
            println!("# {name:<26} {value:>18.6} {unit:<6} {n:>8}");
            metrics.push((name, value));
        }
    }
    for e in &errors {
        eprintln!("correctness: {e}");
    }
    let correct = errors.is_empty();
    println!("{}", json_line(correct, p.attempted, p.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Held-out-seed smoke check: the digest must not depend on the thread
/// count and must depend on the seed.
fn check(kinds: &[Kind], seed: u64, threads: usize) -> ExitCode {
    let mut ok = true;
    for &kind in kinds {
        let held_out = seed ^ HELD_OUT;
        let inputs = workloads::setup(kind, seed);
        let a = workloads::run(&inputs, seed, false);
        set_threads(1);
        let a1 = workloads::run(&inputs, seed, false);
        set_threads(threads);
        drop(inputs);
        let b = workloads::run(&workloads::setup(kind, held_out), held_out, false);
        let errors: Vec<&String> = a.errors.iter().chain(&a1.errors).chain(&b.errors).collect();
        let pass = errors.is_empty() && a.digest == a1.digest && a.digest != b.digest;
        println!(
            "{:<12} seed {seed}: {:016x} at {threads} threads, {:016x} at 1 thread; \
             held-out seed {held_out}: {:016x} -> {}",
            kind.name(),
            a.digest,
            a1.digest,
            b.digest,
            if pass { "PASS" } else { "FAIL" }
        );
        for e in errors {
            eprintln!("  {e}");
        }
        ok &= pass;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program's default worker count is the machine's; fix it here so
    // RAYON_NUM_THREADS in the environment cannot change what is measured.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    set_threads(threads);
    if args.check {
        let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
        return check(&kinds, args.seed, threads);
    }
    let kind = args.workload.expect("checked in parse_args");
    match args.worker {
        Some(k) => {
            worker::run(&worker::Task {
                kind,
                seed: args.seed,
                budget: Duration::from_secs_f64(args.seconds),
                trace: args.trace,
                single_thread_check: k == 0,
                trace_file: (args.trace && k + 1 == WORKERS).then(|| {
                    format!(
                        "{}/out/trace-{}-seed{}.json",
                        env!("CARGO_MANIFEST_DIR"),
                        kind.name(),
                        args.seed
                    )
                }),
                threads,
            });
            ExitCode::SUCCESS
        }
        None => bench(kind, &args, threads),
    }
}
