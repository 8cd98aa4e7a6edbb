//! Simulator throughput benchmark: emits `BENCH_simulator.json`.
//!
//! Measures wall-clock, event throughput and peak RSS of the discrete-event
//! simulator at 1k/10k/100k-cloudlet scales (the paper's 10:1 cloudlet:VM
//! ratio) for each engine, plus the full paper-scale point (100 000 VMs /
//! 1 000 000 cloudlets) with `--full-scale`.
//!
//! Each point runs in a child process (this binary re-invoked in `point`
//! mode) so peak-RSS figures are per-point rather than cumulative.

use std::io::Write as _;
use std::process::Command;
use std::time::Instant;

use biosched_core::scheduler::AlgorithmKind;
use biosched_workload::homogeneous::HomogeneousScenario;
use simcloud::simulation::EngineKind;

/// (label, divisor into the paper's 100k-VM / 1M-cloudlet point).
const SCALES: &[(&str, usize)] = &[("1k", 1_000), ("10k", 100), ("100k", 10)];

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

fn time_point(vms: usize, cloudlets: usize, engine: &str) {
    let scenario = HomogeneousScenario {
        vm_count: vms,
        cloudlet_count: cloudlets,
    }
    .build();
    let assignment = AlgorithmKind::BaseTest
        .build(0)
        .schedule(&scenario.problem());
    let kind = match engine {
        "sequential" => EngineKind::Sequential,
        "sharded" => EngineKind::Sharded,
        other => panic!("unknown engine {other} (try: sequential, sharded)"),
    };
    let started = Instant::now();
    let outcome = scenario
        .simulate_on(assignment, kind)
        .expect("simulation must complete");
    let wall = started.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(outcome.finished_count(), cloudlets, "all cloudlets finish");
    assert_eq!(outcome.engine, kind, "requested engine must actually run");
    println!("wall_ms={wall}");
    println!("events={}", outcome.events_processed);
    println!("end_time_ms={}", outcome.end_time.as_millis());
    println!("peak_rss_kb={}", peak_rss_kb());
}

struct PointOut {
    label: String,
    vms: usize,
    cloudlets: usize,
    engine: String,
    threads: usize,
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    peak_rss_kb: u64,
}

fn spawn_point(
    label: &str,
    vms: usize,
    cloudlets: usize,
    engine: &str,
    threads: usize,
) -> PointOut {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .args([
            "point",
            "--vms",
            &vms.to_string(),
            "--cloudlets",
            &cloudlets.to_string(),
            "--engine",
            engine,
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("child benchmark process");
    assert!(
        out.status.success(),
        "point {label}/{engine} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let get = |key: &str| -> f64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("child output missing {key}"))
            .parse()
            .expect("numeric field")
    };
    let wall_ms = get("wall_ms");
    let events = get("events") as u64;
    PointOut {
        label: label.to_string(),
        vms,
        cloudlets,
        engine: engine.to_string(),
        threads,
        wall_ms,
        events,
        events_per_sec: events as f64 / (wall_ms / 1_000.0),
        peak_rss_kb: get("peak_rss_kb") as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    if args.first().map(String::as_str) == Some("point") {
        let mut vms = 0usize;
        let mut cloudlets = 0usize;
        let mut engine = String::from("sequential");
        let mut threads = 1usize;
        iter.next();
        while let Some(a) = iter.next() {
            let mut val = || iter.next().expect("flag value").clone();
            match a.as_str() {
                "--vms" => vms = val().parse().unwrap(),
                "--cloudlets" => cloudlets = val().parse().unwrap(),
                "--engine" => engine = val(),
                "--threads" => threads = val().parse().unwrap(),
                other => panic!("unknown point flag {other}"),
            }
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("thread pool");
        time_point(vms, cloudlets, &engine);
        return;
    }

    let mut out_path = String::from("BENCH_simulator.json");
    let mut full_scale = false;
    let mut threads = 8usize;
    let mut engines: Vec<String> = vec!["sequential".into(), "sharded".into()];
    while let Some(a) = iter.next() {
        let mut val = || iter.next().expect("flag value").clone();
        match a.as_str() {
            "--out" => out_path = val(),
            "--full-scale" => full_scale = true,
            "--threads" => threads = val().parse().unwrap(),
            "--engines" => engines = val().split(',').map(str::to_string).collect(),
            other => panic!("unknown flag {other}"),
        }
    }

    let mut points = Vec::new();
    for (label, divisor) in SCALES {
        for engine in &engines {
            let s = HomogeneousScenario::scaled(100_000, *divisor);
            eprintln!(
                "running {label} ({} vms / {} cloudlets) on {engine}...",
                s.vm_count, s.cloudlet_count
            );
            points.push(spawn_point(
                label,
                s.vm_count,
                s.cloudlet_count,
                engine,
                threads,
            ));
        }
    }
    if full_scale {
        for engine in &engines {
            eprintln!("running full-scale (100000 vms / 1000000 cloudlets) on {engine}...");
            points.push(spawn_point("full", 100_000, 1_000_000, engine, threads));
        }
    }

    let mut json = String::from("{\n  \"bench\": \"simulator\",\n");
    json.push_str(&format!(
        "  \"machine_cores\": {},\n  \"points\": [\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scale\": \"{}\", \"vms\": {}, \"cloudlets\": {}, \"engine\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}, \"peak_rss_kb\": {}}}{}\n",
            p.label,
            p.vms,
            p.cloudlets,
            p.engine,
            p.threads,
            p.wall_ms,
            p.events,
            p.events_per_sec,
            p.peak_rss_kb,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(&out_path).expect("output file");
    f.write_all(json.as_bytes()).expect("write json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
