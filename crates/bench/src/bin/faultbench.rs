//! Resilience benchmark: emits `BENCH_faults.json`.
//!
//! Runs the seeded chaos campaign — host-failure fractions crossed with
//! the paper's four schedulers, each point repeated over seeds — through
//! [`biosched_workload::sweep::sweep_grid`] on **both**
//! engines (sequential kernel and epoch-sharded replay) and records the
//! recovery metrics (completion ratio, goodput, retries, wasted work,
//! MTTR) plus the simulated makespan, one row per engine.
//!
//! Every metric in the JSON is computed inside the simulation, so those
//! rows are byte-identical across engines and no matter how many rayon
//! threads execute the sweep — the binary asserts both properties. CI
//! exploits that: the chaos-smoke job runs this binary under
//! `RAYON_NUM_THREADS=1` and `=4` and diffs the outputs with the
//! machine-dependent `wall_ms` lines stripped (`grep -v wall_ms`). Wall
//! clock per engine × fraction lives in the trailing `"wall"` block
//! (one line per entry) so the committed file still documents the
//! sequential-vs-sharded speed story on the machine that produced it.

use std::io::Write as _;
use std::time::Instant;

use biosched_bench::figures::{chaos_scenario, CHAOS_POLICY};
use biosched_core::scheduler::AlgorithmKind;
use biosched_core::tuning::SchedTuning;
use biosched_workload::sweep::{
    run_point_with, summarize_reps, sweep_grid, PointArtifacts, RepeatedMetric, RepeatedPointResult,
};
use simcloud::simulation::EngineKind;
use simcloud::stats::RecordMode;

/// Host-failure fractions swept (0 = control row: must be fault-free).
const FRACTIONS: &[f64] = &[0.0, 0.1, 0.25, 0.5];

/// `{mean, ci95}` with full round-trip precision so equal results
/// serialize to equal bytes.
fn metric_json(m: &RepeatedMetric) -> String {
    format!("{{\"mean\": {:?}, \"ci95\": {:?}}}", m.mean, m.ci95)
}

/// Engine label as it appears in the JSON (`BENCH_simulator.json` uses
/// the same lowercase names).
fn engine_label(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Sequential => "sequential",
        EngineKind::Sharded => "sharded",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let mut out_path = String::from("BENCH_faults.json");
    let mut seed = 42u64;
    let mut reps = 3usize;
    let mut vms = 40usize;
    let mut cloudlets = 400usize;
    let mut threads: Option<usize> = None;
    let mut big_vms = 5_000usize;
    let mut big_cloudlets = 50_000usize;
    let mut engines = vec![EngineKind::Sequential, EngineKind::Sharded];
    while let Some(a) = iter.next() {
        let mut val = || iter.next().expect("flag value").clone();
        match a.as_str() {
            "--out" => out_path = val(),
            "--seed" => seed = val().parse().unwrap(),
            "--reps" => reps = val().parse().unwrap(),
            "--vms" => vms = val().parse().unwrap(),
            "--cloudlets" => cloudlets = val().parse().unwrap(),
            "--threads" => threads = Some(val().parse().unwrap()),
            "--big-vms" => big_vms = val().parse().unwrap(),
            "--big-cloudlets" => big_cloudlets = val().parse().unwrap(),
            "--engine" => {
                engines = match val().as_str() {
                    "sequential" => vec![EngineKind::Sequential],
                    "sharded" => vec![EngineKind::Sharded],
                    "both" => vec![EngineKind::Sequential, EngineKind::Sharded],
                    other => panic!("unknown engine {other} (sequential|sharded|both)"),
                }
            }
            other => panic!(
                "unknown flag {other} (try: --out F --seed N --reps N --vms N \
                 --cloudlets N --big-vms N --big-cloudlets N --threads N \
                 --engine sequential|sharded|both)"
            ),
        }
    }
    if let Some(n) = threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("thread pool");
    }

    let policy = CHAOS_POLICY;
    let algorithms = AlgorithmKind::PAPER_SET;
    eprintln!(
        "chaos campaign: {} fractions × {} algorithms × {reps} seeds × {} engines, \
         {vms} VMs / {cloudlets} cloudlets, seed {seed}",
        FRACTIONS.len(),
        algorithms.len(),
        engines.len(),
    );

    // One timed sweep per (engine, fraction). Rep seeds depend only on
    // the rep index, so sweeping fractions one at a time is
    // metric-identical to one grid call — it just gives wall clock the
    // per-fraction resolution the sequential-vs-sharded comparison needs.
    let mut per_engine: Vec<Vec<Vec<RepeatedPointResult>>> = Vec::new();
    let mut walls: Vec<Vec<f64>> = Vec::new();
    for &engine in &engines {
        let mut rows = Vec::new();
        let mut row_walls = Vec::new();
        for &fraction in FRACTIONS {
            let wall = Instant::now();
            let grid = sweep_grid(
                &[vms],
                &algorithms,
                &SchedTuning::default(),
                seed,
                reps,
                engine,
                |vms, s| chaos_scenario(vms, cloudlets, fraction, s),
            )
            .unwrap_or_else(|e| panic!("resilience point failed: {e}"));
            row_walls.push(wall.elapsed().as_secs_f64() * 1_000.0);
            let [row] = grid.as_slice() else {
                unreachable!("one point in, one row out")
            };
            rows.push(row.iter().map(|reps| summarize_reps(reps)).collect());
        }
        eprintln!(
            "{:>10}: {:.0} ms wall ({})",
            engine_label(engine),
            row_walls.iter().sum::<f64>(),
            FRACTIONS
                .iter()
                .zip(&row_walls)
                .map(|(f, w)| format!("f={f}: {w:.0} ms"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        per_engine.push(rows);
        walls.push(row_walls);
    }

    for (engine, results) in engines.iter().zip(&per_engine) {
        // Control row sanity: with no faults armed, recovery must be free.
        for s in &results[0] {
            assert_eq!(
                s.completion_ratio.mean,
                1.0,
                "{:?} lost cloudlets without faults on the {} engine",
                s.algorithm,
                engine_label(*engine),
            );
            assert_eq!(
                s.retries.mean,
                0.0,
                "{:?} retried without faults on the {} engine",
                s.algorithm,
                engine_label(*engine),
            );
        }
    }
    // Engine equivalence: every simulated metric must agree to the bit.
    if let [seq, shard] = per_engine.as_slice() {
        for (f, (row_a, row_b)) in seq.iter().zip(shard).enumerate() {
            for (a, b) in row_a.iter().zip(row_b) {
                let pairs = [
                    (a.completion_ratio.mean, b.completion_ratio.mean),
                    (a.goodput.mean, b.goodput.mean),
                    (a.retries.mean, b.retries.mean),
                    (a.wasted_work_ms.mean, b.wasted_work_ms.mean),
                    (a.mttr_ms.mean, b.mttr_ms.mean),
                    (a.simulation_time_ms.mean, b.simulation_time_ms.mean),
                ];
                for (x, y) in pairs {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "engines diverged at fraction {} / {:?}",
                        FRACTIONS[f],
                        a.algorithm,
                    );
                }
            }
        }
    }

    // The largest fault-sweep point: one big single run per engine at
    // the harshest fraction. The Base Test binder plans it (cyclic, so
    // scheduling cost is negligible) — the wall clock here measures the
    // engines, not the optimizers. Metrics must still agree to the bit.
    let big_fraction = *FRACTIONS.last().expect("non-empty fractions");
    let mut big_runs = Vec::new();
    for &engine in &engines {
        let scenario = chaos_scenario(big_vms, big_cloudlets, big_fraction, seed);
        let wall = Instant::now();
        let (point, _) = run_point_with(
            &PointArtifacts::build(scenario),
            AlgorithmKind::BaseTest,
            &SchedTuning::default(),
            seed,
            engine,
            RecordMode::Aggregate,
        )
        .expect("big fault point");
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        eprintln!(
            "largest point ({big_vms} VMs / {big_cloudlets} cloudlets, fraction {big_fraction}): \
             {} engine {wall_ms:.0} ms, completion {:.4}, {} retries",
            engine_label(engine),
            point.completion_ratio,
            point.retries,
        );
        big_runs.push((engine, wall_ms, point));
    }
    if let [(_, _, a), (_, _, b)] = big_runs.as_slice() {
        assert_eq!(a.completion_ratio.to_bits(), b.completion_ratio.to_bits());
        assert_eq!(a.goodput.to_bits(), b.goodput.to_bits());
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.abandoned, b.abandoned);
        assert_eq!(a.wasted_work_ms.to_bits(), b.wasted_work_ms.to_bits());
        assert_eq!(a.mttr_ms.to_bits(), b.mttr_ms.to_bits());
        assert_eq!(
            a.simulation_time_ms.to_bits(),
            b.simulation_time_ms.to_bits()
        );
        assert_eq!(a.finished, b.finished);
    }

    let mut json = String::from("{\n  \"bench\": \"faults\",\n");
    json.push_str(&format!(
        "  \"seed\": {seed},\n  \"reps\": {reps},\n  \"vms\": {vms},\n  \
         \"cloudlets\": {cloudlets},\n  \"datacenters\": 4,\n"
    ));
    json.push_str(&format!(
        "  \"policy\": {{\"max_attempts\": {}, \"base_backoff_ms\": {:?}, \
         \"backoff_factor\": {:?}, \"max_backoff_ms\": {:?}}},\n",
        policy.max_attempts, policy.base_backoff_ms, policy.backoff_factor, policy.max_backoff_ms
    ));
    json.push_str(
        "  \"note\": \"metrics are computed in-simulation and byte-identical across \
         engines and rayon thread counts; wall_ms lines are machine-dependent (committed \
         values: one sweep per engine x fraction on the committing machine) and are \
         stripped before CI diffs\",\n",
    );
    json.push_str("  \"points\": [\n");
    let total = engines.len() * FRACTIONS.len() * algorithms.len();
    let mut emitted = 0usize;
    for (engine, results) in engines.iter().zip(&per_engine) {
        for (f, row) in FRACTIONS.iter().zip(results) {
            for s in row {
                emitted += 1;
                json.push_str(&format!(
                    "    {{\"engine\": \"{}\", \"fraction\": {f:?}, \"algorithm\": \"{}\", \
                     \"completion_ratio\": {}, \"goodput\": {}, \"retries\": {}, \
                     \"wasted_work_ms\": {}, \"mttr_ms\": {}, \"makespan_ms\": {}}}{}\n",
                    engine_label(*engine),
                    s.algorithm.label(),
                    metric_json(&s.completion_ratio),
                    metric_json(&s.goodput),
                    metric_json(&s.retries),
                    metric_json(&s.wasted_work_ms),
                    metric_json(&s.mttr_ms),
                    metric_json(&s.simulation_time_ms),
                    if emitted < total { "," } else { "" }
                ));
            }
        }
    }
    json.push_str("  ],\n  \"wall\": [\n");
    let wall_total = engines.len() * FRACTIONS.len() + big_runs.len();
    let mut wall_emitted = 0usize;
    for (engine, row_walls) in engines.iter().zip(&walls) {
        for (f, w) in FRACTIONS.iter().zip(row_walls) {
            wall_emitted += 1;
            json.push_str(&format!(
                "    {{\"engine\": \"{}\", \"fraction\": {f:?}, \"vms\": {vms}, \
                 \"cloudlets\": {cloudlets}, \"wall_ms\": {w:.1}}}{}\n",
                engine_label(*engine),
                if wall_emitted < wall_total { "," } else { "" }
            ));
        }
    }
    for (engine, w, _) in &big_runs {
        wall_emitted += 1;
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"fraction\": {big_fraction:?}, \"vms\": {big_vms}, \
             \"cloudlets\": {big_cloudlets}, \"point\": \"largest\", \"wall_ms\": {w:.1}}}{}\n",
            engine_label(*engine),
            if wall_emitted < wall_total { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut f = std::fs::File::create(&out_path).expect("output file");
    f.write_all(json.as_bytes()).expect("write json");
    let peak_rss = biosched_bench::rss::peak_rss_kb()
        .map_or_else(|| "unknown".to_string(), |kb| kb.to_string());
    eprintln!("wrote {out_path} (peak RSS {peak_rss} kB)");
    print!("{json}");
}
