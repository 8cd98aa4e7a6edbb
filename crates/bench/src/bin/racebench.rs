//! Racing meta-scheduler benchmark: emits `BENCH_racing.json`.
//!
//! Races the full anytime roster ([`biosched_core::racing`]: ACO, GA,
//! PSO, cuckoo-SOS, GSA, HBO) against the run-everyone static portfolio
//! on heterogeneous instances up to the paper-scale 10k-cloudlet tier,
//! and enforces the subsystem's three contracts as hard gates:
//!
//! 1. **Never worse** — the raced plan's objective score matches or
//!    beats every roster member run standalone to its full racing
//!    budget on the same seed (exact for the survivor, asserted for
//!    all).
//! 2. **Budget** — the race spends at most `--units-gate` (default
//!    0.35) of the portfolio's evaluation units, the deterministic
//!    decision-cost currency (one unit = one full-assignment
//!    evaluation through the shared [`EvalCache`]).
//! 3. **Decision time** — racer wall clock beats the run-everyone
//!    portfolio by `--gate-ratio` (default 2×) at the headline tier.
//!
//! Before the headline, a **grid tier** re-runs the racer at 1 and 4
//! rayon threads and asserts byte-identical plans and race reports
//! (winner, per-member spend, total units), then cross-checks the
//! sequential and sharded engines bit-for-bit through the sweep layer,
//! meta-provenance columns included. The JSON's `points` rows hold only
//! unit-counted and simulation-derived values, so CI runs the binary
//! under different `RAYON_NUM_THREADS` and diffs outputs with the
//! machine-dependent lines stripped (`grep -v wall_ms`).

use std::io::Write as _;
use std::time::Instant;

use biosched_core::eval::EvalCache;
use biosched_core::objective::Objective;
use biosched_core::racing::{standalone_scores, RaceParams, RacingScheduler};
use biosched_core::scheduler::{AlgorithmKind, Scheduler};
use biosched_core::tuning::SchedTuning;
use biosched_workload::heterogeneous::HeterogeneousScenario;
use biosched_workload::scenario::Scenario;
use biosched_workload::sweep::{run_point_with, PointArtifacts};
use simcloud::simulation::EngineKind;
use simcloud::stats::RecordMode;

fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("thread pool");
}

fn scenario(vms: usize, cloudlets: usize, seed: u64) -> Scenario {
    HeterogeneousScenario {
        vm_count: vms,
        cloudlet_count: cloudlets,
        datacenter_count: 4,
        seed,
    }
    .build()
}

/// One raced configuration: deterministic race outcome plus the
/// standalone roster it was measured against.
struct Row {
    tier: &'static str,
    vms: usize,
    cloudlets: usize,
    seed: u64,
    winner: String,
    raced_score: f64,
    best_standalone: f64,
    best_member: String,
    total_units: u64,
    portfolio_units: u64,
    spent: Vec<(String, u64)>,
    standalone: Vec<(String, f64)>,
    racer_wall_ms: f64,
    portfolio_wall_ms: f64,
}

fn race_tier(
    tier: &'static str,
    vms: usize,
    cloudlets: usize,
    seed: u64,
    params: &RaceParams,
) -> Row {
    let s = scenario(vms, cloudlets, seed);
    let problem = s.problem();
    // Both arms share one prebuilt cache, so the wall comparison is
    // pure decision time, not cache construction.
    let cache = EvalCache::new(&problem);

    let wall = Instant::now();
    let mut racer = RacingScheduler::new(params.clone(), seed);
    let plan = racer.schedule_with_cache(&problem, &cache);
    let racer_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let raced_score = cache.score(plan.as_slice(), params.objective);
    let report = racer.last_report().expect("race ran").clone();

    let wall = Instant::now();
    let standalone = standalone_scores(seed, params, &problem, &cache);
    let portfolio_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let (best_member, best_standalone) = standalone
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(n, s)| (n.to_string(), *s))
        .expect("roster is non-empty");

    Row {
        tier,
        vms,
        cloudlets,
        seed,
        winner: report.winner.to_string(),
        raced_score,
        best_standalone,
        best_member,
        total_units: report.total_units,
        portfolio_units: report.portfolio_units,
        spent: report
            .spent
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect(),
        standalone: standalone
            .iter()
            .map(|(n, s)| (n.to_string(), *s))
            .collect(),
        racer_wall_ms,
        portfolio_wall_ms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let mut out_path = String::from("BENCH_racing.json");
    let mut seed = 42u64;
    let mut vms = 1_000usize;
    let mut cloudlets = 10_000usize;
    let mut gate_ratio: Option<f64> = None;
    let mut units_gate = 0.35f64;
    let mut no_gate = false;
    let mut threads: Option<usize> = None;
    let mut smoke = false;
    let mut skip_grid = false;
    while let Some(a) = iter.next() {
        let mut val = || iter.next().expect("flag value").clone();
        match a.as_str() {
            "--out" => out_path = val(),
            "--seed" => seed = val().parse().unwrap(),
            "--vms" => vms = val().parse().unwrap(),
            "--cloudlets" => cloudlets = val().parse().unwrap(),
            "--gate-ratio" => gate_ratio = Some(val().parse().unwrap()),
            "--units-gate" => units_gate = val().parse().unwrap(),
            "--no-gate" => no_gate = true,
            "--threads" => threads = Some(val().parse().unwrap()),
            "--smoke" => smoke = true,
            "--skip-grid" => skip_grid = true,
            other => panic!(
                "unknown flag {other} (try: --out F --seed N --vms N --cloudlets N \
                 --gate-ratio R --units-gate X --no-gate --threads N --smoke --skip-grid)"
            ),
        }
    }
    if smoke {
        // CI preset: real races, seconds of wall clock. The wall gate is
        // skipped (small instances gate on noise) but quality and budget
        // are deterministic and stay enforced.
        vms = 100;
        cloudlets = 1_000;
    }
    let gate_ratio = gate_ratio.unwrap_or(2.0);
    // The wall-clock gate is a statement about the 10k-cloudlet tier,
    // where evaluation cost dominates; small instances gate on noise.
    let wall_gate = !no_gate && cloudlets >= 10_000;
    let params = RaceParams::new(Objective::Makespan);

    // ------------------------------------------------------------------
    // Grid tier: thread- and engine-determinism on a small instance.
    // ------------------------------------------------------------------
    const GRID_VMS: usize = 32;
    const GRID_CLOUDLETS: usize = 256;
    if skip_grid {
        eprintln!("grid tier: skipped (--skip-grid)");
    } else {
        eprintln!(
            "grid tier: {GRID_VMS} VMs / {GRID_CLOUDLETS} cloudlets, threads {{1, 4}}, \
             sequential x sharded engine cross-check"
        );
        let artifacts = PointArtifacts::build(scenario(GRID_VMS, GRID_CLOUDLETS, seed));
        let (problem, cache) = (&artifacts.problem, &artifacts.cache);
        set_threads(1);
        let mut racer = RacingScheduler::new(params.clone(), seed);
        let base_plan = racer.schedule_with_cache(problem, cache);
        let base_report = racer.last_report().expect("race ran").clone();
        set_threads(4);
        let mut racer = RacingScheduler::new(params.clone(), seed);
        let again_plan = racer.schedule_with_cache(problem, cache);
        let again_report = racer.last_report().expect("race ran").clone();
        assert_eq!(base_plan, again_plan, "race plan changed with thread count");
        assert_eq!(
            base_report, again_report,
            "race provenance changed with thread count"
        );
        // Through the sweep layer on both engines: every simulated
        // metric and the provenance columns must agree bit for bit.
        let kind = AlgorithmKind::Racing(Objective::Makespan);
        let point = |engine| {
            run_point_with(
                &artifacts,
                kind,
                &SchedTuning::default(),
                seed,
                engine,
                RecordMode::Aggregate,
            )
            .expect("racer point")
            .0
        };
        let (seq, sh) = (point(EngineKind::Sequential), point(EngineKind::Sharded));
        assert_eq!(
            seq.simulation_time_ms.to_bits(),
            sh.simulation_time_ms.to_bits(),
            "racer makespan diverged across engines"
        );
        assert_eq!(seq.total_cost.to_bits(), sh.total_cost.to_bits());
        assert_eq!(seq.meta_winner, sh.meta_winner);
        assert_eq!(seq.meta_spent, sh.meta_spent);
        eprintln!(
            "  winner {} at {} of {} units; engines agree (makespan {:.1} ms, winner {})",
            base_report.winner,
            base_report.total_units,
            base_report.portfolio_units,
            seq.simulation_time_ms,
            seq.meta_winner.as_deref().unwrap_or("-"),
        );
    }
    set_threads(threads.unwrap_or(0));

    // ------------------------------------------------------------------
    // Headline tier: racer vs run-everyone portfolio.
    // ------------------------------------------------------------------
    eprintln!("headline tier: {vms} VMs / {cloudlets} cloudlets, seed {seed}");
    let row = race_tier("headline", vms, cloudlets, seed, &params);
    let ratio = row.total_units as f64 / row.portfolio_units as f64;
    let speedup = if row.racer_wall_ms > 0.0 {
        row.portfolio_wall_ms / row.racer_wall_ms
    } else {
        f64::INFINITY
    };
    eprintln!(
        "  racer: winner {} scored {:?} in {} of {} units ({:.1}% of portfolio), \
         {:.1} ms wall vs {:.1} ms run-everyone ({speedup:.2}x)",
        row.winner,
        row.raced_score,
        row.total_units,
        row.portfolio_units,
        ratio * 100.0,
        row.racer_wall_ms,
        row.portfolio_wall_ms,
    );
    for (name, score) in &row.standalone {
        eprintln!("  standalone {name}: {score:?}");
    }

    // Gates 1 and 2 are deterministic — always enforced.
    assert!(
        row.raced_score <= row.best_standalone + 1e-9,
        "racer ({}) at {} lost to standalone {} at {}",
        row.winner,
        row.raced_score,
        row.best_member,
        row.best_standalone
    );
    eprintln!(
        "gate: raced score {:?} <= best standalone {} at {:?}",
        row.raced_score, row.best_member, row.best_standalone
    );
    assert!(
        ratio <= units_gate,
        "race spent {:.1}% of the portfolio's evaluation units (gate {:.0}%)",
        ratio * 100.0,
        units_gate * 100.0
    );
    eprintln!(
        "gate: {} of {} units = {:.1}% <= {:.0}%",
        row.total_units,
        row.portfolio_units,
        ratio * 100.0,
        units_gate * 100.0
    );
    if wall_gate {
        assert!(
            speedup >= gate_ratio,
            "racer must beat the run-everyone portfolio by {gate_ratio}x at the \
             {cloudlets}-cloudlet tier: got {speedup:.2}x ({:.1} ms vs {:.1} ms)",
            row.racer_wall_ms,
            row.portfolio_wall_ms
        );
        eprintln!("gate: decision time {speedup:.2}x over run-everyone >= {gate_ratio}x");
    } else {
        eprintln!("gate: wall-clock gate skipped (enabled at >= 10k cloudlets without --no-gate)");
    }

    // ------------------------------------------------------------------
    // JSON emission.
    // ------------------------------------------------------------------
    let pairs = |v: &[(String, u64)]| -> String {
        let items: Vec<String> = v
            .iter()
            .map(|(n, u)| format!("{{\"member\": \"{n}\", \"units\": {u}}}"))
            .collect();
        items.join(", ")
    };
    let scores = |v: &[(String, f64)]| -> String {
        let items: Vec<String> = v
            .iter()
            .map(|(n, s)| format!("{{\"member\": \"{n}\", \"score\": {s:?}}}"))
            .collect();
        items.join(", ")
    };
    let mut json = String::from("{\n  \"bench\": \"racing\",\n");
    json.push_str(&format!(
        "  \"seed\": {seed},\n  \"grid\": {{\"vms\": {GRID_VMS}, \
         \"cloudlets\": {GRID_CLOUDLETS}}},\n"
    ));
    json.push_str(&format!(
        "  \"headline\": {{\"vms\": {vms}, \"cloudlets\": {cloudlets}, \
         \"units_gate\": {units_gate:?}, \"wall_gate_ratio\": {gate_ratio:?}, \
         \"wall_gate_enforced\": {wall_gate}}},\n"
    ));
    json.push_str(
        "  \"note\": \"points rows are evaluation-unit-counted and byte-identical across \
         rayon thread counts and engines (the binary asserts both on the grid tier); wall \
         rows carry machine-dependent decision wall clock and are stripped before CI \
         diffs\",\n",
    );
    json.push_str("  \"points\": [\n");
    json.push_str(&format!(
        "    {{\"tier\": \"{}\", \"vms\": {}, \"cloudlets\": {}, \"seed\": {}, \
         \"winner\": \"{}\", \"raced_score\": {:?}, \"best_member\": \"{}\", \
         \"best_standalone_score\": {:?}, \"total_units\": {}, \"portfolio_units\": {}, \
         \"units_ratio\": {:?},\n     \"spent\": [{}],\n     \"standalone\": [{}]}}\n",
        row.tier,
        row.vms,
        row.cloudlets,
        row.seed,
        row.winner,
        row.raced_score,
        row.best_member,
        row.best_standalone,
        row.total_units,
        row.portfolio_units,
        ratio,
        pairs(&row.spent),
        scores(&row.standalone),
    ));
    json.push_str("  ],\n  \"wall\": [\n");
    json.push_str(&format!(
        "    {{\"tier\": \"{}\", \"racer_wall_ms\": {:.2}, \"portfolio_wall_ms\": {:.2}, \
         \"decision_speedup\": {speedup:.3}}}\n",
        row.tier, row.racer_wall_ms, row.portfolio_wall_ms,
    ));
    json.push_str("  ]\n}\n");

    let mut f = std::fs::File::create(&out_path).expect("output file");
    f.write_all(json.as_bytes()).expect("write json");
    let peak_rss = biosched_bench::rss::peak_rss_kb()
        .map_or_else(|| "unknown".to_string(), |kb| kb.to_string());
    eprintln!("wrote {out_path} (peak RSS {peak_rss} kB)");
    print!("{json}");
}
