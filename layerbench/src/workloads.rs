//! The four workloads. Each is built so that a different layer does most
//! of the work:
//!
//! - `fig6_sweep`: the paper's Fig. 6 path (`sweep::sweep_on`), where
//!   cold full-row ACO dominates and `simcloud` is nearly idle;
//! - `stream_warm`: thousands of small warm-ACO calls through the
//!   streaming broker (`stream::run_stream_with`), sharded engine;
//! - `chaos_batch`: a homogeneous batch under host failures and
//!   stragglers, where the sequential kernel and broker recovery dominate.
//!
//! `setup` generates every input from the seed; `run` is the timed
//! region and receives only those inputs.

use std::collections::BTreeMap;
use std::time::Instant;

use biosched_core::aco::{AcoParams, AntColony};
use biosched_core::assignment::Assignment;
use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::{AlgorithmKind, MetaProvenance, Scheduler};
use biosched_core::warm::WarmState;
use biosched_workload::heterogeneous::{fig6_vm_points, HeterogeneousScenario};
use biosched_workload::homogeneous::HomogeneousScenario;
use biosched_workload::online::WavePlan;
use biosched_workload::resilience::{inject_faults, CacheRescheduler};
use biosched_workload::scenario::Scenario;
use biosched_workload::stream::{run_stream_with, StreamConfig};
use biosched_workload::sweep::sweep_on;
use simcloud::broker::{RecoveryPolicy, Rescheduler};
use simcloud::characteristics::CostModel;
use simcloud::cloudlet_sched::SchedulerKind as VmSchedKind;
use simcloud::faults::FaultSpec;
use simcloud::ids::{CloudletId, VmId};
use simcloud::kernel::World;
use simcloud::simulation::EngineKind;
use simcloud::stats::{RecordMode, SimulationOutcome};
use simcloud::time::SimTime;

use crate::trace::span;

// Sizes. Each timed repetition takes one to three seconds on a 2-vCPU
// host, so a run measures several repetitions and reports their median.
const SWEEP_CLOUDLETS: usize = 200;
const STREAM_VMS: usize = 3_000;
const STREAM_CLOUDLETS: usize = 30_000;
const STREAM_MEAN_WAVE: usize = 20;
const STREAM_MEAN_GAP_MS: f64 = 800.0;
/// Percentile hygiene: a p99 needs at least ten samples beyond it.
const STREAM_MIN_WAVES: usize = 1_000;
const CHAOS_VMS: usize = 50_000;
const CHAOS_CLOUDLETS: usize = 500_000;
const CHAOS_FAULTS: &str = "hosts=0.3,stragglers=0.2";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig6Sweep,
    StreamWarm,
    ChaosBatch,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig6Sweep, Kind::StreamWarm, Kind::ChaosBatch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig6Sweep => "fig6_sweep",
            Kind::StreamWarm => "stream_warm",
            Kind::ChaosBatch => "chaos_batch",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Kind::Fig6Sweep | Kind::ChaosBatch => EngineKind::Sequential,
            Kind::StreamWarm => EngineKind::Sharded,
        }
    }
}

/// Everything a workload's timed region consumes, generated from the seed.
pub enum Inputs {
    Sweep {
        points: Vec<usize>,
        scenarios: Vec<Scenario>,
    },
    Stream {
        scenario: Scenario,
        plan: WavePlan,
    },
    Chaos {
        scenario: Scenario,
    },
}

pub fn setup(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::Fig6Sweep => {
            let points = fig6_vm_points();
            let scenarios = points
                .iter()
                .map(|&vm_count| {
                    span("workload.gen_scenario", || {
                        // A seed per point makes the ten points independent
                        // draws, so their means vary less between seeds.
                        let point_seed =
                            seed ^ (vm_count as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        HeterogeneousScenario {
                            cloudlet_count: SWEEP_CLOUDLETS,
                            ..HeterogeneousScenario::paper(vm_count, point_seed)
                        }
                        .build()
                    })
                })
                .collect();
            Inputs::Sweep { points, scenarios }
        }
        Kind::StreamWarm => {
            let mut scenario = span("workload.gen_scenario", || {
                HeterogeneousScenario {
                    cloudlet_count: STREAM_CLOUDLETS,
                    ..HeterogeneousScenario::paper(STREAM_VMS, seed)
                }
                .build()
            });
            // Space sharing makes cloudlets queue for PEs, so wait times
            // measure the plan instead of a constant provisioning offset.
            scenario.vm_scheduler = VmSchedKind::SpaceShared;
            // One price everywhere: this workload measures latency, and
            // four drawn prices would make `cost` swing with the seed.
            for dc in &mut scenario.datacenters {
                dc.cost = CostModel::table_vii_midpoint();
            }
            let plan = span("workload.gen_waves", || {
                WavePlan::poisson(STREAM_CLOUDLETS, STREAM_MEAN_WAVE, STREAM_MEAN_GAP_MS, seed)
            });
            Inputs::Stream { scenario, plan }
        }
        Kind::ChaosBatch => {
            let mut scenario = span("workload.gen_scenario", || {
                HomogeneousScenario {
                    vm_count: CHAOS_VMS,
                    cloudlet_count: CHAOS_CLOUDLETS,
                }
                .build()
            });
            // The paper's homogeneous datacenter is free; a priced one
            // makes `cost` a non-zero check value on every workload.
            scenario.datacenters[0].cost = CostModel::table_vii_midpoint();
            let spec = FaultSpec::parse(CHAOS_FAULTS).expect("fault spec is a constant");
            span("workload.gen_faults", || {
                inject_faults(&mut scenario, &spec, seed, RecoveryPolicy::default())
            });
            Inputs::Chaos { scenario }
        }
    }
}

/// What one timed repetition produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of the timed region.
    pub run_s: f64,
    /// Cloudlets handed to the system, and those that did not finish
    /// (unfinished, abandoned, or part of a run that returned an error).
    pub attempted: u64,
    pub failed: u64,
    /// Simulated end-to-end metrics; for the sweep, means over its
    /// (point, algorithm) results.
    pub makespan_ms: f64,
    pub imbalance: f64,
    pub cost: f64,
    /// Simulated results behind the means above.
    pub results: usize,
    /// FNV-1a over the bits of every deterministic output.
    pub digest: u64,
    /// Correctness failures (invalid plans, simulation errors).
    pub errors: Vec<String>,
    /// Per-layer values the program itself reports (busy times,
    /// counters); span-derived values are added by the caller.
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-wave scheduling latencies in ms (streaming broker only).
    pub wave_ms: Vec<f64>,
}

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
    fn plan(&mut self, plan: &[VmId]) {
        for vm in plan {
            self.word(vm.index() as u64);
        }
    }
}

/// Folds one simulated outcome into `out`: end-to-end metrics, failure
/// count, digest words and the simulator's counters.
fn record_outcome(out: &mut Outcome, d: &mut Digest, sim: &SimulationOutcome, attempted: usize) {
    let makespan = sim.simulation_time_ms().unwrap_or(f64::NAN);
    let imbalance = sim.time_imbalance().unwrap_or(f64::NAN);
    let cost = sim.total_cost();
    let mean_wait = sim.mean_wait_ms().unwrap_or(f64::NAN);
    out.attempted += attempted as u64;
    out.failed += attempted.saturating_sub(sim.finished_count()) as u64;
    out.makespan_ms = makespan;
    out.imbalance = imbalance;
    out.cost = cost;
    out.results = 1;
    for x in [makespan, imbalance, cost, mean_wait] {
        d.f(x);
    }
    d.word(sim.events_processed);
    d.word(sim.resilience.retries);
    d.word(sim.resilience.abandoned);
    d.word(sim.finished_count() as u64);
    out.layers.insert("sim.events", sim.events_processed as f64);
    out.layers
        .insert("sim.retries", sim.resilience.retries as f64);
    out.layers
        .insert("sim.abandoned", sim.resilience.abandoned as f64);
    out.layers
        .insert("sim.wasted_work_ms", sim.resilience.wasted_work_ms);
    if sim.fallback.is_some() {
        out.errors
            .push(format!("engine fell back: {:?}", sim.fallback));
    }
}

fn check_plan(out: &mut Outcome, plan: &Assignment, problem: &SchedulingProblem) {
    if let Err(e) = plan.validate(problem) {
        out.errors.push(format!("invalid assignment: {e}"));
    }
}

/// Span and per-layer metric names of the schedulers the workloads call.
pub const SCHEDULERS: [(AlgorithmKind, &str, &str); 4] = [
    (AlgorithmKind::AntColony, "sched.aco", "sched.aco_ms"),
    (AlgorithmKind::HoneyBee, "sched.hbo", "sched.hbo_ms"),
    (AlgorithmKind::Rbs, "sched.rbs", "sched.rbs_ms"),
    (AlgorithmKind::BaseTest, "sched.base", "sched.base_ms"),
];

fn sched_names(kind: AlgorithmKind) -> (&'static str, &'static str) {
    SCHEDULERS
        .iter()
        .find(|(k, _, _)| *k == kind)
        .map(|(_, span, metric)| (*span, *metric))
        .expect("the workloads call only the paper's schedulers")
}

/// Records a span around every call into the wrapped scheduler. Used
/// only in traced runs, so untraced runs call the scheduler directly.
struct Traced {
    name: &'static str,
    inner: Box<dyn Scheduler>,
}

impl Scheduler for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        span(self.name, || self.inner.schedule(problem))
    }
    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        span(self.name, || self.inner.schedule_with_cache(problem, cache))
    }
    fn schedule_warm(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut WarmState,
    ) -> Assignment {
        span(self.name, || self.inner.schedule_warm(problem, cache, warm))
    }
    fn last_meta(&self) -> Option<MetaProvenance> {
        self.inner.last_meta()
    }
}

/// Span around each broker retry replan (sub-problem, lite cache and the
/// scheduler call, which records its own child span).
struct TracedRescheduler(CacheRescheduler);

impl Rescheduler for TracedRescheduler {
    fn replan(&mut self, world: &World, now: SimTime, batch: &[CloudletId]) -> Vec<VmId> {
        span("workload.replan", || self.0.replan(world, now, batch))
    }
}

/// `inner`, wrapped in [`Traced`] when tracing.
fn traced_if(kind: AlgorithmKind, inner: Box<dyn Scheduler>, on: bool) -> Box<dyn Scheduler> {
    if on {
        Box::new(Traced {
            name: sched_names(kind).0,
            inner,
        })
    } else {
        inner
    }
}

/// One timed repetition. `traced` only adds spans; every call is the same.
pub fn run(inputs: &Inputs, seed: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut d = Digest::new();
    match inputs {
        Inputs::Sweep { points, scenarios } => {
            let started = Instant::now();
            let grid = span("workload.sweep_on", || {
                sweep_on(
                    points,
                    &AlgorithmKind::PAPER_SET,
                    seed,
                    EngineKind::Sequential,
                    |vms| {
                        scenarios[points.iter().position(|&p| p == vms).expect("known point")]
                            .clone()
                    },
                )
            });
            out.run_s = started.elapsed().as_secs_f64();
            let (mut makespan, mut imbalance, mut cost) = (0.0, 0.0, 0.0);
            let mut cache_ms = 0.0;
            for row in &grid {
                cache_ms += row.first().map_or(0.0, |r| r.cache_build_ms);
                for r in row {
                    out.attempted += r.cloudlet_count as u64;
                    out.failed += r.cloudlet_count.saturating_sub(r.finished) as u64;
                    if r.engine_fallback_reason.is_some() {
                        out.errors.push(format!("{} fell back", r.algorithm));
                    }
                    makespan += r.simulation_time_ms;
                    imbalance += r.imbalance;
                    cost += r.total_cost;
                    out.results += 1;
                    *out.layers.entry(sched_names(r.algorithm).1).or_default() +=
                        r.scheduling_time_ms;
                    for x in [
                        r.simulation_time_ms,
                        r.imbalance,
                        r.total_cost,
                        r.mean_execution_ms,
                    ] {
                        d.f(x);
                    }
                    d.word(r.finished as u64);
                }
            }
            let n = out.results.max(1) as f64;
            out.makespan_ms = makespan / n;
            out.imbalance = imbalance / n;
            out.cost = cost / n;
            out.layers.insert("sched.calls", out.results as f64);
            out.layers.insert("eval.cache_build_ms", cache_ms);
            out.layers.insert("eval.cache_builds", grid.len() as f64);
        }
        Inputs::Stream { scenario, plan } => {
            let cfg = StreamConfig::warm(AlgorithmKind::AntColony, seed)
                .on_engine(EngineKind::Sharded)
                .with_record(RecordMode::Aggregate);
            let params = AcoParams::for_scale(scenario.cloudlet_count());
            let mut factory = |s: u64| {
                let aco = Box::new(AntColony::new(params.clone(), s));
                traced_if(AlgorithmKind::AntColony, aco, traced)
            };
            let started = Instant::now();
            let result = span("workload.run_stream", || {
                run_stream_with(scenario, plan, &cfg, &mut factory)
            });
            out.run_s = started.elapsed().as_secs_f64();
            match result {
                Ok(r) => {
                    check_plan(&mut out, &r.assignment, &scenario.problem());
                    record_outcome(&mut out, &mut d, &r.outcome, scenario.cloudlet_count());
                    d.plan(r.assignment.as_slice());
                    d.word(r.peak_backlog() as u64);
                    out.wave_ms = r
                        .waves
                        .iter()
                        .filter(|w| w.scheduled > 0)
                        .map(|w| w.sched_ms)
                        .collect();
                    if out.wave_ms.len() < STREAM_MIN_WAVES {
                        out.errors
                            .push(format!("only {} non-empty waves", out.wave_ms.len()));
                    }
                    out.layers
                        .insert("stream.sched_busy_ms", r.total_sched_ms());
                    out.layers.insert("stream.waves", r.rounds() as f64);
                    out.layers
                        .insert("stream.peak_backlog", r.peak_backlog() as f64);
                    out.layers.insert(
                        "stream.mean_wait_ms",
                        r.outcome.mean_wait_ms().unwrap_or(0.0),
                    );
                }
                Err(e) => fail(&mut out, scenario, e),
            }
        }
        Inputs::Chaos { scenario } => {
            let started = Instant::now();
            let problem = span("workload.problem", || scenario.problem());
            let cache = span("eval.cache_build", || EvalCache::new(&problem));
            let mut hbo = traced_if(
                AlgorithmKind::HoneyBee,
                AlgorithmKind::HoneyBee.build(seed),
                traced,
            );
            let plan = hbo.schedule_with_cache(&problem, &cache);
            drop(cache);
            let sched_s = started.elapsed().as_secs_f64();
            check_plan(&mut out, &plan, &problem);
            let started = Instant::now();
            let resched = CacheRescheduler::new(hbo, problem);
            let resched: Box<dyn Rescheduler> = if traced {
                Box::new(TracedRescheduler(resched))
            } else {
                Box::new(resched)
            };
            let result = span("sim.simulate", || {
                scenario.simulate_resilient(
                    plan,
                    EngineKind::Sequential,
                    RecordMode::Aggregate,
                    resched,
                )
            });
            out.run_s = sched_s + started.elapsed().as_secs_f64();
            match result {
                Ok(sim) => record_outcome(&mut out, &mut d, &sim, scenario.cloudlet_count()),
                Err(e) => fail(&mut out, scenario, e),
            }
        }
    }
    out.digest = d.0;
    out
}

fn fail(out: &mut Outcome, scenario: &Scenario, e: simcloud::error::SimError) {
    out.attempted += scenario.cloudlet_count() as u64;
    out.failed += scenario.cloudlet_count() as u64;
    out.errors.push(format!("simulation failed: {e}"));
}
