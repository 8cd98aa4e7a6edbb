//! Ant Colony Optimization scheduler (Section IV of the paper).
//!
//! Ants construct cloudlet→VM tours guided by pheromone trails τ and the
//! heuristic desirability η = 1/d of Eq. 6. The transition rule is Eq. 5,
//! pheromone updates follow Eqs. 7–11, and each ant's tabu list forbids
//! reusing a VM within a tour (the paper's constraint-satisfaction rule).
//!
//! Cloudlets are scheduled in *batches* of at most `batch_size` (clamped to
//! the VM count, since a tour cannot revisit VMs). Each batch runs a full
//! colony: `iterations` rounds of `ants` tour constructions followed by
//! local evaporation + deposit (Eqs. 9–10) and a global best-tour
//! reinforcement (Eq. 11). The best tour ever seen becomes the batch's
//! assignment.
//!
//! A tour's length `L_k` is the sum of Eq. 6 expected execution times of
//! its (cloudlet, VM) pairs — the scheduling analog of the TSP tour length
//! the original ACO minimizes (the paper's Eq. 8 rendering is garbled; the
//! sum interpretation preserves "shorter tour = better schedule").
//!
//! # Hot path
//!
//! Colonies are mutually independent, so `run` pre-draws every ant seed in
//! the exact order the old sequential loop consumed them (colony-major,
//! then iteration, then ant) and fans whole colonies out through
//! [`eval::par_map_if`] — assignments stay byte-identical per seed at any
//! thread count. Inside a colony the Eq. 5 weight is read from two caches
//! instead of calling `powf` per candidate: an η^β block precomputed per
//! batch ([`EvalCache::eta_pow_block`]) and the τ^α snapshot the slot-major
//! [`PheromoneMatrix`] refreshes once per iteration. Tabu and
//! candidate-membership checks are generation-stamped array probes in
//! per-colony scratch ([`TourScratch`]), so tour construction allocates
//! nothing but the returned tour. The pre-overhaul loop survives verbatim
//! in [`reference`] as the equivalence baseline.

//!
//! ```
//! use biosched_core::aco::{AcoParams, AntColony};
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(500.0, 5000.0, 512.0, 500.0, 1),
//!          VmSpec::new(4000.0, 5000.0, 512.0, 500.0, 1)],
//!     vec![CloudletSpec::new(10_000.0, 300.0, 300.0, 1); 6],
//!     CostModel::default(),
//! );
//! let mut aco = AntColony::new(AcoParams::fast(), 42);
//! let plan = aco.schedule(&problem);
//! assert!(plan.validate(&problem).is_ok());
//! ```
mod params;
mod pheromone;
pub mod reference;

pub use params::{AcoParams, CandidateStrategy, SamplingMode};
pub use pheromone::PheromoneMatrix;

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud::ids::VmId;
use simcloud::rng::stream;

use crate::assignment::Assignment;
use crate::eval::{self, CandidateBlock, EvalCache};
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;

/// Minimum estimated per-run work (`colonies × iterations × ants × batch
/// × k` weight-row reads) before colony construction fans out over
/// threads. Below it the fork/join overhead outweighs the work — the 1k
/// scale regressed ~2× at 4 threads before this cutover — so small
/// problems stay serial regardless of the worker-pool size.
const PAR_MIN_WORK: u64 = 1 << 26;

/// Tabu rejection-sampling budget of the candidate-list fast path: draw
/// from the unconditioned row distribution up to this many times before
/// switching to the exact non-tabu conditional roulette.
const MAX_TABU_RESAMPLES: usize = 8;

/// The ACO scheduler.
pub struct AntColony {
    params: AcoParams,
    rng: StdRng,
}

impl AntColony {
    /// Creates a colony with the given parameters and seed.
    pub fn new(params: AcoParams, seed: u64) -> Self {
        params.validate().expect("invalid AcoParams");
        AntColony {
            params,
            rng: stream(seed, "aco"),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &AcoParams {
        &self.params
    }

    /// Like [`Scheduler::schedule`], but also returns the best tour
    /// length after each iteration of the *first* colony — ACO's
    /// convergence curve (subsequent batches behave statistically alike).
    pub fn schedule_traced(&mut self, problem: &SchedulingProblem) -> (Assignment, Vec<f64>) {
        self.run(problem, &EvalCache::new(problem), true, None)
    }

    /// Warm-start entry point for the streaming broker: when `warm` holds
    /// a pheromone matrix from a previous wave it is aged by one
    /// evaporation and becomes every colony's starting trail (its
    /// slot-position preferences — "which VMs are good" — transfer across
    /// waves of similar cloudlets); afterwards `warm` is replaced with the
    /// final matrix of the last colony. A `None` prior behaves exactly
    /// like [`Scheduler::schedule_with_cache`] but still captures.
    pub fn schedule_with_warm_pheromone(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut Option<PheromoneMatrix>,
    ) -> Assignment {
        self.run(problem, cache, false, Some(warm)).0
    }

    fn run(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        traced: bool,
        mut warm: Option<&mut Option<PheromoneMatrix>>,
    ) -> (Assignment, Vec<f64>) {
        let c = problem.cloudlet_count();
        let v = problem.vm_count();
        // Clamp: a tour may not revisit VMs, and a tour covering the whole
        // fleet is a bare permutation with no room for preference.
        let fleet_cap = ((v as f64 * self.params.max_vm_fraction).ceil() as usize).max(1);
        let batch = self.params.batch_size.min(fleet_cap).max(1);

        let mut colonies: Vec<(usize, Range<usize>)> = Vec::with_capacity(c.div_ceil(batch));
        let mut start = 0;
        while start < c {
            let end = (start + batch).min(c);
            colonies.push((colonies.len(), start..end));
            start = end;
        }

        // Pre-draw every ant seed in the order the sequential loop used to
        // consume them (colony-major, then iteration, then ant): colonies
        // can then run on any thread count with identical seed streams.
        let per_colony = self.params.iterations * self.params.ants;
        let seeds: Vec<u64> = (0..colonies.len() * per_colony)
            .map(|_| self.rng.gen())
            .collect();

        // Candidate-list fast path: engages only when the list is a strict
        // subset of the fleet, so any run with k ≥ #VMs takes the legacy
        // reference-equivalent machinery unchanged.
        let k = self.params.candidates.unwrap_or(v).min(v);
        let use_topk = self.params.strategy == params::CandidateStrategy::TopEta && k < v;

        // Fan whole colonies out when there are enough to fill the pool
        // AND the total work amortizes the fork — otherwise run serially
        // (ant-level parallelism inside a colony is gated the same way).
        let per_colony_work = (self.params.iterations as u64)
            .saturating_mul(self.params.ants as u64)
            .saturating_mul(batch as u64)
            .saturating_mul(k as u64);
        let total_work = per_colony_work.saturating_mul(colonies.len() as u64);
        let colonies_parallel = colonies.len() >= eval::MIN_PAR_ITEMS && total_work >= PAR_MIN_WORK;
        let ants_parallel = !colonies_parallel && per_colony_work >= PAR_MIN_WORK;
        // Age the warm prior once per wave, then hand every colony a clone
        // of the aged matrix; the last colony's final matrix is carried
        // forward. Taking it out of the slot keeps the borrow shareable
        // across the parallel fan-out. Compaction bounds each lane to the
        // strongest few candidate-widths of deposits: without it the
        // carried matrix grows by every wave's trails (evaporation never
        // shrinks a deposit relative to the base) and warm replanning
        // slows down wave over wave instead of speeding up.
        // One candidate-row width of the strongest trails per slot: wide
        // enough to carry "which VMs are good here" across the wave
        // boundary, narrow enough that the next wave's deposits don't pay
        // mid-lane inserts into already-full lanes.
        let capture = warm.is_some();
        let lane_cap = k;
        let prior_owned: Option<PheromoneMatrix> =
            warm.as_deref_mut().and_then(|w| w.take()).map(|mut m| {
                m.evaporate(self.params.rho);
                m.compact_top(lane_cap);
                m
            });
        let prior = prior_owned.as_ref();
        let last = colonies.len().saturating_sub(1);
        let params = &self.params;
        let results = eval::par_map_if(colonies_parallel, &colonies, |(i, slots)| {
            let colony_seeds = &seeds[i * per_colony..(i + 1) * per_colony];
            let capture_here = capture && *i == last;
            if use_topk {
                run_colony_topk(
                    cache,
                    params,
                    slots.clone(),
                    colony_seeds,
                    traced && *i == 0,
                    k,
                    prior,
                    capture_here,
                )
            } else {
                run_colony(
                    cache,
                    params,
                    slots.clone(),
                    colony_seeds,
                    traced && *i == 0,
                    ants_parallel,
                    prior,
                    capture_here,
                )
            }
        });

        let mut map = Vec::with_capacity(c);
        let mut trace = Vec::new();
        let mut captured = None;
        for (i, (tour, colony_trace, matrix)) in results.into_iter().enumerate() {
            map.extend(tour);
            if i == 0 {
                trace = colony_trace;
            }
            if matrix.is_some() {
                captured = matrix;
            }
        }
        if let Some(w) = warm {
            *w = captured;
        }
        (Assignment::new(map), trace)
    }
}

/// Per-colony iteration state shared by the one-shot colony loops and the
/// anytime [`AcoRun`] stepper: the pheromone matrix, the best tour so
/// far, tour-construction scratch and the engine-specific weight caches.
/// Factoring the per-iteration body here is what makes "stepped to done ≡
/// one-shot" true by construction rather than by parallel maintenance.
struct ColonyState {
    slots: Range<usize>,
    pheromone: PheromoneMatrix,
    best: Option<(Vec<u32>, f64)>,
    scratch: TourScratch,
    engine: ColonyEngine,
}

/// The two tour-construction machineries (see [`run_colony`] /
/// [`run_colony_topk`] for their contracts).
enum ColonyEngine {
    /// Legacy reference-equivalent path: full-fleet η^β block plus the
    /// fused per-iteration weight table (both absent when declined).
    Legacy {
        eta_pow: Option<Vec<f64>>,
        weight_block: Option<Vec<f64>>,
    },
    /// Candidate-list fast path (boxed: built once per colony run).
    Topk(Box<TopkCaches>),
}

/// Per-batch [`CandidateBlock`] plus the sampling-mode-specific row or
/// alias caches of the candidate-list path.
struct TopkCaches {
    block: CandidateBlock,
    rows: Option<CandidateRows>,
    alias: Option<AliasTables>,
}

impl ColonyState {
    /// Builds the legacy-path state (the prologue of [`run_colony`]).
    fn new_legacy(
        cache: &EvalCache,
        params: &AcoParams,
        slots: Range<usize>,
        prior: Option<&PheromoneMatrix>,
    ) -> Self {
        let v = cache.vm_count();
        let k = params.candidates.unwrap_or(v).min(v);
        // η^β for the whole batch, shared by every ant and iteration;
        // declined (→ inline fallback) when the block would out-cost the
        // lookups.
        let expected_lookups = params
            .ants
            .saturating_mul(params.iterations)
            .saturating_mul(slots.len())
            .saturating_mul(k);
        let eta_pow = cache.eta_pow_block(slots.clone(), params.beta, expected_lookups);
        // Fused Eq. 5 weight table (slot-major, τ^α·η^β per edge),
        // refreshed from the pheromone snapshot each iteration. Same size
        // as the η^β block, so it exists exactly when that block does.
        let weight_block: Option<Vec<f64>> = eta_pow.as_ref().map(|block| vec![0.0; block.len()]);
        ColonyState {
            pheromone: match prior {
                Some(p) => p.clone(),
                None => PheromoneMatrix::new(params.initial_pheromone),
            },
            best: None,
            scratch: TourScratch::new(v),
            slots,
            engine: ColonyEngine::Legacy {
                eta_pow,
                weight_block,
            },
        }
    }

    /// Builds the candidate-list fast-path state (the prologue of
    /// [`run_colony_topk`]).
    fn new_topk(
        cache: &EvalCache,
        params: &AcoParams,
        slots: Range<usize>,
        k: usize,
        prior: Option<&PheromoneMatrix>,
    ) -> Self {
        let v = cache.vm_count();
        let block = cache.candidate_block(slots.clone(), k, params.beta);
        let rows = match params.sampling {
            SamplingMode::Alias => None,
            SamplingMode::Linear | SamplingMode::PrefixSum => {
                Some(CandidateRows::new(slots.len(), block.k()))
            }
        };
        let alias = match params.sampling {
            SamplingMode::Alias => Some(AliasTables::build(&block)),
            SamplingMode::Linear | SamplingMode::PrefixSum => None,
        };
        ColonyState {
            pheromone: match prior {
                Some(p) => p.clone(),
                None => PheromoneMatrix::new(params.initial_pheromone),
            },
            best: None,
            scratch: TourScratch::new(v),
            slots,
            engine: ColonyEngine::Topk(Box::new(TopkCaches { block, rows, alias })),
        }
    }

    /// One colony iteration: refresh the weight caches from the pheromone
    /// snapshot, construct every ant's tour from `iter_seeds`, apply the
    /// pheromone updates. Returns the best tour length so far.
    fn iterate(
        &mut self,
        cache: &EvalCache,
        params: &AcoParams,
        iter_seeds: &[u64],
        ants_parallel: bool,
    ) -> f64 {
        let v = cache.vm_count();
        let slots = self.slots.clone();
        let tours: Vec<(Vec<u32>, f64)> = match &mut self.engine {
            ColonyEngine::Legacy {
                eta_pow,
                weight_block,
            } => {
                self.pheromone.prepare_pow(params.alpha);
                if let (Some(weights), Some(eta)) = (weight_block.as_mut(), eta_pow.as_deref()) {
                    for s in 0..slots.len() {
                        self.pheromone.fill_weight_row(
                            s,
                            &eta[s * v..(s + 1) * v],
                            &mut weights[s * v..(s + 1) * v],
                        );
                    }
                }
                let weights_ref = weight_block.as_deref();
                let pheromone = &self.pheromone;
                if ants_parallel {
                    eval::par_map(iter_seeds, |&seed| {
                        let mut ant_scratch = TourScratch::new(v);
                        construct_tour(
                            cache,
                            slots.clone(),
                            pheromone,
                            params,
                            seed,
                            weights_ref,
                            &mut ant_scratch,
                        )
                    })
                } else {
                    let scratch = &mut self.scratch;
                    iter_seeds
                        .iter()
                        .map(|&seed| {
                            construct_tour(
                                cache,
                                slots.clone(),
                                pheromone,
                                params,
                                seed,
                                weights_ref,
                                scratch,
                            )
                        })
                        .collect()
                }
            }
            ColonyEngine::Topk(topk) => {
                let TopkCaches { block, rows, alias } = &mut **topk;
                self.pheromone.prepare_pow_incremental(params.alpha);
                if let Some(rows) = rows.as_mut() {
                    rows.refresh(&self.pheromone, block);
                }
                if let Some(alias) = alias.as_mut() {
                    alias.refresh(&self.pheromone, block);
                }
                let pheromone = &self.pheromone;
                let scratch = &mut self.scratch;
                iter_seeds
                    .iter()
                    .map(|&seed| {
                        construct_tour_topk(
                            cache,
                            slots.clone(),
                            pheromone,
                            params,
                            seed,
                            block,
                            rows.as_ref(),
                            alias.as_ref(),
                            scratch,
                        )
                    })
                    .collect()
            }
        };
        apply_pheromone_updates(&mut self.pheromone, params, tours, &mut self.best)
    }

    /// The best tour found so far (empty before the first iteration).
    fn best_tour(&self) -> &[u32] {
        self.best.as_ref().map(|(t, _)| t.as_slice()).unwrap_or(&[])
    }

    /// Epilogue shared by the one-shot colony loops.
    fn into_result(
        self,
        trace: Vec<f64>,
        capture: bool,
    ) -> (Vec<VmId>, Vec<f64>, Option<PheromoneMatrix>) {
        let tour = self
            .best
            .expect("ants always produce tours")
            .0
            .into_iter()
            .map(VmId)
            .collect();
        (tour, trace, capture.then_some(self.pheromone))
    }
}

/// Runs one colony over `slots` (global cloudlet indices). Returns the
/// best tour found plus, when `traced`, the best length per iteration,
/// plus, when `capture`, the colony's final pheromone matrix (the warm
/// prior of the next wave). `prior` replaces the fresh initial matrix;
/// with `prior = None` and `capture = false` behavior is bit-identical to
/// the pre-warm code.
#[allow(clippy::too_many_arguments)]
fn run_colony(
    cache: &EvalCache,
    params: &AcoParams,
    slots: Range<usize>,
    seeds: &[u64],
    traced: bool,
    ants_parallel: bool,
    prior: Option<&PheromoneMatrix>,
    capture: bool,
) -> (Vec<VmId>, Vec<f64>, Option<PheromoneMatrix>) {
    // Mirrors the pre-overhaul per-iteration gate (cheap batches do not
    // amortize a fork), further gated off when colonies already fan out.
    let ants_parallel = ants_parallel && slots.len() >= 32;
    let mut state = ColonyState::new_legacy(cache, params, slots, prior);
    let mut trace = Vec::new();
    for iter in 0..params.iterations {
        let iter_seeds = &seeds[iter * params.ants..(iter + 1) * params.ants];
        let best_len = state.iterate(cache, params, iter_seeds, ants_parallel);
        if traced {
            trace.push(best_len);
        }
    }
    state.into_result(trace, capture)
}

/// The per-iteration pheromone bookkeeping both colony bodies share: local
/// update (Eqs. 9–10 — evaporate once, every ant deposits Q/L_k along its
/// tour), global-best tracking and the Eq. 11 best-tour reinforcement.
/// Returns the best tour length so far (the traced convergence value).
fn apply_pheromone_updates(
    pheromone: &mut PheromoneMatrix,
    params: &AcoParams,
    tours: Vec<(Vec<u32>, f64)>,
    best: &mut Option<(Vec<u32>, f64)>,
) -> f64 {
    pheromone.evaporate(params.rho);
    for (tour, len) in &tours {
        let dq = params.q / len.max(f64::MIN_POSITIVE);
        for (i, vm) in tour.iter().enumerate() {
            pheromone.deposit(i as u32, *vm, dq);
        }
    }

    for (tour, len) in tours {
        if best.as_ref().is_none_or(|(_, b)| len < *b) {
            *best = Some((tour, len));
        }
    }
    let (bt, bl) = best.as_ref().expect("ants always produce tours");
    let dq = params.q / bl.max(f64::MIN_POSITIVE);
    for (i, vm) in bt.iter().enumerate() {
        pheromone.deposit(i as u32, *vm, dq);
    }
    *bl
}

/// Candidate-list fast path: one colony over `slots` with the per-batch
/// [`CandidateBlock`] replacing full-fleet rows. Engaged only when
/// `k < #VMs` (see [`AntColony::run`]); makes no bitwise-equivalence
/// claims against [`reference`] — the quality gate lives in `schedbench`.
/// Refreshes the τ^α snapshot incrementally
/// ([`PheromoneMatrix::prepare_pow_incremental`]): evaporation's uniform
/// rescale becomes one scalar multiply per clean entry, and only
/// deposited-this-iteration edges pay a powf.
#[allow(clippy::too_many_arguments)]
fn run_colony_topk(
    cache: &EvalCache,
    params: &AcoParams,
    slots: Range<usize>,
    seeds: &[u64],
    traced: bool,
    k: usize,
    prior: Option<&PheromoneMatrix>,
    capture: bool,
) -> (Vec<VmId>, Vec<f64>, Option<PheromoneMatrix>) {
    let mut state = ColonyState::new_topk(cache, params, slots, k, prior);
    let mut trace = Vec::new();
    for iter in 0..params.iterations {
        let iter_seeds = &seeds[iter * params.ants..(iter + 1) * params.ants];
        let best_len = state.iterate(cache, params, iter_seeds, false);
        if traced {
            trace.push(best_len);
        }
    }
    state.into_result(trace, capture)
}

/// The anytime ACO run: every colony's [`ColonyState`] plus a shared
/// iteration cursor. One [`AcoRun::step`] call advances *every* colony by
/// one iteration (colonies evolve in lockstep, iteration-major), charging
/// `ants` evaluation units — each of the `ants` tours per colony covers
/// only that colony's batch, so all colonies together construct `ants`
/// full assignments per step.
///
/// Ant seeds are pre-drawn colony-major exactly like [`AntColony::run`]
/// and colonies are mutually independent, so a fresh `AcoRun` stepped to
/// completion picks the same per-colony best tours as the one-shot
/// scheduler — bit-identical plans (asserted in tests for both the legacy
/// and the candidate-list engines). Stepping is always sequential; the
/// one-shot path's colony/ant parallelism never changes results, only
/// wall clock.
pub struct AcoRun {
    params: AcoParams,
    colonies: Vec<ColonyState>,
    seeds: Vec<u64>,
    per_colony: usize,
    iter: usize,
}

impl AcoRun {
    /// Starts a run from a cold seed, mirroring [`AntColony::run`]'s
    /// prologue: batch clamp, colony slicing, colony-major seed pre-draw,
    /// candidate-list engagement, and (when `prior` is given) the warm
    /// matrix aged by one evaporation + lane compaction.
    pub fn cold(
        params: AcoParams,
        seed: u64,
        cache: &EvalCache,
        prior: Option<&PheromoneMatrix>,
    ) -> Self {
        params.validate().expect("invalid AcoParams");
        let mut rng = stream(seed, "aco");
        let c = cache.cloudlet_count();
        let v = cache.vm_count();
        let fleet_cap = ((v as f64 * params.max_vm_fraction).ceil() as usize).max(1);
        let batch = params.batch_size.min(fleet_cap).max(1);
        let mut ranges: Vec<Range<usize>> = Vec::with_capacity(c.div_ceil(batch));
        let mut start = 0;
        while start < c {
            let end = (start + batch).min(c);
            ranges.push(start..end);
            start = end;
        }
        let per_colony = params.iterations * params.ants;
        let seeds: Vec<u64> = (0..ranges.len() * per_colony).map(|_| rng.gen()).collect();
        let k = params.candidates.unwrap_or(v).min(v);
        let use_topk = params.strategy == params::CandidateStrategy::TopEta && k < v;
        let aged = prior.map(|p| {
            let mut m = p.clone();
            m.evaporate(params.rho);
            m.compact_top(k);
            m
        });
        let colonies = ranges
            .into_iter()
            .map(|slots| {
                if use_topk {
                    ColonyState::new_topk(cache, &params, slots, k, aged.as_ref())
                } else {
                    ColonyState::new_legacy(cache, &params, slots, aged.as_ref())
                }
            })
            .collect();
        AcoRun {
            params,
            colonies,
            seeds,
            per_colony,
            iter: 0,
        }
    }

    /// Evaluation units one [`AcoRun::step`] charges (`ants` full
    /// assignments across all colonies; see the type docs).
    pub fn step_units(&self) -> u64 {
        self.params.ants as u64
    }

    /// True once every planned iteration has run (or the workload is
    /// empty).
    pub fn done(&self) -> bool {
        self.iter >= self.params.iterations || self.colonies.is_empty()
    }

    /// Advances every colony by one iteration. Returns the minimum best
    /// tour length across colonies (informational — racing re-scores the
    /// incumbent under its own objective).
    pub fn step(&mut self, cache: &EvalCache) -> f64 {
        if self.done() {
            return 0.0;
        }
        let iter = self.iter;
        let ants = self.params.ants;
        let mut best = f64::INFINITY;
        for (i, colony) in self.colonies.iter_mut().enumerate() {
            let base = i * self.per_colony + iter * ants;
            let iter_seeds = &self.seeds[base..base + ants];
            let len = colony.iterate(cache, &self.params, iter_seeds, false);
            best = best.min(len);
        }
        self.iter += 1;
        best
    }

    /// The full-workload incumbent: every colony's best tour,
    /// concatenated in cloudlet order. `None` before the first step
    /// (colonies have no tours yet) on non-empty workloads.
    pub fn incumbent(&self) -> Option<Vec<u32>> {
        if self.iter == 0 && !self.colonies.is_empty() {
            return None;
        }
        let mut genes = Vec::with_capacity(self.colonies.iter().map(|c| c.slots.len()).sum());
        for colony in &self.colonies {
            genes.extend_from_slice(colony.best_tour());
        }
        Some(genes)
    }
}

/// Per-iteration fused Eq. 5 weight rows of the candidate-list fast path:
/// slot-major k-wide `τ^α·η^β` rows plus their running prefix sums, so a
/// draw is either an O(k) roulette or an O(log k) binary search.
struct CandidateRows {
    k: usize,
    weights: Vec<f64>,
    prefix: Vec<f64>,
}

impl CandidateRows {
    fn new(slots: usize, k: usize) -> Self {
        CandidateRows {
            k,
            weights: vec![0.0; slots * k],
            prefix: vec![0.0; slots * k],
        }
    }

    /// Rebuilds every row from the current pheromone snapshot (call after
    /// [`PheromoneMatrix::prepare_pow`]). Non-finite products clip to 0,
    /// like the legacy path.
    fn refresh(&mut self, pheromone: &PheromoneMatrix, block: &CandidateBlock) {
        let k = self.k;
        for s in 0..block.slot_count() {
            let row = block.row(s);
            let eta = block.eta_row(s);
            let mut acc = 0.0;
            for r in 0..k {
                let w = pheromone.get_pow(s as u32, row[r]) * eta[r];
                let w = if w.is_finite() { w } else { 0.0 };
                self.weights[s * k + r] = w;
                acc += w;
                self.prefix[s * k + r] = acc;
            }
        }
    }

    #[inline]
    fn weight_row(&self, s: usize) -> &[f64] {
        &self.weights[s * self.k..(s + 1) * self.k]
    }

    #[inline]
    fn prefix_row(&self, s: usize) -> &[f64] {
        &self.prefix[s * self.k..(s + 1) * self.k]
    }
}

/// O(log k) roulette over a non-decreasing prefix-sum row: the smallest
/// index whose prefix strictly exceeds `spin` — exactly the index a linear
/// left-to-right scan (`spin < prefix[i]`) of the same row returns. A spin
/// at or beyond the total clamps to the last index.
pub fn prefix_pick(prefix: &[f64], spin: f64) -> usize {
    debug_assert!(!prefix.is_empty());
    prefix.partition_point(|&p| p <= spin).min(prefix.len() - 1)
}

/// Static Vose alias tables over the per-slot η^β mass plus sparse
/// per-iteration τ-deposit deltas. Eq. 5's row weight factors as
/// `τ^α·η^β = base^α·η^β + (τ^α − base^α)·η^β`: evaporation rescales the
/// base uniformly (the *shape* of the first term never changes, so its
/// alias table is built once per batch), and the second term is non-zero
/// only on deposited edges — a short per-slot list. Sampling draws from
/// the two-part mixture without ever rebuilding a dense row.
struct AliasTables {
    k: usize,
    /// Vose acceptance probability per `[slot * k + rank]` cell.
    prob: Vec<f64>,
    /// Vose alias rank per cell.
    alias: Vec<u32>,
    /// Slots whose η^β mass was finite and positive (usable static part).
    static_ok: Vec<bool>,
    /// Candidate VMs of each slot, sorted ascending, with their ranks —
    /// O(log k) vm→rank lookups during delta extraction.
    sorted_vm: Vec<u32>,
    sorted_rank: Vec<u32>,
    /// Per-iteration mixture state (refreshed after `prepare_pow`).
    base_total: Vec<f64>,
    delta_rank: Vec<Vec<u32>>,
    delta_w: Vec<Vec<f64>>,
    delta_total: Vec<f64>,
}

impl AliasTables {
    fn build(block: &CandidateBlock) -> Self {
        let k = block.k();
        let b = block.slot_count();
        let mut prob = vec![1.0; b * k];
        let mut alias = vec![0u32; b * k];
        let mut static_ok = vec![false; b];
        let mut sorted_vm = Vec::with_capacity(b * k);
        let mut sorted_rank = Vec::with_capacity(b * k);
        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        let mut scaled = vec![0.0; k];
        for s in 0..b {
            let eta = block.eta_row(s);
            let sum = block.eta_sum(s);
            let mut pairs: Vec<(u32, u32)> = block
                .row(s)
                .iter()
                .enumerate()
                .map(|(r, &vm)| (vm, r as u32))
                .collect();
            pairs.sort_unstable();
            for (vm, r) in pairs {
                sorted_vm.push(vm);
                sorted_rank.push(r);
            }
            if !(sum.is_finite() && sum > 0.0) {
                // Degenerate slot: no static mass; deltas (or the exact
                // fallback in tour construction) carry the distribution.
                for r in 0..k {
                    alias[s * k + r] = r as u32;
                }
                continue;
            }
            static_ok[s] = true;
            // Vose's algorithm: partition ranks by scaled weight, pair
            // small cells with large donors.
            small.clear();
            large.clear();
            for r in 0..k {
                scaled[r] = eta[r] * k as f64 / sum;
                if scaled[r] < 1.0 {
                    small.push(r as u32);
                } else {
                    large.push(r as u32);
                }
            }
            while !small.is_empty() && !large.is_empty() {
                let s_rank = small.pop().expect("checked non-empty") as usize;
                let l_rank = *large.last().expect("checked non-empty") as usize;
                prob[s * k + s_rank] = scaled[s_rank];
                alias[s * k + s_rank] = l_rank as u32;
                scaled[l_rank] -= 1.0 - scaled[s_rank];
                if scaled[l_rank] < 1.0 {
                    large.pop();
                    small.push(l_rank as u32);
                }
            }
            for &r in small.iter().chain(large.iter()) {
                prob[s * k + r as usize] = 1.0;
                alias[s * k + r as usize] = r;
            }
        }
        AliasTables {
            k,
            prob,
            alias,
            static_ok,
            sorted_vm,
            sorted_rank,
            base_total: vec![0.0; b],
            delta_rank: vec![Vec::new(); b],
            delta_w: vec![Vec::new(); b],
            delta_total: vec![0.0; b],
        }
    }

    /// Rebuilds the mixture state from the current pheromone snapshot
    /// (call after [`PheromoneMatrix::prepare_pow`]).
    fn refresh(&mut self, pheromone: &PheromoneMatrix, block: &CandidateBlock) {
        let k = self.k;
        let base_pow = pheromone.base_pow();
        for s in 0..block.slot_count() {
            self.base_total[s] = if self.static_ok[s] {
                base_pow * block.eta_sum(s)
            } else {
                0.0
            };
            self.delta_rank[s].clear();
            self.delta_w[s].clear();
            self.delta_total[s] = 0.0;
        }
        pheromone.for_each_deposited_pow(|slot, vm, pow| {
            if slot >= block.slot_count() {
                return;
            }
            let sorted = &self.sorted_vm[slot * k..(slot + 1) * k];
            if let Ok(i) = sorted.binary_search(&vm) {
                let rank = self.sorted_rank[slot * k + i];
                // τ ≥ base on deposited edges, so the delta is ≥ 0 up to
                // powf rounding; clamp defensively.
                let w = (pow - base_pow) * block.eta_row(slot)[rank as usize];
                let w = if w.is_finite() { w.max(0.0) } else { 0.0 };
                if w > 0.0 {
                    self.delta_rank[slot].push(rank);
                    self.delta_w[slot].push(w);
                    self.delta_total[slot] += w;
                }
            }
        });
    }

    /// Draws a rank from slot `s`'s mixture, or `None` when the slot has
    /// no usable mass (caller falls back to the exact conditional path).
    fn sample(&self, s: usize, rng: &mut StdRng) -> Option<usize> {
        let total = self.base_total[s] + self.delta_total[s];
        if !(total.is_finite() && total > 0.0) {
            return None;
        }
        let spin = rng.gen_range(0.0..total);
        if spin < self.base_total[s] {
            let r = rng.gen_range(0..self.k);
            let flip: f64 = rng.gen_range(0.0..1.0);
            Some(if flip < self.prob[s * self.k + r] {
                r
            } else {
                self.alias[s * self.k + r] as usize
            })
        } else {
            let mut rem = spin - self.base_total[s];
            let ranks = &self.delta_rank[s];
            for (i, &w) in self.delta_w[s].iter().enumerate() {
                rem -= w;
                if rem <= 0.0 {
                    return Some(ranks[i] as usize);
                }
            }
            ranks.last().map(|&r| r as usize)
        }
    }
}

/// One ant's tour on the candidate-list fast path: per slot, draw from the
/// full-row distribution (prefix binary search, alias mixture, or linear
/// roulette), rejecting tabu picks up to [`MAX_TABU_RESAMPLES`] times
/// before switching to the exact roulette conditioned on the non-tabu
/// candidates; a fully-tabu row falls back to the first free VM scanning
/// from a random start (the legacy escape hatch).
#[allow(clippy::too_many_arguments)]
fn construct_tour_topk(
    cache: &EvalCache,
    slots: Range<usize>,
    pheromone: &PheromoneMatrix,
    params: &AcoParams,
    seed: u64,
    block: &CandidateBlock,
    rows: Option<&CandidateRows>,
    alias: Option<&AliasTables>,
    scratch: &mut TourScratch,
) -> (Vec<u32>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = cache.vm_count();
    let k = block.k();
    scratch.begin_ant();
    let mut tour = Vec::with_capacity(slots.len());
    let mut length = 0.0;

    for (slot_idx, c) in slots.enumerate() {
        let row = block.row(slot_idx);
        let mut chosen: Option<u32> = None;

        if params.q0 > 0.0 && rng.gen_range(0.0..1.0) < params.q0 {
            // ACS exploitation: argmax over the non-tabu candidates
            // (validation guarantees a dense row exists when q0 > 0).
            if let Some(rows) = rows {
                let weights = rows.weight_row(slot_idx);
                let mut best: Option<(u32, f64)> = None;
                for r in 0..k {
                    let j = row[r];
                    if scratch.is_tabu(j) {
                        continue;
                    }
                    if best.is_none_or(|(_, bw)| weights[r].total_cmp(&bw).is_gt()) {
                        best = Some((j, weights[r]));
                    }
                }
                chosen = best.map(|(j, _)| j);
            }
        } else {
            for _ in 0..MAX_TABU_RESAMPLES {
                let rank = if let Some(rows) = rows {
                    let prefix = rows.prefix_row(slot_idx);
                    let total = prefix[k - 1];
                    if !(total.is_finite() && total > 0.0) {
                        break;
                    }
                    match params.sampling {
                        SamplingMode::PrefixSum => prefix_pick(prefix, rng.gen_range(0.0..total)),
                        _ => roulette(&mut rng, rows.weight_row(slot_idx), total),
                    }
                } else if let Some(alias) = alias {
                    match alias.sample(slot_idx, &mut rng) {
                        Some(rank) => rank,
                        None => break,
                    }
                } else {
                    unreachable!("fast path always builds rows or alias tables")
                };
                let j = row[rank];
                if !scratch.is_tabu(j) {
                    chosen = Some(j);
                    break;
                }
            }
        }

        if chosen.is_none() {
            // Exact conditional: roulette over the non-tabu candidates.
            scratch.begin_slot();
            let mut total = 0.0;
            for (r, &j) in row.iter().enumerate().take(k) {
                if scratch.is_tabu(j) {
                    continue;
                }
                let w = match rows {
                    Some(rows) => rows.weight_row(slot_idx)[r],
                    None => {
                        let w = pheromone.get_pow(slot_idx as u32, j) * block.eta_row(slot_idx)[r];
                        if w.is_finite() {
                            w
                        } else {
                            0.0
                        }
                    }
                };
                scratch.candidates.push(j);
                scratch.weights.push(w);
                total += w;
            }
            if scratch.candidates.is_empty() {
                // Whole row tabu: first free VM from a random start.
                let start = rng.gen_range(0..v);
                for off in 0..v {
                    let j = ((start + off) % v) as u32;
                    if !scratch.is_tabu(j) {
                        chosen = Some(j);
                        break;
                    }
                }
            } else {
                let pick = roulette(&mut rng, &scratch.weights, total);
                chosen = Some(scratch.candidates[pick]);
            }
        }

        let j = chosen.expect("tabu cannot exhaust all VMs");
        scratch.make_tabu(j);
        tour.push(j);
        length += cache.exec_ms(c, j as usize);
    }
    (tour, length)
}

/// Reusable per-colony buffers for tour construction. Tabu and candidate
/// membership are generation-stamped arrays (`stamp[j] == gen` means "in
/// the set"), so clearing a set between ants or slots is a counter bump
/// instead of an O(v) wipe or a fresh allocation.
struct TourScratch {
    tabu_stamp: Vec<u32>,
    tabu_gen: u32,
    cand_stamp: Vec<u32>,
    cand_gen: u32,
    candidates: Vec<u32>,
    weights: Vec<f64>,
}

impl TourScratch {
    fn new(v: usize) -> Self {
        TourScratch {
            tabu_stamp: vec![0; v],
            tabu_gen: 0,
            cand_stamp: vec![0; v],
            cand_gen: 0,
            candidates: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Starts a fresh ant: one bump empties the tabu set.
    fn begin_ant(&mut self) {
        if self.tabu_gen == u32::MAX {
            self.tabu_stamp.fill(0);
            self.tabu_gen = 0;
        }
        self.tabu_gen += 1;
    }

    /// Starts a fresh slot: one bump empties the candidate set.
    fn begin_slot(&mut self) {
        if self.cand_gen == u32::MAX {
            self.cand_stamp.fill(0);
            self.cand_gen = 0;
        }
        self.cand_gen += 1;
        self.candidates.clear();
        self.weights.clear();
    }

    #[inline]
    fn is_tabu(&self, j: u32) -> bool {
        self.tabu_stamp[j as usize] == self.tabu_gen
    }

    #[inline]
    fn make_tabu(&mut self, j: u32) {
        self.tabu_stamp[j as usize] = self.tabu_gen;
    }

    #[inline]
    fn in_candidates(&self, j: u32) -> bool {
        self.cand_stamp[j as usize] == self.cand_gen
    }

    #[inline]
    fn push_candidate(&mut self, j: u32) {
        self.cand_stamp[j as usize] = self.cand_gen;
        self.candidates.push(j);
    }
}

/// One ant's tour: for each slot, pick a VM by the Eq. 5 roulette over the
/// candidate list, respecting the tabu set. RNG draws, weight values and
/// accumulation order replicate [`reference`] exactly, so picks are
/// byte-identical to the pre-overhaul loop.
fn construct_tour(
    cache: &EvalCache,
    slots: Range<usize>,
    pheromone: &PheromoneMatrix,
    params: &AcoParams,
    seed: u64,
    weight_block: Option<&[f64]>,
    scratch: &mut TourScratch,
) -> (Vec<u32>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = cache.vm_count();
    let b = slots.len();
    debug_assert!(b <= v, "batch must be clamped to the VM count");

    scratch.begin_ant();
    let mut tour = Vec::with_capacity(b);
    let mut length = 0.0;

    for (slot_idx, c) in slots.enumerate() {
        scratch.begin_slot();
        // One VM goes tabu per slot, so `slot_idx` counts the tabu set.
        let free = v - slot_idx;
        let k = params.candidates.unwrap_or(v).min(v);

        if k >= free {
            // Few VMs left: enumerate all allowed ones.
            for j in 0..v as u32 {
                if !scratch.is_tabu(j) {
                    scratch.push_candidate(j);
                }
            }
        } else {
            // Sample k distinct allowed VMs.
            let mut attempts = 0;
            let max_attempts = 6 * k;
            while scratch.candidates.len() < k && attempts < max_attempts {
                attempts += 1;
                let j = rng.gen_range(0..v) as u32;
                if !scratch.is_tabu(j) && !scratch.in_candidates(j) {
                    scratch.push_candidate(j);
                }
            }
            if scratch.candidates.is_empty() {
                // Rejection sampling got unlucky; take the first free VM
                // scanning from a random start.
                let start = rng.gen_range(0..v);
                for off in 0..v {
                    let j = ((start + off) % v) as u32;
                    if !scratch.is_tabu(j) {
                        scratch.push_candidate(j);
                        break;
                    }
                }
            }
        }
        debug_assert!(
            !scratch.candidates.is_empty(),
            "tabu cannot exhaust all VMs"
        );

        // Eq. 5: p(j) ∝ τ(i,j)^α · η(i,j)^β over allowed candidates — one
        // read from the fused weight table, or the cached-τ^α × inline-η^β
        // product at scales where the table was declined (identical bits
        // either way; see the module docs).
        let mut total = 0.0;
        let weight_row = weight_block.map(|block| &block[slot_idx * v..(slot_idx + 1) * v]);
        for i in 0..scratch.candidates.len() {
            let j = scratch.candidates[i];
            let w = match weight_row {
                Some(row) => row[j as usize],
                None => {
                    pheromone.get_pow(slot_idx as u32, j)
                        * cache.heuristic(c, j as usize).powf(params.beta)
                }
            };
            let w = if w.is_finite() { w } else { 0.0 };
            total += w;
            scratch.weights.push(w);
        }
        // ACS pseudo-random-proportional rule: exploit the best edge with
        // probability q0, otherwise spin the roulette.
        let pick = if params.q0 > 0.0 && rng.gen_range(0.0..1.0) < params.q0 {
            scratch
                .weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("candidates are non-empty")
        } else {
            roulette(&mut rng, &scratch.weights, total)
        };
        let j = scratch.candidates[pick];
        scratch.make_tabu(j);
        tour.push(j);
        length += cache.exec_ms(c, j as usize);
    }
    (tour, length)
}

/// Roulette-wheel selection; degenerates to uniform if all weights vanish.
fn roulette(rng: &mut StdRng, weights: &[f64], total: f64) -> usize {
    debug_assert!(!weights.is_empty());
    if !(total.is_finite() && total > 0.0) {
        return rng.gen_range(0..weights.len());
    }
    let mut spin = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        spin -= w;
        if spin <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

impl Scheduler for AntColony {
    fn name(&self) -> &'static str {
        "ant-colony"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.run(problem, &EvalCache::new(problem), false, None).0
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        self.run(problem, cache, false, None).0
    }

    fn schedule_warm(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut crate::warm::WarmState,
    ) -> Assignment {
        let plan = self.schedule_with_warm_pheromone(problem, cache, &mut warm.pheromone);
        warm.note_plan(&plan);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn hetero_problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        // Alternating slow/fast VMs, uniform cloudlets.
        let vm_specs: Vec<VmSpec> = (0..vms)
            .map(|i| {
                let mips = if i % 2 == 0 { 500.0 } else { 4_000.0 };
                VmSpec::new(mips, 5_000.0, 512.0, 500.0, 1)
            })
            .collect();
        let cl = CloudletSpec::new(10_000.0, 0.0, 0.0, 1);
        SchedulingProblem::single_datacenter(vm_specs, vec![cl; cloudlets], CostModel::default())
    }

    #[test]
    fn produces_complete_valid_assignment() {
        let p = hetero_problem(10, 37);
        let a = AntColony::new(AcoParams::fast(), 1).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 37);
    }

    #[test]
    fn tabu_forbids_vm_reuse_within_batch() {
        let p = hetero_problem(16, 16);
        let params = AcoParams {
            batch_size: 16,
            max_vm_fraction: 1.0,
            ..AcoParams::fast()
        };
        let a = AntColony::new(params, 2).schedule(&p);
        let mut seen = std::collections::HashSet::new();
        for vm in a.as_slice() {
            assert!(seen.insert(*vm), "VM {vm} reused within a single batch");
        }
    }

    #[test]
    fn batch_clamped_to_fleet_fraction() {
        // 10 VMs, fraction 0.5 -> batches of 5: within any window of 5
        // consecutive cloudlets every VM is distinct.
        let p = hetero_problem(10, 20);
        let params = AcoParams {
            batch_size: 128,
            max_vm_fraction: 0.5,
            ..AcoParams::fast()
        };
        let a = AntColony::new(params, 11).schedule(&p);
        for chunk in a.as_slice().chunks(5) {
            let distinct: std::collections::HashSet<_> = chunk.iter().collect();
            assert_eq!(distinct.len(), chunk.len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = hetero_problem(8, 40);
        let a = AntColony::new(AcoParams::fast(), 9).schedule(&p);
        let b = AntColony::new(AcoParams::fast(), 9).schedule(&p);
        assert_eq!(a, b);
        let c = AntColony::new(AcoParams::fast(), 10).schedule(&p);
        // Different seeds almost surely differ on 40 choices.
        assert_ne!(a, c);
    }

    #[test]
    fn favors_fast_vms() {
        // β=0.99 makes ants strongly heuristic-driven: fast VMs must
        // receive clearly more cloudlets than slow ones.
        let p = hetero_problem(10, 200);
        let a = AntColony::new(AcoParams::paper(), 3).schedule(&p);
        let counts = a.counts_per_vm(10);
        let slow: usize = counts.iter().step_by(2).sum();
        let fast: usize = counts.iter().skip(1).step_by(2).sum();
        assert!(
            fast > slow * 2,
            "fast VMs should dominate: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn beats_round_robin_on_estimated_makespan() {
        use crate::round_robin::RoundRobin;
        let p = hetero_problem(10, 100);
        let aco = AntColony::new(AcoParams::paper(), 4).schedule(&p);
        let rr = RoundRobin::new().schedule(&p);
        assert!(
            aco.estimated_makespan_ms(&p) < rr.estimated_makespan_ms(&p),
            "ACO {} should beat RR {}",
            aco.estimated_makespan_ms(&p),
            rr.estimated_makespan_ms(&p)
        );
    }

    #[test]
    fn trace_is_monotone_and_harmless() {
        let p = hetero_problem(12, 24);
        let (plan, trace) = AntColony::new(AcoParams::fast(), 13).schedule_traced(&p);
        assert_eq!(trace.len(), AcoParams::fast().iterations);
        // The global best tour length never regresses.
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        // Tracing does not change the schedule.
        let untraced = AntColony::new(AcoParams::fast(), 13).schedule(&p);
        assert_eq!(plan, untraced);
    }

    #[test]
    fn single_vm_degenerates_gracefully() {
        let p = hetero_problem(1, 5);
        let a = AntColony::new(AcoParams::fast(), 5).schedule(&p);
        assert!(a.as_slice().iter().all(|v| v.index() == 0));
    }

    #[test]
    fn acs_exploitation_is_valid_and_greedier() {
        let p = hetero_problem(10, 100);
        let acs = AntColony::new(
            AcoParams {
                q0: 0.9,
                ..AcoParams::fast()
            },
            30,
        )
        .schedule(&p);
        assert!(acs.validate(&p).is_ok());
        // Full exploitation (q0=1) is near-deterministic given the
        // pheromone trajectory and must still cover everything.
        let greedy = AntColony::new(
            AcoParams {
                q0: 1.0,
                ..AcoParams::fast()
            },
            30,
        )
        .schedule(&p);
        assert_eq!(greedy.len(), 100);
    }

    #[test]
    fn exhaustive_candidates_work() {
        // candidates = None examines every VM per choice.
        let p = hetero_problem(6, 12);
        let params = AcoParams {
            candidates: None,
            ..AcoParams::fast()
        };
        let a = AntColony::new(params, 20).schedule(&p);
        assert!(a.validate(&p).is_ok());
    }

    #[test]
    fn more_cloudlets_than_vms_by_far() {
        // 3 VMs, 50 cloudlets: many tiny batches of ceil(3*0.5)=2.
        let p = hetero_problem(3, 50);
        let a = AntColony::new(AcoParams::fast(), 21).schedule(&p);
        assert_eq!(a.len(), 50);
        let counts = a.counts_per_vm(3);
        assert!(
            counts.iter().all(|c| *c > 0),
            "all VMs see work: {counts:?}"
        );
    }

    #[test]
    fn repeated_rounds_advance_rng_state() {
        // Two consecutive schedule() calls on one colony instance draw
        // fresh ant seeds — rounds differ (statistically certain here).
        let p = hetero_problem(10, 30);
        let mut colony = AntColony::new(AcoParams::fast(), 22);
        let first = colony.schedule(&p);
        let second = colony.schedule(&p);
        assert_ne!(first, second);
    }

    #[test]
    fn roulette_respects_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let weights = [0.0, 0.0, 10.0];
        for _ in 0..32 {
            assert_eq!(roulette(&mut rng, &weights, 10.0), 2);
        }
        // Degenerate: all-zero weights fall back to uniform.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(roulette(&mut rng, &[0.0, 0.0], 0.0));
        }
        assert_eq!(seen.len(), 2);
    }

    /// Fast-path params: k strictly below the fleet size so the
    /// candidate-list machinery engages.
    fn topk_params(k: usize, sampling: SamplingMode) -> AcoParams {
        AcoParams {
            candidates: Some(k),
            strategy: CandidateStrategy::TopEta,
            sampling,
            ..AcoParams::fast()
        }
    }

    #[test]
    fn topk_path_produces_complete_valid_assignment() {
        let p = hetero_problem(40, 200);
        for sampling in [
            SamplingMode::Linear,
            SamplingMode::PrefixSum,
            SamplingMode::Alias,
        ] {
            let a = AntColony::new(topk_params(8, sampling), 7).schedule(&p);
            assert!(a.validate(&p).is_ok(), "{sampling:?}");
            assert_eq!(a.len(), 200);
        }
    }

    #[test]
    fn topk_path_is_deterministic_per_seed() {
        let p = hetero_problem(40, 120);
        for sampling in [SamplingMode::PrefixSum, SamplingMode::Alias] {
            let a = AntColony::new(topk_params(8, sampling), 11).schedule(&p);
            let b = AntColony::new(topk_params(8, sampling), 11).schedule(&p);
            assert_eq!(a, b, "{sampling:?}");
        }
    }

    #[test]
    fn topk_path_respects_tabu_within_batch() {
        let p = hetero_problem(32, 64);
        let params = AcoParams {
            batch_size: 16,
            max_vm_fraction: 1.0,
            ..topk_params(8, SamplingMode::PrefixSum)
        };
        let a = AntColony::new(params, 3).schedule(&p);
        for chunk in a.as_slice().chunks(16) {
            let distinct: std::collections::HashSet<_> = chunk.iter().collect();
            assert_eq!(distinct.len(), chunk.len(), "VM reused within a batch");
        }
    }

    #[test]
    fn topk_path_favors_fast_vms() {
        let p = hetero_problem(40, 400);
        let params = AcoParams {
            candidates: Some(8),
            ..AcoParams::paper()
        };
        let a = AntColony::new(params, 5).schedule(&p);
        let counts = a.counts_per_vm(40);
        let slow: usize = counts.iter().step_by(2).sum();
        let fast: usize = counts.iter().skip(1).step_by(2).sum();
        assert!(
            fast > slow,
            "fast VMs should receive more work: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn topk_with_k_at_fleet_size_matches_reference() {
        // The fast path must disengage at k ≥ #VMs: bitwise reference
        // equivalence is the contract there.
        let p = hetero_problem(12, 70);
        for k in [12, 20] {
            let params = AcoParams {
                candidates: Some(k),
                strategy: CandidateStrategy::TopEta,
                sampling: SamplingMode::PrefixSum,
                ..AcoParams::fast()
            };
            let new = AntColony::new(params.clone(), 17).schedule(&p);
            let old = reference::schedule_reference(&params, 17, &p);
            assert_eq!(new, old, "k={k} must take the legacy path");
        }
    }

    #[test]
    fn topk_traced_convergence_is_monotone() {
        let p = hetero_problem(64, 128);
        let (plan, trace) =
            AntColony::new(topk_params(8, SamplingMode::PrefixSum), 23).schedule_traced(&p);
        assert!(plan.validate(&p).is_ok());
        assert_eq!(trace.len(), AcoParams::fast().iterations);
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn alias_and_prefix_agree_on_quality_not_bits() {
        // Different sampling modes draw different streams, but on a
        // strongly heterogeneous fleet both must land near the same
        // estimated makespan (same distribution, same pheromone dynamics).
        let p = hetero_problem(40, 400);
        let prefix = AntColony::new(topk_params(8, SamplingMode::PrefixSum), 9).schedule(&p);
        let alias = AntColony::new(topk_params(8, SamplingMode::Alias), 9).schedule(&p);
        let mp = prefix.estimated_makespan_ms(&p);
        let ma = alias.estimated_makespan_ms(&p);
        assert!(
            (mp - ma).abs() <= 0.35 * mp.max(ma),
            "prefix {mp} vs alias {ma} diverged"
        );
    }

    #[test]
    fn prefix_pick_matches_linear_scan() {
        let prefix = [0.5, 0.5, 2.0, 2.0, 3.5];
        for spin in [0.0, 0.4999, 0.5, 1.0, 1.9999, 2.0, 3.4, 10.0] {
            let linear = prefix
                .iter()
                .position(|&p| spin < p)
                .unwrap_or(prefix.len() - 1);
            assert_eq!(prefix_pick(&prefix, spin), linear, "spin={spin}");
        }
    }

    #[test]
    fn warm_none_prior_matches_cold_schedule() {
        // An empty warm slot must not perturb the plan — only capture.
        let p = hetero_problem(16, 60);
        let cache = EvalCache::new(&p);
        for params in [AcoParams::fast(), topk_params(8, SamplingMode::PrefixSum)] {
            let mut warm = None;
            let warm_plan = AntColony::new(params.clone(), 9)
                .schedule_with_warm_pheromone(&p, &cache, &mut warm);
            let cold_plan = AntColony::new(params.clone(), 9).schedule_with_cache(&p, &cache);
            assert_eq!(warm_plan, cold_plan);
            assert!(warm.is_some(), "matrix captured for the next wave");
        }
    }

    #[test]
    fn warm_prior_reuse_is_deterministic_per_seed() {
        let p = hetero_problem(20, 80);
        for params in [AcoParams::fast(), topk_params(8, SamplingMode::PrefixSum)] {
            let run_two_waves = || {
                let cache = EvalCache::new(&p);
                let mut warm = None;
                let first = AntColony::new(params.clone(), 5)
                    .schedule_with_warm_pheromone(&p, &cache, &mut warm);
                let second = AntColony::new(params.clone(), 6)
                    .schedule_with_warm_pheromone(&p, &cache, &mut warm);
                (first, second)
            };
            let (a1, a2) = run_two_waves();
            let (b1, b2) = run_two_waves();
            assert_eq!(a1, b1);
            assert_eq!(a2, b2);
            assert!(a2.validate(&p).is_ok());
        }
    }

    #[test]
    fn anytime_run_matches_one_shot_bitwise() {
        // The anytime contract the racing driver relies on: a cold AcoRun
        // stepped to completion picks the one-shot plan, same bits — on
        // both the legacy and the candidate-list engines, and on batched
        // workloads (several colonies advancing in lockstep).
        let p = hetero_problem(14, 90);
        let cache = EvalCache::new(&p);
        for params in [AcoParams::fast(), topk_params(8, SamplingMode::PrefixSum)] {
            let mut run = AcoRun::cold(params.clone(), 17, &cache, None);
            assert!(run.incumbent().is_none(), "no tours before the first step");
            let mut steps = 0;
            while !run.done() {
                run.step(&cache);
                steps += 1;
            }
            assert_eq!(steps, params.iterations);
            assert_eq!(run.step_units(), params.ants as u64);
            let stepped = run.incumbent().expect("stepped to completion");
            let one_shot = AntColony::new(params, 17).schedule_with_cache(&p, &cache);
            let one_shot: Vec<u32> = one_shot.as_slice().iter().map(|vm| vm.0).collect();
            assert_eq!(stepped, one_shot);
        }
    }

    #[test]
    fn matches_reference_implementation() {
        // The optimized hot path must pick byte-identical tours. (The
        // cross-thread-count matrix lives in tests/scheduler_equivalence.)
        for seed in [9u64, 77, 1234] {
            let p = hetero_problem(14, 90);
            let new = AntColony::new(AcoParams::fast(), seed).schedule(&p);
            let old = reference::schedule_reference(&AcoParams::fast(), seed, &p);
            assert_eq!(new, old, "seed {seed} diverged from the reference");
        }
    }

    #[test]
    fn matches_reference_with_alpha_one_fast_path() {
        // α = 1 takes the powf-free identity path; the reference calls
        // powf(τ, 1.0). Both must agree bit for bit.
        let params = AcoParams {
            alpha: 1.0,
            ..AcoParams::fast()
        };
        let p = hetero_problem(12, 60);
        let new = AntColony::new(params.clone(), 5).schedule(&p);
        let old = reference::schedule_reference(&params, 5, &p);
        assert_eq!(new, old);
    }

    #[test]
    fn matches_reference_when_eta_block_declined() {
        // One ant × one iteration makes the η^β block unprofitable, so
        // construct_tour exercises the inline powf fallback.
        let params = AcoParams {
            ants: 1,
            iterations: 1,
            ..AcoParams::fast()
        };
        let p = hetero_problem(20, 55);
        let new = AntColony::new(params.clone(), 31).schedule(&p);
        let old = reference::schedule_reference(&params, 31, &p);
        assert_eq!(new, old);
    }
}
