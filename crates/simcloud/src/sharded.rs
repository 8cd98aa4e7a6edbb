//! The sharded simulation engine.
//!
//! One driver ([`run`]) replays every workload shape — plain batches,
//! staggered arrivals, fault injection, recovery, resubmission and
//! workflow DAGs — bit-identically to the sequential kernel at any thread
//! count (the engine-equivalence suite enforces this across seeds,
//! scheduler flavours, fault plans, recovery policies, resubmission and
//! DAG shapes).
//!
//! The driver runs the *real* [`crate::broker::Broker`] and
//! [`crate::datacenter::Datacenter`] entities against the real event
//! queue. Events pop in kernel order; VM-local deliveries (submissions
//! and submission batches to live VMs, settle ticks) are staged into
//! per-VM *lanes*, and everything else is a *control* event handled
//! sequentially by the entity code. Staged lanes replay in parallel
//! ([`replay_lane`], the one per-VM replay loop) up to a [`Bound`]:
//!
//! * [`Bound::Control`] — before a control event (host failure or
//!   repair, VM degrade, retry wake-up, placement traffic, a submission
//!   landing on a dead VM), every lane replays up to that instant.
//! * [`Bound::Round`] — with workflow DAGs, a *release barrier* bounds
//!   replay by the earliest completion that can still release a cross-VM
//!   child; a release round replays every lane up to it and delivers
//!   matured completions to the broker, which performs the release.
//!   Children whose parents all live on their own VM resolve inside the
//!   lane instead (the broker's pending-parent counter for such a child is
//!   masked so it is never double-released).
//! * [`Bound::All`] — once the queue is drained and no release is
//!   pending, every lane replays to completion. A plain batch run is
//!   placement control events followed by one such flush.
//!
//! Determinism holds because the queue's `(time, seq)` order sorts every
//! control event against everything staged before it, lanes commit in
//! ascending VM order on one thread, and the lane replay reproduces the
//! queue's tick coalescing with a one-slot `armed` deadline. See
//! DESIGN.md §"Epoch-sharded replay" and §"Dependency-aware epochs" for
//! the horizon rule, the barrier and the ordering argument.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::broker::Broker;
use crate::cloudlet::{Cloudlet, CloudletStatus};
use crate::cloudlet_sched::{CloudletScheduler, RunningCloudlet};
use crate::cost::cloudlet_cost;
use crate::datacenter::Datacenter;
use crate::event::{Event, EventQueue, ScheduledEvent};
use crate::ids::{CloudletId, DatacenterId, EntityId, VmId};
use crate::kernel::{Context, Entity, RunStats, World};
use crate::network::{transfer_time, Topology};
use crate::time::SimTime;
use crate::vm::Vm;

/// The completions one flush committed, in delivery order: sorted by
/// return time, ties in commit order. Consumed from `next`.
struct ReturnRun {
    /// Flush number: orders same-instant completions of different flushes
    /// (an earlier flush committed them first).
    flush: u64,
    items: Vec<(SimTime, CloudletId)>,
    next: usize,
}

impl ReturnRun {
    fn head(&self) -> (SimTime, u64) {
        (self.items[self.next].0, self.flush)
    }
}

impl PartialEq for ReturnRun {
    fn eq(&self, other: &Self) -> bool {
        self.head() == other.head()
    }
}
impl Eq for ReturnRun {}
impl PartialOrd for ReturnRun {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReturnRun {
    /// Reversed, so a `BinaryHeap` yields the run with the earliest head.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.head().cmp(&self.head())
    }
}

/// The dependency table the driver replays against, compiled once from
/// the scenario before the entities are built. A plan compiled from no
/// dependencies is empty: no cloudlet has local or cross children, so
/// there is no barrier and nothing is masked.
///
/// Children are classified by where their release can be resolved:
///
/// * **local** — every parent is assigned to the same VM as the child
///   (and no fault shaping can move work between VMs). The release is
///   resolved entirely inside that VM's replay lane; the broker's
///   pending-parent counter for the child is masked so the parent's
///   completion notification never double-releases it.
/// * **cross** — anything else. The release goes through the real
///   broker's `CloudletReturn` handler, and the parent's completion is a
///   *release barrier* event: no lane may replay past it until it is
///   delivered.
///
/// Under fault shaping (host failures, recovery, resubmission) every
/// child is cross: resubmission can rewrite the assignment mid-run, so
/// the static same-VM classification would be unsound.
///
/// The per-cloudlet tables cover only the cloudlets the plan was compiled
/// from; lookups past their end (every lookup, for an empty plan) find no
/// children.
pub(crate) struct DagPlan {
    /// CSR offsets into `local_child`: `local_off[p]..local_off[p+1]`
    /// are the locally-released children of parent `p`.
    local_off: Vec<u32>,
    local_child: Vec<u32>,
    /// Parents with at least one cross child — their completions bound
    /// the release barrier.
    has_cross: Vec<bool>,
    /// Children resolved locally: masked in the broker.
    local_mask: Vec<bool>,
    /// Per-VM `(child, unfinished-local-parents)` counters, sorted by
    /// child id; moved into the lanes at driver start.
    lane_pending: Vec<Vec<(u32, u32)>>,
    /// Inputs the in-lane release arithmetic shares with
    /// `Broker::submit_one` (arrivals are kept only when some child is
    /// released locally).
    arrivals: Option<Vec<SimTime>>,
    topology: Topology,
}

impl DagPlan {
    /// Classifies every dependency edge and builds the replay table.
    /// `parents` is empty when the scenario has no dependencies.
    pub(crate) fn compile(
        parents: &[Vec<CloudletId>],
        assignment: &[VmId],
        vm_count: usize,
        fault_shaped: bool,
        arrivals: Option<&[SimTime]>,
        topology: Topology,
    ) -> DagPlan {
        let n = parents.len();
        let mut local_mask = vec![false; n];
        if !fault_shaped {
            for (c, ps) in parents.iter().enumerate() {
                local_mask[c] =
                    !ps.is_empty() && ps.iter().all(|p| assignment[p.index()] == assignment[c]);
            }
        }
        let mut local_counts = vec![0u32; n];
        let mut has_cross = vec![false; n];
        for (c, ps) in parents.iter().enumerate() {
            for p in ps {
                if local_mask[c] {
                    local_counts[p.index()] += 1;
                } else {
                    has_cross[p.index()] = true;
                }
            }
        }
        let mut local_off = vec![0u32; n + 1];
        for i in 0..n {
            local_off[i + 1] = local_off[i] + local_counts[i];
        }
        let mut cursor = local_off.clone();
        let mut local_child = vec![0u32; local_off[n] as usize];
        // Child ids ascend within each parent's slice (the fill loop runs
        // in child order), matching the broker's release order for the
        // same parent.
        for (c, ps) in parents.iter().enumerate() {
            if local_mask[c] {
                for p in ps {
                    let slot = &mut cursor[p.index()];
                    local_child[*slot as usize] = c as u32;
                    *slot += 1;
                }
            }
        }
        let mut lane_pending: Vec<Vec<(u32, u32)>> = vec![Vec::new(); vm_count];
        for (c, ps) in parents.iter().enumerate() {
            if local_mask[c] {
                lane_pending[assignment[c].index()]
                    .push((c as u32, u32::try_from(ps.len()).expect("parents fit u32")));
            }
        }
        let arrivals = arrivals
            .filter(|_| !local_child.is_empty())
            .map(<[SimTime]>::to_vec);
        DagPlan {
            local_off,
            local_child,
            has_cross,
            local_mask,
            lane_pending,
            arrivals,
            topology,
        }
    }

    fn local_children(&self, parent: CloudletId) -> &[u32] {
        let p = parent.index();
        match self.local_off.get(p..p + 2) {
            Some(&[lo, hi]) => &self.local_child[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Whether `parent` has a cross child, i.e. its completion bounds the
    /// release barrier.
    fn has_cross_children(&self, parent: CloudletId) -> bool {
        self.has_cross.get(parent.index()).copied().unwrap_or(false)
    }
}

/// How far one lane-replay call may advance.
#[derive(Clone, Copy)]
enum Bound {
    /// A control instant: everything staged from the queue fires (it was
    /// popped before the control, so it is kernel-ordered before it);
    /// lane-local content (release notifications, released submissions)
    /// fires strictly before the instant; a tick exactly at the instant
    /// fires only if the queue already popped it.
    Control(SimTime),
    /// A release round: everything at or before the barrier fires.
    Round(SimTime),
    /// Final drain: replay to completion.
    All,
}

/// A queue-staged submission: one `CloudletSubmit`, or one
/// `CloudletSubmitBatch` that the VM settles once and the kernel counts
/// as one event.
enum Sub {
    One(CloudletId),
    Batch(Vec<CloudletId>),
}

impl Sub {
    fn cloudlets(&self) -> &[CloudletId] {
        match self {
            Sub::One(c) => std::slice::from_ref(c),
            Sub::Batch(cls) => cls,
        }
    }
}

/// One VM's staged work between flushes, plus its local release state.
#[derive(Default)]
struct Lane {
    /// Queue-staged submissions in pop (= kernel) order, consumed from
    /// `head`. Pop times are globally nondecreasing, so this stays
    /// sorted by construction.
    subs: Vec<(SimTime, Sub)>,
    head: usize,
    /// The queue tick already popped for this VM, if any.
    popped_tick: Option<SimTime>,
    /// Completion notifications of same-VM parents pending local release
    /// processing, ordered by (return time, generation).
    local_rets: BinaryHeap<Reverse<(SimTime, u64, CloudletId)>>,
    ret_ord: u64,
    /// Locally released submissions, ordered by (arrival, generation).
    /// Kept apart from `subs`: at equal times queue-staged submissions
    /// carry lower kernel sequence numbers and must fire first.
    local_subs: BinaryHeap<Reverse<(SimTime, u64, CloudletId)>>,
    sub_ord: u64,
    /// `(child, unfinished-local-parents)`, sorted by child id.
    local_pending: Vec<(u32, u32)>,
    /// Guard against selecting the lane twice in one flush.
    in_round: bool,
}

impl Lane {
    /// Earliest pending lane event, if any (queue-armed ticks live in the
    /// queue and are not lane content).
    fn next_time(&self) -> Option<SimTime> {
        let mut t = self.subs.get(self.head).map(|e| e.0);
        if let Some(Reverse((rt, _, _))) = self.local_rets.peek() {
            t = Some(t.map_or(*rt, |x| x.min(*rt)));
        }
        if let Some(Reverse((st, _, _))) = self.local_subs.peek() {
            t = Some(t.map_or(*st, |x| x.min(*st)));
        }
        if let Some(pt) = self.popped_tick {
            t = Some(t.map_or(pt, |x| x.min(pt)));
        }
        t
    }

    fn has_content(&self) -> bool {
        self.next_time().is_some()
    }
}

/// One lane taken out of the driver for a parallel replay; the replay
/// advances its lane and scheduler in place.
struct LaneSeg {
    vm: VmId,
    dc: usize,
    lane: Lane,
    armed_before: Option<SimTime>,
    sched: Box<dyn CloudletScheduler>,
}

/// Everything a lane replay reports back for the sequential commit.
struct LaneOut {
    queued: Vec<CloudletId>,
    started: Vec<(CloudletId, SimTime)>,
    /// Finished cloudlets and their finish times.
    finished: Vec<(CloudletId, SimTime)>,
    /// Locally released children and their submit times (committed to the
    /// world exactly as `Broker::submit_one` would set them).
    released: Vec<(CloudletId, SimTime)>,
    sub_events: u64,
    ticks: u64,
    last_event: SimTime,
    last_now: SimTime,
    armed_after: Option<SimTime>,
}

/// The driver's mutable state.
struct Driver {
    queue: EventQueue,
    clock: SimTime,
    processed: u64,
    lanes: Vec<Lane>,
    /// Lazy min-heap of `(lane next-event time, vm)`; entries are
    /// validated against the lane's actual next event on peek.
    dirty: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Completion notifications pending delivery to the real broker, one
    /// run per flush; merged in (return time, commit order).
    returns: BinaryHeap<ReturnRun>,
    flushes: u64,
    /// Mirror of `returns` restricted to barrier-relevant (cross-child)
    /// completions: its head is the earliest pending release.
    rel_ats: BinaryHeap<Reverse<SimTime>>,
    /// Cross-child cloudlets currently staged or executing in a lane.
    /// While any exist, replay is also bounded by the earliest lane
    /// event (their completion times are not yet known).
    rel_inflight: u64,
    in_flight: Vec<bool>,
    broker_id: EntityId,
}

/// Runs a scenario on the sharded engine.
///
/// The caller ([`crate::simulation::SimulationBuilder::run`]) has
/// validated the scenario and built the *real* datacenter and broker
/// entities exactly as the sequential kernel would, and compiled `plan`
/// (empty when there are no dependencies).
///
/// The loop alternates between draining every queue event at or before
/// the current release barrier — bulk deliveries are staged into lanes,
/// control events are handled by the real entities after a bounded
/// flush — and *release rounds* that replay all lanes up to the barrier
/// and deliver matured completions to the real broker (whose
/// `CloudletReturn` handler performs the cross releases). The barrier
/// `B = min(R, G)` is sound: any future cross release happens at the
/// return time of a pending completion (≥ R), or downstream of a staged
/// cross-parent cloudlet whose completion is no earlier than its lane's
/// next event (≥ G, inductively over release chains); queue events are
/// never outrun because rounds fire only when the earliest deliverable
/// queue event lies beyond the barrier. Without cross releases there is
/// no barrier: the queue drains with `Control` flushes only, and one
/// `All` flush finishes the run.
pub(crate) fn run(
    world: &mut World,
    dcs: &mut [Datacenter],
    broker: &mut Broker,
    max_events: u64,
    mut plan: DagPlan,
) -> RunStats {
    let broker_id = EntityId::from_index(dcs.len());
    let n = world.cloudlets.len();
    let vm_count = world.vms.len();
    // Mask locally resolved children so the broker never double-releases
    // them (their counters keep a sentinel excess that no return clears).
    for (c, &masked) in plan.local_mask.iter().enumerate() {
        if masked {
            broker.mask_release(CloudletId::from_index(c));
        }
    }
    let mut lanes: Vec<Lane> = Vec::with_capacity(vm_count);
    for pending in std::mem::take(&mut plan.lane_pending) {
        lanes.push(Lane {
            local_pending: pending,
            ..Lane::default()
        });
    }
    lanes.resize_with(vm_count, Lane::default);
    let mut driver = Driver {
        queue: EventQueue::new(),
        clock: SimTime::ZERO,
        processed: 0,
        lanes,
        dirty: BinaryHeap::new(),
        returns: BinaryHeap::new(),
        flushes: 0,
        rel_ats: BinaryHeap::new(),
        rel_inflight: 0,
        in_flight: vec![false; n],
        broker_id,
    };
    for i in 0..=dcs.len() {
        let id = EntityId::from_index(i);
        driver.queue.push(SimTime::ZERO, id, id, Event::Start);
    }
    for dc in dcs.iter_mut() {
        dc.set_broker_hint(broker_id);
    }

    loop {
        let barrier = driver.barrier();
        let head = driver.queue.peek_deliverable_time();
        if let Some(t) = head {
            if barrier.is_none_or(|b| t <= b) {
                let ev = driver.queue.pop().expect("deliverable head pops");
                match ev.event {
                    Event::VmTick { vm } => {
                        driver.stage_tick(vm, ev.time);
                    }
                    Event::CloudletSubmit { cloudlet, vm } if world.vm(vm).is_active() => {
                        driver.stage_sub(vm, ev.time, Sub::One(cloudlet), &plan);
                    }
                    Event::CloudletSubmitBatch { vm, cloudlets } if world.vm(vm).is_active() => {
                        driver.stage_sub(vm, ev.time, Sub::Batch(cloudlets), &plan);
                    }
                    _ => {
                        // A control event: cloudlet failures, host faults
                        // and repairs, degrades, retry wake-ups, placement
                        // traffic, dead-VM submissions. Everything staged
                        // at or before it replays first, matured
                        // completions deliver first — kernel order.
                        if let Event::CloudletFailed { cloudlet } = ev.event {
                            driver.note_failed(cloudlet);
                        }
                        driver.flush(world, dcs, Bound::Control(ev.time), &plan);
                        driver.deliver_returns(world, broker, Some(ev.time), false, &plan);
                        driver.clock = driver.clock.max(ev.time);
                        driver.processed += 1;
                        if driver.processed > max_events {
                            return RunStats {
                                end_time: driver.clock,
                                events_processed: driver.processed,
                                drained: false,
                            };
                        }
                        let dest = ev.dest;
                        let mut ctx = Context::attach(ev.time, dest, &mut driver.queue);
                        if dest.index() < dcs.len() {
                            dcs[dest.index()].handle(world, &mut ctx, ev);
                        } else {
                            broker.handle(world, &mut ctx, ev);
                        }
                    }
                }
                continue;
            }
        }
        // Every deliverable queue event (if any) lies beyond the barrier:
        // run a release round, or the final drain when nothing bounds us.
        match barrier {
            Some(b) => {
                driver.flush(world, dcs, Bound::Round(b), &plan);
                driver.deliver_returns(world, broker, Some(b), true, &plan);
                if driver.processed > max_events {
                    return RunStats {
                        end_time: driver.clock,
                        events_processed: driver.processed,
                        drained: false,
                    };
                }
            }
            None => {
                driver.flush(world, dcs, Bound::All, &plan);
                driver.deliver_returns(world, broker, None, true, &plan);
                if driver.queue.peek_deliverable_time().is_none() {
                    break;
                }
            }
        }
    }
    debug_assert!(driver.queue.is_empty(), "driver left events behind");
    debug_assert!(driver.returns.is_empty(), "undelivered completions");
    debug_assert!(
        driver.lanes.iter().all(|l| !l.has_content()),
        "driver left lane content behind"
    );
    let drained = driver.processed <= max_events;
    RunStats {
        end_time: driver.clock,
        events_processed: driver.processed,
        drained,
    }
}

impl Driver {
    /// The release barrier: the earliest instant at which a cross release
    /// can still be injected. `None` when no cross release is pending or
    /// in flight anywhere.
    fn barrier(&mut self) -> Option<SimTime> {
        let r = self.rel_ats.peek().map(|Reverse(t)| *t);
        let g = if self.rel_inflight > 0 {
            self.peek_dirty()
        } else {
            None
        };
        match (r, g) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Earliest lane event across the fleet (validated lazy heap).
    fn peek_dirty(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, vm))) = self.dirty.peek() {
            if self.lanes[vm as usize].next_time() == Some(t) {
                return Some(t);
            }
            self.dirty.pop();
        }
        None
    }

    fn mark_dirty(&mut self, vm: VmId) {
        if let Some(t) = self.lanes[vm.index()].next_time() {
            self.dirty.push(Reverse((t, vm.0)));
        }
    }

    /// Adds queue-staged content to a lane. Staging only ever moves a
    /// lane's next event earlier, and the dirty heap already holds an
    /// entry for the current one, so a new entry is needed only on a move.
    fn stage(&mut self, vm: VmId, add: impl FnOnce(&mut Lane)) {
        let lane = &mut self.lanes[vm.index()];
        let before = lane.next_time();
        add(lane);
        if lane.next_time() != before {
            self.mark_dirty(vm);
        }
    }

    fn stage_tick(&mut self, vm: VmId, time: SimTime) {
        self.stage(vm, |lane| {
            debug_assert!(lane.popped_tick.is_none(), "one armed tick per VM");
            lane.popped_tick = Some(time);
        });
    }

    fn stage_sub(&mut self, vm: VmId, time: SimTime, sub: Sub, plan: &DagPlan) {
        for &c in sub.cloudlets() {
            if plan.has_cross_children(c) && !self.in_flight[c.index()] {
                self.in_flight[c.index()] = true;
                self.rel_inflight += 1;
            }
        }
        self.stage(vm, |lane| lane.subs.push((time, sub)));
    }

    /// A `CloudletFailed` control was popped: if the cloudlet was staged
    /// as an in-flight cross parent (its host died, or recovery drained
    /// it), it can no longer complete — release the barrier hold. A
    /// later resubmission re-stages (and re-counts) it.
    fn note_failed(&mut self, cloudlet: CloudletId) {
        if self.in_flight[cloudlet.index()] {
            self.in_flight[cloudlet.index()] = false;
            self.rel_inflight -= 1;
        }
    }

    /// Replays every lane with an event due under `bound`, commits the
    /// results in ascending VM order and reconciles armed ticks.
    fn flush(&mut self, world: &mut World, dcs: &mut [Datacenter], bound: Bound, plan: &DagPlan) {
        let limit = match bound {
            Bound::Control(t) => Some(t),
            Bound::Round(b) => Some(b),
            Bound::All => None,
        };
        let mut due: Vec<VmId> = Vec::new();
        while let Some(&Reverse((t, vm))) = self.dirty.peek() {
            if limit.is_some_and(|b| t > b) {
                break;
            }
            self.dirty.pop();
            let lane = &mut self.lanes[vm as usize];
            if lane.next_time() == Some(t) && !lane.in_round {
                lane.in_round = true;
                due.push(VmId(vm));
            }
        }
        if due.is_empty() {
            return;
        }
        due.sort_unstable_by_key(|v| v.index());
        let mut segs: Vec<LaneSeg> = Vec::with_capacity(due.len());
        for vm in due {
            let mut lane = std::mem::take(&mut self.lanes[vm.index()]);
            lane.in_round = false;
            let dc = world
                .vm(vm)
                .datacenter
                .expect("lane content implies placement")
                .index();
            let sched = dcs[dc]
                .take_sched(vm)
                .expect("lane content implies a live scheduler");
            segs.push(LaneSeg {
                vm,
                dc,
                lane,
                armed_before: self.queue.armed_tick(vm),
                sched,
            });
        }
        let vms = &world.vms;
        let cloudlets = &world.cloudlets;
        // One contiguous run of lanes per worker, replayed in place: only
        // the per-lane results travel back through the pool.
        let per_worker = segs.len().div_ceil(rayon::current_num_threads().max(1));
        let outs: Vec<Vec<LaneOut>> = segs
            .chunks_mut(per_worker)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|run| {
                run.iter_mut()
                    .map(|seg| replay_lane(seg, vms, cloudlets, plan, bound))
                    .collect()
            })
            .collect();
        let mut completions = Vec::new();
        for (seg, out) in segs.into_iter().zip(outs.into_iter().flatten()) {
            let LaneSeg {
                vm,
                dc,
                lane,
                armed_before,
                sched,
                ..
            } = seg;
            self.processed += out.ticks + out.sub_events;
            self.clock = self.clock.max(out.last_event);
            let dc_id = EntityId::from_index(dc);
            dcs[dc].put_sched(vm, sched);
            dcs[dc].note_completed(out.finished.len() as u64);
            if out.armed_after != armed_before {
                self.queue.cancel_vm_tick(vm);
                if let Some(t) = out.armed_after {
                    self.queue.push_vm_tick(out.last_now, dc_id, dc_id, vm, t);
                }
            }
            // Commit in the kernel's per-cloudlet transition order:
            // delivery (Queued) → start (Running) → finish.
            for &c in &out.queued {
                let cl = world.cloudlet_mut(c);
                cl.status = CloudletStatus::Queued;
                cl.vm = Some(vm);
            }
            for &(c, t) in &out.released {
                world.cloudlet_mut(c).submit_time = Some(t);
            }
            for &(c, t) in &out.started {
                let cl = world.cloudlet_mut(c);
                if cl.start_time.is_none() {
                    cl.start_time = Some(t);
                }
                cl.status = CloudletStatus::Running;
            }
            // Mirrors `Datacenter::apply_tick`: cost from the execution
            // span, whose start is now committed, and the completion
            // notified after the output transfer.
            let cost = dcs[dc].characteristics().cost;
            let vm_spec = &world.vms[vm.index()].spec;
            for (c, finish) in out.finished {
                let cl = &mut world.cloudlets[c.index()];
                cl.finish_time = Some(finish);
                cl.status = CloudletStatus::Finished;
                let cpu_seconds = cl.execution_time().map(|t| t.as_secs()).unwrap_or(0.0);
                cl.cost = cloudlet_cost(&cost, vm_spec, &cl.spec, cpu_seconds);
                let return_at = finish + transfer_time(cl.spec.output_size_mb, vm_spec.bw_mbps);
                if self.in_flight[c.index()] {
                    self.in_flight[c.index()] = false;
                    self.rel_inflight -= 1;
                }
                if plan.has_cross_children(c) {
                    self.rel_ats.push(Reverse(return_at));
                }
                completions.push((return_at, c));
            }
            self.lanes[vm.index()] = lane;
            self.mark_dirty(vm);
        }
        if !completions.is_empty() {
            // Stable: same-instant completions keep commit order.
            completions.sort_by_key(|&(at, _)| at);
            self.returns.push(ReturnRun {
                flush: self.flushes,
                items: completions,
                next: 0,
            });
            self.flushes += 1;
        }
    }

    /// Delivers matured completions to the real broker in (time,
    /// generation) order. With dependencies this is where cross releases
    /// happen: the broker's return handler decrements pending-parent
    /// counters and submits freed children. Without them it only folds
    /// counters, so delivering at flush granularity is unobservable.
    fn deliver_returns(
        &mut self,
        world: &mut World,
        broker: &mut Broker,
        bound: Option<SimTime>,
        inclusive: bool,
        plan: &DagPlan,
    ) {
        while let Some(mut run) = self.returns.peek_mut() {
            let (at, cloudlet) = run.items[run.next];
            let due = match bound {
                None => true,
                Some(h) if inclusive => at <= h,
                Some(h) => at < h,
            };
            if !due {
                break;
            }
            run.next += 1;
            if run.next == run.items.len() {
                PeekMut::pop(run);
            } else {
                // Re-sifts the run by its new head.
                drop(run);
            }
            if plan.has_cross_children(cloudlet) {
                let Some(Reverse(t)) = self.rel_ats.pop() else {
                    unreachable!("cross return delivered without barrier entry");
                };
                debug_assert_eq!(t, at, "barrier mirror out of sync");
            }
            self.processed += 1;
            self.clock = self.clock.max(at);
            let ev = ScheduledEvent {
                time: at,
                seq: 0,
                dest: self.broker_id,
                src: self.broker_id,
                event: Event::CloudletReturn { cloudlet },
            };
            let mut ctx = Context::attach(at, self.broker_id, &mut self.queue);
            broker.handle(world, &mut ctx, ev);
        }
    }
}

/// Replays one lane under `bound`: queue-staged submissions, locally
/// released submissions, local release notifications and the settle
/// timer, merged in kernel order.
fn replay_lane(
    seg: &mut LaneSeg,
    vms: &[Vm],
    cloudlets: &[Cloudlet],
    plan: &DagPlan,
    bound: Bound,
) -> LaneOut {
    let LaneSeg {
        vm,
        dc,
        lane,
        armed_before,
        sched,
    } = seg;
    let vm_spec = &vms[vm.index()].spec;
    // Sized for the staged submissions, which an `All` flush runs to
    // completion.
    let staged: usize = lane.subs[lane.head..]
        .iter()
        .map(|(_, sub)| sub.cloudlets().len())
        .sum();
    let mut out = LaneOut {
        queued: Vec::with_capacity(staged),
        started: Vec::with_capacity(staged),
        finished: Vec::with_capacity(staged),
        released: Vec::new(),
        sub_events: 0,
        ticks: 0,
        last_event: SimTime::ZERO,
        last_now: SimTime::ZERO,
        armed_after: None,
    };
    let popped_tick = lane.popped_tick;
    debug_assert!(
        armed_before.is_none() || popped_tick.is_none(),
        "popped and armed tick cannot coexist"
    );
    let mut armed = armed_before.or(popped_tick);
    let running = |c: CloudletId| {
        let spec = &cloudlets[c.index()].spec;
        RunningCloudlet::new(c, spec.length_mi, spec.pes)
    };
    // Event classes, in tie-break order at equal times:
    //   0 = local release notification (commutes with the submissions it
    //       does not create; processing it first means a same-instant
    //       released child lands *after* existing equal-time work, which
    //       is exactly the kernel's push-order),
    //   1 = queue-staged submission (lowest kernel seq),
    //   2 = locally released submission (pushed at release time, highest
    //       kernel seq),
    //   3 = settle tick (a same-instant submit and settle commute on the
    //       scheduler, so the states agree whichever the kernel popped
    //       first).
    loop {
        let mut best: Option<(SimTime, u8)> = None;
        let mut consider = |t: SimTime, class: u8, ok: bool| {
            if ok && best.is_none_or(|(bt, bc)| t < bt || (t == bt && class < bc)) {
                best = Some((t, class));
            }
        };
        if let Some(&Reverse((t, _, _))) = lane.local_rets.peek() {
            let ok = match bound {
                Bound::Control(c) => t < c,
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 0, ok);
        }
        if let Some(&(t, _)) = lane.subs.get(lane.head) {
            let ok = match bound {
                // Queue-staged entries were popped before the control, so
                // they are kernel-ordered before it even at equal times.
                Bound::Control(c) => {
                    debug_assert!(t <= c, "staged submission beyond control instant");
                    true
                }
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 1, ok);
        }
        if let Some(&Reverse((t, _, _))) = lane.local_subs.peek() {
            let ok = match bound {
                Bound::Control(c) => t < c,
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 2, ok);
        }
        if let Some(t) = armed {
            let ok = match bound {
                Bound::Control(c) => t < c || popped_tick == Some(t),
                Bound::Round(b) => t <= b,
                Bound::All => true,
            };
            consider(t, 3, ok);
        }
        let Some((now, class)) = best else { break };
        if class == 0 {
            // A same-VM parent's completion notification: decrement the
            // local pending counters and release freed children with the
            // broker's exact submit arithmetic. Not a kernel event for
            // this lane — the completion itself is counted when the
            // driver delivers it to the broker.
            let Some(Reverse((at, _, parent))) = lane.local_rets.pop() else {
                unreachable!("peeked entry pops");
            };
            for &child in plan.local_children(parent) {
                let slot = lane
                    .local_pending
                    .binary_search_by_key(&child, |e| e.0)
                    .expect("local child has a pending counter");
                let entry = &mut lane.local_pending[slot];
                debug_assert!(entry.1 > 0, "local child released twice");
                entry.1 -= 1;
                if entry.1 == 0 {
                    let c = CloudletId(child);
                    let spec = &cloudlets[c.index()].spec;
                    let latency = plan.topology.latency_to(DatacenterId::from_index(*dc));
                    let in_delay = transfer_time(spec.file_size_mb, vm_spec.bw_mbps);
                    let wait = plan
                        .arrivals
                        .as_ref()
                        .map(|a| a[c.index()].saturating_sub(at))
                        .unwrap_or(SimTime::ZERO);
                    out.released.push((c, at + wait));
                    lane.local_subs.push(Reverse((
                        at + wait + latency + in_delay,
                        lane.sub_ord,
                        c,
                    )));
                    lane.sub_ord += 1;
                }
            }
            continue;
        }
        out.last_now = now;
        out.last_event = out.last_event.max(now);
        let tick = match class {
            1 => {
                let (_, sub) = &lane.subs[lane.head];
                lane.head += 1;
                out.sub_events += 1;
                out.queued.extend_from_slice(sub.cloudlets());
                match sub {
                    Sub::One(c) => sched.submit(now, running(*c)),
                    Sub::Batch(cls) => {
                        sched.submit_many(now, cls.iter().map(|&c| running(c)).collect())
                    }
                }
            }
            2 => {
                let Some(Reverse((_, _, c))) = lane.local_subs.pop() else {
                    unreachable!("peeked entry pops");
                };
                out.sub_events += 1;
                out.queued.push(c);
                sched.submit(now, running(c))
            }
            _ => {
                armed = None;
                out.ticks += 1;
                sched.advance(now)
            }
        };
        out.started.extend(tick.started.iter().map(|&c| (c, now)));
        for &c in &tick.finished {
            // The completion is notified after the output transfer (the
            // commit repeats this arithmetic and computes the cost).
            let spec = &cloudlets[c.index()].spec;
            let return_at = now + transfer_time(spec.output_size_mb, vm_spec.bw_mbps);
            out.last_event = out.last_event.max(return_at);
            if !plan.local_children(c).is_empty() {
                lane.local_rets.push(Reverse((return_at, lane.ret_ord, c)));
                lane.ret_ord += 1;
            }
            out.finished.push((c, now));
        }
        if let Some(p) = tick.next_completion {
            let t = p.max(now);
            if armed.is_none_or(|a| t < a || a < now) {
                armed = Some(t);
            }
        }
    }
    lane.popped_tick = None;
    if lane.head > 32 && lane.head * 2 >= lane.subs.len() {
        lane.subs.drain(..lane.head);
        lane.head = 0;
    }
    out.armed_after = armed;
    out
}
