//! Property-based tests of the discrete-event substrate itself, driven
//! through the raw `SimulationBuilder` (no workload generators, no
//! schedulers) so the invariants tested are the kernel's own.

use proptest::prelude::*;
use simcloud::prelude::*;

/// A raw random scenario: fleet shape, workload shape, assignment.
#[derive(Debug, Clone)]
struct RawScenario {
    vms: Vec<VmSpec>,
    cloudlets: Vec<CloudletSpec>,
    assignment: Vec<VmId>,
    time_shared: bool,
}

fn raw_scenario() -> impl Strategy<Value = RawScenario> {
    let vm = (500.0f64..4_000.0, 1u32..=4)
        .prop_map(|(mips, pes)| VmSpec::new(mips, 5_000.0, 512.0, 500.0, pes));
    let cloudlet = (100.0f64..20_000.0, 0.0f64..400.0, 1u32..=4)
        .prop_map(|(len, file, pes)| CloudletSpec::new(len, file, file, pes));
    (
        prop::collection::vec(vm, 1..8),
        prop::collection::vec(cloudlet, 1..40),
        prop::bool::ANY,
        any::<u64>(),
    )
        .prop_map(|(vms, cloudlets, time_shared, pick)| {
            let assignment = (0..cloudlets.len())
                .map(|i| VmId::from_index(((pick as usize).wrapping_add(i * 7)) % vms.len()))
                .collect();
            RawScenario {
                vms,
                cloudlets,
                assignment,
                time_shared,
            }
        })
}

/// The raw scenario as a builder: one roomy host per VM, so every VM is
/// created and nothing is rejected.
fn builder(raw: &RawScenario) -> SimulationBuilder {
    let envelope = VmSpec {
        mips: raw.vms.iter().map(|v| v.mips).fold(0.0, f64::max),
        size_mb: 5_000.0,
        ram_mb: 512.0,
        bw_mbps: 500.0,
        pes: raw.vms.iter().map(|v| v.pes).max().unwrap(),
    };
    let mut blueprint = simcloud::datacenter::DatacenterBlueprint::sized_for(
        &envelope,
        raw.vms.len(),
        1,
        DatacenterCharacteristics::default(),
    );
    blueprint.scheduler = if raw.time_shared {
        SchedulerKind::TimeShared
    } else {
        SchedulerKind::SpaceShared
    };
    SimulationBuilder::new()
        .datacenter(blueprint)
        .vms(raw.vms.clone())
        .cloudlets(raw.cloudlets.clone())
        .assignment(raw.assignment.clone())
}

fn run(raw: &RawScenario) -> SimulationOutcome {
    builder(raw)
        .run()
        .expect("raw scenarios are feasible by construction")
}

/// Workflow chains layered on a raw scenario.
#[derive(Debug, Clone, Copy)]
enum Chains {
    None,
    /// Each cloudlet waits for the previous cloudlet on its own VM.
    SameVm,
    /// Each cloudlet waits for the previous cloudlet by index, which the
    /// strided assignment mostly places on another VM.
    CrossVm,
    Both,
}

/// A raw scenario plus the shaping the sharded engine must replay
/// exactly: uniform input sizes (so same-VM submissions travel as one
/// batch), staggered arrivals, one mid-run host failure (with or without
/// broker recovery), dependency chains, and a thread count.
#[derive(Debug, Clone)]
struct Shaped {
    raw: RawScenario,
    arrivals: Option<Vec<SimTime>>,
    /// `(host, fail_at_ms, recover)`.
    failure: Option<(usize, f64, bool)>,
    chains: Chains,
    threads: usize,
}

fn shaped_scenario() -> impl Strategy<Value = Shaped> {
    (
        raw_scenario(),
        prop::bool::ANY,
        prop::bool::ANY,
        // One arrival per possible cloudlet (`raw_scenario` draws < 40).
        prop::collection::vec(0.0f64..500.0, 40..41),
        (0u32..3, any::<u64>(), 100.0f64..15_000.0),
        0usize..4,
        prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    )
        .prop_map(
            |(mut raw, uniform, staggered, times, (fault, host_pick, fail_at), chains, threads)| {
                if uniform {
                    let file_mb = raw.cloudlets[0].file_size_mb;
                    for cl in &mut raw.cloudlets {
                        cl.file_size_mb = file_mb;
                    }
                }
                let n = raw.cloudlets.len();
                Shaped {
                    arrivals: staggered
                        .then(|| times[..n].iter().map(|&t| SimTime::new(t)).collect()),
                    failure: (fault > 0)
                        .then(|| ((host_pick as usize) % raw.vms.len(), fail_at, fault == 2)),
                    chains: [Chains::None, Chains::SameVm, Chains::CrossVm, Chains::Both][chains],
                    threads,
                    raw,
                }
            },
        )
}

fn chain_parents(raw: &RawScenario, chains: Chains) -> Option<Vec<Vec<CloudletId>>> {
    let (same_vm, cross_vm) = match chains {
        Chains::None => return None,
        Chains::SameVm => (true, false),
        Chains::CrossVm => (false, true),
        Chains::Both => (true, true),
    };
    let mut last_on_vm: Vec<Option<CloudletId>> = vec![None; raw.vms.len()];
    let parents = (0..raw.cloudlets.len())
        .map(|i| {
            let vm = raw.assignment[i].index();
            let mut ps = Vec::new();
            if same_vm {
                ps.extend(last_on_vm[vm]);
            }
            if cross_vm && i > 0 && !ps.contains(&CloudletId::from_index(i - 1)) {
                ps.push(CloudletId::from_index(i - 1));
            }
            last_on_vm[vm] = Some(CloudletId::from_index(i));
            ps
        })
        .collect();
    Some(parents)
}

fn run_shaped(s: &Shaped, engine: EngineKind) -> SimulationOutcome {
    let mut b = builder(&s.raw).engine(engine);
    if let Some(arrivals) = &s.arrivals {
        b = b.arrivals(arrivals.clone());
    }
    if let Some(parents) = chain_parents(&s.raw, s.chains) {
        b = b.dependencies(parents);
    }
    if let Some((host, fail_at, recover)) = s.failure {
        let mut plan = FaultPlan::healthy();
        plan.host_outages.push(HostOutage {
            datacenter: DatacenterId(0),
            host: HostId::from_index(host),
            fail_at: SimTime::new(fail_at),
            repair_at: None,
        });
        b = b.faults(plan);
        if recover {
            b = b.recovery(RecoveryPolicy::default());
        }
    }
    b.run().expect("shaped scenarios are valid by construction")
}

/// A record with every f64 as its bit pattern, for exact comparison.
type RecordBits = (
    CloudletId,
    Option<VmId>,
    CloudletStatus,
    [Option<u64>; 4],
    u64,
    Option<bool>,
);

fn record_bits(outcome: &SimulationOutcome) -> Vec<RecordBits> {
    let t = |v: Option<SimTime>| v.map(|t| t.as_millis().to_bits());
    outcome
        .records
        .iter()
        .map(|r| {
            (
                r.id,
                r.vm,
                r.status,
                [
                    t(r.submit),
                    t(r.start),
                    t(r.finish),
                    r.execution_ms.map(f64::to_bits),
                ],
                r.cost.to_bits(),
                r.met_deadline,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel always drains; every cloudlet finishes; the clock never
    /// precedes the work it measures.
    #[test]
    fn kernel_always_completes(raw in raw_scenario()) {
        let outcome = run(&raw);
        prop_assert_eq!(outcome.finished_count(), raw.cloudlets.len());
        prop_assert_eq!(outcome.cloudlets_failed, 0);
        prop_assert_eq!(outcome.vms_created, raw.vms.len());
        let makespan = outcome.simulation_time_ms().unwrap();
        prop_assert!(outcome.end_time.as_millis() + 1e-9 >= makespan);
    }

    /// Per-cloudlet compute lower bound: nothing finishes faster than its
    /// solo runtime on its assigned VM.
    #[test]
    fn no_cloudlet_beats_physics(raw in raw_scenario()) {
        let outcome = run(&raw);
        for (i, r) in outcome.records.iter().enumerate() {
            let vm = &raw.vms[raw.assignment[i].index()];
            let cl = &raw.cloudlets[i];
            let effective_pes = cl.pes.min(vm.pes);
            let solo_ms = cl.length_mi / (vm.mips * f64::from(effective_pes)) * 1_000.0;
            let exec = r.execution_ms.unwrap();
            prop_assert!(
                exec + 1e-6 >= solo_ms,
                "cloudlet {i} ran in {exec}ms, below solo bound {solo_ms}ms"
            );
        }
    }

    /// Event accounting: the kernel processes at least one event per
    /// cloudlet and per VM, and a bounded multiple of them.
    #[test]
    fn event_count_is_linear(raw in raw_scenario()) {
        let outcome = run(&raw);
        let n = raw.cloudlets.len() as u64;
        let v = raw.vms.len() as u64;
        prop_assert!(outcome.events_processed >= n + v);
        // Submit + finish + ticks + acks: comfortably under 8 events per
        // object (a regression here means a tick storm).
        prop_assert!(
            outcome.events_processed <= 8 * (n + v) + 16,
            "event storm: {} events for {} cloudlets / {} VMs",
            outcome.events_processed, n, v
        );
    }

    /// Runs are bit-identical when repeated.
    #[test]
    fn repeat_runs_identical(raw in raw_scenario()) {
        let a = run(&raw);
        let b = run(&raw);
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.end_time, b.end_time);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            prop_assert_eq!(ra.finish, rb.finish);
            prop_assert_eq!(ra.start, rb.start);
        }
    }

    /// The sharded engine replays every shape bit-identically to the
    /// sequential kernel, at any thread count.
    #[test]
    fn sharded_matches_sequential(s in shaped_scenario()) {
        let seq = run_shaped(&s, EngineKind::Sequential);
        rayon::ThreadPoolBuilder::new()
            .num_threads(s.threads)
            .build_global()
            .expect("vendored rayon accepts repeated global builds");
        let shd = run_shaped(&s, EngineKind::Sharded);
        prop_assert_eq!(shd.engine, EngineKind::Sharded);
        prop_assert_eq!(record_bits(&seq), record_bits(&shd));
        prop_assert_eq!(
            seq.end_time.as_millis().to_bits(),
            shd.end_time.as_millis().to_bits()
        );
        prop_assert_eq!(seq.events_processed, shd.events_processed);
        let (a, b) = (&seq.resilience, &shd.resilience);
        prop_assert_eq!(
            (a.retries, a.recovered, a.abandoned),
            (b.retries, b.recovered, b.abandoned)
        );
        prop_assert_eq!(a.wasted_work_ms.to_bits(), b.wasted_work_ms.to_bits());
        prop_assert_eq!(a.recovery_time_ms.to_bits(), b.recovery_time_ms.to_bits());
    }

    /// Fluid lower bound per VM: the last completion on a VM can never
    /// precede (work assigned to it) / (its peak capacity), under either
    /// sharing discipline. (A cross-discipline *upper* bound does not
    /// exist: space-shared FIFO suffers head-of-line blocking from
    /// multi-PE cloudlets that time-shared does not.)
    #[test]
    fn per_vm_fluid_lower_bound(raw in raw_scenario()) {
        let outcome = run(&raw);
        let v = raw.vms.len();
        let mut work_mi = vec![0.0f64; v];
        for (i, vm) in raw.assignment.iter().enumerate() {
            work_mi[vm.index()] += raw.cloudlets[i].length_mi;
        }
        let mut last_finish = vec![0.0f64; v];
        let mut first_start = vec![f64::INFINITY; v];
        for (i, r) in outcome.records.iter().enumerate() {
            let vm = raw.assignment[i].index();
            last_finish[vm] = last_finish[vm].max(r.finish.unwrap().as_millis());
            first_start[vm] = first_start[vm].min(r.start.unwrap().as_millis());
        }
        for vm in 0..v {
            if work_mi[vm] == 0.0 {
                continue;
            }
            let bound_ms = work_mi[vm] / raw.vms[vm].total_mips() * 1_000.0;
            let busy_span = last_finish[vm] - first_start[vm].min(last_finish[vm]);
            prop_assert!(
                busy_span + 1e-6 >= bound_ms
                    || last_finish[vm] + 1e-6 >= bound_ms,
                "vm {vm} finished {bound_ms}ms of fluid work in {busy_span}ms"
            );
        }
    }
}
