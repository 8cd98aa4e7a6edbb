//! # biosched-workload — experimental scenarios from the paper
//!
//! Generators for the exact setups of Section VI:
//!
//! * [`homogeneous`] — Tables III/IV, the 10³–10⁵ VM / 10⁶ cloudlet sweep
//!   behind Figs. 4 and 5 (with principled down-scaling).
//! * [`heterogeneous`] — Tables V/VI/VII, the 50–950 VM / 5000 cloudlet
//!   sweep behind Fig. 6.
//! * [`traces`] — stress extensions: heavy-tailed, bimodal and bursty
//!   workloads plus skewed fleets.
//! * [`scenario`] — the [`scenario::Scenario`] bundle gluing a workload to
//!   infrastructure, schedulers and the simulator.
//! * [`stream`] — the streaming broker: warm-state incremental
//!   replanning per arrival wave with queueing/latency measurements.
//! * [`sweep`] — experiment execution: one point body collecting the
//!   paper's four metrics and the resilience counters per (scenario,
//!   algorithm), and one rayon-parallel (point × rep × algorithm) grid.
//! * [`resilience`] — fault injection: seeded chaos timelines and
//!   fault-aware rescheduling.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod heterogeneous;
pub mod homogeneous;
pub mod online;
pub mod resilience;
pub mod scenario;
pub mod stream;
pub mod sweep;
pub mod traces;
pub mod workflow;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::heterogeneous::{fig6_vm_points, HeterogeneousScenario};
    pub use crate::homogeneous::{fig4a_vm_points, fig4b_vm_points, HomogeneousScenario};
    pub use crate::online::{run_online, OnlineOutcome, WavePlan};
    pub use crate::resilience::{inject_faults, CacheRescheduler};
    pub use crate::scenario::{DatacenterSetup, Scenario};
    pub use crate::stream::{
        run_stream, run_stream_with, ReplanMode, StreamConfig, StreamOutcome, WaveStat,
    };
    pub use crate::sweep::{
        run_point_with, summarize_reps, sweep_grid, sweep_on, PointArtifacts, PointResult,
    };
    pub use crate::workflow::Workflow;
}
