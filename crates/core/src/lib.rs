//! # `librisk` — deadline-constrained job admission control for clusters
//!
//! Reproduction of Yeo & Buyya, *"Managing Risk of Inaccurate Runtime
//! Estimates for Deadline Constrained Job Admission Control in Clusters"*
//! (ICPP 2006).
//!
//! A cluster sells service under SLAs whose key term is a **hard
//! deadline**: a job is only useful if it finishes within
//! `submit + deadline`. Admission control decides *at submission time*
//! whether to take a job on — but its information is the user's runtime
//! **estimate**, which real traces show is wildly inaccurate and usually
//! over-estimated. This crate implements:
//!
//! * [`libra::Libra`] — deadline-based proportional-share admission: a
//!   node is suitable when the sum of required shares including the new
//!   job stays ≤ 1; nodes are chosen best-fit (§3.1).
//! * [`libra_risk::LibraRisk`] — the paper's contribution: a node is
//!   suitable when its projected **risk of deadline delay** `σ_j` (the
//!   population standard deviation of the deadline-delay metric, Eq. 4–6)
//!   is zero (§3.3, Algorithm 1).
//! * [`queue::QueuePolicy`] — the space-shared comparators: non-preemptive
//!   **EDF** with the paper's relaxed admission control, EDF without
//!   admission control, and FCFS (§4).
//! * [`rms::ClusterRms`] — the online RMS facade ("the only single
//!   interface for users to submit jobs in the cluster", §3):
//!   job-by-job `submit`/`advance`/`drain` over any execution backend,
//!   with outcomes streamed into a [`report::ReportSink`].
//! * [`scheduler`] — batch entry points that replay a
//!   [`workload::Trace`] through the facade via one generic driver
//!   ([`rms::drive_trace`]) and produce a [`report::SimulationReport`].
//!
//! ## Quick start
//!
//! ```
//! use librisk::prelude::*;
//!
//! // An SDSC-SP2-like trace with the paper's deadline model.
//! let mut trace = workload::synthetic::SyntheticSdscSp2 {
//!     jobs: 200, ..Default::default()
//! }.generate(42);
//! workload::deadlines::DeadlineModel::default()
//!     .assign(&mut sim::Rng64::new(7), trace.jobs_mut());
//!
//! let report = PolicyKind::LibraRisk.run(&Cluster::sdsc_sp2(), &trace);
//! println!("{}: {:.1}% of deadlines fulfilled, slowdown {:.2}",
//!          report.policy, report.fulfilled_pct(), report.avg_slowdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod car;
pub mod ckpt;
pub mod libra;
pub mod libra_budget;
pub mod libra_risk;
pub mod policy;
pub mod qops;
pub mod queue;
pub mod report;
pub mod risk_cache;
pub mod rms;
pub mod router;
pub mod scheduler;

pub use car::{computation_at_risk, CarAnalysis, CarMeasure};
pub use ckpt::{
    load, restore_sharded, save, save_sharded, write_atomic, Checkpoint, CheckpointStore,
    CkptError, Manifest,
};
pub use libra::Libra;
pub use libra_budget::{BudgetModel, LibraBudget, PricingModel};
pub use libra_risk::{ClusterRisk, LibraRisk, NodeOrdering};
pub use policy::{PolicyKind, ShareAdmission};
pub use qops::{run_qops, QopsConfig};
pub use queue::{QueueDiscipline, QueuePolicy, QueuedJob};
pub use report::{
    ChurnStats, JobRecord, OnlineReport, OnlineReportParts, Outcome, ReportCollector, ReportSink,
    SimulationReport,
};
pub use rms::{drive_trace, ClusterRms, Decision, ExecutionBackend, JobEvent};
pub use router::{job_hash_shard, RouteBy, RouterError, ShardedRms};
pub use scheduler::{run_proportional, run_queued};

// The observability layer is part of the facade's public surface
// (`Decision::Rejected` carries its `RejectReason`, `with_recorder`
// takes its `Recorder`), so re-export the crate and the types a caller
// names most often.
pub use obs;
pub use obs::{NoopRecorder, Recorder, RejectReason, TraceRecorder};

/// One-line imports for examples and the experiment harness.
pub mod prelude {
    pub use crate::ckpt::{self, Checkpoint, CheckpointStore, CkptError};
    pub use crate::policy::PolicyKind;
    pub use crate::report::{
        ChurnStats, OnlineReport, Outcome, ReportCollector, ReportSink, SimulationReport,
    };
    pub use crate::rms::{drive_trace, ClusterRms, Decision, JobEvent};
    pub use crate::router::{RouteBy, RouterError, ShardedRms};
    pub use crate::scheduler::{run_proportional, run_queued};
    pub use cluster::{Cluster, FaultEvent, FaultKind, FaultPlan, NodeId, RecoveryPolicy};
    pub use obs;
    pub use obs::{NoopRecorder, Recorder, RejectReason, TraceRecorder};
    pub use workload::{Job, JobId, Trace, Urgency};
}
