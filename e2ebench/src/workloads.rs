//! The named workloads and their set-up: trace generation, fault plan
//! and RMS construction, all derived from the seed.

use cluster::{Cluster, FaultPlan, RecoveryPolicy};
use experiments::Scenario;
use librisk::{ClusterRms, PolicyKind, RouteBy, ShardedRms};
use workload::{params, Trace};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig. 1 default point, unsharded, no recorder.
    Paper,
    /// Fig. 1's left edge: arrival-delay factor 0.3.
    Overload,
    /// Two 64-node shards behind the router, advanced after every
    /// arrival.
    ShardedOnline,
    /// The paper point under node churn, with a ring recorder,
    /// periodic checkpoints and one crash drill.
    Operated,
}

/// Shards of `sharded_online` (the 2-core box it was sized on).
pub const SHARDS: usize = 2;
/// Nodes per shard, and the width cap of `sharded_online`'s jobs.
pub const SHARD_NODES: usize = params::SDSC_SP2_NODES / SHARDS;
/// `operated` checkpoints after every this many arrivals.
pub const CKPT_EVERY: usize = 1000;
/// Events the `operated` ring recorder holds.
pub const RING_CAPACITY: usize = 1 << 16;
/// Mean node repair time of `operated`, seconds (1 h).
const MTTR_SECS: f64 = 3600.0;
/// Mean failures per node over `operated`'s trace span.
const FAILURES_PER_NODE: f64 = 4.0;

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::Paper,
        Kind::Overload,
        Kind::ShardedOnline,
        Kind::Operated,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Overload => "overload",
            Kind::ShardedOnline => "sharded_online",
            Kind::Operated => "operated",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Jobs per drive: sized so one drive takes about a second on a
    /// 2-core box, which leaves several drives per measured run.
    pub fn jobs(self) -> usize {
        match self {
            Kind::Paper => 60_000,
            Kind::Overload => 30_000,
            Kind::ShardedOnline => 12_000,
            Kind::Operated => 40_000,
        }
    }

    /// The scenario the trace is generated from.
    pub fn scenario(self, seed: u64) -> Scenario {
        let paper = Scenario {
            jobs: self.jobs(),
            seed,
            ..Scenario::default()
        };
        match self {
            Kind::Overload => Scenario {
                arrival_delay_factor: 0.3,
                ..paper
            },
            _ => paper,
        }
    }
}

/// A workload's generated inputs.
pub struct Setup {
    /// Which workload.
    pub kind: Kind,
    /// The trace, in arrival order.
    pub trace: Trace,
    /// The cluster of the unsharded workloads.
    pub cluster: Cluster,
    /// The churn plan (empty except on `operated`).
    pub plan: FaultPlan,
}

impl Setup {
    /// Generates the trace and fault plan of `kind` from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Setup {
        let mut scenario = kind.scenario(seed);
        let mut trace = scenario.build_trace();
        if kind == Kind::ShardedOnline {
            for job in trace.jobs_mut() {
                job.procs = job.procs.min(SHARD_NODES as u32);
            }
        }
        let plan = if kind == Kind::Operated {
            let span = trace.stats(scenario.nodes).span;
            scenario.node_mtbf = span / FAILURES_PER_NODE;
            scenario.node_mttr = MTTR_SECS;
            scenario.recovery = RecoveryPolicy::Requeue;
            scenario.fault_plan(&trace)
        } else {
            FaultPlan::empty()
        };
        Setup {
            kind,
            trace,
            cluster: scenario.cluster(),
            plan,
        }
    }

    /// A fresh unsharded RMS over the workload's cluster, with its
    /// fault plan.
    pub fn rms(&self) -> ClusterRms<'static> {
        let rms = PolicyKind::LibraRisk.rms(&self.cluster);
        if self.plan.is_empty() {
            rms
        } else {
            rms.with_faults(self.plan.clone(), RecoveryPolicy::Requeue)
        }
    }

    /// A fresh 64-node shard.
    pub fn shard() -> ClusterRms<'static> {
        PolicyKind::LibraRisk.rms(&shard_cluster())
    }

    /// A fresh router over [`SHARDS`] shards.
    pub fn router() -> ShardedRms<'static> {
        ShardedRms::new(
            (0..SHARDS).map(|_| Setup::shard()).collect(),
            RouteBy::JobHash,
        )
        .expect("the router has shards")
    }
}

/// The cluster of one `sharded_online` shard.
pub fn shard_cluster() -> Cluster {
    Cluster::homogeneous(SHARD_NODES, params::SDSC_SP2_SPEC_RATING)
}
