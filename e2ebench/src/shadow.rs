//! Engine-level shadow replay of a fault-free workload, splitting the
//! facade's work into decide, admit and advance.
//!
//! It makes the calls the facade makes for one arrival, through the
//! public engine and policy API: advance the engine through its own
//! events up to the arrival, advance it to the arrival instant, ask
//! `LibraRisk::paper()` to decide, and admit an accepted job. Its
//! accepted set must equal the facade's.

use crate::spans::{Layer, Spans, NO_JOB};
use crate::workloads::{shard_cluster, Kind, Setup, SHARDS};
use cluster::proportional::{CompletedJob, ProportionalCluster, ProportionalConfig};
use cluster::Cluster;
use librisk::policy::{DecisionStats, ShareAdmission};
use librisk::{job_hash_shard, LibraRisk};
use workload::Job;

/// What one shadow replay decided and measured.
pub struct Shadow {
    /// Spans of the replay (root: [`Layer::Shadow`]).
    pub spans: Spans,
    /// Whether each job (by trace index) was accepted.
    pub accepted: Vec<bool>,
    /// Decisions made.
    pub decisions: u64,
    /// `last_decision_stats()` summed over every decision.
    pub stats: DecisionStats,
}

/// Replays a fault-free workload at engine level; `sharded_online`
/// replays each shard's jobs on its own 64-node engine.
pub fn replay(setup: &Setup, traced: bool) -> Shadow {
    let jobs = setup.trace.jobs();
    let mut sh = Shadow {
        spans: if traced {
            Spans::on(jobs.len() * 4)
        } else {
            Spans::off()
        },
        accepted: vec![false; jobs.len()],
        decisions: 0,
        stats: DecisionStats::default(),
    };
    sh.spans.open_root(Layer::Shadow);
    if setup.kind == Kind::ShardedOnline {
        for shard in 0..SHARDS {
            let mine = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| job_hash_shard(j.id, SHARDS) == shard);
            engine_replay(shard_cluster(), mine, &mut sh);
        }
    } else {
        engine_replay(setup.cluster.clone(), jobs.iter().enumerate(), &mut sh);
    }
    sh.spans.close_root();
    sh
}

fn engine_replay<'a>(
    cluster: Cluster,
    jobs: impl Iterator<Item = (usize, &'a Job)>,
    sh: &mut Shadow,
) {
    let mut engine = ProportionalCluster::new(cluster, ProportionalConfig::default());
    let mut policy = LibraRisk::paper();
    let mut done: Vec<CompletedJob> = Vec::new();
    for (index, job) in jobs {
        let now = job.submit;
        let id = job.id.0;
        while let Some(t) = engine.next_event_time() {
            if t > now {
                break;
            }
            advance(&mut engine, t, &mut done, &mut sh.spans, id);
        }
        advance(&mut engine, now, &mut done, &mut sh.spans, id);
        let t = sh.spans.start();
        let nodes = policy.decide(&engine, job);
        sh.spans.end(Layer::LibraRiskDecide, t, id);
        sh.decisions += 1;
        if let Some(s) = policy.last_decision_stats() {
            add(&mut sh.stats, &s);
        }
        if let Some(nodes) = nodes {
            sh.accepted[index] = true;
            let t = sh.spans.start();
            engine.admit(job.clone(), nodes, now);
            sh.spans.end(Layer::ProportionalAdmit, t, id);
        }
    }
    while let Some(t) = engine.next_event_time() {
        advance(&mut engine, t, &mut done, &mut sh.spans, NO_JOB);
    }
}

fn advance(
    engine: &mut ProportionalCluster,
    to: sim::SimTime,
    done: &mut Vec<CompletedJob>,
    spans: &mut Spans,
    job: u64,
) {
    let t = spans.start();
    engine.advance_into(to, done);
    spans.end(Layer::ProportionalAdvance, t, job);
    done.clear();
}

fn add(total: &mut DecisionStats, s: &DecisionStats) {
    total.nodes_considered += s.nodes_considered;
    total.projections_run += s.projections_run;
    total.screen_hits += s.screen_hits;
    total.class_hits += s.class_hits;
    total.pairing_hits += s.pairing_hits;
    total.kernel_bails += s.kernel_bails;
    total.memo_hits += s.memo_hits;
    total.distinct_classes += s.distinct_classes;
}
