//! The correctness gate, run before any timing. Any mismatch fails the
//! run.

use crate::drive::{self, Drive};
use crate::shadow;
use crate::workloads::{Kind, Setup, SHARDS};
use cluster::Cluster;
use librisk::{job_hash_shard, PolicyKind};
use sim::Rng64;
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;

/// Deadlines the committed 2k workload (generator seed 11, deadline
/// seed 12) fulfils under LibraRisk on the 128-node machine.
pub const GOLDEN_FULFILLED: u64 = 1563;

/// Runs every check that applies to `setup` and returns the reference
/// (untraced) drive later drives must agree with.
pub fn check(setup: &Setup) -> Result<Drive, String> {
    golden()?;
    let reference = drive::run(setup, false, true)?;
    exactly_once("reference drive", &reference)?;
    let traced = drive::run(setup, true, true)?;
    exactly_once("traced drive", &traced)?;
    agree("traced drive", &reference, &traced)?;
    match setup.kind {
        Kind::Operated => {
            let unbroken = drive::run(setup, false, false)?;
            exactly_once("unbroken drive", &unbroken)?;
            if unbroken.counts() != reference.counts() {
                return Err(format!(
                    "crash-drill resume (accepted, fulfilled, resolved) = {:?}, \
                     unbroken run = {:?}",
                    reference.counts(),
                    unbroken.counts()
                ));
            }
        }
        _ => {
            let sh = shadow::replay(setup, false);
            if sh.accepted != reference.accepted {
                let differ = sh
                    .accepted
                    .iter()
                    .zip(&reference.accepted)
                    .filter(|(a, b)| a != b)
                    .count();
                return Err(format!(
                    "shadow replay and facade disagree on {differ} admission decisions"
                ));
            }
        }
    }
    if setup.kind == Kind::ShardedOnline {
        union_of_shards(setup, &reference)?;
    }
    Ok(reference)
}

/// The committed 2k workload still fulfils [`GOLDEN_FULFILLED`]
/// deadlines through the benchmark's own drive loop.
pub fn golden() -> Result<(), String> {
    let mut trace = SyntheticSdscSp2 {
        jobs: 2000,
        ..Default::default()
    }
    .generate(11);
    DeadlineModel::default().assign(&mut Rng64::new(12), trace.jobs_mut());
    let d = drive::facade(
        PolicyKind::LibraRisk.rms(&Cluster::sdsc_sp2()),
        trace.jobs(),
        false,
    );
    exactly_once("golden 2k drive", &d)?;
    if d.fulfilled_count() != GOLDEN_FULFILLED {
        return Err(format!(
            "golden 2k workload fulfilled {} deadlines, expected {GOLDEN_FULFILLED}",
            d.fulfilled_count()
        ));
    }
    Ok(())
}

/// Every submitted job resolved exactly once and no operation failed.
pub fn exactly_once(what: &str, d: &Drive) -> Result<(), String> {
    if d.failed() != 0 {
        return Err(format!(
            "{what}: {} failed operations ({} jobs not resolved exactly once, \
             {} stray outcomes, {} invalid jobs, {} router errors)",
            d.failed(),
            d.times_resolved.iter().filter(|&&n| n != 1).count(),
            d.stray,
            d.invalid,
            d.router_errors
        ));
    }
    Ok(())
}

/// Two drives of one workload agree on accepted, fulfilled and
/// resolved counts.
pub fn agree(what: &str, reference: &Drive, d: &Drive) -> Result<(), String> {
    if d.counts() != reference.counts() {
        return Err(format!(
            "{what}: (accepted, fulfilled, resolved) = {:?}, reference = {:?}",
            d.counts(),
            reference.counts()
        ));
    }
    Ok(())
}

/// The routed run equals the union of its shards, each replayed
/// unsharded over its own jobs.
fn union_of_shards(setup: &Setup, routed: &Drive) -> Result<(), String> {
    let jobs = setup.trace.jobs();
    let mut resolved = 0;
    for shard in 0..SHARDS {
        let (index, mine): (Vec<usize>, Vec<_>) = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| job_hash_shard(j.id, SHARDS) == shard)
            .map(|(i, j)| (i, j.clone()))
            .unzip();
        let d = drive::facade(Setup::shard(), &mine, false);
        exactly_once("unsharded shard replay", &d)?;
        resolved += d.resolved_count();
        for (local, &global) in index.iter().enumerate() {
            if d.accepted[local] != routed.accepted[global]
                || d.fulfilled[local] != routed.fulfilled[global]
            {
                return Err(format!(
                    "router and unsharded shard {shard} disagree on job {}",
                    jobs[global].id.0
                ));
            }
        }
    }
    if resolved != routed.resolved_count() {
        return Err(format!(
            "shards resolved {resolved} jobs, the router {}",
            routed.resolved_count()
        ));
    }
    Ok(())
}
