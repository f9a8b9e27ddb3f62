//! Differential tests for the online RMS facade.
//!
//! The bespoke per-engine event loops are gone; their behaviour survives
//! as a golden fixture (`tests/fixtures/golden_outcomes.txt`) snapshotted
//! from the last commit that carried them. The unified driver
//! (`PolicyKind::run`, one generic loop over `ClusterRms`) must reproduce
//! that snapshot *bitwise* — every per-job outcome instant, the
//! utilisation and the policy name — for every policy in the catalogue.
//! Any divergence means the facade's event ordering drifted (a completion
//! processed on the wrong side of a same-instant arrival, a spurious
//! rate-recomputation point) and would silently change simulation
//! results.
//!
//! On top of the batch equivalence, property tests cover the fault
//! subsystem's two structural contracts: an **empty** `FaultPlan` is
//! bitwise inert for every policy, and streamed outcomes under a fixed
//! non-empty plan are independent of how often `advance` is called
//! between submissions.

use cluster::Cluster;
use librisk::prelude::*;
use librisk::report::JobRecord;
use proptest::prelude::*;
use sim::{Rng64, SimDuration, SimTime};
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;

/// A small but busy scenario: 16 nodes, a few hundred SDSC-SP2-like jobs
/// with the paper's deadline model — enough contention that queues form,
/// backfilling fires and admission tests reject.
fn synthetic_trace(jobs: usize, seed: u64) -> Trace {
    let mut trace = SyntheticSdscSp2 {
        jobs,
        ..Default::default()
    }
    .generate(seed);
    DeadlineModel::default().assign(&mut Rng64::new(seed ^ 0x9e37), trace.jobs_mut());
    trace
}

fn small_cluster() -> Cluster {
    Cluster::homogeneous(16, 168.0)
}

/// A churn plan that repeatedly takes nodes down and back up across the
/// whole span of a trace.
fn churn_plan(trace: &Trace, seed: u64) -> FaultPlan {
    let span = trace
        .jobs()
        .last()
        .map(|j| j.submit.as_secs())
        .unwrap_or(0.0)
        + 5_000.0;
    FaultPlan::exponential(16, span / 4.0, span / 16.0, SimTime::from_secs(span), seed)
}

/// The unified driver replayed against the golden snapshot of the retired
/// reference loops: 13 policies × 2 seeds × 180 jobs, compared bitwise.
#[test]
fn unified_driver_matches_golden_fixture() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_outcomes.txt"
    ))
    .expect("golden fixture present");
    let mut lines = text.lines();
    let mut sections = 0usize;
    while let Some(header) = lines.next() {
        let f: Vec<&str> = header.split(' ').collect();
        assert_eq!(
            (f[0], f[2], f[4], f[6]),
            ("policy", "name", "seed", "utilization"),
            "malformed fixture header: {header}"
        );
        let kind = PolicyKind::ALL
            .iter()
            .copied()
            .find(|k| format!("{k:?}") == f[1])
            .unwrap_or_else(|| panic!("unknown policy {} in fixture", f[1]));
        let seed: u64 = f[5].parse().expect("seed");
        let util_bits = u64::from_str_radix(f[7], 16).expect("utilization bits");

        let trace = synthetic_trace(180, seed);
        let report = kind.run(&small_cluster(), &trace);
        assert_eq!(
            report.policy, f[3],
            "{kind:?} (seed {seed}): policy name diverged from golden"
        );
        assert_eq!(
            report.utilization.to_bits(),
            util_bits,
            "{kind:?} (seed {seed}): utilization diverged from golden"
        );
        for (i, rec) in report.records.iter().enumerate() {
            let line = lines.next().expect("record line");
            let p: Vec<&str> = line.split(' ').collect();
            assert_eq!(p[0].parse::<usize>().unwrap(), i, "{kind:?} seed {seed}");
            let bits = |s: &str| u64::from_str_radix(s, 16).expect("outcome bits");
            match rec.outcome {
                Outcome::Rejected { at, .. } => {
                    assert_eq!(p[1], "R", "{kind:?} seed {seed} job {i}: kind flipped");
                    assert_eq!(
                        at.as_secs().to_bits(),
                        bits(p[2]),
                        "{kind:?} seed {seed} job {i}: rejection instant"
                    );
                }
                Outcome::Completed { started, finish } => {
                    assert_eq!(p[1], "C", "{kind:?} seed {seed} job {i}: kind flipped");
                    assert_eq!(
                        started.as_secs().to_bits(),
                        bits(p[2]),
                        "{kind:?} seed {seed} job {i}: start instant"
                    );
                    assert_eq!(
                        finish.as_secs().to_bits(),
                        bits(p[3]),
                        "{kind:?} seed {seed} job {i}: finish instant"
                    );
                }
                Outcome::Killed { .. } => {
                    panic!("{kind:?} seed {seed} job {i}: killed without faults")
                }
            }
        }
        sections += 1;
    }
    assert_eq!(
        sections,
        PolicyKind::ALL.len() * 2,
        "fixture covers every policy at both seeds"
    );
}

/// Rewrites the golden fixture from the current unified driver. Ignored
/// by default — run explicitly (`cargo test -p librisk --test
/// differential_rms -- --ignored regenerate_golden_fixture`) only after
/// an *intentional* semantic re-pin, and review the resulting diff like
/// any other code change. Last re-pin: canonical projection order — risk
/// projections now evaluate residents sorted by (deadline, remaining)
/// rather than by engine slot order, so `(μ_j, σ_j)` bits are functions
/// of the resident multiset and no longer leak admission history; the
/// only observable drift was LibraRisk-NaiveProj placement in
/// σ-at-noise-scale boundary cases.
#[test]
#[ignore = "writes the golden fixture; run only for an intentional semantic re-pin"]
fn regenerate_golden_fixture() {
    let mut out = String::new();
    for seed in [7u64, 4242] {
        for kind in PolicyKind::ALL {
            let trace = synthetic_trace(180, seed);
            let report = kind.run(&small_cluster(), &trace);
            out.push_str(&format!(
                "policy {kind:?} name {} seed {seed} utilization {:016x}\n",
                report.policy,
                report.utilization.to_bits()
            ));
            for (i, rec) in report.records.iter().enumerate() {
                match rec.outcome {
                    Outcome::Rejected { at, .. } => {
                        out.push_str(&format!("{i} R {:016x}\n", at.as_secs().to_bits()));
                    }
                    Outcome::Completed { started, finish } => {
                        out.push_str(&format!(
                            "{i} C {:016x} {:016x}\n",
                            started.as_secs().to_bits(),
                            finish.as_secs().to_bits()
                        ));
                    }
                    Outcome::Killed { .. } => {
                        panic!("{kind:?} seed {seed} job {i}: killed without faults")
                    }
                }
            }
        }
    }
    std::fs::write(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_outcomes.txt"
        ),
        out,
    )
    .expect("fixture written");
}

/// Replays a trace through the facade with extra `advance` calls wedged
/// between submissions at `frac` of each inter-arrival gap, collecting
/// every streamed event.
fn run_interleaved(
    kind: PolicyKind,
    trace: &Trace,
    fracs: &[f64],
    faults: Option<(FaultPlan, RecoveryPolicy)>,
) -> Vec<(u64, JobRecord)> {
    let mut rms = kind.rms(&small_cluster());
    if let Some((plan, recovery)) = faults {
        rms = rms.with_faults(plan, recovery);
    }
    let mut out: Vec<(u64, JobRecord)> = Vec::new();
    let mut prev = SimTime::ZERO;
    for (i, job) in trace.jobs().iter().enumerate() {
        let gap = job.submit - prev;
        if gap > SimDuration::ZERO && !fracs.is_empty() {
            // Wedge intermediate advances strictly inside the gap.
            let frac = fracs[i % fracs.len()].clamp(0.0, 0.999);
            let mid = prev + SimDuration::from_secs(gap.as_secs() * frac);
            out.extend(rms.advance(mid).map(|e| (e.seq, e.record)));
        }
        out.extend(rms.advance(job.submit).map(|e| (e.seq, e.record)));
        rms.submit(job.clone(), job.submit);
        prev = job.submit;
    }
    out.extend(rms.drain().map(|e| (e.seq, e.record)));
    out.sort_by_key(|(seq, _)| *seq);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Submitting with arbitrary intermediate advances produces exactly
    // the same outcomes as the batch drive, for a queued, a
    // proportional and the QoPS backend.
    #[test]
    fn interleaved_advances_never_change_outcomes(
        seed in 0u64..1_000,
        fracs in proptest::collection::vec(0.0..1.0f64, 1..6),
    ) {
        let trace = synthetic_trace(60, seed);
        for kind in [PolicyKind::LibraRisk, PolicyKind::EdfBackfill, PolicyKind::Qops] {
            let batch = kind.run(&small_cluster(), &trace);
            let streamed = run_interleaved(kind, &trace, &fracs, None);
            prop_assert_eq!(streamed.len(), batch.records.len());
            for (i, (seq, record)) in streamed.iter().enumerate() {
                prop_assert_eq!(*seq, i as u64);
                prop_assert_eq!(record, &batch.records[i], "{:?} job {}", kind, i);
            }
        }
    }

    // An empty fault plan is structurally inert: for every policy in the
    // catalogue the report (records, outcome instants, utilisation and
    // churn aggregates) is bitwise identical to a run without any fault
    // plumbing attached.
    #[test]
    fn empty_fault_plan_is_bitwise_inert_for_every_policy(seed in 0u64..500) {
        let trace = synthetic_trace(80, seed);
        for kind in PolicyKind::ALL {
            let plain = kind.run(&small_cluster(), &trace);
            let faulted = kind
                .rms(&small_cluster())
                .with_faults(FaultPlan::empty(), RecoveryPolicy::Requeue)
                .run_to_report(&trace);
            prop_assert_eq!(&plain, &faulted, "{:?} (seed {})", kind, seed);
            prop_assert!(faulted.churn.is_empty());
        }
    }

    // Under a fixed non-empty plan, streamed outcomes are still
    // independent of how often time is advanced between submissions:
    // faults fire at their plan instants no matter who moves the clock.
    #[test]
    fn interleaved_advances_are_invariant_under_churn(
        seed in 0u64..200,
        fracs in proptest::collection::vec(0.0..1.0f64, 1..6),
    ) {
        let trace = synthetic_trace(60, seed);
        let plan = churn_plan(&trace, 0xC0FFEE ^ seed);
        for (kind, recovery) in [
            (PolicyKind::LibraRisk, RecoveryPolicy::Requeue),
            (PolicyKind::EdfBackfill, RecoveryPolicy::Kill),
            (PolicyKind::Qops, RecoveryPolicy::Requeue),
        ] {
            let batch = kind
                .rms(&small_cluster())
                .with_faults(plan.clone(), recovery)
                .run_to_report(&trace);
            let streamed =
                run_interleaved(kind, &trace, &fracs, Some((plan.clone(), recovery)));
            prop_assert_eq!(streamed.len(), batch.records.len());
            for (i, (seq, record)) in streamed.iter().enumerate() {
                prop_assert_eq!(*seq, i as u64);
                prop_assert_eq!(record, &batch.records[i], "{:?} job {}", kind, i);
            }
        }
    }
}

/// Churn safety for the whole catalogue: under a busy fault plan, every
/// submitted job still resolves exactly once, `Killed` only appears under
/// the `Kill` recovery policy, and the streamed kill count agrees with
/// the churn aggregates.
#[test]
fn every_job_resolves_exactly_once_under_churn() {
    let trace = synthetic_trace(120, 7);
    let plan = churn_plan(&trace, 99);
    for kind in PolicyKind::ALL {
        for recovery in [RecoveryPolicy::Kill, RecoveryPolicy::Requeue] {
            let report = kind
                .rms(&small_cluster())
                .with_faults(plan.clone(), recovery)
                .run_to_report(&trace);
            assert_eq!(
                report.records.len(),
                trace.len(),
                "{kind:?}/{recovery:?}: every job resolves exactly once"
            );
            let killed = report
                .records
                .iter()
                .filter(|r| matches!(r.outcome, Outcome::Killed { .. }))
                .count() as u64;
            match recovery {
                RecoveryPolicy::Kill => {
                    assert_eq!(report.churn.requeues, 0, "{kind:?}: kill never requeues");
                }
                RecoveryPolicy::Requeue => {
                    assert_eq!(killed, 0, "{kind:?}: requeue never kills");
                    // `requeues` counts displacement events (one job can be
                    // displaced repeatedly along a fault chain); the tally
                    // judges each distinct requeued job exactly once.
                    let judged = report.churn.requeued_fulfilled.total();
                    assert!(
                        judged <= report.churn.requeues,
                        "{kind:?}: distinct jobs ≤ requeue events"
                    );
                    assert!(
                        report.churn.requeue_rejects <= judged,
                        "{kind:?}: rejects are a subset of judged requeues"
                    );
                    if report.churn.requeues > 0 {
                        assert!(judged > 0, "{kind:?}: requeued jobs are judged");
                    }
                }
            }
            assert_eq!(report.churn.kills, killed, "{kind:?}: kill count agrees");
            assert!(report.churn.node_failures > 0, "plan actually fired");
            // Record identity: outcomes are reported against the job as
            // originally submitted, even after a requeue chain.
            for (rec, original) in report.records.iter().zip(trace.jobs()) {
                assert_eq!(&rec.job, original, "{kind:?}/{recovery:?}");
            }
        }
    }
}

/// The streaming sink summarises a 100k-job trace with O(1) state — no
/// per-job outcome vector anywhere (the facade's seq map only holds
/// *resident* jobs, and `OnlineReport` folds records into scalar
/// aggregates as they resolve).
#[test]
fn online_sink_streams_a_hundred_thousand_jobs() {
    let n: u64 = 100_000;
    let jobs: Vec<Job> = (0..n)
        .map(|i| Job {
            id: JobId(i),
            submit: SimTime::from_secs(i as f64 * 10.0),
            runtime: SimDuration::from_secs(5.0),
            estimate: SimDuration::from_secs(5.0),
            procs: 1,
            deadline: SimDuration::from_secs(if i % 10 == 0 { 4.0 } else { 100.0 }),
            urgency: if i % 3 == 0 {
                Urgency::High
            } else {
                Urgency::Low
            },
        })
        .collect();
    let trace = Trace::new(jobs);
    let mut rms = PolicyKind::Fcfs.rms(&Cluster::homogeneous(2, 168.0));
    let mut sink = OnlineReport::new();
    drive_trace(&mut rms, &trace, &mut sink);
    sink.set_utilization(rms.utilization());
    assert_eq!(sink.submitted(), n);
    assert_eq!(sink.accepted(), n, "FCFS never rejects");
    // Every 10th job has a 4 s deadline < 5 s runtime → unfulfilled.
    assert_eq!(sink.fulfilled(), n - n / 10);
    assert_eq!(sink.delayed(), n / 10);
    assert!((sink.fulfilled_pct() - 90.0).abs() < 1e-9);
    assert!(
        (sink.avg_slowdown() - 1.0).abs() < 1e-9,
        "no queueing: slowdown 1"
    );
    assert!(sink.utilization() > 0.0);
    assert!(sink.fulfilled_pct_of(Urgency::High) > 0.0);
}

/// The facade's irrevocability invariant: decisions returned by `submit`
/// never contradict the eventually streamed outcome.
#[test]
fn decisions_agree_with_streamed_outcomes() {
    let trace = synthetic_trace(120, 99);
    for kind in [PolicyKind::LibraRisk, PolicyKind::Edf, PolicyKind::QopsHard] {
        let mut rms = kind.rms(&small_cluster());
        let mut decisions: Vec<Decision> = Vec::new();
        let mut outcomes: Vec<Option<JobRecord>> = vec![None; trace.len()];
        for job in trace.jobs() {
            for e in rms.advance(job.submit) {
                outcomes[e.seq as usize] = Some(e.record);
            }
            decisions.push(rms.submit(job.clone(), job.submit));
        }
        for e in rms.drain() {
            outcomes[e.seq as usize] = Some(e.record);
        }
        for (i, d) in decisions.iter().enumerate() {
            let outcome = &outcomes[i].as_ref().expect("every job resolves").outcome;
            match d {
                Decision::Accepted => assert!(
                    matches!(outcome, Outcome::Completed { .. }),
                    "{kind:?} job {i}: accepted jobs complete"
                ),
                Decision::Rejected(reason) => assert!(
                    matches!(outcome, Outcome::Rejected { reason: r, .. } if r == reason),
                    "{kind:?} job {i}: rejections are final and keep their reason"
                ),
                Decision::Queued => {} // either way, via the queue
            }
        }
    }
}

/// The full reference-oracle loop, hand-rolled: `decide_reference` +
/// `advance_reference` + `next_event_time_scan` driving a bare
/// `ProportionalCluster`, compared outcome-for-outcome (bitwise instants)
/// against the unified driver running the incremental paths end to end.
/// This is the whole-pipeline version of the per-layer differentials: if
/// any incremental layer (class replay and pairing, cached event
/// times, arena advance) drifted from its oracle *in composition*, the
/// two runs would part ways. Churn composition is pinned separately
/// (`interleaved_advances_are_invariant_under_churn` and the engine-level
/// churn differentials in `cluster`).
#[test]
fn hand_rolled_reference_loop_matches_unified_driver() {
    use cluster::proportional::{ProportionalCluster, ProportionalConfig};
    use librisk::libra_risk::LibraRisk;
    use librisk::report::Outcome;
    use std::collections::HashMap;

    // (discriminant, t0 bits, t1 bits) per job id.
    fn key(outcome: &Outcome) -> (u8, u64, u64) {
        match outcome {
            Outcome::Rejected { at, .. } => (0, at.as_secs().to_bits(), 0),
            Outcome::Completed { started, finish } => {
                (1, started.as_secs().to_bits(), finish.as_secs().to_bits())
            }
            Outcome::Killed { at, .. } => (2, at.as_secs().to_bits(), 0),
        }
    }

    for seed in [7u64, 99] {
        let trace = synthetic_trace(240, seed);
        let cluster = small_cluster();

        let mut rms = PolicyKind::LibraRisk.rms(&cluster);
        let mut unified: HashMap<u64, (u8, u64, u64)> = HashMap::new();
        for job in trace.jobs() {
            for e in rms.advance(job.submit) {
                unified.insert(e.record.job.id.0, key(&e.record.outcome));
            }
            rms.submit(job.clone(), job.submit);
        }
        for e in rms.drain() {
            unified.insert(e.record.job.id.0, key(&e.record.outcome));
        }

        let mut engine = ProportionalCluster::new(cluster, ProportionalConfig::default());
        let policy = LibraRisk::paper();
        let mut reference: HashMap<u64, (u8, u64, u64)> = HashMap::new();
        let complete = |engine: &mut ProportionalCluster,
                        to: sim::SimTime,
                        reference: &mut HashMap<u64, (u8, u64, u64)>| {
            for done in engine.advance_reference(to) {
                reference.insert(
                    done.job.id.0,
                    (
                        1,
                        done.started.as_secs().to_bits(),
                        done.finish.as_secs().to_bits(),
                    ),
                );
            }
        };
        for job in trace.jobs() {
            let now = job.submit;
            while let Some(t) = engine.next_event_time_scan() {
                if t > now {
                    break;
                }
                complete(&mut engine, t, &mut reference);
            }
            complete(&mut engine, now, &mut reference);
            match policy.decide_reference(&engine, job) {
                Some(nodes) => engine.admit(job.clone(), nodes, now),
                None => {
                    reference.insert(job.id.0, (0, now.as_secs().to_bits(), 0));
                }
            }
        }
        while let Some(t) = engine.next_event_time_scan() {
            complete(&mut engine, t, &mut reference);
        }

        assert_eq!(
            unified.len(),
            reference.len(),
            "seed {seed}: outcome counts diverged"
        );
        for (id, u) in &unified {
            assert_eq!(
                Some(u),
                reference.get(id),
                "seed {seed}: job {id} outcome diverged between unified driver and reference loop"
            );
        }
    }
}
