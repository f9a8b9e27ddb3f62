//! Property-based invariants of the execution engines and the delay
//! projection.

use cluster::projection::{self, node_risk, project_finishes, ProjectedJob, ShareDiscipline};
use cluster::proportional::{ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, NodeId, SpaceSharedCluster};
use proptest::prelude::*;
use sim::{SimDuration, SimTime};
use workload::{Job, JobId, Urgency};

fn job(id: u64, runtime: f64, estimate: f64, procs: u32, deadline: f64) -> Job {
    Job {
        id: JobId(id),
        submit: SimTime::ZERO,
        runtime: SimDuration::from_secs(runtime),
        estimate: SimDuration::from_secs(estimate),
        procs,
        deadline: SimDuration::from_secs(deadline),
        urgency: Urgency::Low,
    }
}

#[derive(Debug, Clone)]
struct RawJob {
    runtime: f64,
    est_factor: f64,
    deadline: f64,
    procs: u32,
}

fn raw_job() -> impl Strategy<Value = RawJob> {
    (1.0..5_000.0f64, 0.2..6.0f64, 10.0..20_000.0f64, 1u32..4).prop_map(
        |(runtime, est_factor, deadline, procs)| RawJob {
            runtime,
            est_factor,
            deadline,
            procs,
        },
    )
}

fn discipline() -> impl Strategy<Value = ShareDiscipline> {
    prop_oneof![
        Just(ShareDiscipline::Strict),
        Just(ShareDiscipline::WorkConserving)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_always_terminates_and_conserves_work(
        raws in proptest::collection::vec(raw_job(), 1..12),
        disc in discipline(),
    ) {
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut engine = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let mut total_work = 0.0;
        for (i, r) in raws.iter().enumerate() {
            let j = job(i as u64, r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
            total_work += r.runtime * f64::from(r.procs);
            let nodes: Vec<NodeId> = (0..r.procs).map(NodeId).collect();
            engine.admit(j, nodes, SimTime::ZERO);
        }
        let mut finishes = Vec::new();
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            for done in engine.advance(t) {
                // A job can never finish before its full-speed runtime.
                prop_assert!(
                    (done.finish - done.started).as_secs() >= done.job.runtime.as_secs() - 1e-3
                );
                finishes.push(done);
            }
            guard += 1;
            prop_assert!(guard < 200_000, "engine failed to converge");
        }
        prop_assert!(engine.is_empty());
        prop_assert_eq!(finishes.len(), raws.len());
        // Work conservation: delivered work equals the sum of runtimes
        // (scaled by gang width), measured through the utilisation
        // integral.
        let makespan = engine.now().as_secs();
        let delivered = engine.utilization() * makespan * 4.0;
        prop_assert!(
            (delivered - total_work).abs() < 1e-3 * total_work.max(1.0) + 1e-3,
            "delivered {delivered} vs submitted {total_work}"
        );
        prop_assert!(engine.utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn projection_outputs_are_sane(
        jobs in proptest::collection::vec((1.0..10_000.0f64, -5_000.0..50_000.0f64), 1..20),
        now in 0.0..1_000.0f64,
        disc in discipline(),
    ) {
        let pjs: Vec<ProjectedJob> = jobs
            .iter()
            .map(|&(est, dl)| ProjectedJob { remaining_est: est, abs_deadline: dl })
            .collect();
        let finishes = project_finishes(&pjs, now, 1.0, disc);
        prop_assert_eq!(finishes.len(), pjs.len());
        for &f in &finishes {
            prop_assert!(f.is_finite());
            prop_assert!(f >= now - 1e-9, "finish {f} before now {now}");
        }
        // Unit capacity: the last projected finish cannot beat the total
        // estimated work.
        let total: f64 = pjs.iter().map(|p| p.remaining_est).sum();
        let last = finishes.iter().cloned().fold(0.0, f64::max);
        prop_assert!(last - now >= total - 1e-6 * total.max(1.0) - 1e-6,
            "last {last} now {now} total {total}");

        let (mu, sigma) = node_risk(&pjs, now, 1.0, disc);
        prop_assert!(mu >= 1.0 - 1e-9, "mu {mu} below the metric's minimum");
        prop_assert!(sigma >= 0.0);
        prop_assert!(mu.is_finite() && sigma.is_finite());
    }

    #[test]
    fn zero_risk_iff_all_deadline_delays_equal(
        ests in proptest::collection::vec(10.0..1_000.0f64, 1..8),
    ) {
        // All jobs share one deadline far in the future → all meet it →
        // dd all 1 → zero risk.
        let pjs: Vec<ProjectedJob> = ests
            .iter()
            .map(|&e| ProjectedJob { remaining_est: e, abs_deadline: 1e9 })
            .collect();
        let (mu, sigma) = node_risk(&pjs, 0.0, 1.0, ShareDiscipline::WorkConserving);
        prop_assert!((mu - 1.0).abs() < 1e-9);
        prop_assert!(projection::is_zero_risk(sigma));
    }

    #[test]
    fn heap_next_event_time_equals_full_scan(
        raws in proptest::collection::vec(raw_job(), 1..16),
        gaps in proptest::collection::vec(0.0..1.5f64, 1..16),
        disc in discipline(),
    ) {
        // Differential: the lazy-heap `next_event_time` must be bitwise
        // identical to the retired full scan after every admit and every
        // advance of a randomized interleaving — including advances to
        // fractions of the event gap (mid-segment wakes) and advances
        // exactly onto events (completions, overrun re-arms).
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut engine = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let check = |e: &ProportionalCluster, ctx: &str| {
            assert_eq!(
                e.next_event_time().map(|t| t.as_secs().to_bits()),
                e.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                "heap vs scan diverged {ctx}"
            );
        };
        for (id, (r, gap)) in raws.iter().zip(&gaps).enumerate() {
            let now = engine.now();
            let mut j = job(id as u64, r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
            j.submit = now;
            let nodes: Vec<NodeId> = (0..r.procs).map(NodeId).collect();
            engine.admit(j, nodes, now);
            check(&engine, "after admit");
            // Advance a random fraction of the proposed gap (0 → no-op
            // advance, 1 lands exactly on the event so completions and
            // overrun re-arms are exercised too).
            if let Some(next) = engine.next_event_time() {
                let dt = (next - now).as_secs() * gap.min(1.0);
                engine.advance(now + SimDuration::from_secs(dt));
                check(&engine, "after advance");
            }
        }
        // Drain to idle, checking at every event.
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            check(&engine, "while draining");
            engine.advance(t);
            guard += 1;
            prop_assert!(guard < 200_000, "engine failed to converge");
        }
        prop_assert!(engine.next_event_time_scan().is_none());
    }

    #[test]
    fn workspace_projection_is_bitwise_identical(
        jobs in proptest::collection::vec((1.0..10_000.0f64, -5_000.0..50_000.0f64), 0..20),
        now in 0.0..1_000.0f64,
        speed in 0.5..4.0f64,
        disc in discipline(),
    ) {
        // Differential: the zero-allocation workspace kernel against the
        // allocating entry points, over arbitrary job mixes. Both the
        // projected finishes and the (μ, σ) pair must match bitwise.
        let pjs: Vec<ProjectedJob> = jobs
            .iter()
            .map(|&(est, dl)| ProjectedJob { remaining_est: est, abs_deadline: dl })
            .collect();
        let mut ws = projection::ProjectionWorkspace::new();
        let mut out = Vec::new();
        // Run twice through the same workspace: the second pass exercises
        // warm (dirty) buffers.
        for pass in 0..2 {
            let want = project_finishes(&pjs, now, speed, disc);
            ws.project_finishes_into(&pjs, now, speed, disc, &mut out);
            prop_assert_eq!(
                want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                out.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "finishes diverged on pass {}", pass
            );
            let (mu_a, sigma_a) = node_risk(&pjs, now, speed, disc);
            let (mu_b, sigma_b) = ws.node_risk_with(&pjs, now, speed, disc);
            prop_assert_eq!(mu_a.to_bits(), mu_b.to_bits(), "mu diverged on pass {}", pass);
            prop_assert_eq!(sigma_a.to_bits(), sigma_b.to_bits(), "sigma diverged on pass {}", pass);
        }
    }

    #[test]
    fn share_index_is_bitwise_identical_to_direct_totals(
        raws in proptest::collection::vec(raw_job(), 1..16),
        gaps in proptest::collection::vec(0.0..1.5f64, 1..16),
        disc in discipline(),
    ) {
        // Differential: the lazily maintained share-ordered index must
        // agree bitwise with `node_total_share(node, None)` for every
        // node, stay sorted, and cover every node exactly once — after
        // every admit and every advance of a randomized interleaving.
        let nodes = 4u32;
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut engine = ProportionalCluster::new(Cluster::homogeneous(nodes as usize, 168.0), cfg);
        let check = |e: &ProportionalCluster, ctx: &str| {
            e.with_share_index(|entries| {
                assert_eq!(entries.len(), nodes as usize, "missing nodes {ctx}");
                let mut seen: Vec<u32> = entries.iter().map(|s| s.node.0).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..nodes).collect::<Vec<_>>(), "node set wrong {ctx}");
                for w in entries.windows(2) {
                    assert!(
                        (w[0].base_share, w[0].node) <= (w[1].base_share, w[1].node),
                        "index unsorted {ctx}: {w:?}"
                    );
                }
                for s in entries {
                    assert_eq!(
                        s.base_share.to_bits(),
                        e.node_total_share(s.node, None).to_bits(),
                        "stale share for {:?} {ctx}",
                        s.node
                    );
                }
            });
        };
        check(&engine, "on an idle engine");
        for (id, (r, gap)) in raws.iter().zip(&gaps).enumerate() {
            let now = engine.now();
            let mut j = job(id as u64, r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
            j.submit = now;
            let alloc: Vec<NodeId> = (0..r.procs).map(NodeId).collect();
            engine.admit(j, alloc, now);
            check(&engine, "after admit");
            if let Some(next) = engine.next_event_time() {
                let dt = (next - now).as_secs() * gap.min(1.0);
                engine.advance(now + SimDuration::from_secs(dt));
                check(&engine, "after advance");
            }
        }
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            engine.advance(t);
            check(&engine, "while draining");
            guard += 1;
            prop_assert!(guard < 200_000, "engine failed to converge");
        }
    }

    #[test]
    fn share_total_now_tracks_node_total_share_through_churn(
        ops in proptest::collection::vec((0u8..10, 0.0..1.5f64, raw_job()), 1..40),
        disc in discipline(),
    ) {
        // The dominance screen decides on `node_share_total_now`, which
        // reads the rate recompute's per-node totals. Over arbitrary
        // admits, advances, failures and restores it must match
        // `node_total_share(n, None)` (a different summation order, so
        // within 1e-12 relative) on every occupied up node, and read
        // exactly 0.0 on every unoccupied node — including lanes that
        // emptied and lanes that a failure cleared.
        let nodes = 8usize;
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut engine = ProportionalCluster::new(Cluster::homogeneous(nodes, 168.0), cfg);
        let check = |e: &ProportionalCluster, ctx: &str| {
            for n in 0..nodes as u32 {
                let node = NodeId(n);
                let now = e.node_share_total_now(node);
                if e.resident_count(node) == 0 {
                    assert_eq!(now.to_bits(), 0.0f64.to_bits(), "unoccupied {node} reads {now} {ctx}");
                } else if e.node_is_up(node) {
                    let direct = e.node_total_share(node, None);
                    assert!(
                        (now - direct).abs() <= 1e-12 * direct.abs(),
                        "{node}: share_total_now {now} vs node_total_share {direct} {ctx}"
                    );
                }
            }
        };
        check(&engine, "on an idle engine");
        for (id, (kind, frac, r)) in ops.iter().enumerate() {
            let now = engine.now();
            match kind {
                0..=4 => {
                    let up: Vec<NodeId> = (0..nodes as u32)
                        .map(NodeId)
                        .filter(|&n| engine.node_is_up(n))
                        .collect();
                    if up.len() < r.procs as usize {
                        continue;
                    }
                    let start = (frac * up.len() as f64) as usize;
                    let alloc: Vec<NodeId> = (0..r.procs as usize)
                        .map(|i| up[(start + i) % up.len()])
                        .collect();
                    let mut j = job(id as u64, r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
                    j.submit = now;
                    engine.admit(j, alloc, now);
                    check(&engine, "after admit");
                }
                5..=7 => {
                    // Idle engines advance by an arbitrary step too: time
                    // moves over empty lanes without a recompute.
                    let dt = match engine.next_event_time() {
                        Some(next) => (next - now).as_secs() * frac.min(1.0),
                        None => 100.0 * frac,
                    };
                    engine.advance(now + SimDuration::from_secs(dt));
                    check(&engine, "after advance");
                }
                8 => {
                    let node = NodeId((frac * nodes as f64) as u32 % nodes as u32);
                    if engine.node_is_up(node) {
                        engine.fail_node(node, now);
                        check(&engine, "after fail_node");
                    }
                }
                _ => {
                    let node = NodeId((frac * nodes as f64) as u32 % nodes as u32);
                    if !engine.node_is_up(node) {
                        engine.restore_node(node, now);
                        check(&engine, "after restore_node");
                    }
                }
            }
        }
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            engine.advance(t);
            check(&engine, "while draining");
            guard += 1;
            prop_assert!(guard < 200_000, "engine failed to converge");
        }
    }

    #[test]
    fn space_shared_never_overcommits(
        widths in proptest::collection::vec(1u32..5, 1..20),
    ) {
        let total = 8usize;
        let mut pool = SpaceSharedCluster::new(Cluster::homogeneous(total, 168.0));
        let mut running: Vec<(JobId, SimTime)> = Vec::new();
        let mut clock = SimTime::ZERO;
        for (i, &w) in widths.iter().enumerate() {
            let j = job(i as u64, 100.0, 100.0, w, 1e6);
            if pool.can_start(&j) {
                let fin = pool.start(j, clock);
                running.push((JobId(i as u64), fin));
                prop_assert!(pool.free_procs() <= total);
            } else {
                // Free the earliest-finishing job and retry once.
                running.sort_by_key(|(_, f)| *f);
                if let Some((id, fin)) = running.first().cloned() {
                    clock = fin;
                    pool.complete(id, fin);
                    running.remove(0);
                }
                let j = job(i as u64, 100.0, 100.0, w, 1e6);
                if pool.can_start(&j) {
                    let fin = pool.start(j, clock);
                    running.push((JobId(i as u64), fin));
                }
            }
            let busy: usize = total - pool.free_procs();
            prop_assert!(busy <= total);
        }
    }
}

#[test]
fn projection_matches_engine_for_feasible_accurate_jobs() {
    // When estimates are exact and the node is feasible, the engine's
    // actual finishes must equal the projection's predictions.
    let cfg = ProportionalConfig {
        discipline: ShareDiscipline::Strict,
        max_quantum: None,
        ..Default::default()
    };
    let mut engine = ProportionalCluster::new(Cluster::homogeneous(1, 168.0), cfg);
    let specs = [(100.0, 400.0), (50.0, 1_000.0), (20.0, 2_000.0)];
    let mut pjs = Vec::new();
    for (i, &(rt, dl)) in specs.iter().enumerate() {
        engine.admit(job(i as u64, rt, rt, 1, dl), vec![NodeId(0)], SimTime::ZERO);
        pjs.push(ProjectedJob {
            remaining_est: rt,
            abs_deadline: dl,
        });
    }
    let predicted = project_finishes(&pjs, 0.0, 1.0, ShareDiscipline::Strict);
    let mut actual = vec![0.0; specs.len()];
    while let Some(t) = engine.next_event_time() {
        for done in engine.advance(t) {
            actual[done.job.id.0 as usize] = done.finish.as_secs();
        }
    }
    for (p, a) in predicted.iter().zip(&actual) {
        assert!((p - a).abs() < 1e-3, "projected {p} vs actual {a}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn same_instant_advance_batches_are_bitwise_inert(
        raws in proptest::collection::vec(raw_job(), 1..14),
        gaps in proptest::collection::vec(0.0..1.5f64, 1..14),
        repeats in proptest::collection::vec(0usize..4, 1..14),
        disc in discipline(),
    ) {
        // Differential: an engine that receives *batches* of advances at
        // identical timestamps (zero-dt re-advances after every real
        // step, as same-instant event clusters in the driver produce)
        // must stay bitwise identical to a twin that advances exactly
        // once per distinct instant through the single-step reference
        // path. Zero-dt calls must neither complete anything, nor move
        // any rate, nor disturb the next event time.
        let cfg = ProportionalConfig { discipline: disc, ..Default::default() };
        let mut batched = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let mut single = ProportionalCluster::new(Cluster::homogeneous(4, 168.0), cfg);
        let mut buf = Vec::new();
        let ids: Vec<u64> = (0..raws.len() as u64).collect();
        let check = |b: &ProportionalCluster, s: &ProportionalCluster, ids: &[u64], ctx: &str| {
            assert_eq!(
                b.next_event_time().map(|t| t.as_secs().to_bits()),
                s.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                "next event diverged {ctx}"
            );
            for &id in ids {
                let id = workload::JobId(id);
                assert_eq!(
                    b.rate_of(id).map(f64::to_bits),
                    s.rate_of(id).map(f64::to_bits),
                    "rate of {id} diverged {ctx}"
                );
                assert_eq!(
                    b.remaining_est_of(id).map(f64::to_bits),
                    s.remaining_est_of(id).map(f64::to_bits),
                    "remaining_est of {id} diverged {ctx}"
                );
            }
            assert_eq!(
                b.utilization().to_bits(),
                s.utilization().to_bits(),
                "utilization diverged {ctx}"
            );
        };
        for (i, (r, gap)) in raws.iter().zip(&gaps).enumerate() {
            let now = batched.now();
            let mut j = job(ids[i], r.runtime, r.runtime * r.est_factor, r.procs, r.deadline);
            j.submit = now;
            let nodes: Vec<NodeId> = (0..r.procs).map(NodeId).collect();
            batched.admit(j.clone(), nodes.clone(), now);
            single.admit(j, nodes, now);
            check(&batched, &single, &ids, "after admit");
            if let Some(next) = batched.next_event_time() {
                let dt = (next - now).as_secs() * gap.min(1.0);
                let to = now + SimDuration::from_secs(dt);
                batched.advance_into(to, &mut buf);
                let batched_done: Vec<(u64, u64)> = buf
                    .iter()
                    .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                    .collect();
                // Zero-dt re-advances to the *same* instant: each must be
                // a bitwise no-op and complete nothing.
                for _ in 0..repeats[i % repeats.len()] {
                    batched.advance_into(to, &mut buf);
                    prop_assert!(buf.is_empty(), "zero-dt advance completed a job");
                }
                let single_done: Vec<(u64, u64)> = single
                    .advance_reference(to)
                    .iter()
                    .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                    .collect();
                prop_assert_eq!(batched_done, single_done, "completions diverged");
                check(&batched, &single, &ids, "after same-instant batch");
            }
        }
        // Drain both to idle through their respective paths, with a
        // zero-dt echo after every batched step.
        let mut guard = 0;
        while let Some(t) = batched.next_event_time() {
            batched.advance_into(t, &mut buf);
            let batched_done: Vec<(u64, u64)> = buf
                .iter()
                .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                .collect();
            batched.advance_into(t, &mut buf);
            prop_assert!(buf.is_empty(), "zero-dt drain advance completed a job");
            let single_done: Vec<(u64, u64)> = single
                .advance_reference(t)
                .iter()
                .map(|d| (d.job.id.0, d.finish.as_secs().to_bits()))
                .collect();
            prop_assert_eq!(batched_done, single_done, "drain completions diverged");
            check(&batched, &single, &ids, "while draining");
            guard += 1;
            prop_assert!(guard < 200_000, "engines failed to converge");
        }
        prop_assert!(single.next_event_time_scan().is_none());
    }
}
