//! Microbenches of the hot paths: the admission decision (M1), the
//! end-to-end simulated-jobs-per-second rate (M2), the node-local delay
//! projection, and the DES kernel's event queue.

use cluster::projection::{
    node_risk, project_finishes, ProjectedJob, ProjectionWorkspace, ShareDiscipline,
};
use cluster::proportional::{ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, NodeId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use librisk::libra::Libra;
use librisk::policy::ShareAdmission;
use librisk::prelude::*;
use librisk::LibraRisk;
use sim::{SimDuration, SimTime};
use std::hint::black_box;

fn job(id: u64, estimate: f64, deadline: f64) -> Job {
    Job {
        id: JobId(id),
        submit: SimTime::ZERO,
        runtime: SimDuration::from_secs(estimate),
        estimate: SimDuration::from_secs(estimate),
        procs: 1,
        deadline: SimDuration::from_secs(deadline),
        urgency: Urgency::Low,
    }
}

/// M1: a LibraRisk admission decision on a 128-node cluster with varying
/// resident load.
fn admission_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/admission");
    for residents_per_node in [1usize, 4, 16] {
        let mut engine =
            ProportionalCluster::new(Cluster::sdsc_sp2(), ProportionalConfig::default());
        let mut id = 0u64;
        for n in 0..engine.cluster().len() {
            for _ in 0..residents_per_node {
                // Light shares so every node stays feasible.
                let j = job(id, 100.0, 100_000.0 + id as f64);
                engine.admit(j, vec![NodeId(n as u32)], SimTime::ZERO);
                id += 1;
            }
        }
        let new_job = job(u64::MAX, 500.0, 5_000.0);
        group.bench_with_input(
            BenchmarkId::new("librarisk_decide", residents_per_node),
            &engine,
            |b, e| {
                b.iter(|| {
                    let mut policy = LibraRisk::paper();
                    black_box(policy.decide(e, &new_job))
                })
            },
        );
    }
    group.finish();
}

/// The projection kernel itself: the allocating `project_finishes` entry
/// point (a fresh set of scratch vectors every call — the pre-change
/// behaviour) against `ProjectionWorkspace::project_finishes_into` on a
/// warm caller-owned workspace (zero allocation after warm-up), across
/// resident-set sizes k.
fn project_finishes_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/project_finishes");
    for k in [1usize, 4, 16, 64] {
        let jobs: Vec<ProjectedJob> = (0..k)
            .map(|i| ProjectedJob {
                remaining_est: 50.0 + 13.0 * i as f64,
                abs_deadline: 500.0 + 90.0 * i as f64,
            })
            .collect();
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("alloc_cold", k), &jobs, |b, js| {
            b.iter(|| {
                black_box(project_finishes(
                    js,
                    0.0,
                    1.0,
                    ShareDiscipline::WorkConserving,
                ))
            })
        });
        let mut ws = ProjectionWorkspace::new();
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("workspace_warm", k), &jobs, |b, js| {
            b.iter(|| {
                ws.project_finishes_into(js, 0.0, 1.0, ShareDiscipline::WorkConserving, &mut out);
                black_box(out.last().copied())
            })
        });
    }
    group.finish();
}

/// A cluster with `residents_per_node` long-lived jobs on every node —
/// the steady state the admission path sees mid-simulation.
fn loaded_engine(residents_per_node: usize) -> ProportionalCluster {
    let mut engine = ProportionalCluster::new(Cluster::sdsc_sp2(), ProportionalConfig::default());
    let mut id = 0u64;
    for n in 0..engine.cluster().len() {
        for r in 0..residents_per_node {
            let j = job(id, 200.0 + 10.0 * r as f64, 500_000.0 + id as f64);
            engine.admit(j, vec![NodeId(n as u32)], SimTime::ZERO);
            id += 1;
        }
    }
    engine
}

/// A stream of candidate jobs spanning both accept and reject regions.
fn candidate_stream(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let est = 100.0 + (i % 37) as f64 * 40.0;
            let deadline = 800.0 + (i % 101) as f64 * 900.0;
            job(1_000_000 + i as u64, est, deadline)
        })
        .collect()
}

/// Steady-state decide loop over a 10k-job candidate stream: Libra's
/// per-node share scan, and LibraRisk's cached incremental `decide`
/// (epoch-validated per-node caches, warm after the first call) against
/// its from-scratch `decide_reference`.
fn steady_state_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/steady_decide");
    group.throughput(Throughput::Elements(1));
    let engine = loaded_engine(8);
    let stream = candidate_stream(10_000);

    let mut libra = Libra::new();
    let mut i = 0usize;
    group.bench_function("libra", |b| {
        b.iter(|| {
            let j = &stream[i % stream.len()];
            i += 1;
            black_box(libra.decide(&engine, j))
        })
    });

    let mut lr = LibraRisk::paper();
    let mut i = 0usize;
    group.bench_function("librarisk_cached", |b| {
        b.iter(|| {
            let j = &stream[i % stream.len()];
            i += 1;
            black_box(lr.decide(&engine, j))
        })
    });
    let lr_ref = LibraRisk::paper();
    let mut i = 0usize;
    group.bench_function("librarisk_reference", |b| {
        b.iter(|| {
            let j = &stream[i % stream.len()];
            i += 1;
            black_box(lr_ref.decide_reference(&engine, j))
        })
    });
    group.finish();
}

/// Node-local projection cost against resident-set size.
fn projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/projection");
    for n in [2usize, 8, 32, 128] {
        let jobs: Vec<ProjectedJob> = (0..n)
            .map(|i| ProjectedJob {
                remaining_est: 100.0 + i as f64,
                abs_deadline: 1_000.0 + 10.0 * i as f64,
            })
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("node_risk", n), &jobs, |b, js| {
            b.iter(|| black_box(node_risk(js, 0.0, 1.0, ShareDiscipline::WorkConserving)))
        });
    }
    group.finish();
}

/// M2: end-to-end simulation throughput in jobs per second of wall time.
fn end_to_end_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/end_to_end");
    group.sample_size(10);
    let scenario = bench::default_scenario(1000);
    let trace = scenario.build_trace();
    let cluster = scenario.cluster();
    group.throughput(Throughput::Elements(trace.len() as u64));
    for policy in PolicyKind::PAPER {
        group.bench_function(policy.name(), |b| {
            b.iter(|| black_box(policy.run(&cluster, &trace)).fulfilled())
        });
    }
    group.finish();
}

/// The DES kernel's schedule/pop cycle.
fn event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/event_queue");
    for n in [1_000u64, 100_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("schedule_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q: sim::EventQueue<u64> = sim::EventQueue::with_capacity(n as usize);
                let mut rng = sim::Rng64::new(7);
                for i in 0..n {
                    q.schedule(SimTime::from_secs(rng.next_f64() * 1e6), i);
                }
                let mut acc = 0u64;
                while let Some(ev) = q.pop() {
                    acc = acc.wrapping_add(ev.payload);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    admission_decision,
    project_finishes_kernel,
    steady_state_decide,
    projection,
    end_to_end_throughput,
    event_queue
);
criterion_main!(benches);
