//! `bench-json` mode for the admission hot path: times the steady-state
//! decide loop per policy — mean, p50 and p99 ns/decision, plus
//! LibraRisk's from-scratch `decide_reference` for comparison — across
//! a residents-per-node sweep, plus the
//! engine's event loop (heap-driven `next_event_time` vs the retired
//! full scan) and the unified RMS driver's end-to-end trace replay
//! throughput (jobs/sec), then writes the results as JSON.
//!
//! ```text
//! cargo run --release -p bench --bin bench_admission \
//!     [decisions] [residents_per_node] [drain_jobs] [out_path] [sharded_jobs]
//! ```
//!
//! The `sharded_driver` section sweeps the shard router over the same
//! 128-node machine partitioned into {1, 4, 16, 64} equal shards,
//! replaying `sharded_jobs` total arrivals (default 10M, tiled from a
//! deterministic base trace) and reporting aggregate jobs/sec plus the
//! p99 end-to-end submit latency.

use cluster::proportional::{ProportionalCluster, ProportionalConfig};
use cluster::{Cluster, FaultPlan, NodeId, RecoveryPolicy};
use librisk::libra::Libra;
use librisk::libra_risk::LibraRisk;
use librisk::policy::ShareAdmission;
use librisk::report::ReportSink;
use librisk::{ckpt, drive_trace, ChurnStats, OnlineReport, PolicyKind, RouteBy, ShardedRms};
use metrics::percentile::quantile;
use sim::{Rng64, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;
use workload::deadlines::DeadlineModel;
use workload::synthetic::SyntheticSdscSp2;
use workload::{Job, JobId, Trace, Urgency};

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

/// Candidate jobs spanning both the accept and the reject region.
fn candidate_stream(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let est = 100.0 + (i % 37) as f64 * 40.0;
            let deadline = 800.0 + (i % 101) as f64 * 900.0;
            job(1_000_000 + i as u64, est, deadline)
        })
        .collect()
}

/// Per-policy timing summary: mean/p50/p99 ns per production decision
/// and, for a policy with a from-scratch reference, the reference's mean
/// (the JSON adds the resulting speedup).
struct PolicyTiming {
    cached_mean: f64,
    cached_p50: f64,
    cached_p99: f64,
    reference_mean: Option<f64>,
}

impl PolicyTiming {
    fn json(&self) -> String {
        let reference = self.reference_mean.map_or(String::new(), |r| {
            format!(
                ", \"reference_ns_per_decision\": {r:.1}, \"speedup\": {:.2}",
                r / self.cached_mean
            )
        });
        format!(
            "{{ \"cached_ns_per_decision\": {:.1}, \
             \"cached_p50_ns\": {:.1}, \
             \"cached_p99_ns\": {:.1}{reference} }}",
            self.cached_mean, self.cached_p50, self.cached_p99,
        )
    }
}

/// Times `n` decisions through `f`, sampling each decision individually
/// so tails are visible. The warm-up covers the *whole* candidate stream
/// once, so the timed loop measures the steady state (every candidate
/// signature already seen — what a long simulation converges to).
fn sample_decisions<F: FnMut(&Job) -> Option<Vec<NodeId>>>(
    mut f: F,
    stream: &[Job],
    n: usize,
) -> Vec<f64> {
    for j in stream {
        black_box(f(j));
    }
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let j = &stream[i % stream.len()];
        let t = Instant::now();
        black_box(f(j));
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples
}

/// Mean of the from-scratch reference path (mean only: the reference is
/// orders of magnitude slower, so a smaller `n` keeps the sweep cheap).
fn reference_mean<F: FnMut(&Job) -> Option<Vec<NodeId>>>(
    mut f: F,
    stream: &[Job],
    n: usize,
) -> f64 {
    for j in stream.iter().take(50) {
        black_box(f(j));
    }
    let t = Instant::now();
    for i in 0..n {
        black_box(f(&stream[i % stream.len()]));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn stats(samples: &[f64]) -> (f64, f64, f64) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let p50 = quantile(samples, 0.50).expect("samples nonempty");
    let p99 = quantile(samples, 0.99).expect("samples nonempty");
    (mean, p50, p99)
}

/// Times one policy's production `decide` on one engine load level.
fn time_decide(
    mut policy: impl ShareAdmission,
    engine: &ProportionalCluster,
    stream: &[Job],
    decisions: usize,
) -> PolicyTiming {
    let samples = sample_decisions(|j| policy.decide(engine, j), stream, decisions);
    let (mean, p50, p99) = stats(&samples);
    PolicyTiming {
        cached_mean: mean,
        cached_p50: p50,
        cached_p99: p99,
        reference_mean: None,
    }
}

/// Times both policies on one engine load level.
fn time_policies(
    engine: &ProportionalCluster,
    stream: &[Job],
    decisions: usize,
    reference_decisions: usize,
) -> (PolicyTiming, PolicyTiming) {
    let libra_timing = time_decide(Libra::new(), engine, stream, decisions);
    let lr_timing = time_decide(LibraRisk::paper(), engine, stream, decisions);
    let lr_ref = LibraRisk::paper();
    let lr_reference = reference_mean(
        |j| lr_ref.decide_reference(engine, j),
        stream,
        reference_decisions,
    );
    let lr_timing = PolicyTiming {
        reference_mean: Some(lr_reference),
        ..lr_timing
    };
    (libra_timing, lr_timing)
}

/// Builds an engine loaded with an overrun-heavy mix and drains it to
/// idle, taking the next event time from the lazy heap or from the
/// retained full scan. Returns (events processed, seconds of wall time).
///
/// Job shapes are de-symmetrised (per-index runtime jitter, staggered
/// finite deadlines) so completions, overrun re-arms and deadline
/// crossings land on distinct instants — thousands of events, not a few
/// hundred synchronized ones.
fn drain_events(jobs: usize, use_scan: bool) -> (u64, f64) {
    let mut engine = event_heavy_engine(jobs);
    let t = Instant::now();
    let mut events = 0u64;
    loop {
        let next = if use_scan {
            engine.next_event_time_scan()
        } else {
            engine.next_event_time()
        };
        let Some(at) = next else { break };
        black_box(engine.advance(at));
        events += 1;
        assert!(events < 10_000_000, "drain failed to converge");
    }
    (events, t.elapsed().as_secs_f64())
}

/// The event-heavy engine both event-loop probes drain: every node
/// loaded, a third of the jobs under-estimating (runtime > estimate) so
/// the drain exercises overrun re-arms, and runtimes/deadlines
/// de-symmetrised (per-index jitter, staggered finite deadlines) so
/// completions, re-arms and deadline crossings land on distinct instants
/// — thousands of events, not a few hundred synchronized ones.
fn event_heavy_engine(jobs: usize) -> ProportionalCluster {
    let mut engine = ProportionalCluster::new(Cluster::sdsc_sp2(), ProportionalConfig::default());
    let nodes = engine.cluster().len();
    for i in 0..jobs {
        let runtime = 300.0 + (i as f64 * 7.919) % 700.0;
        let est_factor = [0.5, 1.0, 2.0][i % 3];
        let deadline = 2_000.0 + (i as f64 * 13.37) % 6_000.0;
        let mut j = job(i as u64, runtime * est_factor, deadline);
        j.runtime = SimDuration::from_secs(runtime);
        engine.admit(j, vec![NodeId((i % nodes) as u32)], SimTime::ZERO);
    }
    engine
}

/// Isolated query cost: mean ns per `next_event_time` (or `_scan`) call
/// on a loaded, settled engine with no interleaved advances. The
/// end-to-end drain buries the query under the per-event advance work —
/// this is the number that actually separates the O(1) cached read from
/// the retired full scan.
fn isolated_event_query(jobs: usize, use_scan: bool) -> f64 {
    let engine = event_heavy_engine(jobs);
    const CALLS: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        black_box(if use_scan {
            engine.next_event_time_scan()
        } else {
            engine.next_event_time()
        });
    }
    t.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// Engine-level advance-path replay: the trace's arrival skeleton with
/// placement pinned to a deterministic round-robin (no admission policy
/// in the loop), so the measured work is exactly the advance path —
/// catch-up event drains, progress passes and rate recomputes. `reference`
/// selects the retired oracle pair (`advance_reference` +
/// `next_event_time_scan`); the default pair is the incremental one
/// (`advance_into` + cached `next_event_time`). Returns jobs/sec, the
/// per-advance wall-time samples (ns), and every completion as
/// `(job id, finish-seconds bits)` for the bitwise cross-check.
fn advance_path_replay(trace: &Trace, reference: bool) -> (f64, Vec<u64>, Vec<(u64, u64)>) {
    let mut engine = ProportionalCluster::new(Cluster::sdsc_sp2(), ProportionalConfig::default());
    let n = engine.cluster().len() as u32;
    let mut samples = Vec::with_capacity(trace.jobs().len() * 4);
    let mut completions = Vec::new();
    let mut buf: Vec<cluster::proportional::CompletedJob> = Vec::new();
    let mut advance = |engine: &mut ProportionalCluster,
                       at: SimTime,
                       samples: &mut Vec<u64>,
                       completions: &mut Vec<(u64, u64)>| {
        let t1 = Instant::now();
        if reference {
            for done in engine.advance_reference(at) {
                completions.push((done.job.id.0, done.finish.as_secs().to_bits()));
            }
        } else {
            engine.advance_into(at, &mut buf);
            for done in buf.drain(..) {
                completions.push((done.job.id.0, done.finish.as_secs().to_bits()));
            }
        }
        samples.push(t1.elapsed().as_nanos() as u64);
    };
    let next = |engine: &ProportionalCluster| {
        if reference {
            engine.next_event_time_scan()
        } else {
            engine.next_event_time()
        }
    };
    let t0 = Instant::now();
    for (i, job) in trace.jobs().iter().enumerate() {
        let now = job.submit;
        while let Some(at) = next(&engine) {
            if at > now {
                break;
            }
            advance(&mut engine, at, &mut samples, &mut completions);
        }
        advance(&mut engine, now, &mut samples, &mut completions);
        let procs = job.procs.min(n);
        let nodes: Vec<NodeId> = (0..procs).map(|k| NodeId((i as u32 + k) % n)).collect();
        let mut j = job.clone();
        j.procs = procs;
        engine.admit(j, nodes, now);
    }
    while let Some(at) = next(&engine) {
        advance(&mut engine, at, &mut samples, &mut completions);
        assert!(samples.len() < 10_000_000, "drain failed to converge");
    }
    let secs = t0.elapsed().as_secs_f64();
    (trace.jobs().len() as f64 / secs, samples, completions)
}

/// End-to-end throughput of the unified RMS driver: a full trace replay
/// (arrival events, admission decisions, execution, streaming sink) in
/// jobs/sec. Returns `(jobs_per_sec, fulfilled)` — the fulfilled count
/// doubles as a sanity anchor that the run did real work.
fn drive_trace_throughput(kind: PolicyKind, trace: &Trace) -> (f64, u64) {
    let (jps, fulfilled, _) = drive_trace_churn_throughput(kind, trace, None);
    (jps, fulfilled)
}

/// Same replay with an optional fault plan attached: the churn section's
/// workhorse, and (with an *empty* plan) the fault-free overhead probe.
fn drive_trace_churn_throughput(
    kind: PolicyKind,
    trace: &Trace,
    faults: Option<(FaultPlan, RecoveryPolicy)>,
) -> (f64, u64, ChurnStats) {
    let t = Instant::now();
    let mut rms = kind.rms(&Cluster::sdsc_sp2());
    if let Some((plan, recovery)) = faults {
        rms = rms.with_faults(plan, recovery);
    }
    let mut sink = OnlineReport::new();
    drive_trace(&mut rms, trace, &mut sink);
    let secs = t.elapsed().as_secs_f64();
    (trace.len() as f64 / secs, sink.fulfilled(), *rms.churn())
}

/// The unified-driver replay with a recorder attached — the
/// observability overhead probe's workhorse.
fn drive_trace_obs_throughput(
    kind: PolicyKind,
    trace: &Trace,
    recorder: Option<&mut (dyn obs::Recorder + Send)>,
) -> (f64, u64) {
    let t = Instant::now();
    let rms = kind.rms(&Cluster::sdsc_sp2());
    let mut sink = OnlineReport::new();
    match recorder {
        Some(rec) => drive_trace(&mut rms.with_recorder(rec), trace, &mut sink),
        None => drive_trace(&mut { rms }, trace, &mut sink),
    }
    let secs = t.elapsed().as_secs_f64();
    (trace.len() as f64 / secs, sink.fulfilled())
}

/// A deterministic arrival stream of arbitrary length, tiled from a
/// fixed base trace: job `i` is base job `i % base_len` with a fresh id
/// and its submit instant shifted by whole tile spans. Jobs are
/// generated on the fly, so a 10M-job replay never materialises 10M
/// `Job`s at once.
struct TiledWorkload {
    base: Vec<Job>,
    span_secs: f64,
}

impl TiledWorkload {
    /// `max_procs` is capped at 2 so every job fits the smallest shard
    /// of the sweep (64 shards × 2 nodes) and all cells replay the
    /// identical workload.
    fn new(base_jobs: usize) -> Self {
        let mut t = SyntheticSdscSp2 {
            jobs: base_jobs,
            max_procs: 2,
            ..Default::default()
        }
        .generate(11);
        DeadlineModel::default().assign(&mut Rng64::new(12), t.jobs_mut());
        let base: Vec<Job> = t.jobs().to_vec();
        let last = base.last().map(|j| j.submit.as_secs()).unwrap_or(0.0);
        let mean_gap = (last / base.len().max(1) as f64).max(1.0);
        TiledWorkload {
            base,
            span_secs: last + mean_gap,
        }
    }

    fn base_len(&self) -> u64 {
        self.base.len() as u64
    }

    fn job(&self, i: u64) -> Job {
        let n = self.base.len() as u64;
        let b = &self.base[(i % n) as usize];
        let mut j = b.clone();
        j.id = JobId(i);
        j.submit = b.submit + SimDuration::from_secs(self.span_secs * (i / n) as f64);
        j
    }
}

/// One cell of the sharded-driver sweep: the 128-node machine split into
/// `shards` equal LibraRisk shards behind a [`ShardedRms`], replaying
/// `total_jobs` tiled arrivals end to end. Advances are chunked (once
/// per workload tile) — the facade's equivalence contract makes chunked
/// advancing outcome-identical, and rare fan-outs keep the per-advance
/// thread-scope cost amortised over many jobs. Returns aggregate
/// jobs/sec, the p99 submit latency in ns (sampled every 16th arrival),
/// and the fulfilled count as the work anchor.
fn sharded_driver_cell(shards: usize, total_jobs: u64, wl: &TiledWorkload) -> (f64, f64, u64) {
    let nodes = Cluster::sdsc_sp2().len() / shards;
    let sub_cluster = Cluster::homogeneous(nodes.max(1), 168.0);
    let mut router = ShardedRms::new(
        (0..shards)
            .map(|_| PolicyKind::LibraRisk.rms(&sub_cluster))
            .collect(),
        RouteBy::JobHash,
    )
    .expect("bench ladder never builds an empty router");
    let mut sink = OnlineReport::new();
    let base_len = wl.base_len();
    let mut samples: Vec<f64> = Vec::with_capacity((total_jobs / 16 + 1) as usize);
    let t0 = Instant::now();
    for i in 0..total_jobs {
        let job = wl.job(i);
        let now = job.submit;
        if i % 16 == 0 {
            let t = Instant::now();
            black_box(router.submit(job, now));
            samples.push(t.elapsed().as_nanos() as f64);
        } else {
            black_box(router.submit(job, now));
        }
        if (i + 1) % base_len == 0 {
            router
                .advance_with(now, |e| sink.record(e.seq, e.record))
                .expect("no shard panics in the bench ladder");
        }
    }
    router
        .drain_with(|e| sink.record(e.seq, e.record))
        .expect("no shard panics in the bench ladder");
    let secs = t0.elapsed().as_secs_f64();
    let p99 = quantile(&samples, 0.99).unwrap_or(0.0);
    (total_jobs as f64 / secs, p99, sink.fulfilled())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let decisions: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let residents: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let drain_jobs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_admission.json".to_string());
    let sharded_jobs: u64 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000_000);

    let stream = candidate_stream(3_737.min(decisions.max(1)));

    // Headline workload: the committed-baseline configuration.
    let engine = loaded_engine(residents);
    eprintln!(
        "steady-state decide loop: {decisions} decisions, {} nodes x {residents} residents",
        engine.cluster().len()
    );
    let reference_decisions = decisions.clamp(1, 500);
    let (libra_t, lr_t) = time_policies(&engine, &stream, decisions, reference_decisions);

    // Residents-per-node sweep: how the hot path scales with load.
    let sweep_levels = [2usize, 8, 32];
    let mut sweep_cells = Vec::new();
    for &level in &sweep_levels {
        let engine = loaded_engine(level);
        let cell_decisions = (decisions / 4).max(1);
        let cell_reference = decisions.clamp(1, 200);
        eprintln!("residents sweep: {level} residents/node, {cell_decisions} decisions");
        let (libra_c, lr_c) = time_policies(&engine, &stream, cell_decisions, cell_reference);
        sweep_cells.push(format!(
            "    {{ \"residents_per_node\": {level}, \"policies\": {{\n      \
             \"Libra\": {},\n      \"LibraRisk\": {}\n    }} }}",
            libra_c.json(),
            lr_c.json()
        ));
    }

    eprintln!("event loop drain: {drain_jobs} jobs");
    let (heap_events, heap_secs) = drain_events(drain_jobs, false);
    let (scan_events, scan_secs) = drain_events(drain_jobs, true);
    assert_eq!(heap_events, scan_events, "heap and scan drains diverged");
    let heap_eps = heap_events as f64 / heap_secs;
    let scan_eps = scan_events as f64 / scan_secs;
    let cached_ns = isolated_event_query(drain_jobs, false);
    let scan_ns = isolated_event_query(drain_jobs, true);

    // End-to-end replay through the unified RMS driver: both share
    // policies plus one queued and one QoPS backend.
    let driver_jobs = drain_jobs.max(1);
    eprintln!("unified driver replay: {driver_jobs}-job trace");
    let mut driver_trace = SyntheticSdscSp2 {
        jobs: driver_jobs,
        ..Default::default()
    }
    .generate(11);
    DeadlineModel::default().assign(&mut Rng64::new(12), driver_trace.jobs_mut());
    let mut driver_cells = Vec::new();
    for kind in [
        PolicyKind::Libra,
        PolicyKind::LibraRisk,
        PolicyKind::Edf,
        PolicyKind::Qops,
    ] {
        let (jps, fulfilled) = drive_trace_throughput(kind, &driver_trace);
        driver_cells.push(format!(
            "    \"{}\": {{ \"jobs_per_sec\": {jps:.0}, \"fulfilled\": {fulfilled} }}",
            kind.name()
        ));
    }

    // Sharded-driver sweep: the same machine split into {1, 4, 16, 64}
    // equal shards behind the router, replaying a tiled arrival stream.
    // The base tile is sized so a full-size run advances a few hundred
    // times (fan-out cost amortised), and scales down with the smoke
    // run's job count.
    let wl = TiledWorkload::new((sharded_jobs / 64).clamp(250, 100_000) as usize);
    let mut sharded_cells = Vec::new();
    for shards in [1usize, 4, 16, 64] {
        eprintln!("sharded driver: {shards} shard(s), {sharded_jobs} jobs");
        let (jps, p99, fulfilled) = sharded_driver_cell(shards, sharded_jobs, &wl);
        eprintln!("    {jps:.0} jobs/sec aggregate, p99 submit {p99:.0} ns, {fulfilled} fulfilled");
        sharded_cells.push(format!(
            "    {{ \"shards\": {shards}, \"jobs_per_sec\": {jps:.0}, \
             \"p99_submit_ns\": {p99:.0}, \"fulfilled\": {fulfilled} }}"
        ));
    }

    // Advance-path A/B: the same trace replayed at engine level through
    // the incremental pair and the reference oracle pair; identical
    // completion streams are asserted, so the speedup is measured across
    // two bitwise-equal executions.
    eprintln!("advance path replay: {driver_jobs}-job trace");
    let (adv_jps, mut adv_samples, adv_completions) = advance_path_replay(&driver_trace, false);
    let (ref_adv_jps, _, ref_completions) = advance_path_replay(&driver_trace, true);
    assert_eq!(
        adv_completions, ref_completions,
        "incremental and reference advance paths diverged"
    );
    let adv_count = adv_samples.len();
    adv_samples.sort_unstable();
    let adv_pct =
        |p: f64| adv_samples[((adv_samples.len() - 1) as f64 * p).round() as usize].max(1);
    let (adv_p50, adv_p99) = (adv_pct(0.50), adv_pct(0.99));
    eprintln!(
        "advance path: incremental {adv_jps:.0} vs reference {ref_adv_jps:.0} jobs/sec \
         ({adv_count} advances, p50 {adv_p50}ns p99 {adv_p99}ns)"
    );

    // Churn replay: the same trace under a seeded exponential plan (~4
    // failures per node over the span), Kill and Requeue recovery, plus
    // the fault-free overhead probe: attaching an *empty* plan must not
    // tax the steady-state driver.
    let span = driver_trace
        .jobs()
        .last()
        .map(|j| j.submit.as_secs())
        .unwrap_or(0.0)
        + 10_000.0;
    let plan = FaultPlan::exponential(
        Cluster::sdsc_sp2().len(),
        span / 4.0,
        span / 40.0,
        SimTime::from_secs(span * 1.5),
        0xFA17,
    );
    eprintln!(
        "churn driver replay: {driver_jobs}-job trace, {}-event fault plan",
        plan.len()
    );
    let mut churn_cells = Vec::new();
    for kind in [PolicyKind::LibraRisk, PolicyKind::Edf, PolicyKind::Qops] {
        let (kill_jps, _, kill_churn) = drive_trace_churn_throughput(
            kind,
            &driver_trace,
            Some((plan.clone(), RecoveryPolicy::Kill)),
        );
        let (requeue_jps, _, requeue_churn) = drive_trace_churn_throughput(
            kind,
            &driver_trace,
            Some((plan.clone(), RecoveryPolicy::Requeue)),
        );
        churn_cells.push(format!(
            "    \"{}\": {{ \"kill_jobs_per_sec\": {kill_jps:.0}, \"kills\": {}, \
             \"requeue_jobs_per_sec\": {requeue_jps:.0}, \"requeues\": {} }}",
            kind.name(),
            kill_churn.kills,
            requeue_churn.requeues,
        ));
    }
    // Checkpoint cost probe: snapshot the churn driver mid-run (half the
    // trace submitted) and time save / load / restore; the resumed run
    // must finish with exactly the unbroken run's fulfilled count, so
    // the timings are measured across a validated crash/resume cycle.
    let ckpt_cut = driver_jobs / 2;
    eprintln!("checkpoint probe: snapshot at {ckpt_cut}/{driver_jobs} jobs");
    let ckpt_drive = |rms: &mut librisk::ClusterRms<'_>, jobs: &[Job], fulfilled: &mut u64| {
        for job in jobs {
            *fulfilled += rms
                .advance(job.submit)
                .filter(|e| e.record.fulfilled())
                .count() as u64;
            rms.submit(job.clone(), job.submit);
        }
    };
    let mut unbroken_fulfilled = 0u64;
    let mut rms = PolicyKind::LibraRisk
        .rms(&Cluster::sdsc_sp2())
        .with_faults(plan.clone(), RecoveryPolicy::Requeue);
    ckpt_drive(&mut rms, driver_trace.jobs(), &mut unbroken_fulfilled);
    unbroken_fulfilled += rms.drain().filter(|e| e.record.fulfilled()).count() as u64;
    let mut resumed_fulfilled = 0u64;
    let mut rms = PolicyKind::LibraRisk
        .rms(&Cluster::sdsc_sp2())
        .with_faults(plan.clone(), RecoveryPolicy::Requeue);
    ckpt_drive(
        &mut rms,
        &driver_trace.jobs()[..ckpt_cut],
        &mut resumed_fulfilled,
    );
    const CKPT_ROUNDS: u32 = 16;
    let t0 = Instant::now();
    let mut snapshot = Vec::new();
    for _ in 0..CKPT_ROUNDS {
        snapshot = ckpt::save(&rms, None);
    }
    let ckpt_save_us = t0.elapsed().as_secs_f64() * 1e6 / CKPT_ROUNDS as f64;
    drop(rms);
    let t0 = Instant::now();
    for _ in 0..CKPT_ROUNDS {
        black_box(ckpt::load(&snapshot).expect("fresh snapshot must load"));
    }
    let ckpt_load_us = t0.elapsed().as_secs_f64() * 1e6 / CKPT_ROUNDS as f64;
    let loaded = ckpt::load(&snapshot).expect("fresh snapshot must load");
    let mut ckpt_restore_us = 0.0;
    let mut restored = None;
    for _ in 0..CKPT_ROUNDS {
        let blank = PolicyKind::LibraRisk.rms(&Cluster::sdsc_sp2());
        let t0 = Instant::now();
        let rms = loaded.restore_into(blank).expect("snapshot must restore");
        ckpt_restore_us += t0.elapsed().as_secs_f64() * 1e6 / CKPT_ROUNDS as f64;
        restored = Some(rms);
    }
    let mut rms = restored.expect("restore rounds ran");
    ckpt_drive(
        &mut rms,
        &driver_trace.jobs()[ckpt_cut..],
        &mut resumed_fulfilled,
    );
    resumed_fulfilled += rms.drain().filter(|e| e.record.fulfilled()).count() as u64;
    assert_eq!(
        unbroken_fulfilled, resumed_fulfilled,
        "checkpoint/resume diverged from the unbroken churn run"
    );
    eprintln!(
        "checkpoint: {} byte snapshot, save {ckpt_save_us:.0}us load {ckpt_load_us:.0}us \
         restore {ckpt_restore_us:.0}us ({unbroken_fulfilled} fulfilled both arms)",
        snapshot.len()
    );

    // Overhead probe: interleaved paired rounds, the same discipline the
    // obs probe uses. Running plain and empty-plan back to back inside
    // each round means a contended stretch of wall clock slows both arms
    // of that round's ratio alike; sequential best-of-N (the old shape)
    // let the arm that happened to run second inherit warmer caches and
    // a quieter machine, which is how a *pure bookkeeping no-op* once
    // "sped up" the driver by 5% in the committed numbers.
    const FF_ROUNDS: usize = 7;
    let mut ff_ratios = [0.0f64; FF_ROUNDS];
    let mut plain_jps = 0.0f64;
    let mut empty_jps = 0.0f64;
    let mut ff_fulfilled: Option<(u64, u64)> = None;
    for ratio in ff_ratios.iter_mut() {
        let (p, pf, _) = drive_trace_churn_throughput(PolicyKind::LibraRisk, &driver_trace, None);
        let (e, ef, _) = drive_trace_churn_throughput(
            PolicyKind::LibraRisk,
            &driver_trace,
            Some((FaultPlan::empty(), RecoveryPolicy::Requeue)),
        );
        let (pf0, ef0) = *ff_fulfilled.get_or_insert((pf, ef));
        assert_eq!((pf, ef), (pf0, ef0), "replays are deterministic");
        plain_jps = plain_jps.max(p);
        empty_jps = empty_jps.max(e);
        *ratio = e / p;
    }
    let (plain_fulfilled, empty_fulfilled) = ff_fulfilled.expect("probe ran");
    assert_eq!(
        plain_fulfilled, empty_fulfilled,
        "an empty fault plan must not change outcomes"
    );
    let overhead_ratio = ff_ratios.iter().sum::<f64>() / FF_ROUNDS as f64;
    let overhead_ratio_min = ff_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "fault-free overhead: plain {plain_jps:.0} vs empty-plan {empty_jps:.0} jobs/sec \
         (ratio mean {overhead_ratio:.3} min {overhead_ratio_min:.3})"
    );
    assert!(
        overhead_ratio > 0.75,
        "empty fault plan costs more than 25% driver throughput (ratio {overhead_ratio:.3})"
    );

    // Observability overhead probe: the same replay with no recorder,
    // the disabled `NoopRecorder`, a default ring `TraceRecorder`, and
    // a ring with per-decision policy audit gauges enabled (the one
    // deliberately expensive hook — it re-walks cluster risk around
    // every decision). Outcomes must agree exactly (recorders are
    // inert) and the default ring must stay within a few percent of
    // plain throughput.
    // A sub-millisecond replay cannot resolve a few-percent ratio, so
    // the probe keeps a 2000-job floor even when the smoke run shrinks
    // the driver sections.
    let obs_jobs = driver_jobs.max(2_000);
    let obs_trace_storage;
    let obs_trace: &Trace = if obs_jobs == driver_jobs {
        &driver_trace
    } else {
        let mut t = SyntheticSdscSp2 {
            jobs: obs_jobs,
            ..Default::default()
        }
        .generate(11);
        DeadlineModel::default().assign(&mut Rng64::new(12), t.jobs_mut());
        obs_trace_storage = t;
        &obs_trace_storage
    };
    eprintln!("obs overhead probe: {obs_jobs}-job replay, 4 recorder modes");
    // Interleaved rounds, best-per-mode: scheduler drift hits all four
    // modes alike instead of biasing whichever batch ran in a quiet
    // window.
    // (name, runner, best jobs/sec so far, fulfilled count pin)
    #[allow(clippy::type_complexity)]
    let mut modes: [(&str, Box<dyn FnMut() -> (f64, u64)>, f64, Option<u64>); 4] = [
        (
            "plain",
            Box::new(|| drive_trace_obs_throughput(PolicyKind::LibraRisk, obs_trace, None)),
            0.0,
            None,
        ),
        (
            "noop",
            Box::new(|| {
                let mut rec = obs::NoopRecorder;
                drive_trace_obs_throughput(PolicyKind::LibraRisk, obs_trace, Some(&mut rec))
            }),
            0.0,
            None,
        ),
        (
            "ring",
            Box::new(|| {
                let mut rec = obs::TraceRecorder::new(1 << 16);
                drive_trace_obs_throughput(PolicyKind::LibraRisk, obs_trace, Some(&mut rec))
            }),
            0.0,
            None,
        ),
        (
            "gauged",
            Box::new(|| {
                let mut rec = obs::TraceRecorder::new(1 << 16).with_audit_gauges();
                drive_trace_obs_throughput(PolicyKind::LibraRisk, obs_trace, Some(&mut rec))
            }),
            0.0,
            None,
        ),
    ];
    const ROUNDS: usize = 9;
    let mut rounds = [[0.0f64; 4]; ROUNDS];
    for round in rounds.iter_mut() {
        for (slot, (name, f, best, fulfilled)) in round.iter_mut().zip(modes.iter_mut()) {
            let (jps, got) = f();
            assert_eq!(
                *fulfilled.get_or_insert(got),
                got,
                "{name}: replays are deterministic"
            );
            *best = best.max(jps);
            *slot = jps;
        }
    }
    // Per-round ratios against the plain replay of the *same* round (a
    // contended stretch slows both sides of a pair alike). The regression
    // gate reads the *median* round — a single quiet (or noisy) round out
    // of nine can no longer decide the verdict — and the minimum is
    // reported alongside as the honest worst case.
    let ratio_stats = |mode: usize| -> (f64, f64) {
        let mut rs: Vec<f64> = rounds.iter().map(|r| r[mode] / r[0]).collect();
        rs.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        (rs[rs.len() / 2], rs[0])
    };
    let (obs_plain_jps, obs_plain_fulfilled) = (modes[0].2, modes[0].3.unwrap());
    let (noop_jps, noop_fulfilled) = (modes[1].2, modes[1].3.unwrap());
    let (ring_jps, ring_fulfilled) = (modes[2].2, modes[2].3.unwrap());
    let (gauged_jps, gauged_fulfilled) = (modes[3].2, modes[3].3.unwrap());
    assert_eq!(
        obs_plain_fulfilled, noop_fulfilled,
        "a noop recorder must not change outcomes"
    );
    assert_eq!(
        obs_plain_fulfilled, ring_fulfilled,
        "a ring recorder must not change outcomes"
    );
    assert_eq!(
        obs_plain_fulfilled, gauged_fulfilled,
        "audit gauges must not change outcomes"
    );
    let (noop_ratio, noop_ratio_min) = ratio_stats(1);
    let (ring_ratio, ring_ratio_min) = ratio_stats(2);
    let (gauged_ratio, gauged_ratio_min) = ratio_stats(3);
    let ring_overhead_pct = (1.0 - ring_ratio) * 100.0;
    // One final instrumented run to report the recorded decide latency.
    let mut latency_rec = obs::TraceRecorder::new(1 << 16);
    drive_trace_obs_throughput(PolicyKind::LibraRisk, obs_trace, Some(&mut latency_rec));
    let decide_ns_mean = latency_rec
        .registry()
        .histogram(obs::keys::DECIDE_LATENCY)
        .map_or(0.0, |h| h.mean());
    eprintln!(
        "obs overhead: plain {obs_plain_jps:.0} vs noop {noop_jps:.0} \
         (ratio median {noop_ratio:.3} min {noop_ratio_min:.3}) \
         vs ring {ring_jps:.0} (ratio median {ring_ratio:.3} min {ring_ratio_min:.3}, \
         {ring_overhead_pct:.1}% overhead) \
         vs gauged ring {gauged_jps:.0} jobs/sec (ratio {gauged_ratio:.3})"
    );
    // Regression tripwire with noise headroom, gated on the median round;
    // the committed full-size run is the record of the actual (≈0%)
    // overhead.
    assert!(
        ring_ratio > 0.90,
        "ring recorder costs more than 10% driver throughput (median ratio {ring_ratio:.3})"
    );
    assert!(
        noop_ratio > 0.90,
        "noop recorder costs more than 10% driver throughput (median ratio {noop_ratio:.3})"
    );

    // Phase-profiler overhead probe: the same replay with the process
    // global profiler off and on, interleaved pairs like the recorder
    // probe (a contended stretch slows both arms of a round alike).
    // Enabled, every advance pays lap marks and a TLS flush and every
    // decision pays nested spans — the budget is the same 10% gate the
    // recorders get, and outcomes must not move at all.
    eprintln!("profiler overhead probe: {obs_jobs}-job replay, off vs on");
    const PF_ROUNDS: usize = 9;
    let mut pf_rounds = [[0.0f64; 2]; PF_ROUNDS];
    let mut pf_off_jps = 0.0f64;
    let mut pf_on_jps = 0.0f64;
    let mut pf_fulfilled: Option<(u64, u64)> = None;
    let mut pf_coverage = 0.0f64;
    for round in pf_rounds.iter_mut() {
        obs::phase::set_enabled(false);
        let (off, off_f) = drive_trace_throughput(PolicyKind::LibraRisk, obs_trace);
        obs::phase::reset();
        obs::phase::set_enabled(true);
        let (on, on_f) = drive_trace_throughput(PolicyKind::LibraRisk, obs_trace);
        obs::phase::set_enabled(false);
        let snap = obs::phase::snapshot();
        let advance_ns = snap.ns(obs::phase::Phase::AdvanceTotal).max(1);
        let tiled: u64 = [
            obs::phase::Phase::EventHeapPop,
            obs::phase::Phase::ProgressPass,
            obs::phase::Phase::RecomputeSweep,
            obs::phase::Phase::CompletionEmit,
        ]
        .iter()
        .map(|&p| snap.ns(p))
        .sum();
        pf_coverage = tiled as f64 / advance_ns as f64;
        obs::phase::reset();
        let (off0, on0) = *pf_fulfilled.get_or_insert((off_f, on_f));
        assert_eq!((off_f, on_f), (off0, on0), "replays are deterministic");
        pf_off_jps = pf_off_jps.max(off);
        pf_on_jps = pf_on_jps.max(on);
        *round = [off, on];
    }
    let (pf_off_fulfilled, pf_on_fulfilled) = pf_fulfilled.expect("probe ran");
    assert_eq!(
        pf_off_fulfilled, pf_on_fulfilled,
        "enabling the phase profiler must not change outcomes"
    );
    let mut pf_ratios: Vec<f64> = pf_rounds.iter().map(|r| r[1] / r[0]).collect();
    pf_ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let profiler_ratio = pf_ratios[pf_ratios.len() / 2];
    let profiler_ratio_min = pf_ratios[0];
    eprintln!(
        "profiler overhead: off {pf_off_jps:.0} vs on {pf_on_jps:.0} jobs/sec \
         (ratio median {profiler_ratio:.3} min {profiler_ratio_min:.3}, \
         advance coverage {:.1}%)",
        pf_coverage * 100.0
    );
    assert!(
        profiler_ratio > 0.90,
        "phase profiler costs more than 10% driver throughput (median ratio {profiler_ratio:.3})"
    );
    assert!(
        pf_coverage >= 0.90,
        "phase taxonomy covers only {:.1}% of the advance bracket",
        pf_coverage * 100.0
    );

    // Equivalence-classifier probe: the headline workload re-driven with
    // the pre-kernel classifier off and on, each decision preceded by a
    // tiny epoch-moving advance so every occupied node's cache goes
    // stale and the per-decision evaluation volume is real. The interesting
    // numbers are distinct profiles projected per decision (the classifier
    // collapses equal-signature nodes to one kernel run) and the fraction
    // of node evaluations settled without the kernel at all.
    let eq_decisions = (decisions / 4).clamp(256, 4_096);
    eprintln!(
        "equivalence probe: {eq_decisions} decisions, {residents} residents/node, \
         classifier off vs on"
    );
    let eq_arms: Vec<String> = [false, true]
        .iter()
        .map(|&classifier| {
            let mut engine = loaded_engine(residents);
            let mut lr = LibraRisk::paper().with_classifier(classifier);
            for j in &stream {
                black_box(lr.decide(&engine, j));
            }
            let mut agg = librisk::policy::DecisionStats::default();
            let mut counted = 0u64;
            for i in 0..eq_decisions {
                // Nudge the clock well inside the next event gap: the
                // global epoch moves (caches go stale) but residency never
                // changes, so every arm sees the identical load shape.
                let now = engine.now();
                let gap = engine
                    .next_event_time()
                    .map(|t| (t - now).as_secs())
                    .unwrap_or(1.0);
                engine.advance(now + SimDuration::from_secs((gap * 1e-4).clamp(1e-6, 1.0)));
                black_box(lr.decide(&engine, &stream[i % stream.len()]));
                if let Some(s) = lr.last_decision_stats() {
                    agg.nodes_considered += s.nodes_considered;
                    agg.projections_run += s.projections_run;
                    agg.screen_hits += s.screen_hits;
                    agg.class_hits += s.class_hits;
                    agg.pairing_hits += s.pairing_hits;
                    agg.kernel_bails += s.kernel_bails;
                    agg.distinct_classes += s.distinct_classes;
                    counted += 1;
                }
            }
            let n = counted.max(1) as f64;
            let avoided = agg.projections_avoided();
            let avoided_ratio = avoided as f64 / (agg.nodes_considered.max(1)) as f64;
            eprintln!(
                "    classifier {}: {:.2} profiles/decision, {:.2} classes/decision, \
                 {:.1}% of node evaluations avoided the kernel",
                if classifier { "on " } else { "off" },
                agg.projections_run as f64 / n,
                agg.distinct_classes as f64 / n,
                avoided_ratio * 100.0,
            );
            format!(
                "    \"classifier_{}\": {{ \"decisions\": {counted}, \
                 \"nodes_considered\": {}, \"projections_run\": {}, \
                 \"projections_avoided\": {avoided}, \
                 \"profiles_per_decision\": {:.2}, \
                 \"classes_per_decision\": {:.2}, \
                 \"avoided_ratio\": {avoided_ratio:.3}, \
                 \"screen_hits\": {}, \"class_hits\": {}, \"pairing_hits\": {}, \
                 \"kernel_bails\": {} }}",
                if classifier { "on" } else { "off" },
                agg.nodes_considered,
                agg.projections_run,
                agg.projections_run as f64 / n,
                agg.distinct_classes as f64 / n,
                agg.screen_hits,
                agg.class_hits,
                agg.pairing_hits,
                agg.kernel_bails,
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"decisions\": {decisions},\n  \"residents_per_node\": {residents},\n  \
         \"policies\": {{\n    \
         \"Libra\": {},\n    \
         \"LibraRisk\": {}\n  }},\n  \
         \"residents_sweep\": [\n{}\n  ],\n  \
         \"event_loop\": {{ \"events\": {heap_events}, \
         \"heap_events_per_sec\": {heap_eps:.0}, \
         \"scan_events_per_sec\": {scan_eps:.0}, \
         \"speedup\": {:.2}, \
         \"isolated_cached_ns_per_call\": {cached_ns:.1}, \
         \"isolated_scan_ns_per_call\": {scan_ns:.1}, \
         \"isolated_speedup\": {:.1} }},\n  \
         \"unified_driver\": {{ \"jobs\": {driver_jobs}, \"policies\": {{\n{}\n  }} }},\n  \
         \"sharded_driver\": {{ \"total_jobs\": {sharded_jobs}, \"route\": \"JobHash\", \
         \"policy\": \"LibraRisk\", \"cells\": [\n{}\n  ] }},\n  \
         \"advance_path\": {{ \"jobs\": {driver_jobs}, \"advances\": {adv_count}, \
         \"incremental_jobs_per_sec\": {adv_jps:.0}, \
         \"reference_jobs_per_sec\": {ref_adv_jps:.0}, \
         \"speedup\": {:.2}, \
         \"advance_ns_p50\": {adv_p50}, \"advance_ns_p99\": {adv_p99} }},\n  \
         \"churn_driver\": {{ \"jobs\": {driver_jobs}, \"fault_events\": {}, \"policies\": {{\n{}\n  }} }},\n  \
         \"fault_free_overhead\": {{ \"plain_jobs_per_sec\": {plain_jps:.0}, \
         \"empty_plan_jobs_per_sec\": {empty_jps:.0}, \"ratio\": {overhead_ratio:.3}, \
         \"ratio_min\": {overhead_ratio_min:.3} }},\n  \
         \"checkpoint\": {{ \"jobs\": {driver_jobs}, \"cut\": {ckpt_cut}, \
         \"snapshot_bytes\": {}, \"save_us\": {ckpt_save_us:.1}, \
         \"load_us\": {ckpt_load_us:.1}, \"restore_us\": {ckpt_restore_us:.1}, \
         \"fulfilled\": {resumed_fulfilled} }},\n  \
         \"equivalence\": {{\n{}\n  }},\n  \
         \"obs_overhead\": {{ \"plain_jobs_per_sec\": {obs_plain_jps:.0}, \
         \"noop_jobs_per_sec\": {noop_jps:.0}, \"ring_jobs_per_sec\": {ring_jps:.0}, \
         \"gauged_ring_jobs_per_sec\": {gauged_jps:.0}, \
         \"noop_ratio\": {noop_ratio:.3}, \"noop_ratio_min\": {noop_ratio_min:.3}, \
         \"ring_ratio\": {ring_ratio:.3}, \"ring_ratio_min\": {ring_ratio_min:.3}, \
         \"gauged_ring_ratio\": {gauged_ratio:.3}, \
         \"gauged_ring_ratio_min\": {gauged_ratio_min:.3}, \
         \"ring_overhead_pct\": {ring_overhead_pct:.1}, \
         \"decide_ns_mean\": {decide_ns_mean:.0} }},\n  \
         \"profiler_overhead\": {{ \"jobs\": {obs_jobs}, \
         \"off_jobs_per_sec\": {pf_off_jps:.0}, \"on_jobs_per_sec\": {pf_on_jps:.0}, \
         \"ratio\": {profiler_ratio:.3}, \"ratio_min\": {profiler_ratio_min:.3}, \
         \"advance_coverage\": {pf_coverage:.3} }}\n}}\n",
        libra_t.json(),
        lr_t.json(),
        sweep_cells.join(",\n"),
        heap_eps / scan_eps,
        scan_ns / cached_ns,
        driver_cells.join(",\n"),
        sharded_cells.join(",\n"),
        adv_jps / ref_adv_jps,
        plan.len(),
        churn_cells.join(",\n"),
        snapshot.len(),
        eq_arms.join(",\n"),
    );
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");
}
