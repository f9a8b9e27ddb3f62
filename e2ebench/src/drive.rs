//! The closed-loop drives: one caller replays the virtual-time trace
//! through the public facade (or the shard router), making each call
//! only after the previous one has returned.
//!
//! Per arrival the caller advances to the arrival instant, records the
//! outcomes that streamed out, and submits the job. After the last
//! arrival it drains. Every call into the library is timed from here
//! when spans are on; `submit` is always timed, since its latency is an
//! end-to-end metric, and so is every arrival's whole step.

use crate::spans::{Layer, Spans, NO_JOB};
use crate::workloads::{Kind, Setup, CKPT_EVERY, RING_CAPACITY};
use librisk::report::ReportSink;
use librisk::{
    ckpt, ChurnStats, ClusterRms, Decision, JobEvent, OnlineReport, Outcome, PolicyKind,
    RejectReason, RouterError, ShardedRms, TraceRecorder,
};
use sim::SimTime;
use std::time::Instant;
use workload::Job;

/// A front end the caller drives: the unsharded facade or the router.
trait Front {
    const SUBMIT: Layer;
    const ADVANCE: Layer;
    const DRAIN: Layer;
    fn submit(&mut self, job: Job, now: SimTime) -> Decision;
    fn advance(&mut self, to: SimTime, out: &mut Vec<JobEvent>) -> Result<(), RouterError>;
    fn drain(&mut self, out: &mut Vec<JobEvent>) -> Result<(), RouterError>;
    fn in_flight(&self) -> usize;
    fn utilization(&self) -> f64;
    fn churn(&self) -> ChurnStats;
}

impl Front for ClusterRms<'_> {
    const SUBMIT: Layer = Layer::RmsSubmit;
    const ADVANCE: Layer = Layer::RmsAdvance;
    const DRAIN: Layer = Layer::RmsDrain;
    fn submit(&mut self, job: Job, now: SimTime) -> Decision {
        ClusterRms::submit(self, job, now)
    }
    fn advance(&mut self, to: SimTime, out: &mut Vec<JobEvent>) -> Result<(), RouterError> {
        out.extend(ClusterRms::advance(self, to));
        Ok(())
    }
    fn drain(&mut self, out: &mut Vec<JobEvent>) -> Result<(), RouterError> {
        out.extend(ClusterRms::drain(self));
        Ok(())
    }
    fn in_flight(&self) -> usize {
        ClusterRms::in_flight(self)
    }
    fn utilization(&self) -> f64 {
        ClusterRms::utilization(self)
    }
    fn churn(&self) -> ChurnStats {
        *ClusterRms::churn(self)
    }
}

impl Front for ShardedRms<'_> {
    const SUBMIT: Layer = Layer::RouterSubmit;
    const ADVANCE: Layer = Layer::RouterAdvance;
    const DRAIN: Layer = Layer::RouterDrain;
    fn submit(&mut self, job: Job, now: SimTime) -> Decision {
        ShardedRms::submit(self, job, now)
    }
    fn advance(&mut self, to: SimTime, out: &mut Vec<JobEvent>) -> Result<(), RouterError> {
        self.advance_with(to, |e| out.push(e))
    }
    fn drain(&mut self, out: &mut Vec<JobEvent>) -> Result<(), RouterError> {
        self.drain_with(|e| out.push(e))
    }
    fn in_flight(&self) -> usize {
        ShardedRms::in_flight(self)
    }
    fn utilization(&self) -> f64 {
        ShardedRms::utilization(self)
    }
    fn churn(&self) -> ChurnStats {
        ShardedRms::churn(self)
    }
}

/// Everything one drive measured and decided.
pub struct Drive {
    /// Spans of the drive (empty when spans were off).
    pub spans: Spans,
    /// Wall time of the whole drive (submit, advance, drain, sink), s.
    pub wall_s: f64,
    /// Per-call `submit` latency, ns, in submission order.
    pub submit_ns: Vec<u64>,
    /// Wall time of each arrival's step, ns, in submission order: from
    /// the end of the previous `submit` (or the drive's start) to the
    /// end of this one, so it holds the advance, the recording and the
    /// submit. One more entry holds the drain. They add up to `wall_s`.
    pub step_ns: Vec<u64>,
    /// Whether each job (by submission order) was accepted at submit.
    pub accepted: Vec<bool>,
    /// Whether each job met its deadline.
    pub fulfilled: Vec<bool>,
    /// How many outcomes streamed out for each job.
    pub times_resolved: Vec<u8>,
    /// Outcomes for sequence numbers that were never submitted.
    pub stray: u64,
    /// `InvalidJob` rejections.
    pub invalid: u64,
    /// Advance or drain calls the router failed.
    pub router_errors: u64,
    /// The streaming sink the outcomes were recorded into.
    pub sink: OnlineReport,
    /// Advance calls made, and events they streamed.
    pub advance_calls: u64,
    /// Events streamed by advance calls (drain excluded).
    pub advance_events: u64,
    /// In-flight jobs seen by each arrival, summed.
    pub in_flight_sum: u64,
    /// Latest resolution instant, s.
    pub last_resolution_s: f64,
    /// Mean processor utilisation after the drain.
    pub utilization: f64,
    /// Churn aggregates after the drain.
    pub churn: ChurnStats,
    /// Checkpoints saved, and their summed size.
    pub saves: u64,
    /// Summed checkpoint size, bytes.
    pub save_bytes: u64,
    /// Duration of the crash drill's load + restore, µs (0 without one).
    pub restore_us: f64,
    /// Share of recorded events the ring evicted (0 without a ring).
    pub ring_dropped_ratio: f64,
    buf: Vec<JobEvent>,
    started: Instant,
    step_start: Instant,
}

impl Drive {
    fn new(jobs: usize, traced: bool) -> Drive {
        Drive {
            spans: if traced {
                Spans::on(jobs * 5)
            } else {
                Spans::off()
            },
            wall_s: 0.0,
            submit_ns: Vec::with_capacity(jobs),
            step_ns: Vec::with_capacity(jobs + 1),
            accepted: vec![false; jobs],
            fulfilled: vec![false; jobs],
            times_resolved: vec![0; jobs],
            stray: 0,
            invalid: 0,
            router_errors: 0,
            sink: OnlineReport::new(),
            advance_calls: 0,
            advance_events: 0,
            in_flight_sum: 0,
            last_resolution_s: 0.0,
            utilization: 0.0,
            churn: ChurnStats::default(),
            saves: 0,
            save_bytes: 0,
            restore_us: 0.0,
            ring_dropped_ratio: 0.0,
            buf: Vec::new(),
            started: Instant::now(),
            step_start: Instant::now(),
        }
    }

    fn start(&mut self) {
        self.spans.open_root(Layer::Drive);
        self.started = Instant::now();
        self.step_start = self.started;
    }

    /// Closes the current step at `now`.
    fn end_step(&mut self, now: Instant) {
        self.step_ns
            .push(now.duration_since(self.step_start).as_nanos() as u64);
        self.step_start = now;
    }

    /// Records the buffered outcomes into the benchmark's books, then
    /// into the sink. Only the sink calls are the `report.record` span.
    fn record_batch(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        for e in &self.buf {
            match self.times_resolved.get_mut(e.seq as usize) {
                Some(n) => *n = n.saturating_add(1),
                None => self.stray += 1,
            }
            if e.record.fulfilled() {
                if let Some(f) = self.fulfilled.get_mut(e.seq as usize) {
                    *f = true;
                }
            }
            if let Outcome::Rejected { reason, .. } = e.record.outcome {
                if reason == RejectReason::InvalidJob {
                    self.invalid += 1;
                }
            }
            self.last_resolution_s = self
                .last_resolution_s
                .max(e.record.outcome.resolved_at().as_secs());
        }
        let t = self.spans.start();
        for e in self.buf.drain(..) {
            self.sink.record(e.seq, e.record);
        }
        self.spans.end(Layer::ReportRecord, t, NO_JOB);
    }

    /// One arrival: advance to its instant, record what resolved,
    /// submit it.
    fn arrive<F: Front>(&mut self, front: &mut F, seq: usize, job: &Job) {
        let now = job.submit;
        let id = job.id.0;
        let t = self.spans.start();
        let advanced = front.advance(now, &mut self.buf);
        self.spans.end(F::ADVANCE, t, id);
        self.router_errors += u64::from(advanced.is_err());
        self.advance_calls += 1;
        self.advance_events += self.buf.len() as u64;
        self.record_batch();
        self.in_flight_sum += front.in_flight() as u64;
        let job = job.clone();
        let t0 = Instant::now();
        let decision = front.submit(job, now);
        let t1 = Instant::now();
        self.submit_ns.push(t1.duration_since(t0).as_nanos() as u64);
        self.end_step(t1);
        self.spans.record(F::SUBMIT, t0, t1, id);
        self.accepted[seq] = decision == Decision::Accepted;
    }

    fn finish<F: Front>(&mut self, front: &mut F) {
        let t = self.spans.start();
        let drained = front.drain(&mut self.buf);
        self.spans.end(F::DRAIN, t, NO_JOB);
        self.router_errors += u64::from(drained.is_err());
        self.record_batch();
        let end = Instant::now();
        self.end_step(end);
        self.wall_s = end.duration_since(self.started).as_secs_f64();
        self.spans.close_root();
        self.utilization = front.utilization();
        self.churn = front.churn();
    }

    fn save(&mut self, rms: &ClusterRms<'_>) -> Vec<u8> {
        let t0 = Instant::now();
        let bytes = ckpt::save(rms, Some(&self.sink));
        self.spans
            .record(Layer::CkptSave, t0, Instant::now(), NO_JOB);
        self.saves += 1;
        self.save_bytes += bytes.len() as u64;
        bytes
    }

    /// Jobs submitted.
    pub fn submitted(&self) -> u64 {
        self.submit_ns.len() as u64
    }

    /// Jobs accepted at submission.
    pub fn accepted_count(&self) -> u64 {
        self.accepted.iter().filter(|&&a| a).count() as u64
    }

    /// Jobs whose deadline was met.
    pub fn fulfilled_count(&self) -> u64 {
        self.sink.fulfilled()
    }

    /// Outcomes streamed (each job should have exactly one).
    pub fn resolved_count(&self) -> u64 {
        self.times_resolved
            .iter()
            .map(|&n| u64::from(n))
            .sum::<u64>()
            + self.stray
    }

    /// Failed operations: jobs that never resolved or resolved more
    /// than once, outcomes for unknown jobs, `InvalidJob` rejections
    /// and router errors. Rejections and missed deadlines are outcomes,
    /// not failures.
    pub fn failed(&self) -> u64 {
        let wrong = self.times_resolved.iter().filter(|&&n| n != 1).count() as u64;
        wrong + self.stray + self.invalid + self.router_errors
    }

    /// Submitted jobs per wall-clock second.
    pub fn jobs_per_s(&self) -> f64 {
        self.submitted() as f64 / self.wall_s
    }

    /// The counts two drives of one workload must agree on.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.accepted_count(),
            self.fulfilled_count(),
            self.resolved_count(),
        )
    }
}

/// Drives `jobs` through `front` from its current (blank) state.
fn replay<F: Front>(front: &mut F, jobs: &[Job], traced: bool) -> Drive {
    let mut d = Drive::new(jobs.len(), traced);
    d.start();
    for (seq, job) in jobs.iter().enumerate() {
        d.arrive(front, seq, job);
    }
    d.finish(front);
    d
}

/// Drives `jobs` through a fresh unsharded facade.
pub fn facade(rms: ClusterRms<'_>, jobs: &[Job], traced: bool) -> Drive {
    let mut rms = rms;
    replay(&mut rms, jobs, traced)
}

/// One drive of a workload. `drill` makes `operated` crash right after
/// its middle checkpoint and resume from it; other workloads ignore it.
pub fn run(setup: &Setup, traced: bool, drill: bool) -> Result<Drive, String> {
    let jobs = setup.trace.jobs();
    match setup.kind {
        Kind::Paper | Kind::Overload => Ok(facade(setup.rms(), jobs, traced)),
        Kind::ShardedOnline => Ok(replay(&mut Setup::router(), jobs, traced)),
        Kind::Operated => operated(setup, traced, drill),
    }
}

/// Where the crash drill cuts: right after the middle checkpoint.
pub fn drill_cut(jobs: usize) -> usize {
    (jobs / CKPT_EVERY / 2).max(1) * CKPT_EVERY
}

fn operated(setup: &Setup, traced: bool, drill: bool) -> Result<Drive, String> {
    let jobs = setup.trace.jobs();
    let cut = if drill {
        drill_cut(jobs.len()).min(jobs.len())
    } else {
        jobs.len()
    };
    let mut d = Drive::new(jobs.len(), traced);
    let mut ring = TraceRecorder::new(RING_CAPACITY);
    let mut rms = setup.rms().with_recorder(&mut ring);
    d.start();
    let mut last = Vec::new();
    for (seq, job) in jobs[..cut].iter().enumerate() {
        d.arrive(&mut rms, seq, job);
        if (seq + 1) % CKPT_EVERY == 0 {
            last = d.save(&rms);
        }
    }
    if cut == jobs.len() {
        d.finish(&mut rms);
        drop(rms);
        d.ring_dropped_ratio = dropped_ratio(&ring);
        return Ok(d);
    }
    // The crash: the live RMS, its ring and its sink are lost; the
    // front end resumes from the checkpoint it saved last.
    drop(rms);
    let t0 = Instant::now();
    let loaded = ckpt::load(&last).map_err(|e| format!("crash drill load: {e}"))?;
    let mut ring = loaded
        .recorder()
        .ok_or("crash drill: checkpoint carries no ring")?;
    let blank = PolicyKind::LibraRisk
        .rms(&setup.cluster)
        .with_recorder(&mut ring);
    let mut rms = loaded
        .restore_into(blank)
        .map_err(|e| format!("crash drill restore: {e}"))?;
    d.sink = loaded
        .report()
        .ok_or("crash drill: checkpoint carries no report")?;
    let t1 = Instant::now();
    d.spans.record(Layer::CkptRestore, t0, t1, NO_JOB);
    d.restore_us = t1.duration_since(t0).as_secs_f64() * 1e6;
    for (seq, job) in jobs.iter().enumerate().skip(cut) {
        d.arrive(&mut rms, seq, job);
        if (seq + 1) % CKPT_EVERY == 0 {
            d.save(&rms);
        }
    }
    d.finish(&mut rms);
    drop(rms);
    d.ring_dropped_ratio = dropped_ratio(&ring);
    Ok(d)
}

fn dropped_ratio(ring: &TraceRecorder) -> f64 {
    let seen = ring.dropped() + ring.len() as u64;
    ring.dropped() as f64 / seen.max(1) as f64
}
