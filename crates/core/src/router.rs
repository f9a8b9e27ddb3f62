//! The shard router: N independent [`ClusterRms`] instances behind one
//! submit/advance/drain facade.
//!
//! The unified driver is advance-bound at roughly 10⁵ jobs/s per
//! `ClusterRms`, so the next order of magnitude comes from running many
//! RMS instances, not from a cheaper kernel. [`ShardedRms`] owns N
//! shards — each a full [`ClusterRms`] over its own slice of the
//! machine — routes every arrival to exactly one shard
//! ([`RouteBy::JobHash`], [`RouteBy::LeastLoaded`] or
//! [`RouteBy::RoundRobin`]), and fans `advance`/`drain` out: shards
//! 1..N each run on a scoped thread and shard 0 on the caller's thread.
//! Each shard collects its resolved [`JobEvent`]s, with every `seq`
//! remapped to the router-wide submission order, into a buffer the
//! router keeps between calls. After the join, one k-way merge emits
//! the union of the buffers in resolution-timestamp order.
//!
//! # Why sharding preserves the paper's semantics
//!
//! The Libra economy model is per-cluster by construction: an admission
//! decision consults only the shares (or risk projections) of the nodes
//! inside one cluster. A shard therefore behaves *exactly* like an
//! independent `ClusterRms` over its sub-cluster — same decisions, same
//! outcomes, bitwise. With [`RouteBy::JobHash`] the placement of a job
//! depends only on its id, so an N-shard run is structurally equal to
//! the union of N independent single-shard runs over the same
//! partition of the workload (property-tested in
//! `tests/sharded_rms.rs`, and a 1-shard router reproduces the plain
//! facade bitwise).
//!
//! # Why buffers, not streams
//!
//! A shard's [`ClusterRms::advance`] resolves its whole burst before it
//! yields the first event, so streaming the events out while other
//! shards still work could neither start earlier nor hold less memory
//! than buffering them. Buffering lets the merge run once, after the
//! join, with no locks; a 1-shard router spawns no thread at all.

use crate::report::ChurnStats;
use crate::rms::{ClusterRms, Decision, JobEvent};
use sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::{Job, JobId};

/// A structured router failure: construction without shards, or a shard
/// that panicked mid-fan-out. The second case is the router's crash
/// containment — a panicking shard degrades into an error on the
/// caller's thread instead of unwinding through the fan-out and losing
/// the other shards' events.
#[derive(Debug)]
pub enum RouterError {
    /// [`ShardedRms::new`] was given an empty shard vector.
    NoShards,
    /// A shard panicked during `advance`/`drain` — on its scoped thread
    /// or, for shard 0, on the caller's thread. Returned after the merge:
    /// every other shard's events, and whatever the failed shard
    /// buffered before its panic, were already emitted. The named
    /// shard's state must be considered corrupt (rebuild or restore it
    /// from a checkpoint before further use). If several shards panic,
    /// the lowest index is reported.
    ShardPanicked {
        /// Index of the shard that panicked.
        shard: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NoShards => write!(f, "a sharded RMS needs at least one shard"),
            RouterError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// How the router places an arrival onto a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteBy {
    /// Stable hash of the job id ([`job_hash_shard`]). Placement depends
    /// only on the job itself, so an N-shard run equals the union of N
    /// independent single-shard runs — the property the differential
    /// suite pins.
    JobHash,
    /// The shard with the fewest in-flight jobs (ties to the lowest
    /// index). Placement depends on run history; throughput-oriented.
    LeastLoaded,
    /// Strict rotation over shards in index order.
    RoundRobin,
}

/// The stable [`RouteBy::JobHash`] placement: a Fibonacci hash of the
/// job id's high mixing bits, reduced modulo the shard count. Exposed so
/// tests (and external drivers) can reproduce the partition a router
/// will choose.
pub fn job_hash_shard(id: JobId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards
}

/// N [`ClusterRms`] shards behind one online facade: route-on-submit,
/// fan-out-and-merge on advance/drain. See the module docs for the
/// fan-out and the semantics argument.
pub struct ShardedRms<'p> {
    pub(crate) shards: Vec<ClusterRms<'p>>,
    pub(crate) route: RouteBy,
    pub(crate) next_rr: usize,
    pub(crate) next_seq: u64,
    /// Per shard: local submission seq → router-wide submission seq.
    /// Every resolved event is remapped through this table, so merged
    /// [`JobEvent::seq`] values are global submission order.
    pub(crate) global_of: Vec<Vec<u64>>,
    /// Per shard: the events of the fan-out in progress, seqs already
    /// global. Empty between calls; kept to reuse the capacity.
    bufs: Vec<Vec<JobEvent>>,
    /// Churn aggregates inherited from shards that were retired by a
    /// shrinking reshard restore (see [`crate::ckpt::restore_sharded`]);
    /// folded into [`ShardedRms::churn`] so history survives the
    /// reconfiguration. Zero on routers that never resharded.
    pub(crate) carried_churn: ChurnStats,
}

impl<'p> ShardedRms<'p> {
    /// Builds a router over the given shards; errs on an empty shard
    /// vector (there is nothing to route to).
    pub fn new(shards: Vec<ClusterRms<'p>>, route: RouteBy) -> Result<Self, RouterError> {
        if shards.is_empty() {
            return Err(RouterError::NoShards);
        }
        let n = shards.len();
        Ok(ShardedRms {
            shards,
            route,
            next_rr: 0,
            next_seq: 0,
            global_of: vec![Vec::new(); n],
            carried_churn: ChurnStats::default(),
            bufs: vec![Vec::new(); n],
        })
    }

    /// Reassembles a router from checkpointed parts (the ckpt module's
    /// restore path). Invariants are the caller's to uphold: one
    /// `global_of` table per shard, `next_rr < shards.len()`.
    pub(crate) fn from_parts(
        shards: Vec<ClusterRms<'p>>,
        route: RouteBy,
        next_rr: usize,
        next_seq: u64,
        global_of: Vec<Vec<u64>>,
        carried_churn: ChurnStats,
    ) -> Self {
        debug_assert_eq!(shards.len(), global_of.len());
        let bufs = vec![Vec::new(); shards.len()];
        ShardedRms {
            shards,
            route,
            next_rr,
            next_seq,
            global_of,
            carried_churn,
            bufs,
        }
    }

    /// Number of shards behind the router.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, for inspection (mutation goes through the router).
    pub fn shards(&self) -> &[ClusterRms<'p>] {
        &self.shards
    }

    /// The placement rule in use.
    pub fn route(&self) -> RouteBy {
        self.route
    }

    /// Total jobs submitted through the router.
    pub fn submitted(&self) -> u64 {
        self.next_seq
    }

    /// Jobs currently resident, running or queued across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.in_flight()).sum()
    }

    /// Merged churn aggregates across all shards, including aggregates
    /// carried over from shards retired by a reshard restore.
    pub fn churn(&self) -> ChurnStats {
        let mut total = self.carried_churn;
        for s in &self.shards {
            total.merge(s.churn());
        }
        total
    }

    /// Mean processor utilisation across shards, weighted by each
    /// shard's submitted-job count (matching
    /// [`OnlineReport::merge`](crate::report::OnlineReport::merge)).
    pub fn utilization(&self) -> f64 {
        let total: u64 = self.shards.iter().map(|s| s.submitted()).sum();
        if total == 0 {
            return 0.0;
        }
        self.shards
            .iter()
            .map(|s| s.utilization() * s.submitted() as f64)
            .sum::<f64>()
            / total as f64
    }

    fn pick_shard(&mut self, job: &Job) -> usize {
        match self.route {
            RouteBy::JobHash => job_hash_shard(job.id, self.shards.len()),
            RouteBy::LeastLoaded => self
                .shards
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (s.in_flight(), *i))
                .map(|(i, _)| i)
                .expect("at least one shard"),
            RouteBy::RoundRobin => {
                let s = self.next_rr;
                self.next_rr = (self.next_rr + 1) % self.shards.len();
                s
            }
        }
    }

    /// Routes one arrival to its shard and returns the shard's
    /// irrevocable decision. Runs entirely on the caller's thread — the
    /// shard decides synchronously, exactly as an unsharded
    /// [`ClusterRms::submit`] would over the shard's sub-cluster.
    ///
    /// # Panics
    /// Panics if `now` precedes an earlier submission or advance.
    pub fn submit(&mut self, job: Job, now: SimTime) -> Decision {
        self.submit_routed(job, now).1
    }

    /// [`ShardedRms::submit`], also reporting which shard took the job.
    pub fn submit_routed(&mut self, job: Job, now: SimTime) -> (usize, Decision) {
        let _submit = obs::phase::span(obs::phase::Phase::RouterSubmit);
        let shard = self.pick_shard(&job);
        self.global_of[shard].push(self.next_seq);
        self.next_seq += 1;
        (shard, self.shards[shard].submit(job, now))
    }

    /// Advances every shard to `to` and returns the merged outcomes, in
    /// resolution-timestamp order with global submission-order `seq`s.
    /// See [`ShardedRms::advance_with`] for the callback form.
    ///
    /// # Errors
    /// [`RouterError::ShardPanicked`] if a shard panicked, which
    /// includes a `to` that precedes an earlier submission or advance
    /// (each shard asserts monotone time). The events of the other
    /// shards are still returned through `advance_with`; this form
    /// drops them with the error.
    pub fn advance(&mut self, to: SimTime) -> Result<Vec<JobEvent>, RouterError> {
        let mut out = Vec::new();
        self.advance_with(to, |e| out.push(e))?;
        Ok(out)
    }

    /// Advances every shard to `to` — shards 1..N on scoped threads,
    /// shard 0 on the caller's thread — and, after they all finish,
    /// passes the merged outcomes to `emit` on the caller's thread.
    ///
    /// # Errors
    /// A panicking shard does not abort the fan-out: the other shards
    /// finish their advance, every buffered event is emitted, and then
    /// the first failure comes back as [`RouterError::ShardPanicked`].
    /// A `to` that precedes an earlier submission or advance trips the
    /// monotone-time assertion of each shard that saw that instant, so
    /// it returns this error too (`shard: 0` after a router-wide
    /// advance).
    pub fn advance_with(
        &mut self,
        to: SimTime,
        emit: impl FnMut(JobEvent),
    ) -> Result<(), RouterError> {
        self.fan_out(Some(to), emit)
    }

    /// Drains every shard to completion and returns the merged residual
    /// outcomes (see [`ShardedRms::advance`] for ordering).
    ///
    /// # Errors
    /// [`RouterError::ShardPanicked`] if a shard panicked (see
    /// [`ShardedRms::advance_with`]).
    pub fn drain(&mut self) -> Result<Vec<JobEvent>, RouterError> {
        let mut out = Vec::new();
        self.drain_with(|e| out.push(e))?;
        Ok(out)
    }

    /// Callback form of [`ShardedRms::drain`] (see
    /// [`ShardedRms::advance_with`] for the failure contract).
    pub fn drain_with(&mut self, emit: impl FnMut(JobEvent)) -> Result<(), RouterError> {
        self.fan_out(None, emit)
    }

    /// Fans one advance (`Some(to)`) or drain (`None`) out to the shards,
    /// then merges their buffers into `emit`. Every shard runs under
    /// `catch_unwind`, so a panic becomes an error after the merge.
    fn fan_out(
        &mut self,
        to: Option<SimTime>,
        mut emit: impl FnMut(JobEvent),
    ) -> Result<(), RouterError> {
        let mut work = self
            .shards
            .iter_mut()
            .zip(&self.global_of)
            .zip(&mut self.bufs)
            .map(|((shard, map), buf)| (shard, map.as_slice(), buf));
        let (shard0, map0, buf0) = work.next().expect("at least one shard");
        let failure = std::thread::scope(|scope| {
            let workers: Vec<_> = work
                .map(|(shard, map, buf)| scope.spawn(move || run_shard(shard, map, buf, to)))
                .collect();
            let mut failure = run_shard(shard0, map0, buf0, to).err().map(|m| (0, m));
            for (i, worker) in workers.into_iter().enumerate() {
                // A panic the catch missed (a payload whose `Drop`
                // panics, say) gets the same contract.
                let result = worker
                    .join()
                    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
                if let (None, Err(message)) = (&failure, result) {
                    failure = Some((i + 1, message));
                }
            }
            failure
        });
        merge(&mut self.bufs, &mut emit);
        match failure {
            Some((shard, message)) => Err(RouterError::ShardPanicked { shard, message }),
            None => Ok(()),
        }
    }
}

/// One shard's part of a fan-out: advance (or drain) it and append its
/// events to `buf` with global seqs. A panic comes back as its message.
fn run_shard(
    shard: &mut ClusterRms<'_>,
    global_of: &[u64],
    buf: &mut Vec<JobEvent>,
    to: Option<SimTime>,
) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let remap = |mut e: JobEvent| {
            e.seq = global_of[e.seq as usize];
            e
        };
        match to {
            Some(t) => buf.extend(shard.advance(t).map(remap)),
            None => buf.extend(shard.drain().map(remap)),
        }
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// Renders a panic payload for [`RouterError::ShardPanicked`]: the
/// string forms `panic!` produces, or a placeholder for exotic payloads.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Empties the shard buffers into `emit` in one k-way merge. Each
/// shard's buffer is nondecreasing in
/// [`Outcome::resolved_at`](crate::report::Outcome::resolved_at) (the
/// facade resolves outcomes in time order), so comparing only the
/// current heads yields a globally time-ordered stream that keeps each
/// shard's own order; equal timestamps break ties by global submission
/// seq, which is unique, and then by shard.
fn merge(bufs: &mut [Vec<JobEvent>], emit: &mut impl FnMut(JobEvent)) {
    let _merge = obs::phase::span(obs::phase::Phase::RouterMerge);
    let key = |e: &JobEvent, s: usize| Reverse((e.record.outcome.resolved_at(), e.seq, s));
    let mut streams: Vec<_> = bufs.iter_mut().map(|b| b.drain(..)).collect();
    let mut heads: Vec<Option<JobEvent>> = streams.iter_mut().map(Iterator::next).collect();
    let mut heap: BinaryHeap<_> = heads
        .iter()
        .enumerate()
        .filter_map(|(s, head)| head.as_ref().map(|e| key(e, s)))
        .collect();
    while let Some(Reverse((_, _, s))) = heap.pop() {
        let e = heads[s].take().expect("head present for popped shard");
        heads[s] = streams[s].next();
        if let Some(next) = &heads[s] {
            heap.push(key(next, s));
        }
        emit(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libra::Libra;
    use cluster::proportional::ProportionalConfig;
    use cluster::Cluster;
    use sim::SimDuration;
    use workload::Urgency;

    fn job(id: u64, submit: f64, runtime: f64, procs: u32, deadline: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(runtime),
            procs,
            deadline: SimDuration::from_secs(deadline),
            urgency: Urgency::Low,
        }
    }

    fn shard() -> ClusterRms<'static> {
        ClusterRms::proportional(
            Cluster::homogeneous(2, 168.0),
            ProportionalConfig::default(),
            Libra::new(),
        )
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn round_robin_rotates_and_least_loaded_balances() {
        let mut rr = ShardedRms::new(vec![shard(), shard(), shard()], RouteBy::RoundRobin).unwrap();
        let shards: Vec<usize> = (0..6)
            .map(|i| rr.submit_routed(job(i, 0.0, 50.0, 1, 500.0), t(0.0)).0)
            .collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);

        let mut ll = ShardedRms::new(vec![shard(), shard()], RouteBy::LeastLoaded).unwrap();
        // First two land on different shards; the third ties back to 0.
        assert_eq!(ll.submit_routed(job(0, 0.0, 50.0, 1, 500.0), t(0.0)).0, 0);
        assert_eq!(ll.submit_routed(job(1, 0.0, 50.0, 1, 500.0), t(0.0)).0, 1);
        assert_eq!(ll.submit_routed(job(2, 0.0, 50.0, 1, 500.0), t(0.0)).0, 0);
        assert_eq!(ll.in_flight(), 3);
    }

    #[test]
    fn job_hash_is_order_independent_and_in_range() {
        for shards in [1usize, 2, 4, 8, 64] {
            for id in 0..256u64 {
                let s = job_hash_shard(JobId(id), shards);
                assert!(s < shards);
                assert_eq!(s, job_hash_shard(JobId(id), shards));
            }
        }
    }

    #[test]
    fn merged_stream_is_time_ordered_with_global_seqs() {
        let mut rms = ShardedRms::new(vec![shard(), shard()], RouteBy::RoundRobin).unwrap();
        // Staggered runtimes so completions interleave across shards.
        for i in 0..8u64 {
            let d = rms.submit(job(i, 0.0, 40.0 + 13.0 * i as f64, 1, 5000.0), t(0.0));
            assert_eq!(d, Decision::Accepted);
        }
        let events = rms.drain().unwrap();
        assert_eq!(events.len(), 8);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let stamps: Vec<SimTime> = events
            .iter()
            .map(|e| e.record.outcome.resolved_at())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "time-ordered");
        seqs.sort_unstable();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>(), "global seqs, each once");
        assert_eq!(rms.submitted(), 8);
        assert_eq!(rms.in_flight(), 0);
        assert!(rms.utilization() > 0.0);
    }

    #[test]
    fn same_instant_completions_merge_in_global_seq_order() {
        let mut rms = ShardedRms::new(vec![shard(), shard()], RouteBy::RoundRobin).unwrap();
        // Identical jobs: every one completes at the same instant, on
        // both shards, so the merge decides the order by ties alone.
        let mut own: [Vec<u64>; 2] = Default::default();
        for i in 0..6u64 {
            let (s, d) = rms.submit_routed(job(i, 0.0, 100.0, 1, 5000.0), t(0.0));
            assert_eq!(d, Decision::Accepted);
            own[s].push(i);
        }
        let events = rms.drain().unwrap();
        let at = events[0].record.outcome.resolved_at();
        assert!(events.iter().all(|e| e.record.outcome.resolved_at() == at));
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            (0..6).collect::<Vec<u64>>(),
            "ties break by global seq"
        );
        // Each shard's subsequence is that shard's own order, replayed
        // on a plain facade and mapped to global seqs.
        for (s, globals) in own.iter().enumerate() {
            let mut plain = shard();
            for &i in globals {
                plain.submit(job(i, 0.0, 100.0, 1, 5000.0), t(0.0));
            }
            let want: Vec<u64> = plain.drain().map(|e| globals[e.seq as usize]).collect();
            let got: Vec<u64> = seqs
                .iter()
                .copied()
                .filter(|q| globals.contains(q))
                .collect();
            assert_eq!(got, want, "shard {s} order kept");
        }
    }

    #[test]
    fn empty_router_is_a_constructor_error() {
        let err = ShardedRms::new(Vec::new(), RouteBy::JobHash)
            .err()
            .expect("zero shards must be refused");
        assert!(matches!(err, RouterError::NoShards));
        assert_eq!(err.to_string(), "a sharded RMS needs at least one shard");
    }

    /// A recorder that (when armed) panics on worker-side events
    /// (advance spans), staying quiet through the caller-thread submit
    /// hooks — the smallest way to detonate a shard worker mid-fan-out.
    /// The disarmed instances exist so every shard shares one recorder
    /// lifetime (`ClusterRms` is invariant over it).
    struct AdvanceBomb {
        armed: bool,
    }

    impl obs::Recorder for AdvanceBomb {
        fn record(&mut self, _sim_secs: f64, event: obs::Event) {
            if self.armed && matches!(event, obs::Event::AdvanceSpan { .. }) {
                panic!("advance bomb detonated");
            }
        }
    }

    /// Drains six round-robin jobs through an `n`-shard router whose
    /// shard `armed` carries a detonating recorder; returns the error
    /// and the number of events emitted before it.
    fn bombed_drain(n: usize, armed: usize) -> (RouterError, usize) {
        let mut bombs: Vec<AdvanceBomb> =
            (0..n).map(|i| AdvanceBomb { armed: i == armed }).collect();
        let shards = bombs.iter_mut().map(|b| shard().with_recorder(b)).collect();
        let mut rms = ShardedRms::new(shards, RouteBy::RoundRobin).unwrap();
        for i in 0..6u64 {
            rms.submit(job(i, 0.0, 40.0 + 9.0 * i as f64, 1, 5000.0), t(0.0));
        }
        let mut events = Vec::new();
        let err = rms
            .drain_with(|e| events.push(e))
            .expect_err("the bombed shard must surface as an error");
        // The router stays usable for inspection — no aborted process.
        assert_eq!(rms.submitted(), 6);
        let _ = rms.utilization();
        (err, events.len())
    }

    #[test]
    fn panicking_shard_degrades_into_a_structured_error() {
        // (shards, armed shard, events the survivors emit): shard 1 on a
        // scoped thread, shard 0 on the caller's thread, and a 1-shard
        // router, which has no survivors.
        for (n, armed, survivors) in [(3, 1, 4), (3, 0, 4), (1, 0, 0)] {
            let (err, emitted) = bombed_drain(n, armed);
            match err {
                RouterError::ShardPanicked { shard, message } => {
                    assert_eq!(shard, armed, "{n} shards");
                    assert!(message.contains("advance bomb"), "payload: {message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert_eq!(emitted, survivors, "{n} shards, shard {armed} armed");
        }
    }
}
