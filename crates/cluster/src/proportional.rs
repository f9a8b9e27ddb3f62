//! The live deadline-based proportional-share execution engine (§3.1).
//!
//! Every resident job on a node requires processor share
//! `s_ij = remaining_runtime_ij / remaining_deadline_i` (Eq. 1). The
//! engine turns shares into execution *rates* (renormalising when a node
//! is overloaded), advances all jobs piecewise-linearly between events,
//! and recomputes rates at every event.
//!
//! Two parallel notions of "remaining work" are tracked:
//!
//! * **actual** remaining work — decides when the job really completes;
//! * **estimated** remaining work — what the scheduler believes, seeded
//!   from the user estimate.
//!
//! When the estimate is an over-estimate the job completes while the
//! scheduler still believes work remains (capacity was held
//! conservatively); when it is an under-estimate the estimated work
//! exhausts first and the engine re-arms a *residual* estimate — the job
//! overruns, its share stays occupied longer than promised, and
//! co-resident jobs get squeezed. Those are precisely the two failure
//! modes of inaccurate estimates the paper studies.
//!
//! Multi-processor jobs are gang-scheduled over `numproc` nodes: the job's
//! progress rate is the minimum rate its nodes grant (a slower member
//! stalls the gang; surplus allocation on faster members idles).
//!
//! # Storage layout
//!
//! Residents live in a slot arena: scalar hot fields (`rate`,
//! `remaining_work`, `remaining_est`, cached deadline) are struct-of-arrays
//! vectors indexed by a stable slot, and the cold per-job state (the `Job`
//! itself, node list, bookkeeping) sits in a parallel `meta` arena touched
//! only on structural events. Iteration order is fixed by `order`, the
//! live slots sorted by ascending `JobId` — exactly the order the previous
//! `BTreeMap` storage iterated in, so every floating-point reduction
//! (share totals, busy integrals, event-gap minima) accumulates in the
//! same sequence and stays bitwise identical to the retained
//! [`ProportionalCluster::advance_reference`] oracle.
//!
//! The advance hot path is allocation-free: share totals, the per-slot
//! share scratch, and the completion/victim worklists are engine-owned
//! buffers reused across calls, and rate recomputation is skipped
//! entirely for zero-width advances (the state it would recompute from is
//! unchanged, so the skip is bitwise inert — this batches same-instant
//! event storms into one recompute).

use crate::cluster::Cluster;
use crate::node::NodeId;
use crate::projection::{ProjectedJob, ShareDiscipline, EPS_DEADLINE, EPS_WORK};
use sim::{SimDuration, SimTime};
use std::cell::RefCell;
use workload::{Job, JobId};

/// The projection-input view of a not-yet-admitted job: its *full*
/// estimate over its absolute deadline (exactly what
/// [`ProportionalCluster::node_projection`] appends as the tentative
/// `extra` job).
pub fn projected_job(job: &Job) -> ProjectedJob {
    ProjectedJob {
        remaining_est: job.estimate.as_secs().max(EPS_WORK),
        abs_deadline: job.absolute_deadline().as_secs(),
    }
}

/// Wake-up gap used when no resident job offers a finite event candidate
/// (every job rate-starved with no deadline ahead) and no
/// [`ProportionalConfig::max_quantum`] is configured.
const FALLBACK_QUANTUM: f64 = 3600.0;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProportionalConfig {
    /// How spare node capacity is treated (Libra's published allocation is
    /// [`ShareDiscipline::Strict`]).
    pub discipline: ShareDiscipline,
    /// When a job overruns its estimate, the scheduler re-arms its belief
    /// to `residual_fraction × original_estimate` (floored at
    /// [`ProportionalConfig::residual_floor`]).
    pub residual_fraction: f64,
    /// Minimum re-armed residual estimate, reference-seconds.
    pub residual_floor: f64,
    /// Upper bound on the gap between rate recomputations, seconds; keeps
    /// shares tracking their continuously-drifting ideal between sparse
    /// events.
    pub max_quantum: Option<f64>,
}

impl Default for ProportionalConfig {
    fn default() -> Self {
        ProportionalConfig {
            // Work-conserving matches GridSim's time-shared machines (the
            // paper's substrate): the Eq. 1 share is the *guaranteed
            // minimum*, and spare capacity is redistributed proportionally.
            // `Strict` (jobs run at exactly their share, spare capacity
            // idles) is kept as an ablation.
            discipline: ShareDiscipline::WorkConserving,
            residual_fraction: 0.05,
            residual_floor: 30.0,
            max_quantum: Some(3600.0),
        }
    }
}

/// A job that finished execution.
#[derive(Clone, Debug)]
pub struct CompletedJob {
    /// The job.
    pub job: Job,
    /// When it started executing (its admission instant — proportional
    /// share starts jobs immediately).
    pub started: SimTime,
    /// When its actual work completed.
    pub finish: SimTime,
    /// How many times it overran its (re-armed) estimate.
    pub overruns: u32,
}

/// A resident job evicted by a node failure, with the progress state the
/// caller's recovery policy needs (a gang job dies with *any* of its
/// member nodes; its survivors' capacity is freed).
#[derive(Clone, Debug)]
pub struct DisplacedJob {
    /// The job as admitted.
    pub job: Job,
    /// When it started executing.
    pub started: SimTime,
    /// Actual work left, reference-seconds.
    pub remaining_work: f64,
    /// Scheduler-believed work left, reference-seconds.
    pub remaining_est: f64,
    /// How many times it had overrun its estimate.
    pub overruns: u32,
}

/// Canonical state of one resident job, as carried by
/// [`EngineSnapshot`]. Everything else in the arena (rates, cached
/// deadlines, widths, epochs, scratch) is derived.
#[derive(Clone, Debug, PartialEq)]
pub struct ResidentSnapshot {
    /// The job as admitted.
    pub job: Job,
    /// Allocated nodes, in allocation order.
    pub nodes: Vec<NodeId>,
    /// `node_positions[i]` is this job's index within node
    /// `nodes[i]`'s resident list. The per-node list order is
    /// scheduler-visible (share folds and projections iterate it), so a
    /// restore must reproduce it exactly — it is *not* derivable from
    /// admission order once `swap_remove`s have happened.
    pub node_positions: Vec<u32>,
    /// When it started executing.
    pub started: SimTime,
    /// How many times it has overrun its estimate.
    pub overruns: u32,
    /// Actual work left, reference-seconds.
    pub remaining_work: f64,
    /// Scheduler-believed work left, reference-seconds.
    pub remaining_est: f64,
}

/// Canonical state of a [`ProportionalCluster`], sufficient to rebuild
/// the engine bit-for-bit at a quiescent instant (rates clean, no
/// event pending before `last_update`).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct EngineSnapshot {
    /// Residents in ascending-id order (the canonical iteration order).
    pub residents: Vec<ResidentSnapshot>,
    /// Instant the engine state is valid for.
    pub last_update: SimTime,
    /// Delivered reference-seconds over `[0, last_update]`.
    pub busy_integral: f64,
    /// Node-seconds spent down over `[0, last_update]`.
    pub down_integral: f64,
    /// Per-node delivered reference-seconds.
    pub node_busy: Vec<f64>,
    /// Per-node down flags.
    pub down: Vec<bool>,
}

/// Cold per-resident state, touched only on structural events (admission,
/// completion, eviction, overrun re-arm).
#[derive(Clone, Debug)]
struct ResidentMeta {
    job: Job,
    nodes: Vec<NodeId>,
    /// `slots[i]` is this job's index within `node_jobs[nodes[i]]`,
    /// maintained across `swap_remove` so removal never scans the list.
    slots: Vec<u32>,
    started: SimTime,
    overruns: u32,
}

/// One entry of the share-ordered candidate index (see
/// [`ProportionalCluster::with_share_index`]): a node together with its
/// Eq. 2 base share (resident jobs only, evaluated at the engine's
/// current instant).
#[derive(Clone, Copy, Debug)]
pub struct ShareEntry {
    /// `node_total_share(node, None)` — bitwise identical to the direct
    /// call, so `base_share + job_share(job)` reproduces
    /// `node_total_share(node, Some(job))` exactly.
    pub base_share: f64,
    /// The node this entry describes.
    pub node: NodeId,
}

/// Lazily maintained share-ordered node index. Entries are sorted by
/// `(base_share ascending, node id ascending)`; staleness is detected in
/// O(1) via the engine's global epoch, and only nodes whose per-node
/// epoch moved get their share recomputed.
#[derive(Clone, Debug, Default)]
struct ShareIndex {
    entries: Vec<ShareEntry>,
    /// `pos[node]` = index of that node's entry in `entries`.
    pos: Vec<u32>,
    /// Per-node epoch pairs the shares were computed at (see
    /// [`ProportionalCluster::node_epoch`]).
    node_epochs: Vec<(u64, u64)>,
    /// Engine global epoch the whole index was validated at.
    global_epoch: u64,
    /// `false` until the first build.
    built: bool,
}

/// The proportional-share cluster engine.
#[derive(Clone, Debug)]
pub struct ProportionalCluster {
    cluster: Cluster,
    cfg: ProportionalConfig,
    /// Cached `cluster.speed_factor(n)` per node — the cluster is
    /// immutable after construction, so the cached value is the bitwise
    /// same factor every recompute would otherwise re-derive.
    speeds: Vec<f64>,
    // ---- slot arena (parallel vectors indexed by slot) ----
    /// Owning job id per slot (stale for free slots).
    ids: Vec<JobId>,
    rate: Vec<f64>,
    remaining_work: Vec<f64>,
    remaining_est: Vec<f64>,
    /// Cached `job.absolute_deadline().as_secs()`.
    abs_deadline: Vec<f64>,
    /// Cached `job.estimate.as_secs()` (overrun re-arm input).
    estimate_secs: Vec<f64>,
    /// Gang width; `1` selects the single-node fast path.
    width: Vec<u32>,
    /// Gang width as f64 (busy-integral multiplier, cached to keep the
    /// progress loop free of int→float conversions).
    width_f: Vec<f64>,
    /// First (and for `width == 1`, only) node of the gang.
    node0: Vec<u32>,
    /// Start of the gang's member-node run in [`Self::gang_nodes`].
    gang_start: Vec<u32>,
    /// Flat arena of gang member-node indices: slot `s` occupies
    /// `gang_nodes[gang_start[s]..gang_start[s] + width[s]]`, in
    /// allocation order — the same order `meta[s].nodes` holds, so hot
    /// loops walking the arena visit nodes in the reference order without
    /// the `meta` box + `Vec` double indirection. Released slots leak
    /// their run; the arena resets whenever the engine drains empty.
    gang_nodes: Vec<u32>,
    /// Per-slot Eq. 1 share computed by recompute pass 1 and consumed by
    /// pass 2 (engine-owned scratch; garbage between recomputes).
    share_scratch: Vec<f64>,
    /// Cold state; `None` marks a free slot.
    meta: Vec<Option<ResidentMeta>>,
    /// Live slots sorted by ascending `JobId` — the canonical iteration
    /// order of every per-resident reduction (see module docs).
    order: Vec<u32>,
    free_slots: Vec<u32>,
    /// Arena slots resident per node, in admission order (removals
    /// `swap_remove`, mirroring the historical `Vec<JobId>` lists).
    node_jobs: Vec<Vec<u32>>,
    last_update: SimTime,
    busy_integral: f64,
    /// Node-seconds spent down over `[0, last_update]` — subtracted from
    /// the utilisation denominator so a half-dead cluster running flat
    /// out reads as fully utilised, not half. Stays exactly `0.0` on
    /// fault-free runs, keeping their utilisation bitwise unchanged.
    down_integral: f64,
    node_busy: Vec<f64>,
    /// Discrete component of the per-node epoch pair: bumped on the
    /// node's *discrete* scheduler-visible changes (admission, removal,
    /// estimate re-arm, fail/restore). Plain time advances do not touch
    /// it — [`ProportionalCluster::node_epoch`] pairs it with
    /// `global_epoch` for occupied nodes so advances still invalidate
    /// without a per-node write.
    node_epochs: Vec<u64>,
    /// Bumped only when a node's resident *membership* changes — a job
    /// admitted to or removed from the node, a resident's estimate
    /// re-armed after an overrun, or the node failing/restoring. Plain
    /// time advances leave it alone, so decision layers can cache per-node structure
    /// that survives advances: the set of arena slots resident on the
    /// node and any ordering over them stay valid exactly while this
    /// counter stands still.
    membership_epoch: Vec<u64>,
    /// Earliest absolute deadline among each node's residents
    /// (`+inf` when empty), maintained at membership changes so the
    /// admission screen reads one packed array instead of walking
    /// `node_jobs` per candidate. Deadlines are fixed per job, so plain
    /// advances and estimate re-arms cannot move it.
    node_min_dl: Vec<f64>,
    /// Occupancy bitmask over nodes (bit = node hosts ≥1 resident),
    /// maintained by admit/unlink; serves O(1) occupancy tests for
    /// [`ProportionalCluster::node_epoch`]'s time component.
    occ_mask: Vec<u64>,
    /// Bumped whenever *any* node epoch is bumped — an O(1) "did anything
    /// change since I last looked" check for cluster-wide caches like the
    /// share index.
    global_epoch: u64,
    /// Minimum event-gap candidate over all residents, computed as a
    /// running min during the rate recompute (which already visits every
    /// resident), making [`ProportionalCluster::next_event_time`] a pure
    /// O(1) read. Valid whenever `rates_clean`.
    next_dt: f64,
    /// `true` while `rate`/`next_dt` match the current resident state and
    /// `last_update`. Zero-width advances leave every recompute input
    /// untouched, so they skip the recompute entirely — the flag is what
    /// makes same-instant event batches cost one recompute, not one each.
    rates_clean: bool,
    /// `true` while `share_scratch`/`totals_scratch` hold the values the
    /// last *fast-path* recompute produced.
    /// [`ProportionalCluster::recompute_rates_reference`] computes its
    /// totals into a local buffer — it produces bitwise the same rates but
    /// leaves the engine scratch stale, so incremental paths that extend
    /// or read the scratch (`admit`'s pass-1 shortcut, the share-total
    /// read) must check this flag, not just `rates_clean`, and fall back
    /// to a full recompute when it is down.
    scratch_valid: bool,
    /// Reusable worklist for completions discovered by the progress pass.
    completed_scratch: Vec<u32>,
    /// Reusable worklist for `fail_node` victims.
    victims_scratch: Vec<u32>,
    /// Reusable per-node share totals for the recompute passes.
    totals_scratch: Vec<f64>,
    /// Interior-mutable because it is a pure cache over engine state:
    /// refreshing it through a `&self` query does not change anything
    /// scheduler-visible.
    share_index: RefCell<ShareIndex>,
    /// Per-node down flags. A down node hosts no jobs and must never be
    /// an admission target; the share index pins its base share to
    /// `+inf` so share-ordered walks exclude it for free.
    down: Vec<bool>,
    down_count: usize,
}

/// One job's event-gap candidate: earliest of actual completion,
/// estimated-work exhaustion, and deadline crossing. A rate-starved job
/// (share underflowed to zero against an astronomically loaded node)
/// offers no completion candidates — only its deadline, if any.
#[inline]
fn event_dt(
    rate: f64,
    remaining_work: f64,
    remaining_est: f64,
    abs_deadline: f64,
    now: f64,
) -> f64 {
    let mut dt = f64::INFINITY;
    if rate > 0.0 {
        // min(w, e) / r is bitwise min(w / r, e / r): division by a
        // positive rate is monotone and rounds each operand identically,
        // so taking the min first saves a division without moving a bit.
        dt = dt.min(remaining_work.min(remaining_est) / rate);
    }
    let to_deadline = abs_deadline - now;
    if to_deadline > EPS_WORK {
        dt = dt.min(to_deadline);
    }
    dt
}

impl ProportionalCluster {
    /// Creates an engine over the given cluster.
    pub fn new(cluster: Cluster, cfg: ProportionalConfig) -> Self {
        let n = cluster.len();
        let speeds = (0..n)
            .map(|i| cluster.speed_factor(NodeId(i as u32)))
            .collect();
        ProportionalCluster {
            cluster,
            cfg,
            speeds,
            ids: Vec::new(),
            rate: Vec::new(),
            remaining_work: Vec::new(),
            remaining_est: Vec::new(),
            abs_deadline: Vec::new(),
            estimate_secs: Vec::new(),
            width: Vec::new(),
            width_f: Vec::new(),
            node0: Vec::new(),
            gang_start: Vec::new(),
            gang_nodes: Vec::new(),
            share_scratch: Vec::new(),
            meta: Vec::new(),
            order: Vec::new(),
            free_slots: Vec::new(),
            node_jobs: vec![Vec::new(); n],
            last_update: SimTime::ZERO,
            busy_integral: 0.0,
            down_integral: 0.0,
            node_busy: vec![0.0; n],
            node_epochs: vec![0; n],
            membership_epoch: vec![0; n],
            node_min_dl: vec![f64::INFINITY; n],
            occ_mask: vec![0; n.div_ceil(64)],
            global_epoch: 0,
            next_dt: f64::INFINITY,
            rates_clean: true,
            scratch_valid: true,
            completed_scratch: Vec::new(),
            victims_scratch: Vec::new(),
            totals_scratch: vec![0.0; n],
            share_index: RefCell::new(ShareIndex::default()),
            down: vec![false; n],
            down_count: 0,
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The engine configuration.
    pub fn config(&self) -> &ProportionalConfig {
        &self.cfg
    }

    /// Instant the engine state is valid for.
    pub fn now(&self) -> SimTime {
        self.last_update
    }

    /// Number of resident (running) jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no job is resident.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Ids of jobs resident on a node, in resident-list order.
    pub fn jobs_on_node(&self, node: NodeId) -> impl Iterator<Item = JobId> + '_ {
        self.node_jobs[node.0 as usize]
            .iter()
            .map(move |&s| self.ids[s as usize])
    }

    /// Number of jobs resident on a node.
    pub fn resident_count(&self, node: NodeId) -> usize {
        self.node_jobs[node.0 as usize].len()
    }

    /// The node's resident arena slots, in resident-list order. Slots are
    /// opaque but stable between engine mutations: two nodes exposing the
    /// same slot sequence hold the *same* resident jobs in the same
    /// iteration order, so any pure function of a node's projection input
    /// (risk kernels in particular) must return bitwise-identical results
    /// for both. Decision layers use this to evaluate one representative
    /// per distinct profile instead of every node.
    pub fn node_slots(&self, node: NodeId) -> &[u32] {
        &self.node_jobs[node.0 as usize]
    }

    /// Cached speed factor of a node — bitwise the same value
    /// `cluster().speed_factor(node)` re-derives on every call (the
    /// cluster is immutable after construction), without the division.
    #[inline]
    pub fn node_speed(&self, node: NodeId) -> f64 {
        self.speeds[node.0 as usize]
    }

    /// Arena slot of a resident job, by binary search over the id-sorted
    /// iteration order.
    #[inline]
    fn slot_of(&self, id: JobId) -> Option<usize> {
        self.order
            .binary_search_by(|&s| self.ids[s as usize].cmp(&id))
            .ok()
            .map(|pos| self.order[pos] as usize)
    }

    /// Allocates an arena slot (recycling freed slots before growing).
    fn alloc_slot(&mut self) -> u32 {
        if let Some(s) = self.free_slots.pop() {
            return s;
        }
        let s = self.ids.len() as u32;
        self.ids.push(JobId(u64::MAX));
        self.rate.push(0.0);
        self.remaining_work.push(0.0);
        self.remaining_est.push(0.0);
        self.abs_deadline.push(0.0);
        self.estimate_secs.push(0.0);
        self.width.push(0);
        self.width_f.push(0.0);
        self.node0.push(0);
        self.gang_start.push(0);
        self.share_scratch.push(0.0);
        self.meta.push(None);
        s
    }

    /// Unlinks a slot from the iteration order and frees it, returning the
    /// cold state (node lists intact for the caller's unlink loop).
    fn release_slot(&mut self, s: u32) -> ResidentMeta {
        let id = self.ids[s as usize];
        let pos = self
            .order
            .binary_search_by(|&x| self.ids[x as usize].cmp(&id))
            .expect("released job in iteration order");
        self.order.remove(pos);
        self.free_slots.push(s);
        self.meta[s as usize].take().expect("released job resident")
    }

    /// Places a job on the given nodes and starts it immediately.
    ///
    /// # Panics
    /// Panics if the engine state is stale (`now != self.now()`), the node
    /// count does not match `job.procs`, or a node id repeats.
    pub fn admit(&mut self, job: Job, nodes: Vec<NodeId>, now: SimTime) {
        assert_eq!(now, self.last_update, "advance() the engine before admit()");
        assert_eq!(
            nodes.len(),
            job.procs as usize,
            "{} needs {} nodes, got {}",
            job.id,
            job.procs,
            nodes.len()
        );
        {
            let mut seen = nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), nodes.len(), "duplicate node in allocation");
        }
        let was_clean = self.rates_clean;
        let est = job.estimate.as_secs().max(EPS_WORK);
        let work = job.runtime.as_secs().max(EPS_WORK);
        if self.order.is_empty() {
            // Released slots leak their gang-node runs; an empty engine is
            // the natural point to reclaim the arena wholesale.
            self.gang_nodes.clear();
        }
        let s = self.alloc_slot();
        self.gang_start[s as usize] = self.gang_nodes.len() as u32;
        let dl = job.absolute_deadline().as_secs();
        let mut slots = Vec::with_capacity(nodes.len());
        for n in &nodes {
            assert!(self.node_is_up(*n), "cannot admit {} onto down {n}", job.id);
            let ni = n.0 as usize;
            let list = &mut self.node_jobs[ni];
            slots.push(list.len() as u32);
            list.push(s);
            self.gang_nodes.push(n.0);
            self.occ_mask[ni / 64] |= 1u64 << (ni % 64);
            self.node_epochs[ni] += 1;
            self.membership_epoch[ni] += 1;
            self.node_min_dl[ni] = self.node_min_dl[ni].min(dl);
        }
        self.global_epoch += 1;
        let id = job.id;
        let si = s as usize;
        self.ids[si] = id;
        self.rate[si] = 0.0;
        self.remaining_work[si] = work;
        self.remaining_est[si] = est;
        self.abs_deadline[si] = dl;
        self.estimate_secs[si] = job.estimate.as_secs();
        self.width[si] = nodes.len() as u32;
        self.width_f[si] = nodes.len() as f64;
        self.node0[si] = nodes[0].0;
        self.meta[si] = Some(ResidentMeta {
            job,
            nodes,
            slots,
            started: now,
            overruns: 0,
        });
        let pos = match self
            .order
            .binary_search_by(|&x| self.ids[x as usize].cmp(&id))
        {
            Ok(_) => panic!("{id} is already resident"),
            Err(pos) => {
                self.order.insert(pos, s);
                pos
            }
        };
        // Incremental pass 1: when the totals are clean at this instant
        // and the new job's id sorts last (ids are issued monotonically,
        // so this is the common case), the reference's from-zero job-id
        // order sum over each of its nodes is exactly the old clean
        // total plus the new share — same left-fold, same bits. Any
        // other case falls back to the full recompute.
        if was_clean && self.scratch_valid && pos + 1 == self.order.len() {
            let now_s = now.as_secs();
            let rd = (self.abs_deadline[si] - now_s).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            self.share_scratch[si] = share;
            let start = self.gang_start[si] as usize;
            for gi in start..start + self.width[si] as usize {
                self.totals_scratch[self.gang_nodes[gi] as usize] += share;
            }
            self.recompute_pass2();
        } else {
            self.rates_clean = false;
            self.recompute_rates();
        }
    }

    /// Advances the engine to `to`, returning jobs whose actual work
    /// completed (their `finish` is `to`; the caller must not advance past
    /// [`ProportionalCluster::next_event_time`]).
    pub fn advance(&mut self, to: SimTime) -> Vec<CompletedJob> {
        let mut out = Vec::new();
        self.advance_into(to, &mut out);
        out
    }

    /// [`ProportionalCluster::advance`] into a caller-owned buffer
    /// (cleared first) — the allocation-free variant for driver hot loops.
    /// In steady state (warm buffers) this performs zero heap allocations.
    pub fn advance_into(&mut self, to: SimTime, out: &mut Vec<CompletedJob>) {
        out.clear();
        assert!(to >= self.last_update, "cannot advance backwards");
        // Phase-profiler lap boundary: marks below attribute wall time
        // *within* this call only; the resync discards whatever the
        // caller spent since its last mark.
        obs::phase::lap_resync();
        let dt = (to - self.last_update).as_secs();
        let now = to;
        // `0 * dt` adds exactly 0.0 for positive dt, but skipping the
        // accumulation entirely when no node is down keeps fault-free
        // runs bitwise identical to the pre-churn accounting.
        if dt > 0.0 && self.down_count > 0 {
            self.down_integral += self.down_count as f64 * dt;
        }
        if dt > 0.0 && !self.order.is_empty() {
            self.global_epoch += 1;
            self.rates_clean = false;
            let now_s = now.as_secs();
            let mut completed = std::mem::take(&mut self.completed_scratch);
            completed.clear();
            // Progress pass, ascending job-id order: `busy_integral` and
            // `node_busy` accumulate in the reference's summation order.
            //
            // Fusion: most advances complete and re-arm nothing — for
            // those, recompute pass 1 (the Eq. 1 share of each survivor
            // at `to`, summed into per-node totals) is computed here,
            // inside the same sweep, in the same ascending job-id order
            // and from the same post-progress beliefs the standalone
            // pass would read — bitwise identical by construction. The
            // first completion or re-arm poisons the fused totals
            // (earlier accumulations assumed a survivor set that just
            // changed), so `fused` drops and the tail of the sweep skips
            // share work; the full recompute below then rebuilds totals
            // from zero exactly as before.
            self.totals_scratch.fill(0.0);
            let mut fused = true;
            for &s in &self.order {
                let si = s as usize;
                let progress = self.rate[si] * dt;
                self.busy_integral += progress * self.width_f[si];
                if self.width[si] == 1 {
                    self.node_busy[self.node0[si] as usize] += progress;
                } else {
                    let start = self.gang_start[si] as usize;
                    for &ni in &self.gang_nodes[start..start + self.width[si] as usize] {
                        self.node_busy[ni as usize] += progress;
                    }
                }
                self.remaining_work[si] -= progress;
                self.remaining_est[si] -= progress;
                if self.remaining_work[si] <= EPS_WORK {
                    completed.push(s);
                    fused = false;
                } else if self.remaining_est[si] <= EPS_WORK {
                    // Overrun: the scheduler's belief was exhausted but the
                    // job is still running — re-arm a residual estimate.
                    self.remaining_est[si] = (self.cfg.residual_fraction * self.estimate_secs[si])
                        .max(self.cfg.residual_floor);
                    self.meta[si].as_mut().expect("resident has meta").overruns += 1;
                    // A re-arm is a discontinuous belief change, not a
                    // proportional drift — membership-keyed caches must
                    // drop the node.
                    if self.width[si] == 1 {
                        self.membership_epoch[self.node0[si] as usize] += 1;
                    } else {
                        let start = self.gang_start[si] as usize;
                        for &ni in &self.gang_nodes[start..start + self.width[si] as usize] {
                            self.membership_epoch[ni as usize] += 1;
                        }
                    }
                    fused = false;
                } else if fused {
                    let rd = (self.abs_deadline[si] - now_s).max(EPS_DEADLINE);
                    let share = self.remaining_est[si].max(EPS_WORK) / rd;
                    self.share_scratch[si] = share;
                    if self.width[si] == 1 {
                        self.totals_scratch[self.node0[si] as usize] += share;
                    } else {
                        let start = self.gang_start[si] as usize;
                        for &ni in &self.gang_nodes[start..start + self.width[si] as usize] {
                            self.totals_scratch[ni as usize] += share;
                        }
                    }
                }
            }
            obs::phase::lap_mark(obs::phase::Phase::ProgressPass);
            // Remaining estimates and `now` both moved: every projection
            // involving an occupied node is invalidated. No per-node write
            // is needed for that — `node_epoch()` pairs the discrete
            // per-node counter with `global_epoch` (already bumped above)
            // for occupied nodes, so every occupied node's epoch pair
            // advanced the moment `global_epoch` did. Empty nodes pin the
            // time component to zero and correctly stay valid.
            for &s in &completed {
                let r = self.release_slot(s);
                for (n, &slot) in r.nodes.iter().zip(&r.slots) {
                    self.remove_from_node(*n, slot as usize, s);
                }
                out.push(CompletedJob {
                    job: r.job,
                    started: r.started,
                    finish: now,
                    overruns: r.overruns,
                });
            }
            self.completed_scratch = completed;
            obs::phase::lap_mark(obs::phase::Phase::CompletionEmit);
            self.last_update = now;
            if fused {
                // Totals and shares are already current (rebuilt from the
                // post-progress beliefs above, reading no prior scratch) —
                // run pass 2 only (it flips `rates_clean` back on).
                self.scratch_valid = true;
                self.recompute_pass2();
            }
        }
        self.last_update = now;
        if !self.rates_clean {
            self.recompute_rates();
        }
        // Covers `recompute_pass2` (fused) or the full recompute; on a
        // zero-width advance it absorbs only the entry/guard sliver.
        obs::phase::lap_mark(obs::phase::Phase::RecomputeSweep);
    }

    /// Reference implementation of [`ProportionalCluster::advance`]: the
    /// pre-arena algorithm shape — fresh worklist allocations, per-(job,
    /// node) epoch bumps, and an unconditional full rate recompute even
    /// for zero-width steps. Kept as the differential-test oracle; an
    /// engine driven exclusively through this path produces bitwise
    /// identical rates, completions, integrals, and event times (epoch
    /// *values* differ in stride, which no consumer observes — they are
    /// only compared for equality).
    pub fn advance_reference(&mut self, to: SimTime) -> Vec<CompletedJob> {
        assert!(to >= self.last_update, "cannot advance backwards");
        let dt = (to - self.last_update).as_secs();
        let now = to;
        if dt > 0.0 && self.down_count > 0 {
            self.down_integral += self.down_count as f64 * dt;
        }
        let mut completed_slots: Vec<u32> = Vec::new();
        if dt > 0.0 && !self.order.is_empty() {
            self.global_epoch += 1;
            for idx in 0..self.order.len() {
                let s = self.order[idx];
                let si = s as usize;
                let progress = self.rate[si] * dt;
                let m = self.meta[si].as_ref().expect("resident has meta");
                self.busy_integral += progress * m.nodes.len() as f64;
                for n in &m.nodes {
                    self.node_busy[n.0 as usize] += progress;
                    self.node_epochs[n.0 as usize] += 1;
                }
                self.remaining_work[si] -= progress;
                self.remaining_est[si] -= progress;
                if self.remaining_work[si] <= EPS_WORK {
                    completed_slots.push(s);
                } else if self.remaining_est[si] <= EPS_WORK {
                    self.remaining_est[si] = (self.cfg.residual_fraction * self.estimate_secs[si])
                        .max(self.cfg.residual_floor);
                    let m = self.meta[si].as_mut().expect("resident has meta");
                    m.overruns += 1;
                    let nodes = m.nodes.clone();
                    for n in nodes {
                        self.membership_epoch[n.0 as usize] += 1;
                    }
                }
            }
        }
        let mut completed = Vec::with_capacity(completed_slots.len());
        for s in completed_slots {
            let r = self.release_slot(s);
            for (n, &slot) in r.nodes.iter().zip(&r.slots) {
                self.remove_from_node(*n, slot as usize, s);
            }
            completed.push(CompletedJob {
                job: r.job,
                started: r.started,
                finish: now,
                overruns: r.overruns,
            });
        }
        self.last_update = now;
        self.recompute_rates_reference();
        completed
    }

    /// `true` when the node has not been failed (or has been restored).
    #[inline]
    pub fn node_is_up(&self, node: NodeId) -> bool {
        !self.down[node.0 as usize]
    }

    /// Number of nodes currently up.
    pub fn up_nodes(&self) -> usize {
        self.cluster.len() - self.down_count
    }

    /// Fails a node at the engine's current instant, evicting every
    /// resident job whose gang touches it (the survivors' slots are
    /// freed). The node stops being an admission target until
    /// [`ProportionalCluster::restore_node`]; evicted jobs are returned
    /// with their progress state for the caller's recovery policy.
    ///
    /// Cache contract: every node that lost a job gets its epoch bumped
    /// (its share total and projections changed), the failed node's
    /// epoch is bumped (its admission feasibility changed), and the
    /// global epoch moves — so the share index, Libra's share walk and
    /// LibraRisk's per-node risk caches all revalidate.
    ///
    /// # Panics
    /// Panics if the engine state is stale (`now != self.now()`) or the
    /// node is already down.
    pub fn fail_node(&mut self, node: NodeId, now: SimTime) -> Vec<DisplacedJob> {
        assert_eq!(
            now, self.last_update,
            "advance() the engine before fail_node()"
        );
        assert!(self.node_is_up(node), "{node} is already down");
        self.down[node.0 as usize] = true;
        self.down_count += 1;
        let mut victims = std::mem::take(&mut self.victims_scratch);
        victims.clear();
        victims.extend_from_slice(&self.node_jobs[node.0 as usize]);
        let mut displaced = Vec::with_capacity(victims.len());
        for &s in &victims {
            let si = s as usize;
            let remaining_work = self.remaining_work[si];
            let remaining_est = self.remaining_est[si];
            let r = self.release_slot(s);
            for (n, &slot) in r.nodes.iter().zip(&r.slots) {
                self.remove_from_node(*n, slot as usize, s);
                self.node_epochs[n.0 as usize] += 1;
            }
            displaced.push(DisplacedJob {
                job: r.job,
                started: r.started,
                remaining_work,
                remaining_est,
                overruns: r.overruns,
            });
        }
        self.victims_scratch = victims;
        self.node_epochs[node.0 as usize] += 1;
        self.membership_epoch[node.0 as usize] += 1;
        self.global_epoch += 1;
        self.rates_clean = false;
        self.recompute_rates();
        displaced
    }

    /// Restores a failed node at the engine's current instant: it comes
    /// back empty and becomes an admission target again (epoch-bumped so
    /// every cache re-evaluates it).
    ///
    /// # Panics
    /// Panics if the engine state is stale or the node is not down.
    pub fn restore_node(&mut self, node: NodeId, now: SimTime) {
        assert_eq!(
            now, self.last_update,
            "advance() the engine before restore_node()"
        );
        assert!(!self.node_is_up(node), "{node} is not down");
        self.down[node.0 as usize] = false;
        self.down_count -= 1;
        self.node_epochs[node.0 as usize] += 1;
        self.membership_epoch[node.0 as usize] += 1;
        self.global_epoch += 1;
    }

    /// O(1) removal of slot `s` from a node's resident list: `swap_remove`
    /// at its tracked position, then patch the slot bookkeeping of
    /// whichever job was moved into the vacated position.
    fn remove_from_node(&mut self, node: NodeId, pos: usize, s: u32) {
        let ni = node.0 as usize;
        self.membership_epoch[ni] += 1;
        let list = &mut self.node_jobs[ni];
        debug_assert_eq!(list[pos], s, "slot bookkeeping out of sync");
        list.swap_remove(pos);
        if list.is_empty() {
            self.occ_mask[ni / 64] &= !(1u64 << (ni % 64));
        }
        let moved = list.get(pos).copied();
        if let Some(moved) = moved {
            let m = self.meta[moved as usize]
                .as_mut()
                .expect("moved job resident");
            let p = m
                .nodes
                .iter()
                .position(|x| *x == node)
                .expect("moved job listed on node");
            m.slots[p] = pos as u32;
        }
        // Min-fold over f64 is order-independent (deadlines are finite
        // and positive), so a rebuild over the post-swap list yields the
        // same bits any other order would.
        let mut min_dl = f64::INFINITY;
        for i in 0..self.node_jobs[ni].len() {
            let r = self.node_jobs[ni][i] as usize;
            min_dl = min_dl.min(self.abs_deadline[r]);
        }
        self.node_min_dl[ni] = min_dl;
    }

    /// The next instant the engine needs to be advanced to: the earliest
    /// of any job's actual completion, estimated-work exhaustion, deadline
    /// crossing, or the configured quantum. `None` when idle.
    ///
    /// O(1): reads the event-gap minimum the last rate recompute tracked
    /// while it was visiting every resident anyway. The retired full scan
    /// survives as [`ProportionalCluster::next_event_time_scan`]; the two
    /// are bitwise identical (property-tested in
    /// `tests/proptest_engine.rs`).
    pub fn next_event_time(&self) -> Option<SimTime> {
        if self.order.is_empty() {
            return None;
        }
        debug_assert!(self.rates_clean, "next_event_time on dirty rates");
        Some(self.last_update + SimDuration::from_secs(self.bound_event_gap(self.next_dt)))
    }

    /// Reference implementation of [`ProportionalCluster::next_event_time`]:
    /// a full scan over resident jobs. Kept for differential tests and as
    /// the pre-change baseline in benchmarks.
    pub fn next_event_time_scan(&self) -> Option<SimTime> {
        if self.order.is_empty() {
            return None;
        }
        let now = self.last_update.as_secs();
        let mut dt = f64::INFINITY;
        for &s in &self.order {
            let si = s as usize;
            dt = dt.min(event_dt(
                self.rate[si],
                self.remaining_work[si],
                self.remaining_est[si],
                self.abs_deadline[si],
                now,
            ));
        }
        Some(self.last_update + SimDuration::from_secs(self.bound_event_gap(dt)))
    }

    /// Applies the quantum cap, the rate-starvation fallback, and the
    /// zero-step floor to a raw event gap.
    fn bound_event_gap(&self, mut dt: f64) -> f64 {
        if let Some(q) = self.cfg.max_quantum {
            dt = dt.min(q);
        }
        if !dt.is_finite() {
            // Every resident job is rate-starved with no deadline ahead
            // and no quantum is configured: wake conservatively rather
            // than never (or at a NaN).
            dt = FALLBACK_QUANTUM;
        }
        // Never return a zero step: float fuzz could stall the caller loop.
        dt.max(1e-3)
    }

    /// Change counter of a node's scheduler-visible state. Any projection
    /// or share total computed for a node is valid exactly as long as this
    /// value (it covers admissions, completions, estimate drift, and the
    /// advancement of `now` itself), so decision layers can memoise on
    /// `(node_epoch, ...)` keys.
    ///
    /// Composed on the fly as `(discrete epoch, time epoch)`: discrete
    /// per-node changes bump `node_epochs`; the advancement of `now` —
    /// which shifts every *occupied* node's projection at once — is
    /// covered by the cluster-wide `global_epoch` instead of a per-node
    /// bump, so the advance hot loop never walks the node table. An
    /// empty node's projection is independent of `now`, so its time
    /// component pins to zero and survives advances. Pairs strictly
    /// increase lexicographically (every discrete change bumps the first
    /// component; `global_epoch` never decreases), so a value can never
    /// recur and equality remains a sound cache-validity test.
    pub fn node_epoch(&self, node: NodeId) -> (u64, u64) {
        let ni = node.0 as usize;
        let time_epoch = if self.occ_mask[ni / 64] >> (ni % 64) & 1 == 1 {
            self.global_epoch
        } else {
            0
        };
        (self.node_epochs[ni], time_epoch)
    }

    /// Cluster-wide change counter: bumped whenever *any* node epoch is
    /// bumped. Equal values mean no node's scheduler-visible state changed
    /// in between, so any cluster-wide cache keyed on it is still valid.
    pub fn global_epoch(&self) -> u64 {
        self.global_epoch
    }

    /// Change counter of a node's resident *membership*: admissions onto
    /// and removals from the node, estimate re-arms of its residents, and
    /// fail/restore — but *not* plain time advances. The set of arena
    /// slots resident on the node (and any caller-cached ordering over
    /// them) is valid exactly as long as this value, even across
    /// advances; per-slot *values* still drift with time and must be
    /// re-read through the slot accessors.
    pub fn node_membership_epoch(&self, node: NodeId) -> u64 {
        self.membership_epoch[node.0 as usize]
    }

    /// Earliest absolute deadline among the node's residents (`+∞` when
    /// idle) — one of the two inputs the pre-kernel zero-risk screen
    /// needs (deadlines are per-job constants, so the minimum is exact
    /// and order-free). Served from a packed per-node array maintained
    /// at membership changes, so a candidate sweep touching every node
    /// stays out of the per-node resident lists.
    #[inline]
    pub fn node_min_deadline(&self, node: NodeId) -> f64 {
        let cached = self.node_min_dl[node.0 as usize];
        debug_assert_eq!(
            cached.to_bits(),
            self.node_jobs[node.0 as usize]
                .iter()
                .fold(f64::INFINITY, |m, &s| m.min(self.abs_deadline[s as usize]))
                .to_bits(),
            "stale node_min_dl for {node}"
        );
        cached
    }

    /// The node's Eq. 2 resident share total at the current instant,
    /// served from the last rate recompute's per-node totals when they
    /// are clean (the recompute already summed exactly these floored
    /// shares while deriving rates). The accumulation order differs from
    /// [`ProportionalCluster::node_total_share`] (global job-id order vs
    /// resident-list order), so the result may differ in the last ulp —
    /// fine for margin-bearing consumers like the zero-risk screen, not
    /// for bitwise-pinned ones.
    pub fn node_share_total_now(&self, node: NodeId) -> f64 {
        if self.rates_clean && self.scratch_valid {
            self.totals_scratch[node.0 as usize]
        } else {
            self.node_total_share(node, None)
        }
    }

    /// `(abs_deadline, remaining_est.max(EPS_WORK))` bit patterns of one
    /// arena slot — the projection-visible state of a resident, exactly
    /// as [`ProportionalCluster::node_projection_into`] would emit it.
    /// Slot indices are only meaningful while the owning node's
    /// [`ProportionalCluster::node_membership_epoch`] stands still.
    #[inline]
    pub fn slot_projection_bits(&self, s: u32) -> (u64, u64) {
        let si = s as usize;
        (
            self.abs_deadline[si].to_bits(),
            self.remaining_est[si].max(EPS_WORK).to_bits(),
        )
    }

    /// Runs `f` over the share-ordered candidate index: one entry per
    /// node, sorted by `(base_share ascending, node id ascending)`, where
    /// `base_share` is bitwise identical to
    /// `node_total_share(node, None)`.
    ///
    /// The index is a lazily maintained cache: validated in O(1) against
    /// the global epoch, with only epoch-stale nodes recomputed (and a
    /// re-sort only when some share actually changed). Best-fit admission
    /// scans walk it in share order and stop at the first infeasible
    /// entry — f64 addition is monotone non-decreasing, so every later
    /// (larger-base) node is infeasible too.
    pub fn with_share_index<T>(&self, f: impl FnOnce(&[ShareEntry]) -> T) -> T {
        let mut idx = self.share_index.borrow_mut();
        self.refresh_share_index(&mut idx);
        f(&idx.entries)
    }

    fn refresh_share_index(&self, idx: &mut ShareIndex) {
        let n = self.cluster.len();
        if idx.built && idx.global_epoch == self.global_epoch {
            return;
        }
        let sort_and_reindex = |idx: &mut ShareIndex| {
            idx.entries.sort_unstable_by(|a, b| {
                a.base_share
                    .total_cmp(&b.base_share)
                    .then_with(|| a.node.cmp(&b.node))
            });
            idx.pos.clear();
            idx.pos.resize(n, 0);
            for (i, e) in idx.entries.iter().enumerate() {
                idx.pos[e.node.0 as usize] = i as u32;
            }
        };
        if !idx.built {
            idx.entries.clear();
            idx.node_epochs.clear();
            for node in 0..n {
                let id = NodeId(node as u32);
                idx.node_epochs.push(self.node_epoch(id));
                idx.entries.push(ShareEntry {
                    base_share: self.index_base_share(id),
                    node: id,
                });
            }
            sort_and_reindex(idx);
            idx.global_epoch = self.global_epoch;
            idx.built = true;
            return;
        }
        // Incremental revalidation: only nodes whose epoch moved get their
        // share recomputed; re-sort only if some share actually changed.
        let mut dirty = false;
        for node in 0..n {
            let epoch = self.node_epoch(NodeId(node as u32));
            if idx.node_epochs[node] == epoch {
                continue;
            }
            idx.node_epochs[node] = epoch;
            let share = self.index_base_share(NodeId(node as u32));
            let p = idx.pos[node] as usize;
            if idx.entries[p].base_share.to_bits() != share.to_bits() {
                idx.entries[p].base_share = share;
                dirty = true;
            }
        }
        if dirty {
            sort_and_reindex(idx);
        }
        idx.global_epoch = self.global_epoch;
    }

    /// Base share the index stores for a node: `+inf` for a down node
    /// (sorts last, and `inf + job_share` stays infeasible, so
    /// share-ordered admission walks exclude it without a branch), the
    /// bitwise [`ProportionalCluster::node_total_share`] otherwise.
    fn index_base_share(&self, node: NodeId) -> f64 {
        if self.node_is_up(node) {
            self.node_total_share(node, None)
        } else {
            f64::INFINITY
        }
    }

    /// Scheduler-visible projection input for one node: the resident jobs'
    /// remaining *estimated* work and absolute deadlines, plus optionally
    /// a tentative new job (whose estimate is taken in full).
    pub fn node_projection(&self, node: NodeId, extra: Option<&Job>) -> Vec<ProjectedJob> {
        let mut out = Vec::new();
        self.node_projection_into(node, extra, &mut out);
        out
    }

    /// [`ProportionalCluster::node_projection`] into a caller-owned buffer
    /// (cleared first) — the allocation-free variant for admission hot
    /// paths holding a `ProjectionWorkspace`. Returns the earliest
    /// resident absolute deadline (`+∞` when nothing is resident), picked
    /// up in the same pass so pre-kernel screens (see
    /// `projection::screens_zero_risk`) need no second walk. The
    /// tentative `extra` job is appended to `out` but excluded from the
    /// returned minimum — it is per-candidate, not node state.
    pub fn node_projection_into(
        &self,
        node: NodeId,
        extra: Option<&Job>,
        out: &mut Vec<ProjectedJob>,
    ) -> f64 {
        out.clear();
        let mut min_dl = f64::INFINITY;
        for &s in &self.node_jobs[node.0 as usize] {
            let si = s as usize;
            let abs_deadline = self.abs_deadline[si];
            min_dl = min_dl.min(abs_deadline);
            out.push(ProjectedJob {
                remaining_est: self.remaining_est[si].max(EPS_WORK),
                abs_deadline,
            });
        }
        if let Some(j) = extra {
            out.push(projected_job(j));
        }
        min_dl
    }

    /// The Eq. 1 share a not-yet-admitted job would require, evaluated at
    /// the engine's current instant (full estimate over remaining
    /// deadline).
    pub fn job_share(&self, job: &Job) -> f64 {
        let now = self.last_update.as_secs();
        job.estimate.as_secs().max(EPS_WORK)
            / (job.absolute_deadline().as_secs() - now).max(EPS_DEADLINE)
    }

    /// Sum of required shares on a node, evaluated with current beliefs
    /// (Eq. 2), plus optionally a tentative new job.
    ///
    /// Summation is left-to-right in resident order with the tentative
    /// job last, so `node_total_share(n, None) + job_share(job)` is
    /// bitwise identical to `node_total_share(n, Some(job))` — the
    /// identity Libra's per-node share cache relies on.
    pub fn node_total_share(&self, node: NodeId, extra: Option<&Job>) -> f64 {
        let now = self.last_update.as_secs();
        let mut sum = 0.0;
        for &s in &self.node_jobs[node.0 as usize] {
            let si = s as usize;
            sum += self.remaining_est[si].max(EPS_WORK)
                / (self.abs_deadline[si] - now).max(EPS_DEADLINE);
        }
        if let Some(j) = extra {
            sum += self.job_share(j);
        }
        sum
    }

    /// Mean processor utilisation over `[0, now]`, relative to the
    /// capacity that was actually *up*: node-seconds spent down are
    /// excluded from the denominator, so churn does not read as idleness.
    pub fn utilization(&self) -> f64 {
        let elapsed = self.last_update.as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let capacity = elapsed * self.cluster.len() as f64 - self.down_integral;
        if capacity <= 0.0 {
            return 0.0;
        }
        self.busy_integral / capacity
    }

    /// Mean utilisation of one node over `[0, now]` (delivered work over
    /// elapsed time; allocated-but-idle gang surplus does not count).
    pub fn node_utilization(&self, node: NodeId) -> f64 {
        let elapsed = self.last_update.as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.node_busy[node.0 as usize] / elapsed
    }

    /// Spread between the busiest and idlest node's utilisation — a
    /// load-imbalance indicator (0 = perfectly balanced).
    pub fn utilization_imbalance(&self) -> f64 {
        let elapsed = self.last_update.as_secs();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let max = self
            .node_busy
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self.node_busy.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) / elapsed
    }

    /// Current execution rate of a resident job (reference-seconds per
    /// second), if resident.
    pub fn rate_of(&self, id: JobId) -> Option<f64> {
        self.slot_of(id).map(|si| self.rate[si])
    }

    /// Remaining *estimated* work of a resident job, if resident.
    pub fn remaining_est_of(&self, id: JobId) -> Option<f64> {
        self.slot_of(id).map(|si| self.remaining_est[si])
    }

    /// Recomputes every resident's rate from current beliefs and tracks
    /// the event-gap minimum on the way. Allocation-free: the per-node
    /// totals and per-slot shares live in engine-owned scratch.
    ///
    /// Both passes iterate `order` (ascending job id), so every f64
    /// accumulation happens in the reference implementation's order and
    /// the results are bitwise identical to
    /// [`ProportionalCluster::recompute_rates_reference`].
    fn recompute_rates(&mut self) {
        let now = self.last_update.as_secs();
        // Pass 1: every live slot's Eq. 1 share from current beliefs,
        // summed into the per-node totals of its gang.
        self.totals_scratch.fill(0.0);
        for &s in &self.order {
            let si = s as usize;
            let rd = (self.abs_deadline[si] - now).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            self.share_scratch[si] = share;
            if self.width[si] == 1 {
                self.totals_scratch[self.node0[si] as usize] += share;
            } else {
                let start = self.gang_start[si] as usize;
                for &ni in &self.gang_nodes[start..start + self.width[si] as usize] {
                    self.totals_scratch[ni as usize] += share;
                }
            }
        }
        self.scratch_valid = true;
        self.recompute_pass2();
    }

    /// Pass 2 of the rate recompute: rates (gang = min over member
    /// nodes) and the running event-gap minimum, consuming the per-node
    /// totals and per-slot shares pass 1 left in engine scratch. Split
    /// out so the advance progress loop can fuse pass 1 into its own
    /// sweep when nothing discrete happened (see
    /// [`ProportionalCluster::advance_into`]).
    fn recompute_pass2(&mut self) {
        let now = self.last_update.as_secs();
        let strict = matches!(self.cfg.discipline, ShareDiscipline::Strict);
        let mut min_dt = f64::INFINITY;
        for &s in &self.order {
            let si = s as usize;
            let share = self.share_scratch[si];
            let rate = if self.width[si] == 1 {
                let ni = self.node0[si] as usize;
                let total = self.totals_scratch[ni];
                let denom = if strict { total.max(1.0) } else { total };
                share / denom * self.speeds[ni]
            } else {
                let start = self.gang_start[si] as usize;
                let mut rate = f64::INFINITY;
                // Gang members frequently land on nodes with identical
                // share totals and speeds (gangs overlap on the same node
                // sets). `share / denom * speed` is a pure function of
                // those bits, so replaying the previous member's rate on
                // a bitwise-equal (total, speed) pair is exact — the min
                // fold sees identical values in identical order.
                let mut last_key = (u64::MAX, u64::MAX);
                let mut last_rate = f64::INFINITY;
                for &ni in &self.gang_nodes[start..start + self.width[si] as usize] {
                    let ni = ni as usize;
                    let total = self.totals_scratch[ni];
                    let speed = self.speeds[ni];
                    let key = (total.to_bits(), speed.to_bits());
                    let node_rate = if key == last_key {
                        last_rate
                    } else {
                        let denom = if strict { total.max(1.0) } else { total };
                        let r = share / denom * speed;
                        last_key = key;
                        last_rate = r;
                        r
                    };
                    rate = rate.min(node_rate);
                }
                rate
            };
            // The share (and hence the rate) can underflow to exactly
            // zero when a co-resident share is astronomically inflated;
            // `event_dt` and the projection kernel tolerate that.
            debug_assert!(rate.is_finite() && rate >= 0.0);
            self.rate[si] = rate;
            min_dt = min_dt.min(event_dt(
                rate,
                self.remaining_work[si],
                self.remaining_est[si],
                self.abs_deadline[si],
                now,
            ));
        }
        self.next_dt = min_dt;
        self.rates_clean = true;
    }

    /// Reference implementation of
    /// [`ProportionalCluster::recompute_rates`]: fresh totals allocation,
    /// no single-node fast path, and the event-gap minimum recovered by a
    /// separate full scan. Kept as the differential-test oracle.
    pub fn recompute_rates_reference(&mut self) {
        let now = self.last_update.as_secs();
        let mut totals = vec![0.0f64; self.cluster.len()];
        for &s in &self.order {
            let si = s as usize;
            let rd = (self.abs_deadline[si] - now).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            let m = self.meta[si].as_ref().expect("resident has meta");
            for n in &m.nodes {
                totals[n.0 as usize] += share;
            }
        }
        for &s in &self.order {
            let si = s as usize;
            let rd = (self.abs_deadline[si] - now).max(EPS_DEADLINE);
            let share = self.remaining_est[si].max(EPS_WORK) / rd;
            let m = self.meta[si].as_ref().expect("resident has meta");
            let mut rate = f64::INFINITY;
            for n in &m.nodes {
                let total = totals[n.0 as usize];
                let denom = match self.cfg.discipline {
                    ShareDiscipline::Strict => total.max(1.0),
                    ShareDiscipline::WorkConserving => total,
                };
                let node_rate = share / denom * self.cluster.speed_factor(*n);
                rate = rate.min(node_rate);
            }
            debug_assert!(rate.is_finite() && rate >= 0.0);
            self.rate[si] = rate;
        }
        let mut min_dt = f64::INFINITY;
        for &s in &self.order {
            let si = s as usize;
            min_dt = min_dt.min(event_dt(
                self.rate[si],
                self.remaining_work[si],
                self.remaining_est[si],
                self.abs_deadline[si],
                now,
            ));
        }
        self.next_dt = min_dt;
        self.rates_clean = true;
        // The totals above lived in a local buffer: the engine scratch is
        // now stale relative to `rate`/`next_dt`, and incremental
        // consumers must rebuild it before extending it.
        self.scratch_valid = false;
    }

    /// Extracts the canonical engine state (see [`EngineSnapshot`]).
    /// Valid at any quiescent instant — i.e. whenever the facade could
    /// also accept a `submit` or `advance`.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            residents: self
                .order
                .iter()
                .map(|&s| {
                    let si = s as usize;
                    let m = self.meta[si].as_ref().expect("resident has meta");
                    ResidentSnapshot {
                        job: m.job.clone(),
                        nodes: m.nodes.clone(),
                        node_positions: m.slots.clone(),
                        started: m.started,
                        overruns: m.overruns,
                        remaining_work: self.remaining_work[si],
                        remaining_est: self.remaining_est[si],
                    }
                })
                .collect(),
            last_update: self.last_update,
            busy_integral: self.busy_integral,
            down_integral: self.down_integral,
            node_busy: self.node_busy.clone(),
            down: self.down.clone(),
        }
    }

    /// Rebuilds an engine from a snapshot. Canonical state is injected
    /// verbatim; every derived structure — rates, per-node share
    /// totals, event-gap minimum, occupancy mask, min-deadline cache,
    /// share index, scratch — is recomputed from it. Rates recompute by
    /// the same from-zero ascending-job-id fold every live recompute
    /// uses, so the restored engine is bitwise equal to the one the
    /// snapshot was taken from (epoch counters restart at zero, which
    /// no consumer observes: they are only compared for equality, and a
    /// restored engine starts with no caches to invalidate).
    ///
    /// Returns a description of the first violated invariant instead of
    /// panicking, so checkpoint restore can surface corruption as a
    /// structured error.
    pub fn from_snapshot(
        cluster: Cluster,
        cfg: ProportionalConfig,
        snap: &EngineSnapshot,
    ) -> Result<Self, String> {
        let n = cluster.len();
        if snap.down.len() != n || snap.node_busy.len() != n {
            return Err(format!(
                "per-node arrays cover {}/{} nodes, cluster has {n}",
                snap.down.len(),
                snap.node_busy.len()
            ));
        }
        let mut eng = ProportionalCluster::new(cluster, cfg);
        eng.down = snap.down.clone();
        eng.down_count = snap.down.iter().filter(|d| **d).count();
        eng.node_busy = snap.node_busy.clone();
        eng.busy_integral = snap.busy_integral;
        eng.down_integral = snap.down_integral;
        eng.last_update = snap.last_update;
        // Per-node resident lists are placed by recorded position, so
        // each list must receive exactly its residents' positions as a
        // permutation of 0..len.
        let mut node_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (slot, r) in snap.residents.iter().enumerate() {
            let s = slot as u32;
            if slot > 0 && snap.residents[slot - 1].job.id >= r.job.id {
                return Err("residents not in ascending-id order".into());
            }
            if r.nodes.is_empty()
                || r.nodes.len() != r.job.procs as usize
                || r.nodes.len() != r.node_positions.len()
            {
                return Err(format!("{} node list does not match procs", r.job.id));
            }
            if !(r.remaining_work.is_finite()
                && r.remaining_work > 0.0
                && r.remaining_est.is_finite()
                && r.remaining_est > 0.0)
            {
                return Err(format!("{} has non-positive remaining work", r.job.id));
            }
            let dl = r.job.absolute_deadline().as_secs();
            let real_s = eng.alloc_slot();
            debug_assert_eq!(real_s, s, "blank engine allocates slots in order");
            eng.gang_start[slot] = eng.gang_nodes.len() as u32;
            let mut seen = r.nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != r.nodes.len() {
                return Err(format!("{} allocation repeats a node", r.job.id));
            }
            for (node, &pos) in r.nodes.iter().zip(&r.node_positions) {
                let ni = node.0 as usize;
                if ni >= n {
                    return Err(format!("{} hosts on unknown {node}", r.job.id));
                }
                if snap.down[ni] {
                    return Err(format!("{} hosts on down {node}", r.job.id));
                }
                let list = &mut node_lists[ni];
                let pos = pos as usize;
                if list.len() <= pos {
                    list.resize(pos + 1, u32::MAX);
                }
                if list[pos] != u32::MAX {
                    return Err(format!("{node} position {pos} claimed twice"));
                }
                list[pos] = s;
                eng.gang_nodes.push(node.0);
                eng.occ_mask[ni / 64] |= 1u64 << (ni % 64);
                eng.node_min_dl[ni] = eng.node_min_dl[ni].min(dl);
            }
            eng.ids[slot] = r.job.id;
            eng.remaining_work[slot] = r.remaining_work;
            eng.remaining_est[slot] = r.remaining_est;
            eng.abs_deadline[slot] = dl;
            eng.estimate_secs[slot] = r.job.estimate.as_secs();
            eng.width[slot] = r.nodes.len() as u32;
            eng.width_f[slot] = r.nodes.len() as f64;
            eng.node0[slot] = r.nodes[0].0;
            eng.meta[slot] = Some(ResidentMeta {
                job: r.job.clone(),
                nodes: r.nodes.clone(),
                slots: r.node_positions.clone(),
                started: r.started,
                overruns: r.overruns,
            });
            eng.order.push(s);
        }
        for (ni, list) in node_lists.into_iter().enumerate() {
            if list.contains(&u32::MAX) {
                return Err(format!("node {ni} resident positions have a gap"));
            }
            eng.node_jobs[ni] = list;
        }
        eng.rates_clean = false;
        eng.recompute_rates();
        Ok(eng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::SimDuration;
    use workload::Urgency;

    fn cluster(n: usize) -> Cluster {
        Cluster::homogeneous(n, 168.0)
    }

    fn job(id: u64, submit: f64, runtime: f64, estimate: f64, procs: u32, deadline: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            runtime: SimDuration::from_secs(runtime),
            estimate: SimDuration::from_secs(estimate),
            procs,
            deadline: SimDuration::from_secs(deadline),
            urgency: Urgency::Low,
        }
    }

    /// Drives the engine until all jobs complete; returns (job, finish).
    fn run_to_completion(engine: &mut ProportionalCluster) -> Vec<CompletedJob> {
        let mut done = Vec::new();
        let mut guard = 0;
        while let Some(t) = engine.next_event_time() {
            done.extend(engine.advance(t));
            guard += 1;
            assert!(guard < 100_000, "engine did not converge");
        }
        done
    }

    fn on_node(e: &ProportionalCluster, n: u32) -> Vec<JobId> {
        e.jobs_on_node(NodeId(n)).collect()
    }

    fn strict_cfg() -> ProportionalConfig {
        ProportionalConfig {
            discipline: ShareDiscipline::Strict,
            ..Default::default()
        }
    }

    #[test]
    fn accurate_single_job_meets_deadline_exactly_under_strict() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        // Required share 0.5 → rate 0.5 → finish at 200.
        assert!((e.rate_of(JobId(0)).unwrap() - 0.5).abs() < 1e-12);
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].finish.as_secs() - 200.0).abs() < 1e-3,
            "finish {:?}",
            done[0].finish
        );
        assert_eq!(done[0].overruns, 0);
        assert!(e.is_empty());
    }

    #[test]
    fn work_conserving_runs_at_full_speed_when_alone() {
        // Work-conserving is the default discipline.
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        assert!((e.rate_of(JobId(0)).unwrap() - 1.0).abs() < 1e-12);
        let done = run_to_completion(&mut e);
        assert!((done[0].finish.as_secs() - 100.0).abs() < 1e-3);
    }

    #[test]
    fn overestimated_job_finishes_when_actual_work_done() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        // Estimate 4× the runtime, deadline 400: share = 1.0 (est 400 / dl
        // 400)... the scheduler thinks the job needs the whole node.
        e.admit(
            job(0, 0.0, 100.0, 400.0, 1, 400.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let done = run_to_completion(&mut e);
        // Actual work 100 at rate 1.0 → finishes at ~100, well before the
        // deadline, despite the scheduler's inflated belief.
        assert!(
            (done[0].finish.as_secs() - 100.0).abs() < 1e-3,
            "finish {:?}",
            done[0].finish
        );
        assert_eq!(done[0].overruns, 0);
    }

    #[test]
    fn underestimated_job_overruns_and_still_completes() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        // Estimate 50, actual 100, deadline 100: share starts at 0.5.
        e.admit(
            job(0, 0.0, 100.0, 50.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 1);
        assert!(done[0].overruns >= 1, "overruns {}", done[0].overruns);
        // It must finish eventually — after its deadline.
        assert!(done[0].finish.as_secs() > 100.0);
        // And the engine must never lose the job.
        assert!(e.is_empty());
    }

    #[test]
    fn overloaded_node_squeezes_coresidents() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        // Two jobs each demanding share 0.75: the node is overloaded and
        // both run slower than required.
        e.admit(
            job(0, 0.0, 75.0, 75.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 75.0, 75.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let r0 = e.rate_of(JobId(0)).unwrap();
        assert!((r0 - 0.5).abs() < 1e-9, "rate {r0}");
        let done = run_to_completion(&mut e);
        for d in &done {
            assert!(
                d.finish.as_secs() > 100.0 + 1.0,
                "both jobs miss: {:?}",
                d.finish
            );
        }
    }

    #[test]
    fn gang_job_advances_at_slowest_member_rate() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        // Node 0 also hosts a competing job → gang member on node 0 is
        // slower than on node 1.
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 125.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 50.0, 50.0, 2, 100.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        // Node 0: shares 0.8 + 0.5 = 1.3 (overloaded) → gang rate on node
        // 0 = 0.5/1.3; node 1: share 0.5 alone → rate 0.5. Gang = min.
        let gang = e.rate_of(JobId(1)).unwrap();
        assert!((gang - 0.5 / 1.3).abs() < 1e-9, "gang rate {gang}");
    }

    #[test]
    fn fail_node_evicts_gangs_and_frees_survivor_capacity() {
        let mut e = ProportionalCluster::new(cluster(3), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 2, 400.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 100.0, 100.0, 1, 400.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
        e.admit(
            job(2, 0.0, 100.0, 100.0, 1, 400.0),
            vec![NodeId(2)],
            SimTime::ZERO,
        );
        let t = SimTime::from_secs(50.0);
        e.advance(t);
        let epoch_before = e.global_epoch();
        let displaced = e.fail_node(NodeId(0), t);
        // Only the gang touching node 0 dies; its progress is reported.
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].job.id, JobId(0));
        assert!(displaced[0].remaining_work < 100.0);
        assert!(!e.node_is_up(NodeId(0)));
        assert_eq!(e.up_nodes(), 2);
        assert!(e.global_epoch() > epoch_before);
        // Node 1 lost its gang member: only job 1 remains there.
        assert_eq!(on_node(&e, 1), vec![JobId(1)]);
        assert!(on_node(&e, 0).is_empty());
        // The survivors still drain to completion.
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 2);
        // The down node sorts last in the share index with an infinite base.
        e.with_share_index(|entries| {
            assert_eq!(entries.last().unwrap().node, NodeId(0));
            assert!(entries.last().unwrap().base_share.is_infinite());
        });
        e.restore_node(NodeId(0), e.now());
        assert!(e.node_is_up(NodeId(0)));
        e.with_share_index(|entries| {
            assert!(entries.iter().all(|s| s.base_share == 0.0));
        });
    }

    #[test]
    #[should_panic(expected = "onto down")]
    fn admitting_onto_down_node_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.fail_node(NodeId(1), SimTime::ZERO);
        e.admit(
            job(0, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_node_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.fail_node(NodeId(1), SimTime::ZERO);
        e.fail_node(NodeId(1), SimTime::ZERO);
    }

    #[test]
    fn fail_node_rebalances_shared_node_rates() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        // Two jobs share node 1; one also spans node 0.
        e.admit(
            job(0, 0.0, 100.0, 100.0, 2, 200.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
        let squeezed = e.rate_of(JobId(1)).unwrap();
        e.fail_node(NodeId(0), SimTime::ZERO);
        // With the gang evicted, job 1 owns node 1 again.
        assert!(e.rate_of(JobId(0)).is_none());
        assert!(e.rate_of(JobId(1)).unwrap() > squeezed);
    }

    #[test]
    fn utilization_accounts_gang_width() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        let cfg_now = SimTime::ZERO;
        e.admit(
            job(0, 0.0, 100.0, 100.0, 2, 100.0),
            vec![NodeId(0), NodeId(1)],
            cfg_now,
        );
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 1);
        // Share 1.0 on both nodes → full utilisation of both for 100 s.
        assert!(
            (e.utilization() - 1.0).abs() < 1e-6,
            "util {}",
            e.utilization()
        );
    }

    #[test]
    fn arrivals_mid_run_redistribute_rates() {
        let mut e = ProportionalCluster::new(cluster(1), strict_cfg());
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 200.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        // Advance halfway, then a second job arrives requiring share 0.8.
        let t = SimTime::from_secs(100.0);
        let done = e.advance(t);
        assert!(done.is_empty());
        assert!((e.remaining_est_of(JobId(0)).unwrap() - 50.0).abs() < 1e-9);
        e.admit(job(1, 100.0, 80.0, 80.0, 1, 100.0), vec![NodeId(0)], t);
        // Node now has shares 0.5 + 0.8 = 1.3 → job 0's rate drops.
        let r0 = e.rate_of(JobId(0)).unwrap();
        assert!((r0 - 0.5 / 1.3).abs() < 1e-9, "rate {r0}");
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn node_total_share_matches_eq2() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 60.0, 60.0, 1, 120.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let s = e.node_total_share(NodeId(0), None);
        assert!((s - 0.5).abs() < 1e-9);
        let new = job(1, 0.0, 30.0, 30.0, 1, 100.0);
        let s2 = e.node_total_share(NodeId(0), Some(&new));
        assert!((s2 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn projection_input_includes_tentative_job() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 60.0, 60.0, 1, 120.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let new = job(1, 0.0, 30.0, 30.0, 1, 100.0);
        let pj = e.node_projection(NodeId(0), Some(&new));
        assert_eq!(pj.len(), 2);
        assert_eq!(pj[1].remaining_est, 30.0);
        assert_eq!(pj[1].abs_deadline, 100.0);
    }

    #[test]
    #[should_panic(expected = "advance() the engine")]
    fn stale_admit_panics() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::from_secs(5.0),
        );
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn wrong_node_count_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 2, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_node_panics() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 2, 100.0),
            vec![NodeId(0), NodeId(0)],
            SimTime::ZERO,
        );
    }

    #[test]
    fn queries_on_absent_jobs_return_none() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        assert_eq!(e.rate_of(JobId(7)), None);
        assert_eq!(e.remaining_est_of(JobId(7)), None);
        e.admit(
            job(7, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(1)],
            SimTime::ZERO,
        );
        assert_eq!(on_node(&e, 1), vec![JobId(7)]);
        assert!(on_node(&e, 0).is_empty());
        assert_eq!(e.resident_count(NodeId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_rejects_time_travel() {
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        e.admit(
            job(0, 0.0, 10.0, 10.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.advance(SimTime::from_secs(5.0));
        e.advance(SimTime::from_secs(1.0));
    }

    #[test]
    fn idle_engine_has_no_next_event() {
        let e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        assert!(e.next_event_time().is_none());
        assert_eq!(e.utilization(), 0.0);
    }

    #[test]
    fn quantum_bounds_event_gap() {
        let cfg = ProportionalConfig {
            max_quantum: Some(10.0),
            ..Default::default()
        };
        let mut e = ProportionalCluster::new(cluster(1), cfg);
        e.admit(
            job(0, 0.0, 1000.0, 1000.0, 1, 10_000.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let next = e.next_event_time().unwrap();
        assert!((next.as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn per_node_utilization_tracks_where_work_ran() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        // One job on node 0 only; node 1 idles.
        e.admit(
            job(0, 0.0, 100.0, 100.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 1);
        assert!((e.node_utilization(NodeId(0)) - 1.0).abs() < 1e-6);
        assert_eq!(e.node_utilization(NodeId(1)), 0.0);
        assert!((e.utilization_imbalance() - 1.0).abs() < 1e-6);
        // Cluster-wide utilisation is the mean of the two.
        assert!((e.utilization() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cached_next_event_matches_scan_through_a_busy_run() {
        let mut e = ProportionalCluster::new(cluster(4), ProportionalConfig::default());
        let mut id = 0u64;
        let mut t = 0.0;
        for round in 0..40 {
            // Admit a small burst with varied shapes.
            for k in 0..3 {
                let node = NodeId(((round + k) % 4) as u32);
                e.admit(
                    job(
                        id,
                        t,
                        20.0 + 7.0 * k as f64,
                        25.0,
                        1,
                        90.0 + 11.0 * k as f64,
                    ),
                    vec![node],
                    SimTime::from_secs(t),
                );
                assert_eq!(
                    e.next_event_time().map(|t| t.as_secs().to_bits()),
                    e.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                    "cached and scan diverged after admit"
                );
                id += 1;
            }
            let next = e.next_event_time().expect("jobs resident");
            t = next.as_secs();
            e.advance(next);
            assert_eq!(
                e.next_event_time().map(|t| t.as_secs().to_bits()),
                e.next_event_time_scan().map(|t| t.as_secs().to_bits()),
                "cached and scan diverged after advance"
            );
        }
        // Drain to idle; the two must agree at every event.
        while let Some(next) = e.next_event_time() {
            assert_eq!(
                e.next_event_time().map(|t| t.as_secs().to_bits()),
                e.next_event_time_scan().map(|t| t.as_secs().to_bits())
            );
            e.advance(next);
        }
        assert!(e.is_empty());
        assert!(e.next_event_time_scan().is_none());
    }

    #[test]
    fn swap_remove_keeps_slots_consistent() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        // Five jobs on node 0 with staggered finishes, one gang job over
        // both nodes: removals exercise the slot-patching path.
        for i in 0..5 {
            e.admit(
                job(
                    i,
                    0.0,
                    10.0 + 10.0 * i as f64,
                    10.0 + 10.0 * i as f64,
                    1,
                    500.0,
                ),
                vec![NodeId(0)],
                SimTime::ZERO,
            );
        }
        e.admit(
            job(9, 0.0, 25.0, 25.0, 2, 500.0),
            vec![NodeId(0), NodeId(1)],
            SimTime::ZERO,
        );
        let mut done = 0;
        while let Some(next) = e.next_event_time() {
            done += e.advance(next).len();
            // Slot invariant: every resident's recorded slot points at
            // itself in the node list.
            for &s in &e.order {
                let m = e.meta[s as usize].as_ref().unwrap();
                for (n, &slot) in m.nodes.iter().zip(&m.slots) {
                    assert_eq!(e.node_jobs[n.0 as usize][slot as usize], s);
                }
            }
        }
        assert_eq!(done, 6);
        assert!(on_node(&e, 0).is_empty());
        assert!(on_node(&e, 1).is_empty());
    }

    #[test]
    fn epochs_track_scheduler_visible_change() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        let e0 = e.node_epoch(NodeId(0));
        let e1 = e.node_epoch(NodeId(1));
        e.admit(
            job(0, 0.0, 50.0, 50.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        assert!(e.node_epoch(NodeId(0)) > e0, "admit must bump the node");
        assert_eq!(
            e.node_epoch(NodeId(1)),
            e1,
            "untouched node keeps its epoch"
        );

        // Zero-width advance changes nothing scheduler-visible.
        let mid0 = e.node_epoch(NodeId(0));
        e.advance(SimTime::ZERO);
        assert_eq!(e.node_epoch(NodeId(0)), mid0);

        // A real advance moves `now` and the estimates: occupied nodes
        // bump, empty nodes do not.
        e.advance(SimTime::from_secs(10.0));
        assert!(e.node_epoch(NodeId(0)) > mid0);
        assert_eq!(e.node_epoch(NodeId(1)), e1);
    }

    #[test]
    fn rate_starved_resident_gets_conservative_wake() {
        // Job 1's share underflows to zero next to an astronomically
        // inflated co-resident: the engine must neither panic nor stall.
        let cfg = ProportionalConfig {
            max_quantum: None,
            ..Default::default()
        };
        let mut e = ProportionalCluster::new(cluster(1), cfg);
        e.admit(
            job(0, 0.0, 10.0, 1e300, 1, 1.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.admit(
            job(1, 0.0, 10.0, 1e-6, 1, 1e300),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        assert_eq!(e.rate_of(JobId(1)), Some(0.0), "share underflows to zero");
        let next = e.next_event_time().expect("resident jobs");
        assert!(next > e.now(), "wake must move time forward");
        assert!(
            next.as_secs() <= e.now().as_secs() + FALLBACK_QUANTUM,
            "wake is quantum-bounded"
        );
        assert_eq!(
            e.next_event_time().map(|t| t.as_secs().to_bits()),
            e.next_event_time_scan().map(|t| t.as_secs().to_bits())
        );
        // The engine keeps making progress events even while one job is
        // starved (job 0 completes, then job 1 recovers the full node).
        let mut done = Vec::new();
        let mut guard = 0;
        while let Some(t) = e.next_event_time() {
            done.extend(e.advance(t));
            guard += 1;
            assert!(guard < 100_000, "engine did not converge");
        }
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn share_index_matches_direct_totals_and_stays_sorted() {
        let mut e = ProportionalCluster::new(cluster(4), ProportionalConfig::default());
        let check = |e: &ProportionalCluster| {
            e.with_share_index(|entries| {
                assert_eq!(entries.len(), 4);
                for w in entries.windows(2) {
                    assert!(
                        (w[0].base_share, w[0].node) <= (w[1].base_share, w[1].node),
                        "index out of order: {w:?}"
                    );
                }
                for entry in entries {
                    assert_eq!(
                        entry.base_share.to_bits(),
                        e.node_total_share(entry.node, None).to_bits(),
                        "stale share for {:?}",
                        entry.node
                    );
                }
            });
        };
        check(&e);
        // Load the nodes unevenly, checking after every mutation kind.
        e.admit(
            job(0, 0.0, 60.0, 60.0, 1, 120.0),
            vec![NodeId(2)],
            SimTime::ZERO,
        );
        check(&e);
        e.admit(
            job(1, 0.0, 90.0, 90.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        e.admit(
            job(2, 0.0, 30.0, 30.0, 1, 400.0),
            vec![NodeId(2)],
            SimTime::ZERO,
        );
        check(&e);
        let next = e.next_event_time().unwrap();
        e.advance(next);
        check(&e);
        while let Some(t) = e.next_event_time() {
            e.advance(t);
            check(&e);
        }
        assert!(e.is_empty());
        check(&e);
    }

    #[test]
    fn global_epoch_moves_with_any_node_epoch() {
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        let g0 = e.global_epoch();
        e.admit(
            job(0, 0.0, 50.0, 50.0, 1, 100.0),
            vec![NodeId(0)],
            SimTime::ZERO,
        );
        assert!(e.global_epoch() > g0, "admit must bump the global epoch");
        let g1 = e.global_epoch();
        e.advance(SimTime::ZERO);
        assert_eq!(e.global_epoch(), g1, "zero-width advance changes nothing");
        e.advance(SimTime::from_secs(5.0));
        assert!(
            e.global_epoch() > g1,
            "a real advance bumps the global epoch"
        );
    }

    #[test]
    fn advance_matches_reference_under_long_churn() {
        // Long-lived residents under steady event churn: the fast path
        // (scratch buffers, cached event minimum, batched epoch bumps)
        // must stay bitwise identical to the reference at every step.
        let mut fast = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        let mut refr = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        for i in 0..8 {
            let j = job(i, 0.0, 1e6, 1e6, 1, 2e6);
            fast.admit(j.clone(), vec![NodeId((i % 2) as u32)], SimTime::ZERO);
            refr.admit(j, vec![NodeId((i % 2) as u32)], SimTime::ZERO);
        }
        for step in 1..500u64 {
            let t = SimTime::from_secs(step as f64);
            let a = fast.advance(t);
            let b = refr.advance_reference(t);
            assert_eq!(a.len(), b.len());
            assert_eq!(
                fast.next_event_time().map(|t| t.as_secs().to_bits()),
                refr.next_event_time().map(|t| t.as_secs().to_bits()),
                "fast and reference diverged at step {step}"
            );
            for i in 0..8 {
                assert_eq!(
                    fast.rate_of(JobId(i)).map(f64::to_bits),
                    refr.rate_of(JobId(i)).map(f64::to_bits)
                );
                assert_eq!(
                    fast.remaining_est_of(JobId(i)).map(f64::to_bits),
                    refr.remaining_est_of(JobId(i)).map(f64::to_bits)
                );
            }
            assert_eq!(fast.utilization().to_bits(), refr.utilization().to_bits());
        }
    }

    #[test]
    fn zero_dt_advance_skips_recompute_bitwise_inertly() {
        // Same-instant advances must neither change any rate bit nor pay
        // for a recompute (observable through the unchanged epochs).
        let mut e = ProportionalCluster::new(cluster(2), ProportionalConfig::default());
        for i in 0..4 {
            e.admit(
                job(i, 0.0, 50.0 + i as f64, 60.0, 1, 200.0),
                vec![NodeId((i % 2) as u32)],
                SimTime::ZERO,
            );
        }
        let t = SimTime::from_secs(7.0);
        e.advance(t);
        let rates: Vec<u64> = (0..4)
            .map(|i| e.rate_of(JobId(i)).unwrap().to_bits())
            .collect();
        let next = e.next_event_time().map(|t| t.as_secs().to_bits());
        let g = e.global_epoch();
        for _ in 0..5 {
            let done = e.advance(t);
            assert!(done.is_empty());
        }
        assert_eq!(e.global_epoch(), g);
        assert_eq!(e.next_event_time().map(|t| t.as_secs().to_bits()), next);
        for (i, bits) in rates.iter().enumerate() {
            assert_eq!(e.rate_of(JobId(i as u64)).unwrap().to_bits(), *bits);
        }
    }

    #[test]
    fn work_is_conserved_across_many_jobs() {
        // Total delivered work equals the sum of runtimes regardless of
        // contention (single node, serial jobs).
        let mut e = ProportionalCluster::new(cluster(1), ProportionalConfig::default());
        for i in 0..5 {
            e.admit(
                job(i, 0.0, 40.0, 40.0, 1, 150.0 + 10.0 * i as f64),
                vec![NodeId(0)],
                SimTime::ZERO,
            );
        }
        let done = run_to_completion(&mut e);
        assert_eq!(done.len(), 5);
        let makespan = done.iter().map(|d| d.finish.as_secs()).fold(0.0, f64::max);
        // 200 s of work on one processor: cannot finish before 200 s.
        assert!(makespan >= 200.0 - 1e-3, "makespan {makespan}");
        // busy integral == total work delivered.
        assert!((e.utilization() * makespan - 200.0).abs() < 1.0);
    }
}
