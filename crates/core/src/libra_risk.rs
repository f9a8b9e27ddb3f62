//! LibraRisk: admission by zero risk of deadline delay (§3.3, Algorithm 1).
//!
//! For every node the policy tentatively adds the new job, projects each
//! resident job's finish time under the proportional-share dynamics using
//! the scheduler's *current beliefs* (remaining estimates), converts the
//! projected delays into the deadline-delay metric (Eq. 4) and computes
//! the node's risk `σ_j` (Eq. 6). The node is suitable iff `σ_j = 0`, and
//! the job is accepted iff at least `numproc` suitable nodes exist.
//!
//! Two properties make this different from — and under inaccurate
//! estimates better than — Libra's share test:
//!
//! 1. `σ_j` is a *dispersion*, so a projected delay that would hit every
//!    job on the node equally (most importantly: a lone job whose inflated
//!    estimate exceeds its deadline) reads as **certainty, not risk** —
//!    the job is accepted, and because real estimates are mostly
//!    over-estimates it usually meets its deadline anyway.
//! 2. The projection consumes the engine's live remaining estimates,
//!    including the re-armed residuals of currently *overrunning*
//!    (under-estimated) jobs — a node already in trouble projects unequal
//!    delays and is avoided, where Libra would happily keep loading it.

use crate::policy::{DecisionStats, ShareAdmission};
use crate::risk_cache::{class_key, ClassTable};
use cluster::projection::{
    canonical_class_keys, canonicalize_projection, first_segment_shares, is_zero_risk, node_risk,
    node_risk_single_segment, screens_zero_risk, ProjectedJob, ProjectionWorkspace, RiskSummary,
};
use cluster::proportional::{projected_job, ProportionalCluster};
use cluster::NodeId;
use workload::Job;

/// How suitable (zero-risk) nodes are ordered before taking the first
/// `numproc` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeOrdering {
    /// Ascending node id — the literal reading of Algorithm 1 (the loop
    /// appends suitable nodes in index order).
    ById,
    /// Most-loaded (by current total share) first — saturates nodes like
    /// Libra's best fit.
    MostLoadedFirst,
    /// Least-loaded first — spreads jobs out.
    LeastLoadedFirst,
}

/// Tolerance on the projected mean deadline-delay when
/// [`LibraRisk::require_unit_mu`] is enabled.
pub const MU_EPSILON: f64 = 1e-9;

/// Per-node incremental risk state, valid for one engine epoch: the
/// node's scheduler-visible projection input and its resident-only risk
/// contribution (computed lazily, on the first [`LibraRisk::cluster_risk`]
/// query at this epoch).
#[derive(Clone, Debug, Default)]
struct NodeRiskCache {
    epoch: Option<(u64, u64)>,
    jobs: Vec<ProjectedJob>,
    /// Canonical load fingerprint of `jobs` — the sorted
    /// `(deadline, remaining)` bit keys from
    /// [`canonical_class_keys`]. Two nodes with equal lists (and equal
    /// speed) are in the same equivalence class: their projections are a
    /// permutation of each other, so they share one `(μ_j, σ_j)` verdict.
    class_keys: Vec<(u64, u64)>,
    /// Length-seeded hash of `class_keys` — the cheap prescreen before
    /// the exact list compare.
    class_hash: u64,
    /// The projection kernel's first-segment shares of `jobs` at this
    /// epoch's `now`, plus their left-to-right sum — the warm prefix the
    /// kernel starts from instead of recomputing the opening share pass
    /// per candidate (see `ProjectionWorkspace::node_risk_delta_prefixed`).
    first_shares: Vec<f64>,
    share_sum: f64,
    /// Earliest resident absolute deadline (`+∞` when empty) — input to
    /// the pre-kernel zero-risk screen.
    min_deadline: f64,
    /// Resident-only [`RiskSummary`] — the node's cluster-risk
    /// contribution. `None` until queried at the current epoch.
    base: Option<RiskSummary>,
    /// The node's resident arena slots in canonical `(deadline,
    /// remaining)` order — `jobs` is emitted by walking this permutation.
    /// Valid per *membership* epoch (slot identity survives plain
    /// advances), which is what lets the cross-decision pairing check
    /// re-read current projection bits through it without rebuilding.
    perm: Vec<u32>,
    /// [`ProportionalCluster::node_membership_epoch`] the permutation was
    /// built at; `None` before the first refresh.
    perm_epoch: Option<u64>,
    /// Cross-decision equivalence pairing: `(representative node,
    /// representative's membership epoch, this node's membership epoch)`
    /// captured when a confirmed class hit proved the two resident
    /// multisets bitwise equal. The pairing is *self-verifying*: a replay
    /// re-compares the current projection bits of both nodes through
    /// their permutations, so it can only ever skip work, never import a
    /// stale verdict.
    pair: Option<(u32, u64, u64)>,
    /// Decision sequence number of the last `(μ_j, σ_j)` evaluation
    /// recorded below (`0` = never) — pairing replays only trust a
    /// representative evaluated for *this* decision's candidate.
    eval_stamp: u64,
    /// `(μ_j, σ_j)` of "residents + candidate" recorded at `eval_stamp`.
    eval_mu: f64,
    eval_sigma: f64,
}

/// Cluster-wide aggregate of per-node resident risk contributions,
/// folded in node-id order (so cached and from-scratch builds are
/// bitwise comparable).
#[derive(Clone, Debug)]
pub struct ClusterRisk {
    /// Per-node contributions, indexed by node id.
    pub contributions: Vec<RiskSummary>,
    /// Total resident jobs projected across the cluster.
    pub jobs: usize,
    /// Σ over nodes of each contribution's `dd_sum`, left-to-right in
    /// node-id order.
    pub dd_sum: f64,
    /// Σ over nodes of each contribution's `dd_sq_sum`, same order.
    pub dd_sq_sum: f64,
    /// Number of nodes whose resident-only `σ_j` reads as nonzero risk.
    pub risky_nodes: usize,
}

impl ClusterRisk {
    /// Cluster-mean deadline-delay over all resident jobs (1.0 when the
    /// cluster is empty — no jobs, no delay).
    pub fn mean_dd(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.dd_sum / self.jobs as f64
        }
    }

    /// `true` when every field (including each per-node contribution)
    /// matches `other` bitwise.
    pub fn bits_eq(&self, other: &ClusterRisk) -> bool {
        self.jobs == other.jobs
            && self.risky_nodes == other.risky_nodes
            && self.dd_sum.to_bits() == other.dd_sum.to_bits()
            && self.dd_sq_sum.to_bits() == other.dd_sq_sum.to_bits()
            && self.contributions.len() == other.contributions.len()
            && self
                .contributions
                .iter()
                .zip(&other.contributions)
                .all(|(a, b)| a.bits_eq(b))
    }
}

/// The LibraRisk admission control.
///
/// The decision loop is incremental and allocation-free after warm-up:
/// each node's resident projection input is cached against the engine's
/// [`ProportionalCluster::node_epoch`] counter (rebuilt only for nodes
/// an admission or advance actually touched), the piecewise projection
/// runs in a reusable [`ProjectionWorkspace`], and an empty node skips
/// the projection outright — a lone tentative job's deadline-delay has
/// no dispersion, so its `σ_j` is exactly zero. Like [`crate::Libra`],
/// an instance assumes it is consulted about a single engine.
#[derive(Clone, Debug)]
pub struct LibraRisk {
    name: String,
    ordering: NodeOrdering,
    require_unit_mu: bool,
    naive_projection: bool,
    cache: Vec<NodeRiskCache>,
    ws: ProjectionWorkspace,
    zero_risk: Vec<NodeId>,
    /// Audit-gauge memo: the last [`LibraRisk::cluster_risk_mean_dd`]
    /// answer, keyed on the engine's `(global_epoch, now)` stamp. The
    /// global epoch pins every occupied node; `now` additionally covers
    /// advances over an empty cluster, which move time without bumping
    /// any epoch. A rejected decision leaves the engine untouched, so
    /// the post-decision audit replays this value in O(1) instead of
    /// re-walking the cluster.
    gauge_stamp: Option<(u64, u64)>,
    gauge_memo: f64,
    /// Per-decision equivalence-class table: one entry per *distinct*
    /// `(canonical load class, speed)` profile that needed a projection
    /// so far in the current node loop. This subsumes the old slot-list
    /// dedupe (gang jobs leave bitwise-equal projection inputs) and goes
    /// further: nodes whose residents are a *permutation* of each
    /// other's — different slots, different admission order — also share
    /// one kernel run, because `(μ_j, σ_j)` are symmetric in the job set.
    /// Cleared at the top of each decision; never reused across engine
    /// states.
    classes: ClassTable,
    /// When `false`, the pre-kernel zero-risk screen and class-result
    /// reuse are disabled (signatures are still counted) — the "before"
    /// arm of the kernel-volume experiment.
    classifier: bool,
    /// Evaluation-volume counters of the most recent `decide` call.
    stats: DecisionStats,
    /// Monotone decision counter — the validity stamp of per-node
    /// `eval_*` records (a pairing replay only trusts a representative
    /// evaluated for the current decision's candidate).
    decide_seq: u64,
}

impl Default for LibraRisk {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of a cross-decision pairing probe (see
/// [`NodeRiskCache::pair`]).
enum PairingCheck {
    /// Both memberships unchanged, the representative already holds a
    /// verdict for this decision, and the live projection bits of the two
    /// nodes compare equal — replay `(μ_j, σ_j)`.
    Replay(f64, f64),
    /// The pairing can no longer hold (membership moved, or the bits
    /// diverged) — drop it.
    Invalid,
    /// The pairing may still be good but the representative has not been
    /// evaluated for this decision yet — leave it in place.
    NotReady,
}

impl LibraRisk {
    /// The policy exactly as published: zero-σ suitability, node-id order.
    pub fn paper() -> Self {
        LibraRisk {
            name: "LibraRisk".to_string(),
            ordering: NodeOrdering::ById,
            require_unit_mu: false,
            naive_projection: false,
            cache: Vec::new(),
            ws: ProjectionWorkspace::new(),
            zero_risk: Vec::new(),
            gauge_stamp: None,
            gauge_memo: 0.0,
            classes: ClassTable::new(),
            classifier: true,
            stats: DecisionStats::default(),
            decide_seq: 0,
        }
    }

    /// The pre-cache decision logic: every node is projected from scratch
    /// with freshly allocated buffers. Kept as the differential reference
    /// — `decide` must return identical decisions — and as the baseline
    /// the admission benchmarks compare against.
    ///
    /// Residents are projected in canonical multiset order
    /// ([`canonicalize_projection`], tentative candidate appended last),
    /// matching the cached path: the projected `(μ_j, σ_j)` are then
    /// well-defined functions of the resident multiset rather than of
    /// the engine's internal slot order.
    pub fn decide_reference(&self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        let want = job.procs as usize;
        if want > engine.up_nodes() {
            return None;
        }
        let now = engine.now().as_secs();
        let discipline = engine.config().discipline;
        let mut zero_risk_nodes: Vec<NodeId> = Vec::new();
        for node in engine.cluster().nodes() {
            if !engine.node_is_up(node.id) {
                continue;
            }
            let mut projected = engine.node_projection(node.id, None);
            canonicalize_projection(&mut projected);
            projected.push(projected_job(job));
            let speed = engine.cluster().speed_factor(node.id);
            let (mu, sigma) = if self.naive_projection {
                node_risk_single_segment(&projected, now, speed, discipline)
            } else {
                node_risk(&projected, now, speed, discipline)
            };
            let suitable =
                is_zero_risk(sigma) && (!self.require_unit_mu || (mu - 1.0).abs() <= MU_EPSILON);
            if suitable {
                zero_risk_nodes.push(node.id);
            }
        }
        if zero_risk_nodes.len() < want {
            return None;
        }
        self.order_nodes(&mut zero_risk_nodes, engine);
        zero_risk_nodes.truncate(want);
        Some(zero_risk_nodes)
    }

    fn order_nodes(&self, nodes: &mut [NodeId], engine: &ProportionalCluster) {
        match self.ordering {
            NodeOrdering::ById => {} // already ascending by construction
            NodeOrdering::MostLoadedFirst => {
                nodes.sort_by(|a, b| {
                    let sa = engine.node_total_share(*a, None);
                    let sb = engine.node_total_share(*b, None);
                    sb.partial_cmp(&sa).expect("finite shares").then(a.cmp(b))
                });
            }
            NodeOrdering::LeastLoadedFirst => {
                nodes.sort_by(|a, b| {
                    let sa = engine.node_total_share(*a, None);
                    let sb = engine.node_total_share(*b, None);
                    sa.partial_cmp(&sb).expect("finite shares").then(a.cmp(b))
                });
            }
        }
    }

    /// Renames the policy (for ablation variants).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Changes the suitable-node ordering.
    pub fn with_ordering(mut self, ordering: NodeOrdering) -> Self {
        self.ordering = ordering;
        if ordering != NodeOrdering::ById && self.name == "LibraRisk" {
            self.name = format!("LibraRisk-{ordering:?}");
        }
        self
    }

    /// Ablation knob: replace the piecewise delay projection with the
    /// naive single-segment one (rates frozen at admission time). Under
    /// overload every deadline-delay then coincides, so σ_j degenerates
    /// to 0 and the policy accepts anything that fits — quantifying how
    /// much the projection's event recomputation contributes.
    pub fn with_naive_projection(mut self, on: bool) -> Self {
        self.naive_projection = on;
        if on && self.name == "LibraRisk" {
            self.name = "LibraRisk-NaiveProj".to_string();
        }
        self
    }

    /// Ablation knob: additionally require the projected mean
    /// deadline-delay `μ_j` to be 1 (i.e. no projected delay at all, not
    /// even a certain one). This forfeits the over-estimation tolerance.
    pub fn require_unit_mu(mut self, on: bool) -> Self {
        self.require_unit_mu = on;
        if on && self.name == "LibraRisk" {
            self.name = "LibraRisk-Strict".to_string();
        }
        self
    }

    /// Measurement knob for the kernel-volume experiment: with the
    /// classifier off, the pre-kernel zero-risk screen and
    /// class-result reuse are disabled — every evaluated node runs its
    /// own projection — while class
    /// signatures are still computed and counted, so
    /// [`DecisionStats::distinct_classes`] measures the same quantity in
    /// both arms. Decisions are identical either way; only the work to
    /// reach them changes. Defaults to on.
    pub fn with_classifier(mut self, on: bool) -> Self {
        self.classifier = on;
        self
    }

    /// Sizes the per-node cache to the engine's cluster.
    fn ensure_cache(&mut self, n: usize) {
        if self.cache.len() != n {
            self.cache = vec![NodeRiskCache::default(); n];
        }
    }

    /// Revalidates one node's cache against its engine epoch: on a
    /// mismatch the resident projection input is rebuilt — along with the
    /// canonical class signature, the kernel's first-segment share prefix
    /// and the earliest resident deadline, all derived in the same pass —
    /// and the base contribution keyed to the old state is dropped.
    ///
    /// Caching the share prefix against the epoch is sound because an
    /// *occupied* node's epoch pins `(residents, now)` — any `dt > 0`
    /// advance or churn event recomputes its shares and bumps the epoch —
    /// while an *empty* node's cached state (no jobs, zero share sum,
    /// `+∞` deadline) is independent of `now` altogether.
    fn refresh_node(c: &mut NodeRiskCache, engine: &ProportionalCluster, node: NodeId, now: f64) {
        let epoch = engine.node_epoch(node);
        if c.epoch != Some(epoch) {
            // Canonical evaluation order: every projection (and hence
            // every (μ_j, σ_j) bit pattern) becomes a function of the
            // resident *multiset* — equal-class nodes replay each other's
            // kernel results exactly, and `decide_reference` (which
            // canonicalizes too) stays a bitwise oracle. The slot
            // permutation is sorted by the same `(deadline, remaining)`
            // bit key `canonicalize_projection` uses, so emitting `jobs`
            // through it reproduces that order bitwise while also
            // capturing slot identity for the cross-decision pairing
            // compare.
            c.perm.clear();
            c.perm.extend_from_slice(engine.node_slots(node));
            c.perm
                .sort_unstable_by_key(|&s| engine.slot_projection_bits(s));
            c.perm_epoch = Some(engine.node_membership_epoch(node));
            c.jobs.clear();
            let mut min_dl = f64::INFINITY;
            for &s in &c.perm {
                let (dl_bits, rem_bits) = engine.slot_projection_bits(s);
                let abs_deadline = f64::from_bits(dl_bits);
                min_dl = min_dl.min(abs_deadline);
                c.jobs.push(ProjectedJob {
                    remaining_est: f64::from_bits(rem_bits),
                    abs_deadline,
                });
            }
            c.min_deadline = min_dl;
            c.class_hash = canonical_class_keys(&c.jobs, &mut c.class_keys);
            c.share_sum = first_segment_shares(&c.jobs, now, &mut c.first_shares);
            c.epoch = Some(epoch);
            c.base = None;
        }
    }

    /// Probes this node's cross-decision pairing: checks that neither
    /// node's membership moved since the pairing was recorded, that the
    /// representative already holds a verdict for this decision's
    /// candidate, and finally that the two resident multisets *still*
    /// compare bitwise equal when read live through the canonical slot
    /// permutations. O(residents), touches no cache state — the pairing
    /// never trusts the evolution of the pair, only what the engine says
    /// right now, so a replay is exactly as sound as the confirmed class
    /// hit that created it.
    fn pairing_replay(&self, engine: &ProportionalCluster, idx: usize, seq: u64) -> PairingCheck {
        let c = &self.cache[idx];
        let Some((rep, rep_ep, my_ep)) = c.pair else {
            return PairingCheck::NotReady;
        };
        if engine.node_membership_epoch(NodeId(idx as u32)) != my_ep
            || engine.node_membership_epoch(NodeId(rep)) != rep_ep
            || c.perm_epoch != Some(my_ep)
        {
            return PairingCheck::Invalid;
        }
        let r = &self.cache[rep as usize];
        if r.eval_stamp != seq {
            return PairingCheck::NotReady;
        }
        if r.perm_epoch != Some(rep_ep)
            || r.perm.len() != c.perm.len()
            || engine.node_speed(NodeId(rep)).to_bits()
                != engine.node_speed(NodeId(idx as u32)).to_bits()
        {
            return PairingCheck::Invalid;
        }
        for (&a, &b) in c.perm.iter().zip(&r.perm) {
            if engine.slot_projection_bits(a) != engine.slot_projection_bits(b) {
                return PairingCheck::Invalid;
            }
        }
        PairingCheck::Replay(r.eval_mu, r.eval_sigma)
    }

    /// Diagnostic accessor for the staleness oracle tests: revalidates
    /// `node`'s cache at the current engine state and returns its
    /// `(class hash, share sum, min resident deadline, canonical keys)`.
    /// Must always equal a from-scratch rebuild via
    /// [`ProportionalCluster::node_projection`] +
    /// [`canonical_class_keys`] / [`first_segment_shares`] — if the epoch
    /// machinery ever failed to invalidate on churn, requeue or advance,
    /// this would hand back the stale signature and the oracle would
    /// catch it.
    pub fn node_class_state(
        &mut self,
        engine: &ProportionalCluster,
        node: NodeId,
    ) -> (u64, f64, f64, Vec<(u64, u64)>) {
        self.ensure_cache(engine.cluster().len());
        let now = engine.now().as_secs();
        let c = &mut self.cache[node.0 as usize];
        Self::refresh_node(c, engine, node, now);
        (
            c.class_hash,
            c.share_sum,
            c.min_deadline,
            c.class_keys.clone(),
        )
    }

    /// The cluster-wide risk aggregate over *resident* jobs only (no
    /// tentative candidate), maintained incrementally: per-node
    /// contributions are cached against node epochs, so a query after an
    /// admission re-projects only the touched nodes. Candidate decisions
    /// ([`ShareAdmission::decide`]) never mutate contributions — a
    /// rejected job leaves the aggregate bitwise unchanged.
    ///
    /// Always evaluated with the paper's piecewise projection (ablation
    /// knobs affect decisions, not this diagnostic). Differentially
    /// pinned against [`LibraRisk::cluster_risk_reference`]. Down nodes
    /// keep their slot in `contributions` (a node failure evicts every
    /// resident, so the slot reads as an empty, zero-risk summary).
    pub fn cluster_risk(&mut self, engine: &ProportionalCluster) -> ClusterRisk {
        let n = engine.cluster().len();
        self.ensure_cache(n);
        let now = engine.now().as_secs();
        let discipline = engine.config().discipline;
        let mut out = ClusterRisk {
            contributions: Vec::with_capacity(n),
            jobs: 0,
            dd_sum: 0.0,
            dd_sq_sum: 0.0,
            risky_nodes: 0,
        };
        for node in engine.cluster().nodes() {
            let c = &mut self.cache[node.id.0 as usize];
            Self::refresh_node(c, engine, node.id, now);
            let s = match c.base {
                Some(s) => s,
                None => {
                    let speed = engine.cluster().speed_factor(node.id);
                    // Warm-prefix entry: the cached first-segment shares
                    // cover the whole resident list, so the kernel skips
                    // its opening share pass (bitwise-identical result —
                    // pinned by the reference differential below).
                    let s = self.ws.node_risk_summary_prefixed(
                        &c.jobs,
                        &c.first_shares,
                        c.share_sum,
                        now,
                        speed,
                        discipline,
                    );
                    c.base = Some(s);
                    s
                }
            };
            out.jobs += s.count;
            out.dd_sum += s.dd_sum;
            out.dd_sq_sum += s.dd_sq_sum;
            if !is_zero_risk(s.sigma) {
                out.risky_nodes += 1;
            }
            out.contributions.push(s);
        }
        out
    }

    /// [`ClusterRisk::mean_dd`] of [`LibraRisk::cluster_risk`], memoised
    /// against the engine's `(global_epoch, now)` stamp: repeated audits
    /// at an unchanged engine (in particular the post-decision audit of
    /// a rejection, which mutates nothing) answer in O(1) without
    /// allocating the per-node contribution vector.
    pub fn cluster_risk_mean_dd(&mut self, engine: &ProportionalCluster) -> f64 {
        let stamp = (engine.global_epoch(), engine.now().as_secs().to_bits());
        if self.gauge_stamp != Some(stamp) {
            self.gauge_memo = self.cluster_risk(engine).mean_dd();
            self.gauge_stamp = Some(stamp);
        }
        self.gauge_memo
    }

    /// From-scratch build of [`LibraRisk::cluster_risk`]: every node
    /// re-projected with fresh buffers, no caches consulted. The
    /// differential reference for the incremental path.
    pub fn cluster_risk_reference(engine: &ProportionalCluster) -> ClusterRisk {
        let n = engine.cluster().len();
        let now = engine.now().as_secs();
        let discipline = engine.config().discipline;
        let mut out = ClusterRisk {
            contributions: Vec::with_capacity(n),
            jobs: 0,
            dd_sum: 0.0,
            dd_sq_sum: 0.0,
            risky_nodes: 0,
        };
        for node in engine.cluster().nodes() {
            let mut jobs = engine.node_projection(node.id, None);
            canonicalize_projection(&mut jobs);
            let speed = engine.cluster().speed_factor(node.id);
            let s =
                ProjectionWorkspace::new().node_risk_summary_with(&jobs, now, speed, discipline);
            out.jobs += s.count;
            out.dd_sum += s.dd_sum;
            out.dd_sq_sum += s.dd_sq_sum;
            if !is_zero_risk(s.sigma) {
                out.risky_nodes += 1;
            }
            out.contributions.push(s);
        }
        out
    }
}

impl ShareAdmission for LibraRisk {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn reject_reason(&self) -> obs::RejectReason {
        // Past the width/down screens, LibraRisk refuses a job because
        // admitting it somewhere would risk a deadline delay.
        obs::RejectReason::OverRisk
    }

    fn audit_gauge(&mut self, engine: &ProportionalCluster) -> Option<(&'static str, f64)> {
        // Mean projected deadline-delay factor across resident jobs
        // (1.0 = no delay). `cluster_risk` answers from the per-node
        // cache and is deterministic, so auditing it around a decision
        // leaves the decision stream bitwise intact.
        Some(("cluster_risk", self.cluster_risk_mean_dd(engine)))
    }

    fn last_decision_stats(&self) -> Option<DecisionStats> {
        Some(self.stats)
    }

    fn decide(&mut self, engine: &ProportionalCluster, job: &Job) -> Option<Vec<NodeId>> {
        // A decision that returns before the node loop (width screen)
        // evaluated nothing — report zeros rather than a stale prior
        // decision's counters.
        self.stats = DecisionStats::default();
        let want = job.procs as usize;
        if want > engine.up_nodes() {
            return None;
        }
        self.ensure_cache(engine.cluster().len());
        self.decide_seq += 1;
        let seq = self.decide_seq;
        let now = engine.now().as_secs();
        let discipline = engine.config().discipline;
        let tentative = projected_job(job);
        // Algorithm 1, lines 1–11: evaluate σ_j per node with the new job
        // tentatively added — proving most verdicts *without* running the
        // projection kernel. Per node, cheapest sufficient evidence wins:
        // the zero-risk screen settles nodes with provable headroom in a
        // handful of flops; the equivalence-class table replays the
        // verdict of any node whose resident multiset and speed were
        // already evaluated this decision (or, through pairing, in an
        // earlier one); and only what survives both runs the kernel
        // (warm-started from the cached first-segment share prefix).
        self.zero_risk.clear();
        self.classes.clear();
        let mut stats = DecisionStats::default();
        // Profiler: the scan span brackets the whole node loop; the
        // classify/kernel spans below nest inside it (they are a
        // breakdown of scan time, not disjoint phases). All three are
        // stride-sampled per decision so an enabled profiler stays
        // inside the <10% throughput budget.
        let fine = obs::phase::decision_sampled();
        let scan_span = fine.then(|| obs::phase::span(obs::phase::Phase::CandidateScan));
        let total_nodes = engine.cluster().len();
        for (scanned, node) in engine.cluster().nodes().iter().enumerate() {
            // Certain-rejection early-exit: even if this node and every
            // later one turned out suitable, fewer than `want` could
            // exist — the answer is already `None`, and nothing below
            // observes the skipped evaluations (`zero_risk` is
            // per-decision scratch; caches refresh lazily by epoch).
            if self.zero_risk.len() + (total_nodes - scanned) < want {
                break;
            }
            // A down node is never suitable, however empty it looks (the
            // empty-node fast path below would otherwise admit onto it).
            if !engine.node_is_up(node.id) {
                continue;
            }
            let idx = node.id.0 as usize;
            stats.nodes_considered += 1;
            let speed = engine.node_speed(node.id);
            let share_total = engine.node_share_total_now(node.id);
            let min_dl = engine.node_min_deadline(node.id);
            let suitable = if self.classifier
                && screens_zero_risk(discipline, speed, share_total, min_dl, tentative, now)
            {
                // Dominance screen: enough capacity headroom that every
                // resident plus the candidate provably finishes at least
                // `EPS_DEADLINE` early, which forces dd = 1.0 for every
                // job → μ_j = 1.0 and σ_j = 0.0 *bitwise* (proof at
                // [`screens_zero_risk`]) — suitable under every variant
                // without projecting. The inputs come straight from the
                // engine (the rate recompute's per-node share totals and
                // a deadline min), so a screened node costs O(1) and
                // never touches its risk cache. The engine total may
                // differ from the canonical-order sum in the last ulp;
                // the screen's `SCREEN_HEADROOM` margin absorbs that, and
                // a fired screen equals the kernel verdict either way.
                stats.screen_hits += 1;
                true
            } else if min_dl.is_infinite()
                && engine.resident_count(node.id) == 0
                && !self.require_unit_mu
                && !self.naive_projection
            {
                // `min_dl == +∞` pre-gates the resident-list read:
                // residents carry finite deadlines, so an occupied node
                // short-circuits here without touching its list header
                // (the count read stays as the authoritative confirm).
                // Empty-node fast path: a lone job's deadline-delay is a
                // single sample, so its population dispersion — Eq. 6's
                // σ_j — is exactly 0.0 however late the projection runs.
                // `node_risk` computes `sqrt(max(0, dd·dd − μ·μ))` with
                // μ = dd, which is exactly 0.0 too, so skipping the
                // projection cannot flip a decision.
                true
            } else {
                // Cross-decision pairing: a previous decision proved this
                // node's resident multiset bitwise equal to a
                // representative's. If both memberships are unchanged and
                // the representative was already evaluated for *this*
                // candidate, re-verify the equality against live engine
                // bits and replay — no cache refresh, no hashing, no
                // kernel. The compare walks both canonical slot
                // permutations, so a stale pairing can only cost a
                // recomputation, never import a wrong verdict.
                let mut known = None;
                if self.classifier {
                    match self.pairing_replay(engine, idx, seq) {
                        PairingCheck::Replay(mu, sigma) => {
                            stats.pairing_hits += 1;
                            known = Some((mu, sigma));
                        }
                        PairingCheck::Invalid => self.cache[idx].pair = None,
                        PairingCheck::NotReady => {}
                    }
                }
                if known.is_none() {
                    let _classify =
                        fine.then(|| obs::phase::span(obs::phase::Phase::EquivClassify));
                    // Equivalence class: (μ_j, σ_j) are symmetric
                    // functions of the resident job multiset, so once
                    // (candidate, now, discipline) are fixed for this
                    // decision the verdict is a pure function of
                    // (canonical class, speed). The hash is a prescreen;
                    // a hit is confirmed by comparing the canonical key
                    // lists exactly, so a 64-bit collision degrades to a
                    // recomputation, never a wrong replay. A confirmed
                    // hit also establishes the pairing that lets the
                    // *next* decision skip the refresh and hash entirely.
                    {
                        let c = &mut self.cache[idx];
                        Self::refresh_node(c, engine, node.id, now);
                    }
                    let c = &self.cache[idx];
                    let ck = class_key(c.class_hash, speed);
                    if self.classifier {
                        if let Some((rep, mu, sigma)) = self.classes.get(ck) {
                            if self.cache[rep as usize].class_keys == self.cache[idx].class_keys {
                                known = Some((mu, sigma));
                                let rep_ep = engine.node_membership_epoch(NodeId(rep));
                                let my_ep = engine.node_membership_epoch(node.id);
                                self.cache[idx].pair = Some((rep, rep_ep, my_ep));
                            }
                        }
                    }
                }
                let (mu, sigma) = match known {
                    Some(ms) => {
                        stats.class_hits += 1;
                        ms
                    }
                    None => {
                        let _kernel =
                            fine.then(|| obs::phase::span(obs::phase::Phase::VerdictKernel));
                        stats.projections_run += 1;
                        let c = &self.cache[idx];
                        let (mu, sigma) = if self.naive_projection {
                            let stage = self.ws.stage();
                            stage.extend_from_slice(&c.jobs);
                            stage.push(tentative);
                            node_risk_single_segment(self.ws.staged(), now, speed, discipline)
                        } else if c.jobs.is_empty() {
                            // An empty node reaches the kernel only under
                            // the strict variant, which reads μ_j: it runs
                            // the full projection, not the verdict kernel.
                            let s = self.ws.node_risk_delta_prefixed(
                                &c.jobs,
                                &c.first_shares,
                                c.share_sum,
                                tentative,
                                now,
                                speed,
                                discipline,
                            );
                            (s.mu, s.sigma)
                        } else {
                            let s = self
                                .ws
                                .node_risk_verdict_prefixed(
                                    &c.jobs,
                                    &c.first_shares,
                                    c.share_sum,
                                    tentative,
                                    now,
                                    speed,
                                    discipline,
                                )
                                .unwrap_or_else(|| {
                                    stats.kernel_bails += 1;
                                    RiskSummary::PROVABLY_RISKY
                                });
                            (s.mu, s.sigma)
                        };
                        // Record the class even with the classifier off:
                        // the "before" arm of the kernel-volume experiment
                        // counts signatures without reusing results.
                        let ck = class_key(self.cache[idx].class_hash, speed);
                        self.classes.insert(ck, node.id.0, mu, sigma);
                        (mu, sigma)
                    }
                };
                // Every resolved node (kernel, hash hit or pairing
                // replay) records its verdict for this decision so it can
                // serve as a pairing representative itself.
                {
                    let c = &mut self.cache[idx];
                    c.eval_stamp = seq;
                    c.eval_mu = mu;
                    c.eval_sigma = sigma;
                }
                is_zero_risk(sigma) && (!self.require_unit_mu || (mu - 1.0).abs() <= MU_EPSILON)
            };
            if suitable {
                self.zero_risk.push(node.id);
                // Under ById ordering the final answer is "the first
                // `want` suitable nodes in ascending id" — once they are
                // in hand no later node can enter the decision, so the
                // scan may stop. Rejections still require the full sweep
                // (we must prove fewer than `want` exist), and the load
                // orderings need the complete suitable set to sort.
                // Unvisited nodes' caches simply stay lazily stale until
                // their next epoch-checked refresh.
                if self.ordering == NodeOrdering::ById && self.zero_risk.len() == want {
                    break;
                }
            }
        }
        drop(scan_span);
        stats.distinct_classes = self.classes.len() as u64;
        self.stats = stats;
        if obs::phase::enabled() {
            use obs::phase::Counter as C;
            obs::phase::add(C::DominanceScreens, stats.screen_hits);
            obs::phase::add(C::PairingHits, stats.pairing_hits);
            obs::phase::add(C::EquivClassHits, stats.class_hits);
            obs::phase::add(C::EquivClassMisses, stats.projections_run);
            obs::phase::add(C::KernelBails, stats.kernel_bails);
            obs::phase::add(C::ProjectionsRun, stats.projections_run);
        }
        // Lines 12–18: accept iff enough suitable nodes exist.
        if self.zero_risk.len() < want {
            return None;
        }
        let mut ranked = std::mem::take(&mut self.zero_risk);
        self.order_nodes(&mut ranked, engine);
        let out: Vec<NodeId> = ranked.iter().take(want).copied().collect();
        self.zero_risk = ranked; // hand the warm buffer back for reuse
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::proportional::ProportionalConfig;
    use cluster::Cluster;
    use sim::{SimDuration, SimTime};
    use workload::{JobId, Urgency};

    fn engine(nodes: usize) -> ProportionalCluster {
        ProportionalCluster::new(
            Cluster::homogeneous(nodes, 168.0),
            ProportionalConfig::default(),
        )
    }

    fn job(id: u64, estimate: f64, procs: u32, deadline: f64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::ZERO,
            runtime: SimDuration::from_secs(estimate),
            estimate: SimDuration::from_secs(estimate),
            procs,
            deadline: SimDuration::from_secs(deadline),
            urgency: Urgency::High,
        }
    }

    #[test]
    fn accepts_feasible_job_like_libra() {
        let mut lr = LibraRisk::paper();
        let e = engine(4);
        let nodes = lr.decide(&e, &job(0, 50.0, 2, 100.0)).expect("accepted");
        assert_eq!(
            nodes,
            vec![NodeId(0), NodeId(1)],
            "Algorithm 1 takes nodes in id order"
        );
    }

    #[test]
    fn accepts_certainly_late_lone_job_that_libra_rejects() {
        // estimate 300 > deadline 100: Libra's share test says 3 > 1 →
        // reject; LibraRisk sees a single projected deadline-delay value
        // (σ = 0) → accept. This is the over-estimation tolerance.
        let mut lr = LibraRisk::paper();
        let mut libra = crate::libra::Libra::new();
        let e = engine(1);
        let j = job(0, 300.0, 1, 100.0);
        assert!(libra.decide(&e, &j).is_none());
        assert!(lr.decide(&e, &j).is_some());
    }

    #[test]
    fn strict_variant_rejects_certainly_late_lone_job() {
        let mut strict = LibraRisk::paper().require_unit_mu(true);
        let e = engine(1);
        assert!(strict.decide(&e, &job(0, 300.0, 1, 100.0)).is_none());
        // But a genuinely feasible job is still accepted.
        assert!(strict.decide(&e, &job(1, 50.0, 1, 100.0)).is_some());
        assert_eq!(strict.name(), "LibraRisk-Strict");
    }

    #[test]
    fn rejects_when_projection_shows_unequal_delays() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(1);
        // Resident job: share 0.8 with deadline 100.
        e.admit(job(1, 80.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        // New job with a different deadline pushing the node into overload:
        // the earlier-deadline job is projected late, the later one less so
        // → σ > 0 → reject.
        assert!(lr.decide(&e, &job(2, 80.0, 1, 200.0)).is_none());
        // A small job that keeps the node feasible is accepted.
        assert!(lr.decide(&e, &job(3, 10.0, 1, 200.0)).is_some());
    }

    #[test]
    fn avoids_node_with_overrunning_job() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(2);
        // An under-estimated job on node 0: estimate 50, actual 500,
        // deadline 100.
        let mut sick = job(1, 50.0, 1, 100.0);
        sick.runtime = SimDuration::from_secs(500.0);
        e.admit(sick, vec![NodeId(0)], SimTime::ZERO);
        // Run past the estimate and the deadline: the job overruns; its
        // re-armed residual now projects real delay on node 0.
        let mut t = e.next_event_time().unwrap();
        for _ in 0..20 {
            let done = e.advance(t);
            if !done.is_empty() {
                break;
            }
            match e.next_event_time() {
                Some(next) if next.as_secs() < 160.0 => t = next,
                _ => break,
            }
        }
        assert!(!e.is_empty(), "sick job must still be running");
        // New job with a comfortable deadline: node 0 projects unequal
        // delays (sick job late, new job fine) → only node 1 is zero-risk.
        let nodes = lr
            .decide(&e, &job(2, 50.0, 1, 1000.0))
            .expect("node 1 available");
        assert_eq!(nodes, vec![NodeId(1)]);
    }

    #[test]
    fn ordering_variants_pick_different_nodes() {
        let mut e = engine(3);
        // Load node 1 lightly.
        e.admit(job(1, 10.0, 1, 100.0), vec![NodeId(1)], SimTime::ZERO);
        let j = job(2, 10.0, 1, 100.0);
        let mut p_id = LibraRisk::paper();
        let mut p_most = LibraRisk::paper().with_ordering(NodeOrdering::MostLoadedFirst);
        let mut p_least = LibraRisk::paper().with_ordering(NodeOrdering::LeastLoadedFirst);
        assert_eq!(p_id.decide(&e, &j).unwrap(), vec![NodeId(0)]);
        assert_eq!(p_most.decide(&e, &j).unwrap(), vec![NodeId(1)]);
        assert_eq!(p_least.decide(&e, &j).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn naive_projection_accepts_the_overload_the_paper_variant_refuses() {
        let mut e = engine(1);
        e.admit(job(1, 80.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        let j = job(2, 80.0, 1, 200.0);
        // Piecewise projection: unequal delays → reject (see
        // rejects_when_projection_shows_unequal_delays).
        assert!(LibraRisk::paper().decide(&e, &j).is_none());
        // Naive projection: all delays coincide → zero risk → accept.
        let mut naive = LibraRisk::paper().with_naive_projection(true);
        assert!(naive.decide(&e, &j).is_some());
        assert_eq!(naive.name(), "LibraRisk-NaiveProj");
    }

    #[test]
    fn cached_decisions_match_reference_through_state_changes() {
        for variant in [
            LibraRisk::paper(),
            LibraRisk::paper().require_unit_mu(true),
            LibraRisk::paper().with_naive_projection(true),
            LibraRisk::paper().with_ordering(NodeOrdering::MostLoadedFirst),
            LibraRisk::paper().with_ordering(NodeOrdering::LeastLoadedFirst),
        ] {
            let mut lr = variant;
            let mut e = engine(4);
            let mut t = 0.0;
            for round in 0..30 {
                let j = job(
                    100 + round as u64,
                    20.0 + (round % 7) as f64 * 13.0,
                    1 + (round % 2) as u32,
                    110.0 + (round % 3) as f64 * 40.0,
                );
                let cached = lr.decide(&e, &j);
                let reference = lr.decide_reference(&e, &j);
                assert_eq!(cached, reference, "{} round {round}", lr.name());
                if let Some(nodes) = cached {
                    e.admit(j, nodes, sim::SimTime::from_secs(t));
                }
                if round % 3 == 2 {
                    if let Some(next) = e.next_event_time() {
                        t = next.as_secs();
                        e.advance(next);
                    }
                }
            }
        }
    }

    #[test]
    fn decisions_track_admissions_and_empty_cluster_advances() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(2);
        let j = job(0, 80.0, 1, 100.0);
        assert_eq!(lr.decide(&e, &j), lr.decide_reference(&e, &j));
        // An admission changes node 0's residents: the next decision
        // must see them.
        e.admit(job(1, 90.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        assert_eq!(lr.decide(&e, &j), lr.decide_reference(&e, &j));

        // Advancing an *empty* cluster moves `now` without bumping any
        // epoch. Shape chosen so the strict decision flips: at t=0 the
        // job finishes by its deadline (μ = 1 → accept), at t=30 it
        // cannot (μ > 1 → reject).
        let mut strict = LibraRisk::paper().require_unit_mu(true);
        let mut e2 = engine(2);
        let ja = job(5, 80.0, 1, 100.0);
        assert!(strict.decide(&e2, &ja).is_some());
        e2.advance(SimTime::from_secs(30.0));
        assert_eq!(strict.decide(&e2, &ja), strict.decide_reference(&e2, &ja));
        assert!(strict.decide(&e2, &ja).is_none());
    }

    #[test]
    fn cluster_risk_matches_reference_and_ignores_rejections() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(3);
        let check = |lr: &mut LibraRisk, e: &ProportionalCluster| {
            let cached = lr.cluster_risk(e);
            let fresh = LibraRisk::cluster_risk_reference(e);
            assert!(
                cached.bits_eq(&fresh),
                "cached {cached:?} vs fresh {fresh:?}"
            );
            cached
        };
        let idle = check(&mut lr, &e);
        assert_eq!(idle.jobs, 0);
        assert_eq!(idle.mean_dd(), 1.0);

        e.admit(job(1, 80.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        e.admit(job(2, 80.0, 1, 200.0), vec![NodeId(0)], SimTime::ZERO);
        e.admit(job(3, 40.0, 1, 400.0), vec![NodeId(1)], SimTime::ZERO);
        let loaded = check(&mut lr, &e);
        assert_eq!(loaded.jobs, 3);
        assert_eq!(loaded.contributions.len(), 3);
        assert!(loaded.risky_nodes >= 1, "node 0 is overloaded unevenly");

        // A rejected candidate must leave the aggregate bitwise unchanged.
        assert!(lr.decide(&e, &job(4, 500.0, 3, 120.0)).is_none());
        let after_reject = lr.cluster_risk(&e);
        assert!(after_reject.bits_eq(&loaded));

        // Advancing time invalidates contributions; the incremental
        // rebuild must still match from-scratch.
        let next = e.next_event_time().unwrap();
        e.advance(next);
        check(&mut lr, &e);
    }

    #[test]
    fn rejects_wider_than_cluster() {
        let mut lr = LibraRisk::paper();
        let e = engine(2);
        assert!(lr.decide(&e, &job(0, 1.0, 3, 100.0)).is_none());
    }

    #[test]
    fn multiprocessor_job_needs_enough_zero_risk_nodes() {
        let mut lr = LibraRisk::paper();
        let mut e = engine(2);
        // Make node 0 risky: overload it with heterogeneous deadlines.
        e.admit(job(1, 90.0, 1, 100.0), vec![NodeId(0)], SimTime::ZERO);
        let j2 = job(2, 90.0, 2, 300.0);
        // Node 0 would project unequal delays with j2 added; node 1 is
        // clean — but j2 needs two nodes → reject.
        assert!(lr.decide(&e, &j2).is_none());
        // The same job needing one node is accepted on node 1.
        let j3 = job(3, 90.0, 1, 300.0);
        assert_eq!(lr.decide(&e, &j3).unwrap(), vec![NodeId(1)]);
    }
}
