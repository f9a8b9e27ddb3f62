//! # `experiments` — the harness that regenerates every figure and table
//! of the paper
//!
//! Each figure of the evaluation (§5) is a parameter sweep over the same
//! pipeline:
//!
//! 1. build an SDSC-SP2-like trace ([`scenario::Scenario`]),
//! 2. assign deadlines (urgency mix × deadline high:low ratio),
//! 3. pick an estimate regime (accurate / trace / x % inaccuracy),
//! 4. run every policy ([`librisk::PolicyKind`]) over the trace,
//! 5. aggregate *% of deadlines fulfilled* and *average slowdown* into
//!    [`metrics::Series`] curves.
//!
//! The [`sweep`] module runs the cross product of (sweep point × policy ×
//! seed) on a scoped thread pool; [`figures`] defines the four sweeps
//! of the paper plus our ablations; [`report`] renders everything as
//! markdown and CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint_run;
pub mod figures;
pub mod obs_run;
pub mod report;
pub mod scenario;
pub mod shard_scaling;
pub mod sweep;
pub mod telemetry_run;

pub use scenario::{EstimateRegime, Scenario, TraceSource};
pub use sweep::{run_sweep, SweepOutcome};

/// Serialises the unit tests that share the process-global phase
/// profiler: the runners that toggle it, and the sharded drive whose
/// worker threads would otherwise flush their own advance timings into
/// a profiled test's snapshot while it is armed.
#[cfg(test)]
pub(crate) fn with_profiler_lock(f: impl FnOnce()) {
    use std::sync::Mutex;
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f();
}
