//! End-to-end admission benchmark.
//!
//! Replays one named, seeded workload through the public `librisk` API
//! as a closed loop (one caller; each call is made only after the
//! previous one returned), checks that the outputs are correct, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper|overload|sharded_online|operated> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced drives for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` alternates untraced and traced
//! drives (plus, on fault-free workloads, an engine-level shadow
//! replay) and reports the per-layer metrics; the spans of its last
//! traced drive are written to `e2ebench/out/spans-<workload>.tsv`.
//! Which layer metric should move which end-to-end metric, and on which
//! workload, is in `e2ebench/README.md`.

mod drive;
mod gate;
mod output;
mod shadow;
mod spans;
mod stats;
mod workloads;

use drive::Drive;
use metrics::percentile::median;
use output::{Outcome, Values, END_TO_END, PER_LAYER};
use shadow::Shadow;
use spans::{Layer, Table};
use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Kind, Setup, RING_CAPACITY};

/// Fewest measured drives per run, however long they take.
const MIN_DRIVES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

const USAGE: &str = "usage: e2ebench --workload <paper|overload|sharded_online|operated> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace, mut rss_probe) =
            (None, None, 10.0, false, false);
        while let Some(flag) = args.next() {
            if flag == "--rss-probe" {
                rss_probe = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            rss_probe,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.rss_probe {
        rss_probe(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds what a drive starts from, as set-up does, and drops it.
fn construct(setup: &Setup) {
    match setup.kind {
        Kind::ShardedOnline => drop(black_box(Setup::router())),
        Kind::Operated => {
            let mut ring = obs::TraceRecorder::new(RING_CAPACITY);
            drop(black_box(setup.rms().with_recorder(&mut ring)));
        }
        Kind::Paper | Kind::Overload => drop(black_box(setup.rms())),
    }
}

/// Sets up once, timed: trace generation, fault plan and RMS
/// construction. Returns the set-up and its time in seconds.
fn timed_setup(kind: Kind, seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let setup = Setup::new(kind, seed);
    construct(&setup);
    (setup, t.elapsed().as_secs_f64())
}

/// The child process behind `peak_rss_mib`: set-up and one untraced
/// drive, then the process's peak resident set. A process of its own
/// per workload, so no earlier allocation inflates the peak.
fn rss_probe(args: &Args) -> Result<bool, String> {
    let setup = Setup::new(args.kind, args.seed);
    let d = drive::run(&setup, false, true)?;
    black_box(&d);
    println!("peak_rss_kib {}", vm_hwm_kib()?);
    Ok(true)
}

fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn peak_rss_mib(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--rss-probe", "--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("running the memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "memory probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("peak_rss_kib "))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("memory probe printed {stdout:?}"))
}

/// Prints the operating point a drive ran at.
fn print_point(kind: Kind, d: &Drive, trace_span_s: f64) {
    let n = d.submitted().max(1) as f64;
    println!(
        "operating point [{}]: {} jobs, {:.0} s simulated ({:.0} s of arrivals), \
         utilisation {:.3}, accepted {:.2}%, fulfilled {:.2}%, mean in-flight {:.1} jobs",
        kind.name(),
        d.submitted(),
        d.last_resolution_s,
        trace_span_s,
        d.utilization,
        100.0 * d.accepted_count() as f64 / n,
        100.0 * d.fulfilled_count() as f64 / n,
        d.in_flight_sum as f64 / n,
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let setup = Setup::new(kind, args.seed);
    let trace_span_s = setup.trace.stats(setup.cluster.len()).span;
    println!(
        "workload {} seed {}: closed loop, 1 caller, {} jobs per drive",
        kind.name(),
        args.seed,
        setup.trace.len()
    );
    let reference = gate::check(&setup).map_err(|e| format!("correctness gate failed: {e}"))?;
    println!("correctness gate: passed");
    print_point(kind, &reference, trace_span_s);
    drop(setup);

    let rss = if args.trace { 0.0 } else { peak_rss_mib(args)? };

    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut setup_times = Vec::new();
    let mut untraced_jps = Vec::new();
    let mut best_submit_ns = Vec::new();
    let mut best_step_ns = Vec::new();
    let mut traced_jps = Vec::new();
    let mut layer_runs: Vec<Values> = Vec::new();
    let mut shadow_runs: Vec<Values> = Vec::new();
    let mut last_spans = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut check = |what: &str, d: &Drive, errors: &mut Vec<String>| {
        attempted += d.submitted();
        failed += d.failed();
        if let Err(e) = gate::exactly_once(what, d).and(gate::agree(what, &reference, d)) {
            errors.push(e);
        }
    };
    // Each measured drive starts from a set-up of its own, timed, so the
    // set-up times are spread over the same window as the drives.
    while untraced_jps.len() < MIN_DRIVES || Instant::now() < deadline {
        let (setup, setup_s) = timed_setup(kind, args.seed);
        setup_times.push(setup_s);
        let d = drive::run(&setup, false, true)?;
        check("untraced drive", &d, &mut errors);
        untraced_jps.push(d.jobs_per_s());
        if !args.trace {
            stats::fold_min(&mut best_submit_ns, &d.submit_ns)?;
            stats::fold_min(&mut best_step_ns, &d.step_ns)?;
            continue;
        }
        let d = drive::run(&setup, true, true)?;
        check("traced drive", &d, &mut errors);
        traced_jps.push(d.jobs_per_s());
        match drive_layers(kind, &d) {
            Ok(v) => layer_runs.push(v),
            Err(e) => errors.push(format!("traced drive: {e}")),
        }
        if kind != Kind::Operated {
            let sh = shadow::replay(&setup, true);
            if sh.accepted != reference.accepted {
                errors.push("shadow replay disagrees with the facade".to_string());
            }
            match shadow_layers(&sh) {
                Ok(v) => shadow_runs.push(v),
                Err(e) => errors.push(format!("shadow replay: {e}")),
            }
            last_spans = Some((d, Some(sh)));
        } else {
            last_spans = Some((d, None));
        }
    }

    let mut values = Values::default();
    let catalogue = if args.trace {
        let (d, sh) = last_spans.expect("at least one traced drive");
        let all = match &sh {
            Some(sh) => spans::concat(d.spans.spans(), sh.spans.spans()),
            None => d.spans.spans().to_vec(),
        };
        match Table::new(&all) {
            Ok(table) => {
                println!("layer table (last traced drive, then its shadow replay):");
                print!("{}", table.render());
            }
            Err(e) => errors.push(format!("layer table: {e}")),
        }
        write_spans(kind, &all);
        for (name, _, _) in PER_LAYER {
            let runs: Vec<f64> = layer_runs
                .iter()
                .chain(&shadow_runs)
                .filter(|v| v.names().any(|n| n == name))
                .map(|v| v.get(name))
                .collect();
            values.set(name, median(&runs).unwrap_or(0.0));
        }
        let overhead = median(&traced_jps).unwrap_or(0.0) / median(&untraced_jps).unwrap_or(0.0);
        values.set("trace.overhead_ratio", overhead);
        let coverage = values.get("trace.coverage");
        println!(
            "trace.coverage {coverage:.4} (gate >= 0.90), trace.overhead_ratio {overhead:.4} \
             over {} traced and {} untraced drives",
            traced_jps.len(),
            untraced_jps.len()
        );
        if coverage < 0.90 {
            errors.push(format!("trace.coverage {coverage:.4} is below 0.90"));
        }
        &PER_LAYER[..]
    } else {
        // Every drive replays the same trace from the same state, so
        // submit call `i` and arrival step `i` do the same work in each.
        // The host's other tenants only ever add time, so the fastest
        // replay of each is the program's own cost; the metrics are
        // built from those, and the median drive is printed beside them.
        let samples = best_submit_ns.len();
        let mut submit_ns = best_submit_ns;
        submit_ns.sort_unstable();
        let tail = stats::tail(&submit_ns, 0.99).ok_or("too few submits for a tail")?;
        let p50 = stats::median_u64(&submit_ns) as f64 / 1e3;
        let p99 = tail.value as f64 / 1e3;
        let best_wall_s = best_step_ns.iter().sum::<u64>() as f64 / 1e9;
        let jps = reference.submitted() as f64 / best_wall_s;
        let median_jps = median(&untraced_jps).unwrap_or(0.0);
        let setup_s = median(&setup_times).unwrap_or(0.0);
        let fulfilled_pct =
            100.0 * reference.fulfilled_count() as f64 / reference.submitted() as f64;
        values.set("jobs_per_s", jps);
        values.set("submit_p50_us", p50);
        values.set("submit_p99_us", p99);
        values.set("fulfilled_pct", fulfilled_pct);
        values.set("peak_rss_mib", rss);
        values.set("setup_s", setup_s);
        let lo = untraced_jps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = untraced_jps.iter().copied().fold(0.0, f64::max);
        let drives = untraced_jps.len();
        println!(
            "jobs_per_s     {jps:.0} jobs/s (fastest replay of each arrival's step over {drives} \
             drives; whole drives: median {median_jps:.0}, min {lo:.0}, max {hi:.0})"
        );
        println!(
            "submit_p50_us  {p50:.3} us; submit_p99_us {p99:.3} us (p50 and p{:.2} over {samples} \
             submit calls of each call's fastest replay in {drives} drives, {} beyond the tail)",
            tail.q * 100.0,
            tail.beyond
        );
        println!("fulfilled_pct  {fulfilled_pct:.3} %");
        println!(
            "failed_ops_pct {:.3} % ({failed} of {attempted})",
            100.0 * failed as f64 / attempted.max(1) as f64
        );
        println!("peak_rss_mib   {rss:.1} MiB (set-up and one drive, own process)");
        println!(
            "setup_s        {setup_s:.4} s (median of {}, one before each drive)",
            setup_times.len()
        );
        &END_TO_END[..]
    };
    for e in &errors {
        eprintln!("e2ebench: {e}");
    }
    let outcome = Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
    };
    let (correct, line) = output::result_line(&outcome, catalogue, &values);
    println!("{line}");
    Ok(correct)
}

/// Per-layer metrics of one traced facade or router drive.
fn drive_layers(kind: Kind, d: &Drive) -> Result<Values, String> {
    let t = Table::new(d.spans.spans())?;
    let mut v = Values::default();
    let per_call = d.advance_events as f64 / d.advance_calls.max(1) as f64;
    if kind == Kind::ShardedOnline {
        let adv = t.row(Layer::RouterAdvance);
        v.set("router.submit.p99_ns", t.row(Layer::RouterSubmit).p99_ns());
        v.set("router.advance.calls", adv.calls as f64);
        v.set("router.advance.busy_s", adv.busy_s());
        v.set("router.advance.p50_ns", adv.p50_ns());
        v.set("router.advance.p99_ns", adv.p99_ns());
        v.set("router.events_per_advance", per_call);
    } else {
        let sub = t.row(Layer::RmsSubmit);
        let adv = t.row(Layer::RmsAdvance);
        v.set("rms.submit.calls", sub.calls as f64);
        v.set("rms.submit.busy_s", sub.busy_s());
        v.set("rms.submit.p50_ns", sub.p50_ns());
        v.set("rms.submit.p99_ns", sub.p99_ns());
        v.set("rms.advance.calls", adv.calls as f64);
        v.set("rms.advance.busy_s", adv.busy_s());
        v.set("rms.advance.p99_ns", adv.p99_ns());
        v.set("rms.advance.events_per_call", per_call);
        v.set("rms.drain.busy_s", t.row(Layer::RmsDrain).busy_s());
    }
    v.set("report.record.busy_s", t.row(Layer::ReportRecord).busy_s());
    if kind == Kind::Operated {
        let save = t.row(Layer::CkptSave);
        v.set("ckpt.save.calls", save.calls as f64);
        v.set("ckpt.save.busy_s", save.busy_s());
        v.set("ckpt.save.p99_us", save.p99_ns() / 1e3);
        v.set(
            "ckpt.snapshot_bytes",
            d.save_bytes as f64 / d.saves.max(1) as f64,
        );
        v.set("ckpt.restore_us", d.restore_us);
        v.set(
            "fault.events",
            (d.churn.node_failures + d.churn.node_restores) as f64,
        );
        v.set("fault.requeues", d.churn.requeues as f64);
        v.set("fault.late_rejects", d.churn.requeue_rejects as f64);
        v.set("obs.ring_dropped_ratio", d.ring_dropped_ratio);
    }
    v.set("trace.coverage", t.coverage(Layer::Drive));
    Ok(v)
}

/// Per-layer metrics of one traced shadow replay.
fn shadow_layers(sh: &Shadow) -> Result<Values, String> {
    let t = Table::new(sh.spans.spans())?;
    let mut v = Values::default();
    let decide = t.row(Layer::LibraRiskDecide);
    let adv = t.row(Layer::ProportionalAdvance);
    let s = &sh.stats;
    let decisions = sh.decisions.max(1) as f64;
    let nodes = s.nodes_considered.max(1) as f64;
    let accepted = sh.accepted.iter().filter(|&&a| a).count() as f64;
    v.set("libra_risk.decide.busy_s", decide.busy_s());
    v.set("libra_risk.decide.p50_ns", decide.p50_ns());
    v.set("libra_risk.decide.p99_ns", decide.p99_ns());
    v.set(
        "proportional.admit.busy_s",
        t.row(Layer::ProportionalAdmit).busy_s(),
    );
    v.set("proportional.advance.calls", adv.calls as f64);
    v.set("proportional.advance.busy_s", adv.busy_s());
    v.set("proportional.advance.p99_ns", adv.p99_ns());
    v.set(
        "policy.nodes_per_decision",
        s.nodes_considered as f64 / decisions,
    );
    v.set(
        "policy.kernel_runs_per_decision",
        s.projections_run as f64 / decisions,
    );
    v.set("policy.screen_hit_ratio", s.screen_hits as f64 / nodes);
    v.set("policy.class_hit_ratio", s.class_hits as f64 / nodes);
    v.set("policy.pairing_hit_ratio", s.pairing_hits as f64 / nodes);
    v.set("policy.memo_hit_ratio", s.memo_hits as f64 / nodes);
    v.set("policy.accept_ratio", accepted / decisions);
    Ok(v)
}

/// Writes the spans of the last traced drive (and its shadow replay)
/// under `e2ebench/out/`. A failure to write is reported, not fatal.
fn write_spans(kind: Kind, all: &[spans::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.tsv", kind.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans::to_tsv(all)));
    if let Err(e) = written {
        eprintln!("e2ebench: writing {}: {e}", path.display());
    }
}
