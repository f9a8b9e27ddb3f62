//! Spans recorded by the benchmark around its calls into the library,
//! and the per-layer table built from them.
//!
//! A span is a name (the layer called), a start and an end, the span
//! that caused it, and the arrival it served. Spans stay in memory for
//! the whole drive and are written out once it ends. A span's self time
//! is its duration minus its children's. The table is built only from
//! spans whose children lie inside their parent and do not overlap, so
//! the self times of a tree add up exactly to its root's duration: the
//! layer table tiles the drive's wall clock.

use crate::stats::{self, Tail};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The layers the benchmark calls into, named by module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole facade or router drive (the root span).
    Drive,
    /// `ClusterRms::submit`.
    RmsSubmit,
    /// `ClusterRms::advance`, with its events moved out.
    RmsAdvance,
    /// `ClusterRms::drain`, with its events moved out.
    RmsDrain,
    /// `ReportSink::record` over one batch of events.
    ReportRecord,
    /// `ShardedRms::submit`.
    RouterSubmit,
    /// `ShardedRms::advance_with` (fan-out and merge).
    RouterAdvance,
    /// `ShardedRms::drain_with`.
    RouterDrain,
    /// `ckpt::save`.
    CkptSave,
    /// `ckpt::load` plus `Checkpoint::restore_into` (the crash drill).
    CkptRestore,
    /// One engine-level shadow replay (a root span).
    Shadow,
    /// `ProportionalCluster::advance_into`.
    ProportionalAdvance,
    /// `ShareAdmission::decide` on `LibraRisk::paper()`.
    LibraRiskDecide,
    /// `ProportionalCluster::admit`.
    ProportionalAdmit,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 14] = [
        Layer::Drive,
        Layer::RmsSubmit,
        Layer::RmsAdvance,
        Layer::RmsDrain,
        Layer::ReportRecord,
        Layer::RouterSubmit,
        Layer::RouterAdvance,
        Layer::RouterDrain,
        Layer::CkptSave,
        Layer::CkptRestore,
        Layer::Shadow,
        Layer::ProportionalAdvance,
        Layer::LibraRiskDecide,
        Layer::ProportionalAdmit,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Drive => "drive",
            Layer::RmsSubmit => "rms.submit",
            Layer::RmsAdvance => "rms.advance",
            Layer::RmsDrain => "rms.drain",
            Layer::ReportRecord => "report.record",
            Layer::RouterSubmit => "router.submit",
            Layer::RouterAdvance => "router.advance",
            Layer::RouterDrain => "router.drain",
            Layer::CkptSave => "ckpt.save",
            Layer::CkptRestore => "ckpt.restore",
            Layer::Shadow => "shadow",
            Layer::ProportionalAdvance => "proportional.advance",
            Layer::LibraRiskDecide => "libra_risk.decide",
            Layer::ProportionalAdmit => "proportional.admit",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Job id of a span that serves no single arrival.
pub const NO_JOB: u64 = u64::MAX;

/// The process-wide instant span times count from, so spans of
/// different recorders share one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One recorded span; times are nanoseconds since the process epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The arrival this span served, or [`NO_JOB`].
    pub job: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder. When off, [`Spans::start`] returns
/// `None` and nothing is read from the clock or stored.
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
    root: u32,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans {
            on: false,
            spans: Vec::new(),
            root: NO_PARENT,
        }
    }

    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn on(capacity: usize) -> Self {
        Spans {
            on: true,
            spans: Vec::with_capacity(capacity),
            ..Spans::off()
        }
    }

    /// The start instant of a span, when recording.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(epoch()).as_nanos() as u64
    }

    /// Closes a span begun with [`Spans::start`] as a child of the open
    /// root.
    #[inline]
    pub fn end(&mut self, layer: Layer, start: Option<Instant>, job: u64) {
        if let Some(start) = start {
            self.record(layer, start, Instant::now(), job);
        }
    }

    /// Records a span already timed by the caller as a child of the open
    /// root.
    #[inline]
    pub fn record(&mut self, layer: Layer, start: Instant, end: Instant, job: u64) {
        if self.on {
            let span = Span {
                layer,
                parent: self.root,
                job,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// Opens a root span; later spans are its children until
    /// [`Spans::close_root`].
    pub fn open_root(&mut self, layer: Layer) {
        if self.on {
            let now = self.ns(Instant::now());
            self.root = self.spans.len() as u32;
            self.spans.push(Span {
                layer,
                parent: NO_PARENT,
                job: NO_JOB,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// Closes the open root span.
    pub fn close_root(&mut self) {
        if self.on {
            let now = self.ns(Instant::now());
            self.spans[self.root as usize].end_ns = now;
            self.root = NO_PARENT;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The spans of `a` followed by those of `b`, with `b`'s parent
/// indices shifted to match.
pub fn concat(a: &[Span], b: &[Span]) -> Vec<Span> {
    let shift = a.len() as u32;
    a.iter()
        .copied()
        .chain(b.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + shift
            },
            ..*s
        }))
        .collect()
}

/// Spans as tab-separated text, one per line under a header.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("layer\tstart_ns\tend_ns\tparent\tjob\n");
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let job = if s.job == NO_JOB { -1 } else { s.job as i64 };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{job}",
            s.layer.name(),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

/// Checks that every span ends after it starts, that every child lies
/// inside its parent's `[start, end]`, and that the children of one
/// parent, in recording order, do not overlap. Only then do the self
/// times of a tree add up to its root's duration.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    // End of the latest child seen, per parent.
    let mut last_end = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let name = s.layer.name();
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({name}) ends before it starts"));
        }
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let parent = spans
            .get(p)
            .ok_or_else(|| format!("span {i} ({name}) has no parent {p}"))?;
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({name}) lies outside its parent {p} ({})",
                parent.layer.name()
            ));
        }
        if s.start_ns < last_end[p] {
            return Err(format!(
                "span {i} ({name}) overlaps the previous child of span {p}"
            ));
        }
        last_end[p] = s.end_ns;
    }
    Ok(())
}

/// Self time of every span: its duration minus its children's. The
/// spans must have passed [`check_nesting`].
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.dur();
        }
    }
    own
}

/// One layer's row of the table.
#[derive(Clone, Debug, Default)]
pub struct Row {
    /// Spans of this layer.
    pub calls: u64,
    /// Summed span durations, ns.
    pub busy_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
    /// Span durations, sorted ascending.
    pub durs: Vec<u64>,
}

impl Row {
    /// Busy time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Median span duration, ns.
    pub fn p50_ns(&self) -> f64 {
        stats::median_u64(&self.durs) as f64
    }

    /// Tail span duration at p99 (or the highest percentile with ten
    /// samples beyond it), ns; `None` without enough spans.
    pub fn p99(&self) -> Option<f64> {
        stats::tail(&self.durs, 0.99).map(|t: Tail| t.value as f64)
    }

    /// [`Row::p99`], 0 without enough spans.
    pub fn p99_ns(&self) -> f64 {
        self.p99().unwrap_or(0.0)
    }
}

/// The per-layer table of one set of spans.
#[derive(Clone, Debug)]
pub struct Table {
    rows: Vec<Row>,
}

impl Table {
    /// Builds the table from spans; fails when they do not nest (see
    /// [`check_nesting`]).
    pub fn new(spans: &[Span]) -> Result<Self, String> {
        check_nesting(spans)?;
        let own = self_times(spans);
        let mut rows = vec![Row::default(); Layer::ALL.len()];
        for (s, own) in spans.iter().zip(own) {
            let row = &mut rows[s.layer as usize];
            row.calls += 1;
            row.busy_ns += s.dur();
            row.self_ns += own;
            row.durs.push(s.dur());
        }
        for row in &mut rows {
            row.durs.sort_unstable();
        }
        Ok(Table { rows })
    }

    /// The row of one layer.
    pub fn row(&self, layer: Layer) -> &Row {
        &self.rows[layer as usize]
    }

    /// Share of the root layer's duration spent in its children: the
    /// part of the wall clock the table attributes to a library layer.
    pub fn coverage(&self, root: Layer) -> f64 {
        let r = self.row(root);
        if r.busy_ns == 0 {
            return 0.0;
        }
        1.0 - r.self_ns as f64 / r.busy_ns as f64
    }

    /// The table as text: one row per layer that has spans, with its
    /// share of the roots' summed duration.
    pub fn render(&self) -> String {
        let roots: u64 = [Layer::Drive, Layer::Shadow]
            .iter()
            .map(|&l| self.row(l).busy_ns)
            .sum();
        let mut out = format!(
            "  {:<22} {:>9} {:>10} {:>10} {:>7} {:>10} {:>10}\n",
            "layer", "calls", "busy_s", "self_s", "self%", "p50_ns", "p99_ns"
        );
        for layer in Layer::ALL {
            let r = self.row(layer);
            if r.calls == 0 {
                continue;
            }
            let p99 = r.p99().map_or("-".to_string(), |v| format!("{v:.0}"));
            let _ = writeln!(
                out,
                "  {:<22} {:>9} {:>10.4} {:>10.4} {:>6.1}% {:>10.0} {:>10}",
                layer.name(),
                r.calls,
                r.busy_s(),
                r.self_ns as f64 * 1e-9,
                100.0 * r.self_ns as f64 / roots.max(1) as f64,
                r.p50_ns(),
                p99
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            job: NO_JOB,
            start_ns,
            end_ns,
        }
    }

    fn self_total(t: &Table) -> u64 {
        Layer::ALL.iter().map(|&l| t.row(l).self_ns).sum()
    }

    #[test]
    fn self_times_tile_the_root() {
        let spans = [
            span(Layer::Drive, NO_PARENT, 0, 100),
            span(Layer::RmsAdvance, 0, 5, 30),
            span(Layer::ReportRecord, 0, 30, 34),
            span(Layer::RmsSubmit, 0, 40, 95),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 25 - 4 - 55, 25, 4, 55]);
        let table = Table::new(&spans).unwrap();
        assert_eq!(self_total(&table), 100);
        assert!((table.coverage(Layer::Drive) - 0.84).abs() < 1e-12);
        assert_eq!(table.row(Layer::RmsSubmit).calls, 1);
        assert_eq!(table.row(Layer::RmsSubmit).busy_ns, 55);

        let shadow = [
            span(Layer::Shadow, NO_PARENT, 200, 260),
            span(Layer::LibraRiskDecide, 0, 210, 250),
        ];
        let both = Table::new(&concat(&spans, &shadow)).unwrap();
        assert_eq!(self_total(&both), 100 + 60);
        assert_eq!(both.row(Layer::Shadow).self_ns, 20);
        assert_eq!(both.row(Layer::Drive).self_ns, 16);
    }

    #[test]
    fn spans_that_do_not_nest_are_refused() {
        let root = span(Layer::Drive, NO_PARENT, 0, 100);
        let cases = [
            (span(Layer::RmsSubmit, 0, 90, 110), "outside its parent"),
            (
                span(Layer::RmsSubmit, NO_PARENT - 1, 10, 20),
                "has no parent",
            ),
            (span(Layer::RmsSubmit, 0, 20, 10), "ends before it starts"),
            (span(Layer::RmsSubmit, 0, 25, 40), "overlaps"),
        ];
        for (bad, why) in cases {
            let spans = [root, span(Layer::RmsAdvance, 0, 10, 30), bad];
            let err = Table::new(&spans).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
        let touching = [
            root,
            span(Layer::RmsAdvance, 0, 10, 30),
            span(Layer::RmsSubmit, 0, 30, 100),
        ];
        assert!(check_nesting(&touching).is_ok());
    }

    #[test]
    fn recorded_spans_tile_the_recorded_root() {
        let mut s = Spans::on(16);
        s.open_root(Layer::Drive);
        for job in 0..5 {
            let t = s.start();
            std::hint::black_box((0..1000u64).sum::<u64>());
            s.end(Layer::RmsSubmit, t, job);
        }
        s.close_root();
        let table = Table::new(s.spans()).unwrap();
        assert_eq!(self_total(&table), table.row(Layer::Drive).busy_ns);
        assert_eq!(table.row(Layer::RmsSubmit).calls, 5);
        let c = table.coverage(Layer::Drive);
        assert!((0.0..=1.0).contains(&c), "coverage {c}");
        assert_eq!(to_tsv(s.spans()).lines().count(), 1 + 6);
    }

    #[test]
    fn an_off_recorder_keeps_nothing() {
        let mut s = Spans::off();
        s.open_root(Layer::Drive);
        let t = s.start();
        assert!(t.is_none());
        s.end(Layer::RmsSubmit, t, 0);
        s.record(Layer::RmsSubmit, Instant::now(), Instant::now(), 0);
        s.close_root();
        assert!(s.spans().is_empty());
    }
}
