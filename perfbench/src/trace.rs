//! In-memory spans recorded at the benchmark's own layer boundaries.
//!
//! A span has a name (`<layer>.<what>`), start and end on one clock, the
//! span that caused it (`parent`, 0 for a root) and the operation it
//! belongs to (`op`: one id per PageRank repetition, query or mutation
//! batch). With tracing off nothing is recorded. Spans are kept in
//! memory and written out once, when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span (or operation) id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since the tracer's epoch for an instant.
    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span with a pre-allocated `id`.
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.lock().push(Span {
                id,
                parent,
                op,
                name,
                start_us: self.us(start),
                end_us: self.us(end),
            });
        }
    }

    /// Run `f` inside a span; returns `f`'s result and the span's wall
    /// seconds.
    pub fn span<R>(
        &self,
        parent: u64,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(self.id(), parent, op, name, start, end);
        (r, (end - start).as_secs_f64())
    }

    /// A copy of the spans recorded so far.
    pub fn spans(&self) -> Spans {
        Spans(self.spans.lock().clone())
    }

    /// Take every recorded span.
    pub fn finish(&self) -> Spans {
        Spans(std::mem::take(&mut *self.spans.lock()))
    }
}

/// The spans of one run, with the analyses the per-layer metrics need.
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Children of each span id.
    fn children(&self) -> HashMap<u64, Vec<&Span>> {
        let mut kids: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in &self.0 {
            if s.parent != 0 {
                kids.entry(s.parent).or_default().push(s);
            }
        }
        kids
    }

    /// Self time of every span, µs: its duration minus the part of its
    /// interval that its children cover (children may overlap, e.g. the
    /// parallel calls of one hop, so their union is subtracted).
    pub fn self_times(&self) -> HashMap<u64, f64> {
        let kids = self.children();
        self.0
            .iter()
            .map(|s| {
                let covered = kids.get(&s.id).map_or(0.0, |c| {
                    union_us(
                        c.iter()
                            .map(|k| (k.start_us.max(s.start_us), k.end_us.min(s.end_us))),
                    )
                });
                (s.id, (s.dur_us() - covered).max(0.0))
            })
            .collect()
    }

    /// Share of root-span time (operations and set-ups) that no layer
    /// span covers, %.
    pub fn unattributed_pct(&self) -> f64 {
        let selfs = self.self_times();
        let (mut own, mut total) = (0.0, 0.0);
        for s in self.0.iter().filter(|s| s.parent == 0) {
            own += selfs[&s.id];
            total += s.dur_us();
        }
        crate::report::ratio(own, total) * 100.0
    }

    /// Write the spans as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in self.0.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}{}",
                s.id,
                s.parent,
                s.op,
                s.name,
                s.start_us,
                s.end_us,
                selfs[&s.id],
                if i + 1 < self.0.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Total length of the union of intervals.
fn union_us(intervals: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}
