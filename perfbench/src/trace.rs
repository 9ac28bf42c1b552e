//! Spans recorded by the benchmark around the calls it makes into each
//! layer of the program.
//!
//! A span has a name (`layer.call`), a start, an end, the span that caused
//! it, and a count of work items it covered (a span around a loop of
//! 10 000 `Sequencer::stamp` calls has count 10 000). Spans live in memory
//! and are written out once the run ends. A disabled tracer records
//! nothing, so the untraced run pays no bookkeeping.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `shard.submit`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (`start_ns` until the span ends).
    pub end_ns: u64,
    /// Work items the span covered.
    pub count: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Work items across them.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per work item, ns (`0` when nothing was counted).
    pub fn ns_per_item(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Tracer {
    /// A tracer; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now. Returns `None` when disabled.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            count: 1,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes `id` now, covering `count` work items.
    pub fn end(&mut self, id: Option<SpanId>, count: u64) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            let span = &mut self.spans[id];
            span.end_ns = now;
            span.count = count;
        }
    }

    /// Records a span whose ends the caller already timed (spans that
    /// overlap others, such as one per in-flight order).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        count: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                count,
            });
        }
    }

    /// Runs `f` inside a span of `count` work items.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id, count);
        out
    }

    /// Every recorded span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(span.name).or_default();
            t.spans += 1;
            t.count += span.count;
            t.total_ns += span.duration_ns();
            t.self_ns += own;
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Overlapping children count
/// once; child time outside the parent's interval is clipped.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            s.duration_ns()
                .saturating_sub(covered_ns(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}
