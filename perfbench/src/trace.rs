//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, a parent and a query id. Spans
//! stay in memory until the run ends and are then written to a file.
//!
//! A child span is either a call made inside its parent's interval or a
//! separate call that re-runs the part of the parent's work that belongs
//! to a lower layer (for instance the fan replay of a cold build, or the
//! fault-free replay under a faulted lookup). Either way a span's
//! *exclusive* time is its duration minus its children's durations, and
//! its *self* time is that value clamped at zero.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub qid: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The layer a span name belongs to, or `None` for the harness's own
/// composite spans (the `batch` and `probe` roots).
pub fn layer(name: &str) -> Option<&'static str> {
    Some(match name {
        "service" => "service",
        "l1" => "l1",
        "l2" => "l2",
        "l2.store" => "l2_store",
        n if n.starts_with("avoid") => "avoid",
        "construct" => "construct",
        "fan" => "fan",
        n if n.starts_with("netsim") => "netsim",
        _ => return None,
    })
}

/// Every layer a share is reported for, with its metric name.
pub const SHARES: [(&str, &str); 8] = [
    ("service", "share.service"),
    ("l1", "share.l1"),
    ("l2", "share.l2"),
    ("l2_store", "share.l2_store"),
    ("avoid", "share.avoid"),
    ("construct", "share.construct"),
    ("fan", "share.fan"),
    ("netsim", "share.netsim"),
];

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, qid: u64) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            qid,
        });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        qid: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, qid);
        let r = f();
        self.close(id);
        r
    }

    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id].name = name;
    }

    pub fn reparent(&mut self, id: SpanId, parent: Option<SpanId>) {
        self.spans[id].parent = parent;
    }

    /// Duration of the most recently opened span.
    pub fn last_dur(&self) -> u64 {
        self.spans.last().map_or(0, Span::dur)
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Next span id (spans opened from now on have ids ≥ this).
    pub fn mark(&self) -> SpanId {
        self.spans.len()
    }

    /// One span's duration minus its children's durations (signed).
    /// Children are always opened after their parent.
    pub fn exclusive_of(&self, id: SpanId) -> i64 {
        let children = self.spans[id + 1..].iter().filter(|s| s.parent == Some(id));
        self.spans[id].dur() as i64 - children.map(|s| s.dur() as i64).sum::<i64>()
    }

    /// Per span: duration minus the durations of its children (signed).
    pub fn exclusive(&self) -> Vec<i64> {
        exclusive_ns(&self.spans)
    }

    /// Per layer: the share of the summed self time of every layer span
    /// in `from..` (harness spans excluded).
    pub fn shares(&self, from: SpanId) -> BTreeMap<&'static str, f64> {
        let excl = self.exclusive();
        let mut by_layer: BTreeMap<&'static str, f64> =
            SHARES.iter().map(|&(l, _)| (l, 0.0)).collect();
        for (s, &x) in self.spans[from..].iter().zip(&excl[from..]) {
            if let Some(l) = layer(s.name) {
                *by_layer.entry(l).or_default() += x.max(0) as f64;
            }
        }
        let total: f64 = by_layer.values().sum();
        if total > 0.0 {
            by_layer.values_mut().for_each(|v| *v /= total);
        }
        by_layer
    }

    /// Writes every span as one tab-separated line: id, parent (-1 for
    /// a root), query id, name, start ns, end ns, self ns.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tqid\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, x)) in self.spans.iter().zip(self.exclusive()).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.qid,
                s.name,
                s.start,
                s.end,
                x.max(0)
            )?;
        }
        w.flush()
    }
}

/// Duration minus summed child durations, per span.
pub fn exclusive_ns(spans: &[Span]) -> Vec<i64> {
    let mut x: Vec<i64> = spans.iter().map(|s| s.dur() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            x[p] -= s.dur() as i64;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            qid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("batch", 0, 100, None),        // 0
            span("service", 0, 60, Some(0)),    // 1
            span("l1", 10, 20, Some(1)),        // 2
            span("l1", 20, 35, Some(1)),        // 3
            span("construct", 60, 90, Some(0)), // 4
            span("fan", 65, 75, Some(4)),       // 5
            span("fan", 90, 98, Some(4)),       // 6: a re-run child outside its parent's interval
        ];
        assert_eq!(
            exclusive_ns(&spans),
            vec![100 - 60 - 30, 60 - 25, 10, 15, 30 - 18, 10, 8]
        );
    }

    #[test]
    fn self_time_clamps_and_shares_sum_to_one() {
        let t = Trace {
            spans: vec![
                span("shadow", 0, 50, None),
                span("avoid.scan", 0, 10, Some(0)),
                span("l2", 0, 12, Some(1)), // a slower re-run: exclusive -2
                span("service", 20, 50, Some(0)),
            ],
            ..Trace::default()
        };
        assert_eq!(t.exclusive(), vec![10, -2, 12, 30]);
        let sh = t.shares(0);
        assert_eq!(sh["avoid"], 0.0);
        assert!((sh["l2"] - 12.0 / 42.0).abs() < 1e-12);
        assert!((sh["service"] - 30.0 / 42.0).abs() < 1e-12);
        assert!((sh.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(layer("l2.store"), Some("l2_store"));
        assert_eq!(layer("avoid.snapshot"), Some("avoid"));
        assert_eq!(layer("shadow"), None);
    }

    #[test]
    fn open_close_records_intervals() {
        let mut t = Trace::default();
        let root = t.open("batch", None, 7);
        let x = t.time("service", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        let (r, c) = (t.span(root), t.span(1));
        assert!(r.start <= c.start && c.end <= r.end);
        assert_eq!((c.parent, c.qid, c.name), (Some(root), 7, "service"));
    }
}
