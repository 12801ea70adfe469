//! Harness-side spans: recorded in memory around each op and each call
//! into a layer's public function, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

/// One timed interval. Spans of one op share `op`; `parent` is the span
/// that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span buffer. Each driver thread owns one and the
/// harness merges them after the round, so recording is a `Vec` push.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Tracers that will be merged must share `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (for its children).
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        id
    }

    /// Opens a span whose children are recorded before it ends; close
    /// it with [`Tracer::finish`].
    pub fn begin(&mut self, op: u64, parent: Option<u32>, name: &'static str) -> u32 {
        let now = Instant::now();
        self.record(op, parent, name, now, now)
    }

    /// Ends a span opened by [`Tracer::begin`] now.
    pub fn finish(&mut self, id: u32) {
        let now = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = now.max(span.start_ns);
    }

    /// Appends another thread's spans, renumbering them past this
    /// tracer's own.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One row of the `layers` table: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub median_us: f64,
    pub self_total_ms: f64,
}

pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let slot = by_name.entry(s.name).or_default();
        slot.0.push(s.duration_ns() as f64 / 1e3);
        slot.1 += own;
    }
    by_name
        .into_iter()
        .map(|(name, (durations, own))| LayerRow {
            name,
            count: durations.len() as u64,
            median_us: median(&durations),
            self_total_ms: own as f64 / 1e6,
        })
        .collect()
}

/// The trace file: the `layers` table, then every span.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("{\"layers\": [\n");
    let rows = layer_table(spans);
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"count\": {}, \"median_us\": {:.3}, \"self_total_ms\": {:.3}}}{sep}",
            r.name, r.count, r.median_us, r.self_total_ms
        );
    }
    out.push_str("],\n\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1 on 20..30; covers 20..50 in total with it.
            span(2, Some(0), 20, 50),
            // Grandchild: reduces span 2, not the root.
            span(3, Some(2), 25, 45),
            // Sticks out past the parent's end: only 90..100 counts.
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 10, 20, 30]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(0, None, 5, 9)]), vec![4]);
    }

    #[test]
    fn begin_and_finish_bracket_the_children() {
        let mut tr = Tracer::new(Instant::now());
        let root = tr.begin(9, None, "op");
        let now = Instant::now();
        let child = tr.record(9, Some(root), "call", now, Instant::now());
        tr.finish(root);
        let (root, child) = (&tr.spans()[root as usize], &tr.spans()[child as usize]);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.record(1, None, "op", epoch, epoch);
        a.record(1, Some(root), "fetch", epoch, epoch);
        let mut b = Tracer::new(epoch);
        let root = b.record(2, None, "op", epoch, epoch);
        b.record(2, Some(root), "fetch", epoch, epoch);
        a.absorb(b);
        let ids: Vec<(u32, Option<u32>)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, None), (1, Some(0)), (2, None), (3, Some(2))]);
    }

    #[test]
    fn layer_table_groups_by_name() {
        let mut spans = vec![span(0, None, 0, 4000), span(1, Some(0), 0, 1000)];
        spans[1].name = "child";
        let rows = layer_table(&spans);
        assert_eq!(rows.len(), 2);
        let child = rows.iter().find(|r| r.name == "child").unwrap();
        assert_eq!((child.count, child.median_us), (1, 1.0));
        let root = rows.iter().find(|r| r.name == "t").unwrap();
        assert_eq!(root.self_total_ms, 0.003);
        assert!(render(&spans).contains("\"name\": \"child\""));
    }
}
