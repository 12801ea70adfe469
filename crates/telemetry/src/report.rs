//! `StatsReport`: the serialized payload of the stats plane.
//!
//! One node's observable state — its metrics snapshot plus its recent
//! spans — in a compact binary encoding (big-endian integers, `u16`- or
//! `u32`-length-prefixed strings and lists, a leading version byte).
//! This is what a `ProxyServer` answers a `stats://` read with and
//! what the fleet console decodes, merges, and renders. The encoding is
//! deliberately the same from-scratch style as the wire protocol's frame
//! grammar: no external serialization dependency, every decode
//! bounds-checked to the declared end.

use std::collections::BTreeMap;

use crate::metrics::{GaugeMode, HistogramSnapshot, MetricsSnapshot};
use crate::trace::{Span, SpanId, TraceId};

/// Encoding version byte (bump on incompatible layout changes).
/// Version 2 added a [`GaugeMode`] byte to every gauge entry.
const VERSION: u8 = 2;

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// Unknown version byte.
    Version(u8),
    /// Payload failed structural validation.
    Malformed(String),
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Version(v) => write!(f, "unknown stats report version {v}"),
            ReportError::Malformed(d) => write!(f, "malformed stats report: {d}"),
        }
    }
}

impl std::error::Error for ReportError {}

fn malformed(d: &str) -> ReportError {
    ReportError::Malformed(d.to_owned())
}

// ---- encoding helpers (mirrors the wire protocol's style) -----------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&s.as_bytes()[..len]);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ReportError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ReportError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ReportError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ReportError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ReportError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, ReportError> {
        Ok(i64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ReportError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| malformed("invalid UTF-8"))
    }

    /// Bounds a declared element count by the bytes actually remaining
    /// (each element needs at least `min_bytes`), so a hostile length
    /// cannot force a huge allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, ReportError> {
        let n = self.u32()? as usize;
        let cap = (self.buf.len() - self.pos) / min_bytes.max(1);
        if n > cap {
            return Err(malformed("element count exceeds payload"));
        }
        Ok(n)
    }
}

fn encode_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u64(out, h.count);
    put_u64(out, h.sum);
    put_u64(out, h.min);
    put_u64(out, h.max);
    put_u32(out, h.buckets.len() as u32);
    for &(i, n) in &h.buckets {
        put_u32(out, i);
        put_u64(out, n);
    }
}

fn decode_histogram(c: &mut Cursor<'_>) -> Result<HistogramSnapshot, ReportError> {
    let count = c.u64()?;
    let sum = c.u64()?;
    let min = c.u64()?;
    let max = c.u64()?;
    let n = c.count(12)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push((c.u32()?, c.u64()?));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets,
    })
}

/// One node's serialized observable state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// The reporting node's name (e.g. `"shard1"`).
    pub node: String,
    /// Its metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Its retained span window, oldest first (empty when the requester
    /// asked for metrics only).
    pub spans: Vec<Span>,
    /// Spans evicted from the flight recorder before this dump.
    pub spans_dropped: u64,
}

impl StatsReport {
    /// Serializes the report.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.push(VERSION);
        put_str(&mut out, &self.node);
        put_u32(&mut out, self.metrics.counters.len() as u32);
        for (k, v) in &self.metrics.counters {
            put_str(&mut out, k);
            put_u64(&mut out, *v);
        }
        put_u32(&mut out, self.metrics.gauges.len() as u32);
        for (k, v) in &self.metrics.gauges {
            put_str(&mut out, k);
            put_i64(&mut out, *v);
            out.push(self.metrics.gauge_mode(k).as_u8());
        }
        put_u32(&mut out, self.metrics.histograms.len() as u32);
        for (k, h) in &self.metrics.histograms {
            put_str(&mut out, k);
            encode_histogram(&mut out, h);
        }
        put_u64(&mut out, self.spans_dropped);
        put_u32(&mut out, self.spans.len() as u32);
        for s in &self.spans {
            put_u64(&mut out, s.trace.0);
            put_u64(&mut out, s.id.0);
            put_u64(&mut out, s.parent.0);
            put_str(&mut out, &s.name);
            put_str(&mut out, &s.node);
            put_u64(&mut out, s.start_ns);
            put_u64(&mut out, s.duration_ns);
        }
        out
    }

    /// Decodes a report, validating structure to the declared end.
    pub fn decode(buf: &[u8]) -> Result<StatsReport, ReportError> {
        let mut c = Cursor { buf, pos: 0 };
        let version = c.u8()?;
        if version != VERSION {
            return Err(ReportError::Version(version));
        }
        let node = c.string()?;
        let mut counters = BTreeMap::new();
        for _ in 0..c.count(10)? {
            let k = c.string()?;
            counters.insert(k, c.u64()?);
        }
        let mut gauges = BTreeMap::new();
        let mut gauge_modes = BTreeMap::new();
        for _ in 0..c.count(11)? {
            let k = c.string()?;
            let v = c.i64()?;
            let mode = GaugeMode::from_u8(c.u8()?).ok_or_else(|| malformed("bad gauge mode"))?;
            if mode != GaugeMode::Sum {
                gauge_modes.insert(k.clone(), mode);
            }
            gauges.insert(k, v);
        }
        let mut histograms = BTreeMap::new();
        for _ in 0..c.count(38)? {
            let k = c.string()?;
            histograms.insert(k, decode_histogram(&mut c)?);
        }
        let spans_dropped = c.u64()?;
        let n_spans = c.count(44)?;
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            spans.push(Span {
                trace: TraceId(c.u64()?),
                id: SpanId(c.u64()?),
                parent: SpanId(c.u64()?),
                name: c.string()?,
                node: c.string()?,
                start_ns: c.u64()?,
                duration_ns: c.u64()?,
            });
        }
        if c.pos != buf.len() {
            return Err(malformed("trailing bytes"));
        }
        Ok(StatsReport {
            node,
            metrics: MetricsSnapshot {
                counters,
                gauges,
                gauge_modes,
                histograms,
            },
            spans,
            spans_dropped,
        })
    }

    /// Merges the metrics of many per-node reports into one fleet-wide
    /// snapshot (spans are per-node and are not merged).
    pub fn merge_metrics<'a>(
        reports: impl IntoIterator<Item = &'a StatsReport>,
    ) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for r in reports {
            merged.merge(&r.metrics);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsReport {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("a".into(), 1);
        metrics.counters.insert("b".into(), u64::MAX);
        metrics.gauges.insert("g".into(), -7);
        metrics.gauges.insert("peak".into(), 12);
        metrics.gauge_modes.insert("peak".into(), GaugeMode::Max);
        metrics.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                buckets: vec![(10, 1), (17, 1)],
            },
        );
        StatsReport {
            node: "shard0".into(),
            metrics,
            spans: vec![Span {
                trace: TraceId(9),
                id: SpanId(2),
                parent: SpanId::NONE,
                name: "client.fetch".into(),
                node: "client:alice".into(),
                start_ns: 5,
                duration_ns: 100,
            }],
            spans_dropped: 3,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = sample();
        assert_eq!(StatsReport::decode(&r.encode()).unwrap(), r);
        let empty = StatsReport::default();
        assert_eq!(StatsReport::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(StatsReport::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // Version + empty node + a counter count claiming 2^32-1 entries.
        let mut buf = vec![VERSION, 0, 0];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(StatsReport::decode(&buf).is_err());
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = 99;
        assert_eq!(StatsReport::decode(&bytes), Err(ReportError::Version(99)));
    }

    #[test]
    fn merge_metrics_spans_nodes() {
        let a = sample();
        let mut b = sample();
        b.node = "shard1".into();
        let merged = StatsReport::merge_metrics([&a, &b]);
        assert_eq!(merged.counter("a"), 2);
        assert_eq!(merged.histograms["h"].count, 4);
    }
}
