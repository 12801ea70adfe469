//! `dvm-telemetry`: the DVM's observability substrate.
//!
//! The paper's monitoring service ships audit trails and execution
//! profiles from clients to a remote administration console (§4.4, §5);
//! this crate gives the *reproduction itself* the same property — every
//! layer of the proxy pipeline, the wire protocol, and the shard cluster
//! becomes observable from the outside while it runs:
//!
//! - [`metrics`] — a lock-cheap registry of named [`Counter`]s,
//!   [`Gauge`]s, and log-linear-bucket latency [`Histogram`]s. The hot
//!   path touches only relaxed atomics on pre-registered handles;
//!   snapshots quantize into p50/p90/p99 and merge across processes so a
//!   fleet of shards reports as one service. The [`counters!`] macro
//!   declares a component's counters once — field and registry name
//!   side by side — and yields both the handles it bumps and the typed
//!   `*Stats` view its callers read, so the registry is the only place
//!   a count lives.
//! - [`trace`] — distributed request tracing: a [`TraceId`]/[`SpanId`]
//!   context born at the client rides the wire protocol's frames, and
//!   every layer records [`Span`]s (client fetch → shard route →
//!   pipeline stages → origin fetch) into a fixed-size
//!   [`FlightRecorder`] ring buffer, dumpable on demand.
//! - [`report`] — [`StatsReport`], the serialized form a live server
//!   hands back for a `stats://` read on the wire:
//!   one node's metrics snapshot plus its recent spans, in a pure-std
//!   binary encoding (the same length-prefixed style as the wire
//!   protocol, deliberately from scratch).
//!
//! - [`events`] — a bounded, sequenced [`EventJournal`] of typed
//!   cluster events (breaker transitions, ring epochs, migrations,
//!   compactions, alert transitions), tailable with a cursor and
//!   optionally spooled durably by a higher layer.
//!
//! The crate sits below every other DVM crate and depends on nothing but
//! `parking_lot`: proxy, net, cluster, and core all register into it
//! without it knowing any of them.

pub mod events;
pub mod metrics;
pub mod report;
pub mod trace;

pub use events::{EventJournal, JournalEvent, JournalKind, JournalSpool};
pub use metrics::{
    Counter, Gauge, GaugeMode, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use report::{ReportError, StatsReport};
pub use trace::{FlightRecorder, Span, SpanId, TraceContext, TraceId};

use std::sync::Arc;

/// Renders a node's Prometheus-text metrics exposition on demand: the
/// body of a `metrics://` read on the wire and of HTTP `GET /metrics`.
/// The renderer lives above this crate (`dvm-watch`); the server and
/// the HTTP listener only hold one.
pub trait MetricsSource: Send + Sync {
    /// The current exposition text.
    fn render_metrics(&self) -> String;
}

/// One process's (or component's) telemetry plane: a metrics registry
/// plus a span flight recorder and an event journal, under a node name
/// that survives into serialized reports so fleet-wide dumps stay
/// attributable.
#[derive(Debug)]
pub struct Telemetry {
    node: String,
    registry: Registry,
    recorder: FlightRecorder,
    journal: Arc<EventJournal>,
}

impl Telemetry {
    /// Creates a telemetry plane named `node` (e.g. `"shard0"`,
    /// `"client:alice"`) with the default flight-recorder capacity.
    pub fn new(node: &str) -> Telemetry {
        Telemetry::with_capacity(node, trace::DEFAULT_RECORDER_CAPACITY)
    }

    /// Creates a telemetry plane retaining up to `spans` recent spans.
    pub fn with_capacity(node: &str, spans: usize) -> Telemetry {
        let recorder = FlightRecorder::new(spans);
        recorder.set_node(node);
        let journal = Arc::new(EventJournal::default());
        journal.set_node(node);
        Telemetry {
            node: node.to_owned(),
            registry: Registry::new(),
            recorder,
            journal,
        }
    }

    /// The node name stamped on this plane's reports.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The structured event journal. Shared (`Arc`) because recorders
    /// (breaker, store, membership) hold it independently of this plane.
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Records a journal event stamped with the recorder's clock.
    pub fn record_event(&self, kind: JournalKind) -> u64 {
        self.journal.record(self.recorder.now_ns(), kind)
    }

    /// Snapshots this node's full observable state: metrics plus the
    /// retained span window (oldest first). This is what a
    /// `stats://?spans=1` read serializes.
    pub fn report(&self) -> StatsReport {
        StatsReport {
            node: self.node.clone(),
            metrics: self.registry.snapshot(),
            spans: self.recorder.dump(),
            spans_dropped: self.recorder.dropped(),
        }
    }

    /// [`Telemetry::report`] without the span dump (metrics only), for
    /// callers that poll frequently and do not want span payloads.
    pub fn report_metrics_only(&self) -> StatsReport {
        StatsReport {
            node: self.node.clone(),
            metrics: self.registry.snapshot(),
            spans: Vec::new(),
            spans_dropped: self.recorder.dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_wire_encoding() {
        let t = Telemetry::new("node-a");
        t.registry().counter("requests").add(3);
        t.registry().gauge("live").set(2);
        t.registry().histogram("lat_ns").record(1500);
        let trace = TraceId::generate();
        let span = SpanId::generate();
        t.recorder()
            .record_span(trace, span, SpanId::NONE, "client.fetch", 10, 250);
        let report = t.report();
        let bytes = report.encode();
        let back = StatsReport::decode(&bytes).unwrap();
        assert_eq!(back.node, "node-a");
        assert_eq!(back.metrics.counters["requests"], 3);
        assert_eq!(back.metrics.gauges["live"], 2);
        assert_eq!(back.metrics.histograms["lat_ns"].count, 1);
        assert_eq!(back.spans.len(), 1);
        assert_eq!(back.spans[0].name, "client.fetch");
        assert_eq!(back.spans[0].trace, trace);
    }
}
