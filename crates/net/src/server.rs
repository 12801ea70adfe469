//! `ProxyServer`: the organization's proxy on a real TCP socket.
//!
//! The server wraps the existing `dvm_proxy::Proxy` — its filter
//! pipeline, rewrite cache, and signer all run unchanged behind the
//! socket — and serves it on the `dvm-reactor` epoll event loop: one
//! loop thread owns every connection and answers memory-tier hits
//! itself, and a bounded worker pool executes the requests that may
//! block (`crate::reactor_server`), with the protocol itself in
//! `crate::protocol`.
//!
//! `AUDIT_EVENT` frames from clients are ingested straight into the
//! shared `AdminConsole`, so the paper's remote administration console
//! keeps working when the trust boundary becomes a network hop.
//! [`ProxyServer::shutdown`] joins every thread before returning — no
//! leaked connections.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use dvm_monitor::AdminConsole;
use dvm_proxy::Proxy;
use dvm_reactor::{Reactor, ReactorConfig};
use dvm_telemetry::{Gauge, Histogram, Telemetry};

use crate::frame::Frame;
use crate::reactor_server::NetHandler;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections. Connections beyond the
    /// limit are *rejected* with a typed `Overloaded` error frame rather
    /// than queued indefinitely — clients back off and retry, and a
    /// cluster client fails over to another shard immediately.
    pub max_connections: usize,
    /// Optional fault injection for resilience tests.
    pub fault: Option<FaultPlan>,
    /// Close connections with no read/write progress for this long
    /// (slowloris defense). `None` keeps the pre-deadline behavior:
    /// idle connections stay up indefinitely.
    pub idle_deadline: Option<Duration>,
    /// Worker threads for request execution; `0` picks
    /// `max(2, available_parallelism)`.
    pub workers: usize,
    /// Per-connection read-buffer bound while a request is in flight
    /// (see `dvm_reactor::ReactorConfig::read_buf_limit`).
    pub read_buf_limit: usize,
    /// Per-connection output backlog beyond which the connection is
    /// backpressured (reads pause until the peer drains).
    pub write_buf_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            fault: None,
            idle_deadline: None,
            workers: 0,
            read_buf_limit: 64 << 10,
            write_buf_limit: 256 << 10,
        }
    }
}

/// Deliberate failure injection for resilience tests: abruptly drop the
/// connection instead of answering every `n`-th code request, counted
/// across all connections (1-based). The same plan is shared by a
/// standalone [`ProxyServer`] and every shard of a `ProxyCluster`, so
/// one plan describes an organization-wide failure mode. Faults on the
/// wire itself (delays, corruption, truncation) are `dvm-chaos`'s job.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    period: u64,
}

impl FaultPlan {
    /// Drops every `n`-th code request; `n == 0` never drops.
    pub fn drop_every_nth(n: u64) -> FaultPlan {
        FaultPlan { period: n }
    }

    /// Whether the server's `seq`-th code request (1-based) is dropped.
    pub(crate) fn drops(&self, seq: u64) -> bool {
        self.period > 0 && seq.is_multiple_of(self.period)
    }
}

/// Most entries a single `MIGRATE_BEGIN` answer will stream before
/// closing the batch with `complete: false`. Bounds both the memory a
/// source shard pins per transfer and the work lost to a cut stream —
/// the target resumes from the last key it ingested.
pub const MIGRATE_BATCH: usize = 64;

/// The server's read-only view of cluster membership, installed by the
/// membership plane after bind. `RING_UPDATE` requests are answered
/// from here: askers at an older epoch get the published snapshot
/// bytes, up-to-date askers get just the epoch. Publishing is
/// epoch-monotonic; stale publishes are ignored.
#[derive(Debug, Default)]
pub struct MembershipView {
    epoch: AtomicU64,
    snapshot: Mutex<Arc<Vec<u8>>>,
}

impl MembershipView {
    pub fn new() -> MembershipView {
        MembershipView::default()
    }

    /// Installs the encoded ring for `epoch`. Ignored unless `epoch`
    /// advances the view (publishes may race during rapid transitions).
    pub fn publish(&self, epoch: u64, encoded: Vec<u8>) {
        let mut snap = self.snapshot.lock();
        if epoch >= self.epoch.load(Ordering::SeqCst) {
            *snap = Arc::new(encoded);
            self.epoch.store(epoch, Ordering::SeqCst);
        }
    }

    /// The most recently published epoch (0 before any publish).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The published snapshot bytes (empty before any publish).
    pub fn snapshot(&self) -> Arc<Vec<u8>> {
        self.snapshot.lock().clone()
    }
}

/// One batch of a migration stream, as produced by a
/// [`MigrateExporter`].
#[derive(Debug, Clone, Default)]
pub struct MigrateBatch {
    /// `(url, signed bytes)` pairs in ascending url order.
    pub entries: Vec<(String, Vec<u8>)>,
    /// False when the exporter truncated the batch (more keys remain
    /// after the last entry).
    pub complete: bool,
}

/// Source side of live cache migration: enumerates the cached entries a
/// given shard owns, in key order, resumable from any key. Installed on
/// the server by the membership plane; the frame layer stays ignorant
/// of rings and stores.
pub trait MigrateExporter: Send + Sync {
    /// Up to `max` owned entries strictly after `after` (empty = from
    /// the start) for `shard`, under the exporter's ring at `epoch`.
    /// `Err` is a typed refusal (e.g. the source has not reached
    /// `epoch`), relayed to the asker as an `ERROR` frame.
    fn export(
        &self,
        shard: u32,
        epoch: u64,
        after: &str,
        max: usize,
    ) -> Result<MigrateBatch, String>;
}

/// Renders the Prometheus-text metrics exposition for this node,
/// answered over `METRICS_SCRAPE`. Installed by the serving layer
/// (`dvm-watch` provides the implementation); the frame layer stays
/// ignorant of the text format, same as it is of rings and stores.
pub trait MetricsSource: Send + Sync {
    /// The current exposition text.
    fn render_metrics(&self) -> String;
}

dvm_telemetry::counters! {
    /// Registered handles behind [`ServerStats`].
    pub(crate) struct ServerCounters;
    /// The server's counts, read from the telemetry plane it shares with
    /// its proxy.
    pub struct ServerStats {
        /// Connections accepted.
        connections = "net.server.connections",
        /// Code requests received.
        requests = "net.server.requests",
        /// Successful code responses sent.
        responses = "net.server.responses",
        /// Typed error frames sent in answer to code requests.
        errors = "net.server.errors",
        /// Frames received.
        frames_in = "net.server.frames_in",
        /// Frames sent.
        frames_out = "net.server.frames_out",
        /// Bytes read from connections.
        bytes_in = "net.server.bytes_in",
        /// Bytes of encoded frames sent.
        bytes_out = "net.server.bytes_out",
        /// Audit events ingested into the console.
        audit_events = "net.server.audit_events",
        /// Malformed or unparseable frames received.
        malformed = "net.server.malformed",
        /// Connections dropped by fault injection.
        faults_injected = "net.server.faults_injected",
        /// Connections rejected with `Overloaded` at the admission gate.
        overload_rejects = "net.server.overload_rejects",
        /// `PEER_GET` probes received from peer shards.
        peer_gets = "net.server.peer_gets",
        /// `PEER_GET` probes answered from the local cache.
        peer_hits = "net.server.peer_hits",
        /// `PEER_PUT` offers ingested into the local cache.
        peer_puts = "net.server.peer_puts",
        /// `STATS_REQUEST` frames answered.
        stats_requests = "net.server.stats_requests",
        /// `METRICS_SCRAPE` frames answered.
        scrape_requests = "net.server.scrape_requests",
        /// `EVENTS_REQUEST` frames answered.
        events_requests = "net.server.events_requests",
        /// `RING_UPDATE` requests answered.
        ring_updates = "net.server.ring_updates",
        /// `MIGRATE_BEGIN` streams served (including resumed ones).
        migrate_streams = "net.server.migrate_streams",
        /// `MIGRATE_CHUNK` frames sent to joining shards.
        migrate_chunks_out = "net.server.migrate_chunks_out",
        /// `MIGRATE_BEGIN` requests refused by the exporter (epoch
        /// mismatch or no exporter installed).
        migrate_rejects = "net.server.migrate_rejects",
        /// Connections closed for exceeding the idle deadline (slowloris
        /// reaping).
        idle_reaped = "net.server.idle_reaped",
        /// Times a connection crossed its write-buffer limit and had its
        /// reads paused until the peer drained.
        backpressure_stalls = "reactor.backpressure_stalls_total",
        /// Event-loop iterations (`epoll_wait` returns).
        loop_iterations = "reactor.loop_iterations",
        /// Ready events the event loop handled.
        loop_events = "reactor.events_total",
    }
}

/// Pre-registered wire-layer telemetry handles (the proxy's plane is
/// shared: server and proxy report as one node).
pub(crate) struct ServerMetrics {
    pub(crate) counters: ServerCounters,
    pub(crate) live_connections: Arc<Gauge>,
    pub(crate) serve_ns: Arc<Histogram>,
    /// Every open connection, overloaded ones included.
    pub(crate) conns_open: Arc<Gauge>,
    pub(crate) wakeup_ns: Arc<Histogram>,
}

impl ServerMetrics {
    fn register(telemetry: &Telemetry) -> ServerMetrics {
        let r = telemetry.registry();
        ServerMetrics {
            counters: ServerCounters::register(r),
            live_connections: r.gauge("net.server.live_connections"),
            serve_ns: r.histogram("net.server.serve_ns"),
            conns_open: r.gauge("reactor.conns_open"),
            wakeup_ns: r.histogram("reactor.wakeup_ns"),
        }
    }
}

/// Server state shared by the protocol layer (`crate::protocol`) and
/// the reactor glue (`crate::reactor_server`).
pub(crate) struct Inner {
    pub(crate) proxy: Arc<Proxy>,
    pub(crate) console: Option<Arc<Mutex<AdminConsole>>>,
    pub(crate) config: ServerConfig,
    pub(crate) request_counter: AtomicU64,
    pub(crate) anon_sessions: AtomicU64,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) membership: Mutex<Option<Arc<MembershipView>>>,
    pub(crate) exporter: Mutex<Option<Arc<dyn MigrateExporter>>>,
    pub(crate) scrape: Mutex<Option<Arc<dyn MetricsSource>>>,
}

impl Inner {
    /// Encodes `frame` for the wire, counting it and its bytes on the
    /// out-metrics (the single choke point every reply goes through).
    pub(crate) fn encode_counted(&self, frame: &Frame) -> Vec<u8> {
        let encoded = frame.encode();
        self.metrics.counters.frames_out.inc();
        self.metrics.counters.bytes_out.add(encoded.len() as u64);
        encoded
    }
}

/// The DVM proxy behind a live TCP socket.
pub struct ProxyServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    /// The event loop; taken on shutdown.
    reactor: Option<Reactor>,
}

impl std::fmt::Debug for ProxyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyServer")
            .field("addr", &self.addr)
            .field("live", &self.live_connections())
            .finish()
    }
}

impl ProxyServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    ///
    /// When a console is supplied, client handshakes and `AUDIT_EVENT`
    /// frames flow into it; without one, sessions are numbered locally.
    pub fn bind(
        addr: impl ToSocketAddrs,
        proxy: Arc<Proxy>,
        console: Option<Arc<Mutex<AdminConsole>>>,
        config: ServerConfig,
    ) -> std::io::Result<ProxyServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let telemetry = proxy.telemetry();
        let metrics = ServerMetrics::register(&telemetry);
        let rconfig = ReactorConfig {
            max_connections: config.max_connections.max(1),
            workers: config.workers,
            read_buf_limit: config.read_buf_limit,
            write_buf_limit: config.write_buf_limit,
            idle_deadline: config.idle_deadline,
        };
        let inner = Arc::new(Inner {
            proxy,
            console,
            config,
            request_counter: AtomicU64::new(0),
            anon_sessions: AtomicU64::new(1),
            telemetry,
            metrics,
            membership: Mutex::new(None),
            exporter: Mutex::new(None),
            scrape: Mutex::new(None),
        });
        let handler = Arc::new(NetHandler {
            inner: inner.clone(),
        });
        let reactor = Reactor::start(listener, handler, rconfig, inner.clone())?;
        Ok(ProxyServer {
            inner,
            addr,
            reactor: Some(reactor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's counts, read from its proxy's telemetry plane.
    /// The plane outlives the server: a server bound again over the same
    /// proxy (a restarted cluster shard) reports into it too, so these
    /// counts span every life of that proxy's servers, the same scope
    /// as `net.server.frames_in`.
    pub fn stats(&self) -> ServerStats {
        self.inner.metrics.counters.view()
    }

    /// The telemetry plane this server reports into (shared with its
    /// proxy, so proxy and wire metrics land in one `StatsReport`).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.inner.telemetry.clone()
    }

    /// Connections currently being served (the
    /// `net.server.live_connections` gauge).
    pub fn live_connections(&self) -> usize {
        self.inner.metrics.live_connections.get() as usize
    }

    /// Installs the membership view answering `RING_UPDATE` requests.
    /// Called by the membership plane after bind; before this, askers
    /// are told epoch 0 with no snapshot.
    pub fn set_membership_view(&self, view: Arc<MembershipView>) {
        *self.inner.membership.lock() = Some(view);
    }

    /// Installs the cache exporter answering `MIGRATE_BEGIN` streams.
    /// Without one, migration requests get a typed `Internal` error.
    pub fn set_migrate_exporter(&self, exporter: Arc<dyn MigrateExporter>) {
        *self.inner.exporter.lock() = Some(exporter);
    }

    /// Installs the exposition renderer answering `METRICS_SCRAPE`
    /// requests. Without one, scrapers get a typed `Internal` error
    /// (`EVENTS_REQUEST` works regardless — the journal lives on the
    /// telemetry plane itself).
    pub fn set_metrics_source(&self, source: Arc<dyn MetricsSource>) {
        *self.inner.scrape.lock() = Some(source);
    }

    /// Stops accepting, closes every connection, joins the loop and its
    /// workers, and returns the final [`ProxyServer::stats`]. Idempotent
    /// via [`Drop`].
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        if let Some(r) = self.reactor.take() {
            r.shutdown();
            // The loop thread is joined, so its last gauge update is
            // visible; a proxy is served by one server at a time.
            debug_assert_eq!(self.live_connections(), 0);
        }
    }
}

impl Drop for ProxyServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::FaultPlan;

    #[test]
    fn drop_every_nth_fires_on_exactly_the_multiples() {
        for n in [1u64, 4, 17] {
            let plan = FaultPlan::drop_every_nth(n);
            let fired: Vec<u64> = (1..=100).filter(|&seq| plan.drops(seq)).collect();
            let multiples: Vec<u64> = (1..=100).filter(|seq| seq % n == 0).collect();
            assert_eq!(fired, multiples, "n = {n}");
        }
        let never = FaultPlan::drop_every_nth(0);
        assert!(
            (1..=100).all(|seq| !never.drops(seq)),
            "n = 0 must never fire"
        );
    }
}
