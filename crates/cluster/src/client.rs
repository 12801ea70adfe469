//! `ClusterClassProvider`: ring-routed fetches with failover and
//! quarantine.
//!
//! The client resolves each URL on its own copy of the [`HashRing`] and
//! walks the resulting shard order: home shard first, then each replica.
//! A retryable failure — transport drop or a typed `Overloaded`
//! rejection — fails over to the next shard *immediately* (no
//! same-endpoint backoff loop: that is [`dvm_net::NetClassProvider`]'s
//! single-server behaviour, deliberately not replicated here). Shards
//! that keep failing are quarantined behind a circuit breaker and
//! skipped without paying their connect timeout; a half-open probe
//! readmits them when they recover.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use dvm_jvm::ClassProvider;
use dvm_net::{request_once, Frame, Hello, NetClassProvider, NetConfig, NetError, NetTransfer};
use dvm_proxy::Signer;
use dvm_telemetry::{Histogram, Registry, SpanId, Telemetry, TraceContext, TraceId};

use crate::health::{HealthConfig, HealthTracker};
use crate::ring::HashRing;
use crate::snapshot::RingSnapshot;

/// Observer invoked once per successful transfer (shared across every
/// per-shard connection).
pub type TransferHook = Box<dyn FnMut(&NetTransfer) + Send>;

/// Cluster-client tuning.
#[derive(Debug, Clone, Copy)]
pub struct ClusterClientConfig {
    /// Per-shard networking knobs (timeouts, jitter seed).
    pub net: NetConfig,
    /// Circuit-breaker tuning for shard quarantine.
    pub health: HealthConfig,
    /// Full passes over the failover order before giving up.
    pub rounds: u32,
    /// Pause between passes (lets a briefly-overloaded cluster drain).
    pub round_backoff: Duration,
    /// When true, a round that fails on every shard triggers a
    /// `RING_UPDATE` pull before the next pass, so the client relearns
    /// membership (new shards, retired shards, restarted addresses)
    /// without reconnecting by hand. Off by default: clients routed
    /// through interposers (tests, chaos harness) must keep the
    /// addresses they were given.
    pub ring_sync: bool,
}

impl Default for ClusterClientConfig {
    fn default() -> Self {
        ClusterClientConfig {
            net: NetConfig::default(),
            health: HealthConfig::default(),
            rounds: 3,
            round_backoff: Duration::from_millis(20),
            ring_sync: false,
        }
    }
}

dvm_telemetry::counters! {
    /// Registered handles behind [`ClusterClientStats`].
    struct ClusterCounters;
    /// One cluster client's counts, read from its telemetry plane.
    pub struct ClusterClientStats {
        /// Fetches attempted (one per `fetch` call).
        requests = "cluster.requests",
        /// Fetches answered by a shard other than the URL's home.
        non_home_serves = "cluster.non_home_serves",
        /// Individual failovers (a retryable failure moving on to the
        /// next shard or round).
        failovers = "cluster.failovers",
        /// Shards skipped because their circuit was open.
        quarantine_skips = "cluster.quarantine.skips",
        /// Rounds where every shard was quarantined and one was
        /// force-probed.
        desperation_probes = "cluster.desperation_probes",
        /// `RING_UPDATE` pulls that installed a newer ring epoch.
        ring_syncs = "cluster.ring_syncs",
    }
}

/// A cluster fetch failure.
#[derive(Debug)]
pub enum ClusterError {
    /// The ring has no shards.
    NoShards,
    /// Every shard failed retryably in every round; wraps the last error.
    Exhausted(Box<NetError>),
    /// A shard answered with a non-retryable failure (`NotFound`, a
    /// filter rejection, a bad signature): failing over cannot help,
    /// because every shard would give the same answer.
    Fatal(NetError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoShards => write!(f, "cluster has no shards"),
            ClusterError::Exhausted(e) => write!(f, "every shard failed: {e}"),
            ClusterError::Fatal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Pre-registered telemetry handles for the cluster client's hot path.
#[derive(Debug, Clone)]
struct ClusterMetrics {
    counters: ClusterCounters,
    fetch_ns: Arc<Histogram>,
}

impl ClusterMetrics {
    fn register(registry: &Registry) -> ClusterMetrics {
        ClusterMetrics {
            counters: ClusterCounters::register(registry),
            fetch_ns: registry.histogram("cluster.fetch_ns"),
        }
    }
}

/// A `ClassProvider` spreading fetches over a shard cluster.
///
/// Membership is dynamic: the shard table is keyed by ring id (ids need
/// not be contiguous once shards join and retire), and
/// [`ClusterClassProvider::sync_ring`] pulls the cluster's published
/// ring snapshot to learn new epochs at runtime.
pub struct ClusterClassProvider {
    addrs: HashMap<u32, SocketAddr>,
    ring: HashRing,
    hello: Hello,
    signer: Option<Signer>,
    config: ClusterClientConfig,
    providers: HashMap<u32, NetClassProvider>,
    health: HealthTracker,
    hook: Arc<Mutex<Option<TransferHook>>>,
    telemetry: Arc<Telemetry>,
    metrics: ClusterMetrics,
}

impl std::fmt::Debug for ClusterClassProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClassProvider")
            .field("shards", &self.addrs.len())
            .field("user", &self.hello.user)
            .finish()
    }
}

impl ClusterClassProvider {
    /// Creates a provider over `addrs` (indexed by shard id) routed by
    /// `ring`. The ring must cover exactly the shard ids `0..addrs.len()`
    /// — clone it from [`crate::ProxyCluster::ring`] or rebuild it from
    /// the same `(shards, vnodes, seed)` triple.
    ///
    /// Per-shard connections are lazy: a client whose working set homes
    /// onto one shard never touches the others.
    ///
    /// The client counts on a plane of its own, `cluster:<user>`;
    /// [`ClusterClassProvider::new_on`] is the same client on a
    /// caller's plane.
    pub fn new(
        addrs: Vec<SocketAddr>,
        ring: HashRing,
        hello: Hello,
        signer: Option<Signer>,
        config: ClusterClientConfig,
    ) -> ClusterClassProvider {
        let telemetry = Arc::new(Telemetry::new(&format!("cluster:{}", hello.user)));
        ClusterClassProvider::new_on(addrs, ring, hello, signer, config, telemetry)
    }

    /// [`ClusterClassProvider::new`] counting on `telemetry`: its
    /// `cluster.*` counts, its breaker, and every per-shard connection's
    /// `net.client.*` counts.
    pub fn new_on(
        addrs: Vec<SocketAddr>,
        ring: HashRing,
        hello: Hello,
        signer: Option<Signer>,
        config: ClusterClientConfig,
        telemetry: Arc<Telemetry>,
    ) -> ClusterClassProvider {
        let addrs: HashMap<u32, SocketAddr> = addrs
            .into_iter()
            .enumerate()
            .map(|(i, a)| (i as u32, a))
            .collect();
        ClusterClassProvider {
            addrs,
            ring,
            hello,
            signer,
            config,
            providers: HashMap::new(),
            health: HealthTracker::new(config.health, telemetry.clone()),
            hook: Arc::new(Mutex::new(None)),
            metrics: ClusterMetrics::register(telemetry.registry()),
            telemetry,
        }
    }

    /// This client's telemetry plane. Per-shard connections share it, so
    /// `net.client.*` counters and breaker transitions for the whole
    /// cluster accumulate under one node.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// Installs an observer called once per successful transfer,
    /// whichever shard served it.
    pub fn set_transfer_hook(&mut self, hook: TransferHook) {
        *self.hook.lock() = Some(hook);
    }

    /// This client's counts, read from its telemetry plane.
    pub fn stats(&self) -> ClusterClientStats {
        self.metrics.counters.view()
    }

    /// The failover order the ring assigns to `url` (for tests and
    /// diagnostics).
    pub fn route(&self, url: &str) -> Vec<u32> {
        self.ring.route(url)
    }

    /// The epoch of the ring this client routes with.
    pub fn ring_epoch(&self) -> u64 {
        self.ring.epoch()
    }

    /// Pulls the cluster's published ring snapshot over a short-lived
    /// connection and, when it names a newer epoch, swaps in the new
    /// ring and address table without dropping still-valid shard
    /// connections. Returns `true` when a newer ring was installed.
    ///
    /// Every known shard is tried in id order until one answers; the
    /// membership plane guarantees any live shard serves the same
    /// published snapshot.
    pub fn sync_ring(&mut self) -> bool {
        let mut order: Vec<(u32, SocketAddr)> = self.addrs.iter().map(|(&s, &a)| (s, a)).collect();
        order.sort_by_key(|&(s, _)| s);
        let my_epoch = self.ring.epoch();
        for (_, addr) in order {
            let Some((epoch, ring_bytes)) = pull_ring(addr, self.config.net, my_epoch) else {
                continue;
            };
            if epoch <= my_epoch || ring_bytes.is_empty() {
                // This shard answered and we are already current.
                return false;
            }
            let Ok(snap) = RingSnapshot::decode(&ring_bytes) else {
                // A corrupt snapshot from one shard must not wedge the
                // client on it; try the next shard.
                continue;
            };
            self.install_snapshot(&snap);
            return true;
        }
        false
    }

    fn install_snapshot(&mut self, snap: &RingSnapshot) {
        self.ring = snap.to_ring();
        let mut fresh: HashMap<u32, SocketAddr> = HashMap::new();
        for (shard, addr) in &snap.addrs {
            if let Ok(parsed) = addr.parse::<SocketAddr>() {
                fresh.insert(*shard, parsed);
            }
        }
        // Drop connections whose shard left or moved; keep the rest —
        // an epoch change must not cost every client a reconnect storm.
        self.providers
            .retain(|shard, _| fresh.get(shard) == self.addrs.get(shard));
        self.addrs = fresh;
        self.metrics.counters.ring_syncs.inc();
    }

    fn provider(&mut self, shard: u32) -> Result<&mut NetClassProvider, NetError> {
        if !self.providers.contains_key(&shard) {
            let Some(&addr) = self.addrs.get(&shard) else {
                return Err(NetError::Protocol(format!("no address for shard {shard}")));
            };
            // Decorrelate each shard connection's backoff jitter while
            // keeping the whole client replayable from one seed.
            let mut net = self.config.net;
            net.jitter_seed ^= (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut p = NetClassProvider::new_on(
                addr,
                self.hello.clone(),
                self.signer.clone(),
                net,
                self.telemetry.clone(),
            )?;
            let hook = self.hook.clone();
            p.set_transfer_hook(Box::new(move |t| {
                if let Some(h) = hook.lock().as_mut() {
                    h(t);
                }
            }));
            self.providers.insert(shard, p);
        }
        Ok(self.providers.get_mut(&shard).expect("installed above"))
    }

    fn attempt(
        &mut self,
        shard: u32,
        url: &str,
        trace: TraceContext,
    ) -> Result<(Vec<u8>, NetTransfer), NetError> {
        let start = self.telemetry.recorder().now_ns();
        let outcome = match self.provider(shard) {
            Ok(p) => p.fetch_attempt_traced(url, Some(trace)),
            Err(e) => Err(e),
        };
        match &outcome {
            Ok(_) => self.health.record_success(shard),
            Err(e) if e.is_retryable() => self.health.record_failure(shard),
            // Non-retryable answers (NotFound, Filter, BadSignature)
            // prove the shard is *healthy* — it answered.
            Err(_) => self.health.record_success(shard),
        }
        let end = self.telemetry.recorder().now_ns();
        self.telemetry.recorder().record_span(
            trace.trace,
            SpanId::generate(),
            trace.parent,
            &format!("cluster.attempt.shard{shard}"),
            start,
            end.saturating_sub(start),
        );
        outcome
    }

    /// Fetches `url`, failing over across shards and rounds. The fetch
    /// roots a new trace; every shard attempt (and the serving shard's
    /// whole pipeline) records spans under it.
    pub fn fetch(&mut self, url: &str) -> Result<(Vec<u8>, NetTransfer), ClusterError> {
        self.metrics.counters.requests.inc();
        let trace = TraceId::generate();
        let root = SpanId::generate();
        let start = self.telemetry.recorder().now_ns();
        let result = self.fetch_traced(
            url,
            TraceContext {
                trace,
                parent: root,
            },
        );
        let end = self.telemetry.recorder().now_ns();
        self.metrics.fetch_ns.record(end.saturating_sub(start));
        self.telemetry.recorder().record_span(
            trace,
            root,
            SpanId::NONE,
            "cluster.fetch",
            start,
            end.saturating_sub(start),
        );
        result
    }

    fn fetch_traced(
        &mut self,
        url: &str,
        ctx: TraceContext,
    ) -> Result<(Vec<u8>, NetTransfer), ClusterError> {
        let mut order = self.ring.route(url);
        if order.is_empty() {
            return Err(ClusterError::NoShards);
        }
        let mut last: Option<NetError> = None;
        for round in 0..self.config.rounds.max(1) {
            if round > 0 {
                std::thread::sleep(self.config.round_backoff);
            }
            let mut attempted = 0u32;
            for (i, &shard) in order.iter().enumerate() {
                if !self.health.allow(shard) {
                    self.metrics.counters.quarantine_skips.inc();
                    continue;
                }
                attempted += 1;
                match self.attempt(shard, url, ctx) {
                    Ok(ok) => {
                        if i > 0 {
                            self.metrics.counters.non_home_serves.inc();
                        }
                        return Ok(ok);
                    }
                    Err(e) if e.is_retryable() => {
                        self.metrics.counters.failovers.inc();
                        last = Some(e);
                    }
                    Err(e) => return Err(ClusterError::Fatal(e)),
                }
            }
            if attempted == 0 {
                // Every circuit is open. Refusing to try anything would
                // turn a transient full-cluster brownout into a
                // permanent client failure, so force one probe of the
                // home shard; its outcome re-arms or closes the breaker.
                self.metrics.counters.desperation_probes.inc();
                let home = order[0];
                self.health.force_probe(home);
                match self.attempt(home, url, ctx) {
                    Ok(ok) => return Ok(ok),
                    Err(e) if e.is_retryable() => {
                        self.metrics.counters.failovers.inc();
                        last = Some(e);
                    }
                    Err(e) => return Err(ClusterError::Fatal(e)),
                }
            }
            // A whole round failed: membership may have moved under us
            // (shard retired, restarted at a new address). Relearn the
            // ring before burning another round on stale routes.
            if self.config.ring_sync && self.sync_ring() {
                order = self.ring.route(url);
                if order.is_empty() {
                    return Err(ClusterError::NoShards);
                }
            }
        }
        Err(ClusterError::Exhausted(Box::new(last.unwrap_or(
            NetError::Protocol("no shard could be attempted".into()),
        ))))
    }

    /// Closes every per-shard connection (re-established lazily).
    pub fn close(&mut self) {
        for p in self.providers.values_mut() {
            p.close();
        }
    }
}

/// One `RING_UPDATE` exchange over a throwaway, session-less
/// connection, asking with our epoch. `None` on any transport or
/// protocol trouble — the caller tries the next shard.
fn pull_ring(addr: SocketAddr, net: NetConfig, my_epoch: u64) -> Option<(u64, Vec<u8>)> {
    let ask = Frame::RingUpdate {
        epoch: my_epoch,
        ring: Vec::new(),
    };
    match request_once(addr, &net, ask) {
        Ok(Frame::RingUpdate { epoch, ring }) => Some((epoch, ring)),
        _ => None,
    }
}

impl ClassProvider for ClusterClassProvider {
    fn load(&mut self, name: &str) -> Option<Vec<u8>> {
        let url = format!("class://{name}");
        self.fetch(&url).ok().map(|(bytes, _)| bytes)
    }
}
