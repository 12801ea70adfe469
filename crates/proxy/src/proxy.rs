//! The proxy engine.
//!
//! A transparent proxy at the organization's trust boundary: it intercepts
//! code requests, serves rewrites from its cache, otherwise fetches from
//! the origin, hands the bytes to its [`Rewrite`] (parse once, the static
//! services, serialize once, compile), and optionally signs the result.
//! All state is internally synchronized so many client sessions can drive
//! one proxy concurrently (the §4.2 scaling experiment).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dvm_netsim::CycleModel;
use dvm_store::{Store, StoreConfig, StoreError, StoreStats};
use dvm_telemetry::{Histogram, SpanId, Telemetry, TraceContext};

use crate::cache::{CacheExportPage, CacheStats, CacheTier, RewriteCache};
use crate::filter::{FilterError, RequestContext};
use crate::sign::Signer;

/// Supplies original (untransformed) code bytes, keyed by URL.
///
/// Bytes come back as `Arc<[u8]>` so cache hits and concurrent fetches
/// share one allocation instead of copying class files per request.
pub trait CodeOrigin: Send + Sync {
    /// Fetches the resource, or `None` if it does not exist.
    fn fetch(&self, url: &str) -> Option<Arc<[u8]>>;
}

impl<T: CodeOrigin + ?Sized> CodeOrigin for Arc<T> {
    fn fetch(&self, url: &str) -> Option<Arc<[u8]>> {
        (**self).fetch(url)
    }
}

/// An origin backed by an in-memory map.
#[derive(Debug, Default)]
pub struct MapOrigin {
    entries: std::collections::HashMap<String, Arc<[u8]>>,
}

impl MapOrigin {
    /// Creates an empty origin.
    pub fn new() -> MapOrigin {
        MapOrigin::default()
    }

    /// Adds a resource.
    pub fn insert(&mut self, url: &str, bytes: Vec<u8>) {
        self.entries.insert(url.to_owned(), bytes.into());
    }
}

impl CodeOrigin for MapOrigin {
    fn fetch(&self, url: &str) -> Option<Arc<[u8]>> {
        self.entries.get(url).cloned()
    }
}

/// Deterministic rewrite-cost model.
///
/// The proxy used to time rewrites with `std::time::Instant`, which made
/// experiment output depend on the machine running it. Processing time is
/// now *charged* rather than measured: a fixed number of CPU cycles per
/// input byte, converted through the simulated clock — identical output
/// everywhere, matching the rest of the simulated-time system.
#[derive(Debug, Clone, Copy)]
pub struct RewriteCost {
    /// Proxy-side cycles to parse + instrument + regenerate one byte.
    pub cycles_per_byte: u64,
    /// The proxy host's CPU model.
    pub cpu: CycleModel,
}

impl Default for RewriteCost {
    fn default() -> Self {
        // Matches `dvm_core::CostModel::default()`: ~265 ms for a mean
        // ~40 KB applet on the paper's 200 MHz PentiumPro.
        RewriteCost {
            cycles_per_byte: 1_300,
            cpu: CycleModel::PENTIUM_PRO_200,
        }
    }
}

impl RewriteCost {
    /// Simulated nanoseconds charged for rewriting `input_bytes`.
    pub fn charge_ns(&self, input_bytes: u64) -> u64 {
        self.cpu
            .time_for(input_bytes * self.cycles_per_byte)
            .as_nanos()
    }
}

/// Proxy request failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyError {
    /// Origin had no such resource.
    NotFound(String),
    /// The resource is not a parseable class file.
    Parse(String),
    /// A pipeline filter failed.
    Filter(FilterError),
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::NotFound(u) => write!(f, "not found: {u}"),
            ProxyError::Parse(e) => write!(f, "parse failed: {e}"),
            ProxyError::Filter(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ProxyError {}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Rewritten now (origin fetch + pipeline).
    Rewritten,
    /// Served from the memory cache tier.
    MemoryCache,
    /// Served from the disk cache tier.
    DiskCache,
    /// Filled from a peer shard's cache (cluster cache-fill protocol):
    /// the rewrite happened elsewhere in the fleet, this proxy only
    /// paid a peer round trip.
    Peer,
}

/// A peer shard's rewrite cache, consulted on a local miss before the
/// full rewrite cost is paid and offered results after a local rewrite.
///
/// Implementations live above this crate (e.g. `dvm-cluster` speaks the
/// wire protocol's `PEER_GET`/`PEER_PUT` frames); the proxy only knows
/// that some fleet may exist. Both methods are best-effort: a `None` or
/// ignored offer degrades to the stand-alone behavior.
pub trait PeerCache: Send + Sync {
    /// Fetches the cached (signed) bytes for `url` from the url's home
    /// shard, or `None` when this proxy *is* the home shard, the peer
    /// misses, or the peer is unreachable.
    fn fetch_from_home(&self, url: &str) -> Option<Vec<u8>>;

    /// Offers freshly rewritten bytes to the url's home shard so one
    /// organization-wide rewrite populates the fleet. Returns `true`
    /// when an offer was actually sent (i.e. some other shard is home).
    fn offer_to_home(&self, url: &str, bytes: &[u8]) -> bool;
}

/// A compiled-IR package produced for a rewritten class.
#[derive(Debug, Clone)]
pub struct IrProduct {
    /// Wire-encoded register IR for the rewritten class.
    pub bytes: Vec<u8>,
    /// Pass-pipeline work per pass name (units of rewriting work), used
    /// to attribute `exec.opt.<pass>` child spans.
    pub pass_work: Vec<(String, u64)>,
    /// Simulated cycles the compilation cost.
    pub compile_cycles: u64,
    /// Wall-clock nanoseconds the compilation took, the last step of the
    /// rewrite (the `exec.lower` span and `exec.lower_ns` histogram).
    pub lower_ns: u64,
}

/// What one rewrite produced.
#[derive(Debug, Clone, Default)]
pub struct Rewritten {
    /// The serialized class, before any signature is attached.
    pub payload: Vec<u8>,
    /// The class's optimized register IR, when the rewriter compiles for
    /// the client's optimizing execution tier and some method lowered.
    pub ir: Option<IrProduct>,
    /// Method bodies the rewrite decoded.
    pub bodies_decoded: u64,
    /// Method bodies the rewrite encoded.
    pub bodies_encoded: u64,
}

/// The proxy's work on a miss: parse the origin's bytes once, run the
/// static services, generate the class once and, for the optimizing
/// execution tier, compile it. `dvm-core`'s static services implement
/// it over one decoded form of every method body, which this crate
/// never sees. The proxy only times, signs, caches and serves the
/// result — IR under `ir://<signature>` keys.
pub trait Rewrite: Send + Sync {
    /// Stage names, in the order [`Rewrite::rewrite`] reports them: each
    /// gets a `proxy.stage.<name>_ns` histogram and `stage.<name>` spans.
    fn stages(&self) -> Vec<&str>;

    /// Rewrites the class in `original`, calling `observe(name,
    /// elapsed_ns)` as each stage completes.
    fn rewrite(
        &self,
        original: &[u8],
        ctx: &RequestContext,
        observe: &mut dyn FnMut(&str, u64),
    ) -> Result<Rewritten, ProxyError>;
}

/// URL scheme under which compiled IR packages are cached and served.
pub const IR_SCHEME: &str = "ir://";

/// The cache/serve key for the IR package belonging to a served payload.
///
/// Keyed by the MD5 of the *signed served bytes* — the same signature the
/// rewrite cache already identifies payloads by — so a client that holds
/// a served class can derive the key without another round trip.
pub fn ir_key(served_bytes: &[u8]) -> String {
    format!(
        "{IR_SCHEME}{}",
        crate::md5::hex(&crate::md5::md5(served_bytes))
    )
}

/// A served response with provenance.
#[derive(Debug, Clone)]
pub struct ServedResponse {
    /// The (possibly rewritten and signed) class bytes. Shared, not
    /// owned: a memory-tier hit hands out the cache's allocation.
    pub bytes: Arc<[u8]>,
    /// How the request was satisfied.
    pub served_from: ServedFrom,
    /// Simulated processing time in nanoseconds, charged by the
    /// [`RewriteCost`] model (zero for cache hits).
    pub processing_ns: u64,
}

dvm_telemetry::counters! {
    /// Registered handles behind [`ProxyStats`].
    struct ProxyCounters;
    /// The proxy's counts, read from its telemetry plane — the only
    /// place they live.
    pub struct ProxyStats {
        /// Requests handled.
        requests = "proxy.requests",
        /// Requests that failed.
        errors = "proxy.errors",
        /// Requests served from the memory tier.
        memory_hits = "proxy.cache.hit.memory",
        /// Requests served from the disk tier (promoted back to memory).
        disk_hits = "proxy.cache.hit.disk",
        /// Requests neither tier could serve.
        misses = "proxy.cache.miss",
        /// Requests satisfied by a peer shard's cache instead of a rewrite.
        peer_fills = "proxy.peer.fills",
        /// Rewrites offered to their home shard after completing locally.
        peer_offers = "proxy.peer.offers",
        /// Classes rewritten (parse + pipeline + generate executed).
        rewrites = "proxy.rewrites",
        /// Method bodies the rewrites decoded.
        bodies_decoded = "proxy.rewrite.bodies_decoded",
        /// Method bodies the rewrites encoded.
        bodies_encoded = "proxy.rewrite.bodies_encoded",
        /// Bytes fetched from origins.
        bytes_fetched = "proxy.rewrite.bytes_in",
        /// Bytes the rewrites produced, signature included.
        bytes_rewritten = "proxy.rewrite.bytes_out",
        /// IR packages the rewrites produced.
        ir_compiles = "exec.ir.compiles",
        /// `ir://` requests served from the cache.
        ir_served = "exec.ir.served",
        /// Bytes of compiled IR packages, before signing.
        ir_bytes = "exec.ir.bytes",
        /// Simulated cycles the IR compilations cost.
        ir_compile_cycles = "exec.ir.compile_cycles",
        /// Cache entries ingested from a migration stream (shard join).
        migrate_ingests = "proxy.migrate.ingests",
    }
}

/// Pre-registered telemetry handles for the request hot path: resolved
/// once at wiring so recording is a relaxed atomic op, never a registry
/// lookup.
struct ProxyMetrics {
    counters: ProxyCounters,
    request_ns: Arc<Histogram>,
    origin_fetch_ns: Arc<Histogram>,
    ir_lower_ns: Arc<Histogram>,
    /// Per rewrite stage, in order: its `proxy.stage.<name>_ns`
    /// histogram and its `stage.<name>` span name.
    stages: Vec<(Arc<Histogram>, String)>,
}

impl ProxyMetrics {
    fn register(telemetry: &Telemetry, rewrite: &dyn Rewrite) -> ProxyMetrics {
        let r = telemetry.registry();
        ProxyMetrics {
            counters: ProxyCounters::register(r),
            request_ns: r.histogram("proxy.request_ns"),
            origin_fetch_ns: r.histogram("proxy.origin.fetch_ns"),
            ir_lower_ns: r.histogram("exec.lower_ns"),
            stages: rewrite
                .stages()
                .into_iter()
                .map(|stage| {
                    (
                        r.histogram(&format!("proxy.stage.{stage}_ns")),
                        format!("stage.{stage}"),
                    )
                })
                .collect(),
        }
    }
}

/// One request's wall clock and, when traced, its `proxy.handle` span:
/// `(context, span id, start ns)`.
struct RequestScope {
    wall: Instant,
    span: Option<(TraceContext, SpanId, u64)>,
}

/// The proxy.
pub struct Proxy {
    origin: Box<dyn CodeOrigin>,
    rewrite: Box<dyn Rewrite>,
    cache: Mutex<RewriteCache>,
    caching: bool,
    signer: Option<Signer>,
    rewrite_cost: RewriteCost,
    peer: parking_lot::RwLock<Option<Arc<dyn PeerCache>>>,
    telemetry: Arc<Telemetry>,
    metrics: ProxyMetrics,
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("stages", &self.rewrite.stages())
            .field("caching", &self.caching)
            .finish()
    }
}

impl Proxy {
    /// Creates a proxy.
    ///
    /// `cache_memory_bytes` bounds the memory tier; pass `caching = false`
    /// to disable the cache entirely (the worst-case configuration of the
    /// §4.2 scaling experiment). The proxy, its cache and any store it
    /// opens count on `telemetry`, the node's plane (`"proxy"`,
    /// `"shard2"`, …).
    pub fn new(
        origin: Box<dyn CodeOrigin>,
        rewrite: Box<dyn Rewrite>,
        cache_memory_bytes: usize,
        caching: bool,
        signer: Option<Signer>,
        telemetry: Arc<Telemetry>,
    ) -> Proxy {
        let metrics = ProxyMetrics::register(&telemetry, &*rewrite);
        Proxy {
            origin,
            rewrite,
            cache: Mutex::new(RewriteCache::new(cache_memory_bytes, telemetry.registry())),
            caching,
            signer,
            rewrite_cost: RewriteCost::default(),
            peer: parking_lot::RwLock::new(None),
            telemetry,
            metrics,
        }
    }

    /// Joins this proxy to a fleet: on local cache misses it consults
    /// `peer` before rewriting and offers finished rewrites back.
    /// Installable after construction because peer links need this
    /// proxy's own server address, which exists only once it is bound.
    pub fn set_peer_cache(&self, peer: Arc<dyn PeerCache>) {
        *self.peer.write() = Some(peer);
    }

    /// Detaches the proxy from its fleet (used at shard shutdown).
    pub fn clear_peer_cache(&self) {
        *self.peer.write() = None;
    }

    /// Replaces the rewrite-cost model (builder style).
    pub fn with_rewrite_cost(mut self, cost: RewriteCost) -> Proxy {
        self.rewrite_cost = cost;
        self
    }

    /// This proxy's telemetry plane (servers answer `stats://` reads
    /// from it).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// The active rewrite-cost model.
    pub fn rewrite_cost(&self) -> RewriteCost {
        self.rewrite_cost
    }

    /// Whether this proxy signs served code.
    pub fn signs(&self) -> bool {
        self.signer.is_some()
    }

    /// Handles one code request, returning just the bytes.
    pub fn handle_request(&self, url: &str, ctx: &RequestContext) -> Result<Vec<u8>, ProxyError> {
        self.handle_request_detailed(url, ctx)
            .map(|r| r.bytes.to_vec())
    }

    /// Handles one code request with provenance details (clients use the
    /// tier and processing time for transfer-latency accounting).
    pub fn handle_request_detailed(
        &self,
        url: &str,
        ctx: &RequestContext,
    ) -> Result<ServedResponse, ProxyError> {
        let scope = self.begin_request(ctx.trace);
        let result = self.serve(url, ctx, scope.span.map(|(t, id, _)| (t.trace, id)));
        self.finish_request(scope, url, result)
    }

    /// Serves `url` from the memory tier when that needs no waiting —
    /// how a server answers a hit on its event-loop thread. The cache
    /// mutex is only *tried* (it also covers store I/O); a contended
    /// lock, a miss, a disk-tier-only entry or a proxy without a cache
    /// returns `None` having counted nothing, and the caller takes
    /// [`Proxy::handle_request_detailed`] instead. A hit is accounted
    /// exactly as that full path accounts a memory hit.
    pub fn try_serve_memory(
        &self,
        url: &str,
        trace: Option<TraceContext>,
    ) -> Option<ServedResponse> {
        if !self.caching {
            return None;
        }
        let scope = self.begin_request(trace);
        let bytes = self.cache.try_lock()?.get_memory(url)?;
        let hit = self.cache_hit(bytes, CacheTier::Memory);
        self.finish_request(scope, url, Ok(hit)).ok()
    }

    /// Opens one request's bookkeeping. When the request carries a
    /// trace, the whole serve is one "proxy.handle" span; its id is
    /// allocated up front so the per-stage and origin-fetch child spans
    /// can parent under it.
    fn begin_request(&self, trace: Option<TraceContext>) -> RequestScope {
        RequestScope {
            wall: Instant::now(),
            span: trace.map(|t| (t, SpanId::generate(), self.telemetry.recorder().now_ns())),
        }
    }

    /// Closes one request's bookkeeping, the same for every serve path:
    /// `requests`, `errors` and `ir_served` (an `ir://` url only ever
    /// succeeds from a cache or a peer), the
    /// `proxy.request_ns` record and the `proxy.handle` span.
    fn finish_request(
        &self,
        scope: RequestScope,
        url: &str,
        result: Result<ServedResponse, ProxyError>,
    ) -> Result<ServedResponse, ProxyError> {
        let counters = &self.metrics.counters;
        counters.requests.inc();
        match &result {
            Ok(_) if url.starts_with(IR_SCHEME) => counters.ir_served.inc(),
            Ok(_) => {}
            Err(_) => counters.errors.inc(),
        }
        self.metrics
            .request_ns
            .record(scope.wall.elapsed().as_nanos() as u64);
        if let Some((t, id, start)) = scope.span {
            let rec = self.telemetry.recorder();
            let duration = rec.now_ns().saturating_sub(start);
            rec.record_span(t.trace, id, t.parent, "proxy.handle", start, duration);
        }
        result
    }

    /// A cache-tier hit: counts the tier and shapes the response.
    fn cache_hit(&self, bytes: Arc<[u8]>, tier: CacheTier) -> ServedResponse {
        let served_from = match tier {
            CacheTier::Memory => {
                self.metrics.counters.memory_hits.inc();
                ServedFrom::MemoryCache
            }
            CacheTier::Disk => {
                self.metrics.counters.disk_hits.inc();
                ServedFrom::DiskCache
            }
        };
        ServedResponse {
            bytes,
            served_from,
            processing_ns: 0,
        }
    }

    /// The serve path proper; `span` is `(trace, parent-for-children)`
    /// when the request is traced.
    fn serve(
        &self,
        url: &str,
        ctx: &RequestContext,
        span: Option<(dvm_telemetry::TraceId, SpanId)>,
    ) -> Result<ServedResponse, ProxyError> {
        if self.caching {
            if let Some((bytes, tier)) = self.cache.lock().get(url) {
                return Ok(self.cache_hit(bytes, tier));
            }
            self.metrics.counters.misses.inc();
        }

        // Local miss: before paying the rewrite cost, ask the url's home
        // shard whether the fleet already rewrote it.
        if self.caching {
            let peer = self.peer.read().clone();
            if let Some(peer) = peer {
                if let Some(bytes) = peer.fetch_from_home(url) {
                    let bytes: Arc<[u8]> = bytes.into();
                    self.metrics.counters.peer_fills.inc();
                    // Hot here (a client just asked), so fill the memory
                    // tier — unlike unsolicited offers, which land on disk.
                    self.cache.lock().put_tier(
                        url.to_owned(),
                        Arc::clone(&bytes),
                        CacheTier::Memory,
                    );
                    return Ok(ServedResponse {
                        bytes,
                        served_from: ServedFrom::Peer,
                        processing_ns: 0,
                    });
                }
            }
        }

        // IR packages only exist as cache entries (they are produced as a
        // side effect of rewriting their class); there is no origin to
        // fetch them from and nothing to rewrite.
        if url.starts_with(IR_SCHEME) {
            return Err(ProxyError::NotFound(url.to_owned()));
        }

        let recorder = self.telemetry.recorder();
        let fetch_start = recorder.now_ns();
        let original = self
            .origin
            .fetch(url)
            .ok_or_else(|| ProxyError::NotFound(url.to_owned()))?;
        let fetch_ns = recorder.now_ns().saturating_sub(fetch_start);
        self.metrics.origin_fetch_ns.record(fetch_ns);
        if let Some((trace, parent)) = span {
            recorder.record_span(
                trace,
                SpanId::generate(),
                parent,
                "origin.fetch",
                fetch_start,
                fetch_ns,
            );
        }
        self.metrics
            .counters
            .bytes_fetched
            .add(original.len() as u64);

        // The rewrite reports its stages in order, so the n-th report
        // belongs to the n-th pre-resolved handle.
        let mut stages = self.metrics.stages.iter();
        let rewritten = self.rewrite.rewrite(&original, ctx, &mut |_, elapsed_ns| {
            let Some((histogram, span_name)) = stages.next() else {
                return;
            };
            histogram.record(elapsed_ns);
            if let Some((trace, parent)) = span {
                let end = recorder.now_ns();
                recorder.record_span(
                    trace,
                    SpanId::generate(),
                    parent,
                    span_name,
                    end.saturating_sub(elapsed_ns),
                    elapsed_ns,
                );
            }
        })?;
        // The IR is the rewrite's last step, so it ended just now.
        let ir_end = recorder.now_ns();
        let counters = &self.metrics.counters;
        counters.bodies_decoded.add(rewritten.bodies_decoded);
        counters.bodies_encoded.add(rewritten.bodies_encoded);
        let mut bytes = rewritten.payload;
        if let Some(signer) = &self.signer {
            bytes = signer.attach(bytes);
        }
        // Charge deterministic, machine-independent processing time.
        let elapsed = self.rewrite_cost.charge_ns(original.len() as u64);
        counters.rewrites.inc();
        counters.bytes_rewritten.add(bytes.len() as u64);
        let bytes: Arc<[u8]> = bytes.into();
        // The IR is cached before the class: a client that hits the
        // class in the cache then asks for its `ir://` package must
        // find it.
        if let Some(product) = rewritten.ir {
            self.install_ir(&bytes, product, ir_end, span);
        }
        if self.caching {
            self.cache.lock().put(url.to_owned(), Arc::clone(&bytes));
            let peer = self.peer.read().clone();
            if let Some(peer) = peer {
                // One organization-wide rewrite should populate the fleet:
                // push the result to the url's home shard.
                if peer.offer_to_home(url, &bytes) {
                    counters.peer_offers.inc();
                }
            }
        }
        Ok(ServedResponse {
            bytes,
            served_from: ServedFrom::Rewritten,
            processing_ns: elapsed,
        })
    }

    /// Caches a freshly produced IR package under the served payload's
    /// `ir://` key, records the `exec.*` telemetry, and offers the
    /// package to the fleet like any other rewrite product.
    fn install_ir(
        &self,
        served_bytes: &Arc<[u8]>,
        product: IrProduct,
        end: u64,
        span: Option<(dvm_telemetry::TraceId, SpanId)>,
    ) {
        let key = ir_key(served_bytes);
        let lower_ns = product.lower_ns;
        let start = end.saturating_sub(lower_ns);
        let counters = &self.metrics.counters;
        counters.ir_compiles.inc();
        counters.ir_bytes.add(product.bytes.len() as u64);
        counters.ir_compile_cycles.add(product.compile_cycles);
        self.metrics.ir_lower_ns.record(lower_ns);
        if let Some((trace, parent)) = span {
            let recorder = self.telemetry.recorder();
            let lower = SpanId::generate();
            recorder.record_span(trace, lower, parent, "exec.lower", start, lower_ns);
            // Attribute pass-pipeline work as children of the lowering
            // span; durations are the pipeline's deterministic work
            // units, not wall time.
            let mut at = start;
            for (pass, work) in &product.pass_work {
                recorder.record_span(
                    trace,
                    SpanId::generate(),
                    lower,
                    &format!("exec.opt.{pass}"),
                    at,
                    *work,
                );
                at = at.saturating_add(*work);
            }
        }
        if self.caching {
            // IR ships under the same signature regime as classes: the
            // optimized code is no less sensitive than the rewrites it
            // encodes.
            let wire = match &self.signer {
                Some(signer) => signer.attach(product.bytes),
                None => product.bytes,
            };
            let bytes: Arc<[u8]> = wire.into();
            self.cache.lock().put(key.clone(), Arc::clone(&bytes));
            let peer = self.peer.read().clone();
            if let Some(peer) = peer {
                if peer.offer_to_home(&key, &bytes) {
                    self.metrics.counters.peer_offers.inc();
                }
            }
        }
    }

    /// This proxy's counts, read from its telemetry plane: the same
    /// numbers `stats://` and `/metrics` report under their
    /// registry names.
    pub fn stats(&self) -> ProxyStats {
        self.metrics.counters.view()
    }

    /// The rewrite cache's own counts (evictions, rejected disk loads,
    /// store errors), read from this proxy's telemetry plane. Tier hits
    /// and misses are in [`Proxy::stats`].
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    /// Probes the rewrite cache without touching hit/miss accounting or
    /// tier promotion: how a shard answers a peer's `PEER_GET`. Returns
    /// `None` when caching is disabled.
    pub fn cache_peek(&self, url: &str) -> Option<(Arc<[u8]>, CacheTier)> {
        if !self.caching {
            return None;
        }
        self.cache.lock().peek(url)
    }

    /// Inserts already-rewritten (signed) bytes into the given cache
    /// tier: how a shard ingests a peer's `PEER_PUT`. A no-op when
    /// caching is disabled. With a persistent store attached, a `Disk`
    /// fill lands durably — a peer's offer survives this shard's death.
    pub fn cache_fill(&self, url: &str, bytes: Vec<u8>, tier: CacheTier) {
        if !self.caching {
            return;
        }
        self.cache
            .lock()
            .put_tier(url.to_owned(), bytes.into(), tier);
    }

    /// Pages the cached population in ascending key order — up to `max`
    /// entries strictly after `after` (empty = from the start) plus a
    /// flag that is `true` when the range is exhausted. This is the
    /// source side of live cache migration: entries come from the
    /// unbounded disk tier (the full population), persistent envelopes
    /// are verified before export, and nothing here touches hit/miss
    /// accounting or tier promotion. Empty-and-complete when caching is
    /// disabled.
    pub fn cache_export_after(&self, after: &str, max: usize) -> CacheExportPage {
        if !self.caching {
            return (Vec::new(), true);
        }
        self.cache.lock().export_after(after, max)
    }

    /// Ingests one entry from a migration stream (a joining shard
    /// receiving its key range, or a survivor absorbing a drain). Lands
    /// on the disk tier like a peer offer — migration must not evict
    /// the hot set — and is counted separately so the chaos invariants
    /// can tell migrated keys from peer fills.
    pub fn migrate_ingest(&self, url: &str, bytes: Vec<u8>) {
        if !self.caching {
            return;
        }
        self.cache
            .lock()
            .put_tier(url.to_owned(), bytes.into(), CacheTier::Disk);
        self.metrics.counters.migrate_ingests.inc();
    }

    /// Backs this proxy's disk cache tier with the persistent store at
    /// `dir`: what is cached from now on (and anything already cached)
    /// survives a kill, and whatever a previous life of this shard
    /// stored becomes servable again without re-rewriting. The store is
    /// opened on this proxy's telemetry plane, so its recovery is on
    /// the plane before the first request.
    pub fn open_store(
        &self,
        dir: impl AsRef<std::path::Path>,
        config: StoreConfig,
    ) -> Result<(), StoreError> {
        let store = Store::open_on(dir, config, self.telemetry.clone())?;
        self.cache.lock().attach_store(store);
        Ok(())
    }

    /// The persistent store's counts, read from this proxy's plane, when
    /// [`Proxy::open_store`] has been called (`None` for an ephemeral
    /// cache).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.cache.lock().store_stats()
    }

    /// Fsyncs the persistent store (graceful-shutdown path; a no-op
    /// without one). Crash-safety does *not* depend on this.
    pub fn flush_store(&self) {
        if let Some(store) = self.cache.lock().store_mut() {
            let _ = store.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_classfile::{ClassBuilder, ClassFile, ClassFileError};

    fn origin_with(name: &str, url: &str) -> MapOrigin {
        let mut cf = ClassBuilder::new(name).build();
        let mut o = MapOrigin::new();
        o.insert(url, cf.to_bytes().unwrap());
        o
    }

    /// Parses the class, runs one stage ("null") that changes nothing,
    /// and generates the class again.
    struct NullRewrite;

    impl Rewrite for NullRewrite {
        fn stages(&self) -> Vec<&str> {
            vec!["null"]
        }

        fn rewrite(
            &self,
            original: &[u8],
            _: &RequestContext,
            observe: &mut dyn FnMut(&str, u64),
        ) -> Result<Rewritten, ProxyError> {
            let parse_error = |e: ClassFileError| ProxyError::Parse(e.to_string());
            let mut class = ClassFile::parse(original).map_err(parse_error)?;
            observe("null", 0);
            Ok(Rewritten {
                payload: class.to_bytes().map_err(parse_error)?,
                ..Rewritten::default()
            })
        }
    }

    fn plane() -> Arc<Telemetry> {
        Arc::new(Telemetry::new("proxy"))
    }

    #[test]
    fn rewrites_then_serves_from_cache() {
        let proxy = Proxy::new(
            Box::new(origin_with("t/A", "http://x/A.class")),
            Box::new(NullRewrite),
            1 << 20,
            true,
            None,
            plane(),
        );
        let ctx = RequestContext {
            client: "c1".into(),
            ..Default::default()
        };
        let r1 = proxy
            .handle_request_detailed("http://x/A.class", &ctx)
            .unwrap();
        let r2 = proxy
            .handle_request_detailed("http://x/A.class", &ctx)
            .unwrap();
        assert_eq!(r1.bytes, r2.bytes);
        assert_eq!(r1.served_from, ServedFrom::Rewritten);
        assert_eq!(r2.served_from, ServedFrom::MemoryCache);
        let stats = proxy.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.rewrites, 1);
    }

    /// The loop-thread probe books a memory hit exactly as the full
    /// path does, and everything it cannot answer without waiting — a
    /// miss, a disk-only entry, a held cache lock, no cache — comes
    /// back `None` with nothing counted.
    #[test]
    fn memory_probe_books_a_hit_like_the_full_path_and_nothing_else() {
        let make = |caching| {
            Proxy::new(
                Box::new(origin_with("t/A", "u")),
                Box::new(NullRewrite),
                1 << 20,
                caching,
                None,
                plane(),
            )
        };
        let ctx = RequestContext::default();
        let (full, probed) = (make(true), make(true));
        full.handle_request("u", &ctx).unwrap();
        probed.handle_request("u", &ctx).unwrap();

        assert!(probed.try_serve_memory("absent", None).is_none());
        probed.cache_fill("disk-only", b"bytes".to_vec(), CacheTier::Disk);
        assert!(probed.try_serve_memory("disk-only", None).is_none());
        let held = probed.cache.lock();
        assert!(probed.try_serve_memory("u", None).is_none());
        drop(held);

        let expected = full.handle_request_detailed("u", &ctx).unwrap();
        let hit = probed.try_serve_memory("u", None).unwrap();
        assert_eq!(hit.served_from, ServedFrom::MemoryCache);
        assert_eq!(hit.bytes, expected.bytes);
        let books = |p: &Proxy| {
            let m = p.telemetry().registry().snapshot();
            let handled = m.histograms.get("proxy.request_ns").map(|h| h.count);
            (p.stats(), handled)
        };
        assert_eq!(books(&probed), books(&full));
        assert_eq!(probed.stats().memory_hits, 1);

        let uncached = make(false);
        uncached.handle_request("u", &ctx).unwrap();
        assert!(uncached.try_serve_memory("u", None).is_none());
        assert_eq!(uncached.stats().requests, 1);
    }

    #[test]
    fn caching_disabled_rewrites_every_time() {
        let proxy = Proxy::new(
            Box::new(origin_with("t/A", "u")),
            Box::new(NullRewrite),
            1 << 20,
            false,
            None,
            plane(),
        );
        let ctx = RequestContext::default();
        proxy.handle_request("u", &ctx).unwrap();
        proxy.handle_request("u", &ctx).unwrap();
        assert_eq!(proxy.stats().rewrites, 2);
    }

    #[test]
    fn missing_resource_errors() {
        let proxy = Proxy::new(
            Box::new(MapOrigin::new()),
            Box::new(NullRewrite),
            1024,
            true,
            None,
            plane(),
        );
        assert!(matches!(
            proxy.handle_request("nope", &RequestContext::default()),
            Err(ProxyError::NotFound(_))
        ));
    }

    #[test]
    fn signed_output_verifies_and_round_trips() {
        let signer = Signer::new(b"org");
        let proxy = Proxy::new(
            Box::new(origin_with("t/S", "u")),
            Box::new(NullRewrite),
            1024,
            false,
            Some(signer.clone()),
            plane(),
        );
        let bytes = proxy
            .handle_request("u", &RequestContext::default())
            .unwrap();
        let (check, payload) = signer.detach(&bytes);
        assert_eq!(check, crate::sign::SignatureCheck::Valid);
        let parsed = ClassFile::parse(payload.unwrap()).unwrap();
        assert_eq!(parsed.name().unwrap(), "t/S");
    }

    #[test]
    fn garbage_input_is_a_parse_error() {
        let mut o = MapOrigin::new();
        o.insert("junk", vec![1, 2, 3, 4]);
        let proxy = Proxy::new(
            Box::new(o),
            Box::new(NullRewrite),
            1024,
            true,
            None,
            plane(),
        );
        assert!(matches!(
            proxy.handle_request("junk", &RequestContext::default()),
            Err(ProxyError::Parse(_))
        ));
    }

    #[test]
    fn rewrite_time_is_deterministic_not_wall_clock() {
        let make = || {
            Proxy::new(
                Box::new(origin_with("t/D", "u")),
                Box::new(NullRewrite),
                1 << 20,
                false,
                None,
                plane(),
            )
        };
        let ctx = RequestContext::default();
        let a = make().handle_request_detailed("u", &ctx).unwrap();
        let b = make().handle_request_detailed("u", &ctx).unwrap();
        assert_eq!(
            a.processing_ns, b.processing_ns,
            "identical inputs, identical charge"
        );
        assert!(a.processing_ns > 0);
        // The charge follows the cost model exactly.
        let origin = origin_with("t/D", "u");
        let original_len = origin.fetch("u").unwrap().len() as u64;
        assert_eq!(
            a.processing_ns,
            RewriteCost::default().charge_ns(original_len)
        );
    }

    struct FakePeer {
        hit: Option<Vec<u8>>,
        fills: std::sync::atomic::AtomicU64,
        offers: Mutex<Vec<String>>,
    }

    impl PeerCache for FakePeer {
        fn fetch_from_home(&self, _url: &str) -> Option<Vec<u8>> {
            if self.hit.is_some() {
                self.fills.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            self.hit.clone()
        }
        fn offer_to_home(&self, url: &str, _bytes: &[u8]) -> bool {
            self.offers.lock().push(url.to_owned());
            true
        }
    }

    #[test]
    fn peer_hit_skips_the_rewrite_and_fills_the_local_cache() {
        let proxy = Proxy::new(
            Box::new(origin_with("t/P", "u")),
            Box::new(NullRewrite),
            1 << 20,
            true,
            None,
            plane(),
        );
        let canned = b"peer-rewritten".to_vec();
        let peer = Arc::new(FakePeer {
            hit: Some(canned.clone()),
            fills: Default::default(),
            offers: Mutex::new(Vec::new()),
        });
        proxy.set_peer_cache(peer.clone());
        let ctx = RequestContext::default();
        let r = proxy.handle_request_detailed("u", &ctx).unwrap();
        assert_eq!(r.served_from, ServedFrom::Peer);
        assert_eq!(&r.bytes[..], &canned[..]);
        assert_eq!(r.processing_ns, 0, "no rewrite was paid");
        assert_eq!(proxy.stats().rewrites, 0);
        assert_eq!(proxy.stats().peer_fills, 1);
        // The fill landed in the local cache: the next request is a plain
        // memory hit, no second peer round trip.
        let r2 = proxy.handle_request_detailed("u", &ctx).unwrap();
        assert_eq!(r2.served_from, ServedFrom::MemoryCache);
        assert_eq!(peer.fills.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn peer_miss_rewrites_and_offers_to_home() {
        let proxy = Proxy::new(
            Box::new(origin_with("t/Q", "u")),
            Box::new(NullRewrite),
            1 << 20,
            true,
            None,
            plane(),
        );
        let peer = Arc::new(FakePeer {
            hit: None,
            fills: Default::default(),
            offers: Mutex::new(Vec::new()),
        });
        proxy.set_peer_cache(peer.clone());
        proxy
            .handle_request_detailed("u", &RequestContext::default())
            .unwrap();
        assert_eq!(proxy.stats().rewrites, 1);
        assert_eq!(proxy.stats().peer_offers, 1);
        assert_eq!(*peer.offers.lock(), vec!["u".to_owned()]);
    }

    #[test]
    fn cache_peek_and_fill_round_trip() {
        let proxy = Proxy::new(
            Box::new(MapOrigin::new()),
            Box::new(NullRewrite),
            1 << 20,
            true,
            None,
            plane(),
        );
        let before = (proxy.stats(), proxy.cache_stats());
        assert!(proxy.cache_peek("u").is_none());
        proxy.cache_fill("u", vec![1, 2, 3], crate::cache::CacheTier::Disk);
        let (bytes, tier) = proxy.cache_peek("u").unwrap();
        assert_eq!(&bytes[..], &[1, 2, 3][..]);
        assert_eq!(tier, crate::cache::CacheTier::Disk);
        // Peer traffic leaves the local hit/miss accounting untouched.
        assert_eq!((proxy.stats(), proxy.cache_stats()), before);
    }

    #[test]
    fn traced_request_records_spans_and_counters() {
        use dvm_telemetry::{TraceContext, TraceId};
        let proxy = Proxy::new(
            Box::new(origin_with("t/T", "u")),
            Box::new(NullRewrite),
            1 << 20,
            true,
            None,
            plane(),
        );
        let trace = TraceId::generate();
        let ctx = RequestContext {
            trace: Some(TraceContext {
                trace,
                parent: SpanId::NONE,
            }),
            ..Default::default()
        };
        proxy.handle_request("u", &ctx).unwrap();
        proxy.handle_request("u", &ctx).unwrap();

        let spans = proxy.telemetry().recorder().for_trace(trace);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        // Rewrite: origin fetch + one stage + the handle wrapper; the
        // cache hit adds a second handle span.
        assert!(names.contains(&"origin.fetch"), "{names:?}");
        assert!(names.contains(&"stage.null"), "{names:?}");
        assert_eq!(names.iter().filter(|n| **n == "proxy.handle").count(), 2);
        // Children parent under the handle span of the same trace.
        let handle = spans.iter().find(|s| s.name == "proxy.handle").unwrap();
        let stage = spans.iter().find(|s| s.name == "stage.null").unwrap();
        assert_eq!(stage.parent, handle.id);

        let snap = proxy.telemetry().registry().snapshot();
        assert_eq!(snap.counter("proxy.requests"), 2);
        assert_eq!(snap.counter("proxy.rewrites"), 1);
        assert_eq!(snap.counter("proxy.cache.miss"), 1);
        assert_eq!(snap.counter("proxy.cache.hit.memory"), 1);
        assert!(snap.counter("proxy.rewrite.bytes_in") > 0);
        assert_eq!(snap.histograms["proxy.request_ns"].count, 2);
        assert_eq!(snap.histograms["proxy.stage.null_ns"].count, 1);
    }

    #[test]
    fn attached_store_makes_the_proxy_restart_warm() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dvm-proxy-warm-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let make = || {
            Proxy::new(
                Box::new(origin_with("t/W", "u")),
                Box::new(NullRewrite),
                1 << 20,
                true,
                Some(Signer::new(b"org")),
                plane(),
            )
        };
        let ctx = RequestContext::default();

        let proxy = make();
        proxy.open_store(&dir, StoreConfig::default()).unwrap();
        let first = proxy.handle_request_detailed("u", &ctx).unwrap();
        assert_eq!(first.served_from, ServedFrom::Rewritten);
        // SIGKILL-equivalent: no flush, no graceful shutdown.
        drop(proxy);

        let proxy = make();
        proxy.open_store(&dir, StoreConfig::default()).unwrap();
        let again = proxy.handle_request_detailed("u", &ctx).unwrap();
        assert_eq!(
            again.served_from,
            ServedFrom::DiskCache,
            "restart must be warm"
        );
        assert_eq!(proxy.stats().rewrites, 0, "no re-rewrite after restart");
        assert_eq!(&again.bytes[..], &first.bytes[..]);
        let stats = proxy.store_stats().unwrap();
        assert!(stats.recovered_records >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The null pipeline plus a canned IR package for every class.
    fn canned_ir() -> Box<dyn Rewrite> {
        struct CannedIr(Box<dyn Rewrite>);
        impl Rewrite for CannedIr {
            fn stages(&self) -> Vec<&str> {
                self.0.stages()
            }
            fn rewrite(
                &self,
                original: &[u8],
                ctx: &RequestContext,
                observe: &mut dyn FnMut(&str, u64),
            ) -> Result<Rewritten, ProxyError> {
                let mut out = self.0.rewrite(original, ctx, observe)?;
                out.ir = Some(IrProduct {
                    bytes: vec![0xd0, out.payload[0]],
                    pass_work: vec![("fold".to_owned(), 3), ("dce".to_owned(), 2)],
                    compile_cycles: 1_000,
                    lower_ns: 0,
                });
                Ok(out)
            }
        }
        Box::new(CannedIr(Box::new(NullRewrite)))
    }

    #[test]
    fn rewrites_produce_cached_ir_packages() {
        let proxy = Proxy::new(
            Box::new(origin_with("t/I", "u")),
            canned_ir(),
            1 << 20,
            true,
            Some(Signer::new(b"org")),
            plane(),
        );
        let ctx = RequestContext::default();
        let served = proxy.handle_request_detailed("u", &ctx).unwrap();
        assert_eq!(proxy.stats().ir_compiles, 1);

        // The client derives the key from the bytes it received.
        let key = ir_key(&served.bytes);
        let ir = proxy.handle_request_detailed(&key, &ctx).unwrap();
        assert_eq!(ir.served_from, ServedFrom::MemoryCache);
        // The package is signed like any served payload; the payload is
        // the producer's bytes (0xCA is the class-file magic it echoed).
        let signer = Signer::new(b"org");
        let (check, payload) = signer.detach(&ir.bytes);
        assert_eq!(check, crate::sign::SignatureCheck::Valid);
        assert_eq!(payload.unwrap(), &[0xd0, 0xca][..]);
        assert_eq!(ir.processing_ns, 0, "no re-lowering on the serve path");
        assert_eq!(proxy.stats().ir_served, 1);

        // A cached class serve does not recompile.
        proxy.handle_request_detailed("u", &ctx).unwrap();
        assert_eq!(proxy.stats().ir_compiles, 1);

        let snap = proxy.telemetry().registry().snapshot();
        assert_eq!(snap.counter("exec.ir.compiles"), 1);
        assert_eq!(snap.counter("exec.ir.served"), 1);
        assert_eq!(snap.counter("exec.ir.compile_cycles"), 1_000);
    }

    #[test]
    fn unknown_ir_key_is_not_found_not_a_rewrite() {
        let proxy = Proxy::new(
            Box::new(origin_with("t/I", "u")),
            canned_ir(),
            1 << 20,
            true,
            None,
            plane(),
        );
        let miss = proxy.handle_request("ir://deadbeef", &RequestContext::default());
        assert!(matches!(miss, Err(ProxyError::NotFound(_))));
        assert_eq!(proxy.stats().rewrites, 0);
    }

    #[test]
    fn traced_rewrite_records_exec_spans() {
        use dvm_telemetry::{TraceContext, TraceId};
        let proxy = Proxy::new(
            Box::new(origin_with("t/I", "u")),
            canned_ir(),
            1 << 20,
            true,
            None,
            plane(),
        );
        let trace = TraceId::generate();
        let ctx = RequestContext {
            trace: Some(TraceContext {
                trace,
                parent: SpanId::NONE,
            }),
            ..Default::default()
        };
        proxy.handle_request("u", &ctx).unwrap();
        let spans = proxy.telemetry().recorder().for_trace(trace);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"exec.lower"), "{names:?}");
        assert!(names.contains(&"exec.opt.fold"), "{names:?}");
        assert!(names.contains(&"exec.opt.dce"), "{names:?}");
        let lower = spans.iter().find(|s| s.name == "exec.lower").unwrap();
        let fold = spans.iter().find(|s| s.name == "exec.opt.fold").unwrap();
        assert_eq!(fold.parent, lower.id);
    }

    #[test]
    fn origin_fetches_share_one_allocation() {
        let origin = origin_with("t/A", "u");
        let a = origin.fetch("u").unwrap();
        let b = origin.fetch("u").unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_clients_share_one_proxy() {
        use std::sync::Arc;
        let proxy = Arc::new(Proxy::new(
            Box::new(origin_with("t/C", "u")),
            Box::new(NullRewrite),
            1 << 20,
            true,
            None,
            plane(),
        ));
        let mut handles = Vec::new();
        for i in 0..8 {
            let p = proxy.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = RequestContext {
                    client: format!("c{i}"),
                    ..Default::default()
                };
                for _ in 0..50 {
                    p.handle_request("u", &ctx).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(proxy.stats().requests, 400);
        assert_eq!(proxy.stats().rewrites, 1, "only the first request rewrites");
    }
}
