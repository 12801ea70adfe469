//! `ProxyCluster`: N proxy shards behind N sockets, acting as one proxy.
//!
//! The paper's organization-wide proxy is a single chokepoint; this
//! module scales it out. Each shard is a full [`dvm_net::ProxyServer`]
//! wrapping its own `Proxy` (filters, cache, signer); a shared seeded
//! [`HashRing`] gives every participant — client or shard — the same
//! URL→shard map with zero coordination traffic. When peer cache-fill is
//! enabled, every shard gets a [`ClusterPeer`] wired into its proxy so a
//! local cache miss probes the URL's home shard before rewriting.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use dvm_monitor::AdminConsole;
use dvm_net::{
    Hello, MembershipView, MigrateBatch, MigrateExporter, NetConfig, ProxyServer, ServerConfig,
    ServerStats,
};
use dvm_proxy::Proxy;
use dvm_store::StoreConfig;
use dvm_telemetry::{MetricsSnapshot, StatsReport, Telemetry};
use dvm_watch::{MetricsHttp, StoreSpool, Watch, WatchConfig, WatchDriver};

use crate::peer::{ClusterPeer, PeerLink};
use crate::ring::{HashRing, RemapPlan};
use crate::snapshot::RingSnapshot;

/// Cluster construction knobs.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Virtual nodes per shard on the ring.
    pub vnodes: u32,
    /// Ring seed; every client of this cluster must use the same seed.
    pub seed: u64,
    /// Per-shard server configuration (connection limits, faults).
    pub server: ServerConfig,
    /// Networking knobs for shard-to-shard peer links.
    pub peer_net: NetConfig,
    /// Whether shards probe the home shard's cache before rewriting.
    pub peer_fill: bool,
    /// When set, each shard's rewrite cache is backed by a persistent
    /// store at `<data_dir>/shard<i>`: a killed shard that restarts
    /// over the same directory serves its previous rewrites from disk.
    pub data_dir: Option<PathBuf>,
    /// Store tuning for persistent shards (segment size, durability).
    pub store: StoreConfig,
    /// When set, every shard runs a background [`Watch`] over its
    /// telemetry: time-series rings, SLO burn-rate alerts, and the
    /// `metrics://` exposition. Persistent clusters (`data_dir`
    /// set) additionally spool each shard's event journal through a
    /// `dvm-store` log at `<data_dir>/journal<i>`, so cursor tails
    /// survive restarts.
    pub watch: Option<WatchConfig>,
    /// With `watch` enabled, also bind a plain HTTP/1.0 `GET /metrics`
    /// listener per shard on `127.0.0.1:0` (for scrapers that speak
    /// HTTP rather than the DVM wire protocol).
    pub metrics_http: bool,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            vnodes: 128,
            seed: 0,
            server: ServerConfig::default(),
            peer_net: NetConfig::default(),
            peer_fill: true,
            data_dir: None,
            store: StoreConfig::default(),
            watch: None,
            metrics_http: false,
        }
    }
}

/// One shard's running observability plane: the watch itself, its
/// background ticker, and (optionally) its HTTP scrape listener. Drops
/// stop the ticker and close the listener.
struct ShardWatch {
    watch: Arc<Watch>,
    _driver: WatchDriver,
    http: Option<MetricsHttp>,
}

/// The source side of live cache migration, installed on every shard's
/// server: answers `MIGRATE_BEGIN` by walking this shard's cached
/// population and streaming out the entries the *asking* shard owns
/// under the published ring. The ring is re-read from the membership
/// view per batch, so the exporter always serves the epoch it
/// advertises.
struct ShardExporter {
    proxy: Arc<Proxy>,
    view: Arc<MembershipView>,
}

impl MigrateExporter for ShardExporter {
    fn export(
        &self,
        shard: u32,
        epoch: u64,
        after: &str,
        max: usize,
    ) -> Result<MigrateBatch, String> {
        let snapshot = self.view.snapshot();
        if snapshot.is_empty() {
            return Err("no ring published on this shard".into());
        }
        let snap = RingSnapshot::decode(&snapshot).map_err(|e| e.to_string())?;
        if epoch > snap.epoch {
            return Err(format!(
                "migration epoch {epoch} is ahead of this shard's epoch {}",
                snap.epoch
            ));
        }
        let ring = snap.to_ring();
        let max = max.max(1);
        let mut entries = Vec::new();
        let mut cursor = after.to_string();
        let mut complete = true;
        'scan: loop {
            // Page the underlying cache and keep only the asker's keys;
            // the scan advances by *underlying* key so a page with no
            // owned keys still makes progress.
            let (page, page_complete) = self.proxy.cache_export_after(&cursor, max);
            let last_key = page.last().map(|(k, _)| k.clone());
            for (key, value) in page {
                if ring.home(&key) == Some(shard) {
                    entries.push((key, value.to_vec()));
                    if entries.len() >= max {
                        complete = false;
                        break 'scan;
                    }
                }
            }
            match last_key {
                Some(k) if !page_complete => cursor = k,
                _ => break 'scan,
            }
        }
        Ok(MigrateBatch { entries, complete })
    }
}

/// Binds a server for `proxy` on `127.0.0.1:0`, answering `RING_UPDATE`
/// from `view` and `MIGRATE_BEGIN` from the shard's cache.
fn bind_shard(
    proxy: &Arc<Proxy>,
    console: &Option<Arc<Mutex<AdminConsole>>>,
    config: &ServerConfig,
    view: &Arc<MembershipView>,
) -> std::io::Result<ProxyServer> {
    let server = ProxyServer::bind(
        "127.0.0.1:0",
        proxy.clone(),
        console.clone(),
        config.clone(),
    )?;
    server.set_membership_view(view.clone());
    server.set_migrate_exporter(Arc::new(ShardExporter {
        proxy: proxy.clone(),
        view: view.clone(),
    }));
    Ok(server)
}

/// A running cluster of proxy shards on loopback sockets.
pub struct ProxyCluster {
    servers: Vec<Option<ProxyServer>>,
    proxies: Vec<Arc<Proxy>>,
    peers: Vec<Option<Arc<ClusterPeer>>>,
    watches: Vec<Option<ShardWatch>>,
    addrs: Vec<SocketAddr>,
    ring: HashRing,
    console: Option<Arc<Mutex<AdminConsole>>>,
    opts: ClusterOptions,
    /// One view shared by every shard's server: the published ring
    /// epoch that `RING_UPDATE` askers converge on.
    view: Arc<MembershipView>,
}

impl std::fmt::Debug for ProxyCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyCluster")
            .field("shards", &self.addrs.len())
            .field("addrs", &self.addrs)
            .finish()
    }
}

impl ProxyCluster {
    /// Binds one server per proxy on `127.0.0.1:0`, builds the ring for
    /// exactly those shards, and (when enabled) wires peer cache-fill
    /// links between them. All shards share the optional console, so the
    /// administrator sees one organization regardless of shard count.
    pub fn start(
        proxies: Vec<Arc<Proxy>>,
        console: Option<Arc<Mutex<AdminConsole>>>,
        opts: ClusterOptions,
    ) -> std::io::Result<ProxyCluster> {
        if proxies.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard",
            ));
        }
        // Persistent shards open their stores before serving a single
        // request, so a restarted shard is warm from its first fetch.
        if let Some(data_dir) = &opts.data_dir {
            for (i, proxy) in proxies.iter().enumerate() {
                proxy
                    .open_store(data_dir.join(format!("shard{i}")), opts.store.clone())
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
        }
        let view = Arc::new(MembershipView::new());
        let mut servers = Vec::with_capacity(proxies.len());
        let mut addrs = Vec::with_capacity(proxies.len());
        for proxy in &proxies {
            let server = bind_shard(proxy, &console, &opts.server, &view)?;
            addrs.push(server.addr());
            servers.push(Some(server));
        }
        let ring = HashRing::with_shards(proxies.len() as u32, opts.vnodes, opts.seed);

        let mut cluster = ProxyCluster {
            servers,
            peers: vec![None; proxies.len()],
            proxies,
            watches: Vec::new(),
            addrs,
            ring,
            console,
            opts,
            view,
        };
        // Peer links can only be wired once every shard has a bound
        // address.
        cluster.rewire_peers();
        cluster.watches = (0..cluster.servers.len())
            .map(|i| cluster.attach_watch(i))
            .collect();
        cluster.publish_view();
        Ok(cluster)
    }

    /// Starts shard `i`'s observability plane per the cluster options:
    /// a [`Watch`] ticking on the shard's telemetry, installed as the
    /// server's `metrics://` source, plus (for persistent clusters)
    /// a durable journal spool and (when asked) an HTTP listener.
    /// Returns `None` when watching is not configured.
    fn attach_watch(&self, i: usize) -> Option<ShardWatch> {
        let config = self.opts.watch.clone()?;
        let server = self.servers.get(i)?.as_ref()?;
        let telemetry = server.telemetry();
        if let Some(data_dir) = &self.opts.data_dir {
            // Re-attaching after a restart is safe: the spool only ever
            // advances the journal's next sequence number.
            if let Ok(spool) = StoreSpool::open(data_dir.join(format!("journal{i}"))) {
                telemetry.journal().set_spool(Arc::new(spool));
            }
        }
        let interval_ns = config.interval_ns;
        let watch = Watch::new(telemetry, config);
        server.set_metrics_source(watch.clone());
        let http = if self.opts.metrics_http {
            MetricsHttp::bind("127.0.0.1:0", watch.clone()).ok()
        } else {
            None
        };
        Some(ShardWatch {
            watch: watch.clone(),
            _driver: WatchDriver::start(watch, interval_ns),
            http,
        })
    }

    /// Shard `i`'s observability plane, `None` when watching is off or
    /// the shard is killed.
    pub fn watch(&self, i: usize) -> Option<Arc<Watch>> {
        self.watches
            .get(i)
            .and_then(|w| w.as_ref())
            .map(|w| w.watch.clone())
    }

    /// Shard `i`'s HTTP `GET /metrics` address, when
    /// [`ClusterOptions::metrics_http`] is set.
    pub fn metrics_addr(&self, i: usize) -> Option<SocketAddr> {
        self.watches
            .get(i)
            .and_then(|w| w.as_ref())
            .and_then(|w| w.http.as_ref())
            .map(|h| h.addr())
    }

    /// Captures the current ring + address book as a snapshot and
    /// publishes it to every shard's `RING_UPDATE` view, so any client
    /// (or joining shard) asking any live shard converges on this
    /// epoch. Peer tables are *not* touched here — see `rewire_peers`.
    fn publish_view(&self) {
        let pairs: Vec<(u32, String)> = self
            .ring
            .shards()
            .iter()
            .map(|&s| (s, self.addrs[s as usize].to_string()))
            .collect();
        let snap = RingSnapshot::capture(&self.ring, &pairs);
        self.view.publish(snap.epoch, snap.encode());
    }

    /// Rebuilds every live shard's peer table against the current ring
    /// and membership: links go to every *other* live ring member, and
    /// existing peer tables are kept (only the ring and link set are
    /// swapped). Shards that had no peer table (single-shard
    /// start) get one as soon as there are two live members.
    fn rewire_peers(&mut self) {
        if !self.opts.peer_fill {
            return;
        }
        let live: Vec<u32> = self
            .ring
            .shards()
            .iter()
            .copied()
            .filter(|&s| self.is_alive(s as usize))
            .collect();
        for &i in &live {
            let links: HashMap<u32, Arc<PeerLink>> = live
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| {
                    let hello = Hello {
                        user: format!("shard{i}"),
                        principal: "cluster-peer".into(),
                        ..Hello::default()
                    };
                    (
                        j,
                        Arc::new(PeerLink::new(
                            self.addrs[j as usize],
                            hello,
                            self.opts.peer_net,
                        )),
                    )
                })
                .collect();
            if links.is_empty() {
                continue;
            }
            let slot = &mut self.peers[i as usize];
            match slot {
                Some(peer) => {
                    peer.set_ring(self.ring.clone());
                    peer.set_links(links);
                }
                None => {
                    let proxy = &self.proxies[i as usize];
                    let peer = Arc::new(ClusterPeer::new(i, self.ring.clone(), &proxy.telemetry()));
                    peer.set_links(links);
                    proxy.set_peer_cache(peer.clone());
                    *slot = Some(peer);
                }
            }
        }
    }

    /// Adds a brand-new shard at runtime: binds a server for `proxy`
    /// (opening `shard<id>`'s persistent store first when the cluster
    /// is persistent), claims the new shard's key range on the ring via
    /// a minimal remap, rewires peer tables, and publishes the new
    /// epoch. Returns the new shard's id and the remap plan — the
    /// membership plane uses the plan to pull the shard's keys out of
    /// their previous owners (live cache migration) so it starts warm.
    pub fn spawn_shard(&mut self, proxy: Arc<Proxy>) -> std::io::Result<(u32, RemapPlan)> {
        let id = self.servers.len() as u32;
        if let Some(data_dir) = &self.opts.data_dir {
            proxy
                .open_store(data_dir.join(format!("shard{id}")), self.opts.store.clone())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let server = bind_shard(&proxy, &self.console, &self.opts.server, &self.view)?;
        self.addrs.push(server.addr());
        self.servers.push(Some(server));
        self.proxies.push(proxy);
        self.peers.push(None);
        let watch = self.attach_watch(id as usize);
        self.watches.push(watch);
        let plan = self.ring.join_shard(id);
        self.rewire_peers();
        self.publish_view();
        Ok((id, plan))
    }

    /// The remap a retirement of `shard` *would* produce, without
    /// changing anything: the membership plane drains the departing
    /// shard's keys to the survivors this plan names before committing
    /// with [`ProxyCluster::retire_shard`].
    pub fn plan_retire(&self, shard: u32) -> RemapPlan {
        let mut preview = self.ring.clone();
        preview.retire_shard(shard)
    }

    /// Removes shard `i` from membership: its segments move to the
    /// clockwise survivors (the committed plan is identical to
    /// [`ProxyCluster::plan_retire`]'s preview — retirement is
    /// deterministic), peer tables drop their links to it, its server
    /// shuts down cleanly, and the new epoch is published. The server
    /// stats are `None` when the shard was already dead.
    pub fn retire_shard(&mut self, i: usize) -> (RemapPlan, Option<ServerStats>) {
        let was_member = self.ring.shards().contains(&(i as u32));
        let plan = self.ring.retire_shard(i as u32);
        if !was_member {
            return (plan, None);
        }
        if self.peers.get(i).is_some_and(|p| p.is_some()) {
            self.proxies[i].clear_peer_cache();
            self.peers[i] = None;
        }
        if let Some(w) = self.watches.get_mut(i) {
            *w = None;
        }
        let stats = self
            .servers
            .get_mut(i)
            .and_then(|slot| slot.take())
            .map(|s| s.shutdown());
        self.rewire_peers();
        self.publish_view();
        (plan, stats)
    }

    /// Restarts a killed shard in place: rebinds a server over the same
    /// proxy (whose cache — and persistent store, if any — survived the
    /// kill), re-publishes the address book at a bumped epoch so
    /// clients and peers re-learn the shard's new socket, and rewires
    /// peer tables. The ring's key ownership is unchanged — this is an
    /// address-only membership transition. Errors if the shard is still
    /// alive or was never a member.
    pub fn restart_shard(&mut self, i: usize) -> std::io::Result<SocketAddr> {
        if self.is_alive(i) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("shard {i} is still alive"),
            ));
        }
        if !self.ring.shards().contains(&(i as u32)) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("shard {i} is not a cluster member"),
            ));
        }
        let server = bind_shard(
            &self.proxies[i],
            &self.console,
            &self.opts.server,
            &self.view,
        )?;
        let addr = server.addr();
        self.addrs[i] = addr;
        self.servers[i] = Some(server);
        self.watches[i] = self.attach_watch(i);
        self.ring.bump_epoch();
        self.rewire_peers();
        self.publish_view();
        Ok(addr)
    }

    /// Live membership: every shard that is both a ring member and
    /// currently serving, with its address.
    pub fn live_addrs(&self) -> Vec<(u32, SocketAddr)> {
        self.ring
            .shards()
            .iter()
            .copied()
            .filter(|&s| self.is_alive(s as usize))
            .map(|s| (s, self.addrs[s as usize]))
            .collect()
    }

    /// Number of shards (including killed ones — slots keep their ids).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when the cluster has no shards (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Every shard's bound address, indexed by shard id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The shared ring. Clients clone this (or rebuild it from the same
    /// `(shards, vnodes, seed)` triple) to agree on routing.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Shard `i`'s proxy (for stats inspection).
    pub fn proxy(&self, i: usize) -> &Arc<Proxy> {
        &self.proxies[i]
    }

    /// Shard `i`'s server statistics (`None` while killed). They are
    /// read from the shard's telemetry plane, which a restart keeps, so
    /// they count every life of the shard.
    pub fn shard_stats(&self, i: usize) -> Option<ServerStats> {
        self.servers
            .get(i)
            .and_then(|s| s.as_ref())
            .map(|s| s.stats())
    }

    /// Shard `i`'s telemetry plane (shared between its server and its
    /// proxy), `None` once the shard is killed.
    pub fn shard_telemetry(&self, i: usize) -> Option<Arc<Telemetry>> {
        self.servers
            .get(i)
            .and_then(|s| s.as_ref())
            .map(|s| s.telemetry())
    }

    /// Every live shard's stats report, indexed by shard id (`None` for
    /// killed shards). With `include_spans` the reports carry each
    /// shard's retained span window.
    pub fn stats_reports(&self, include_spans: bool) -> Vec<Option<StatsReport>> {
        self.servers
            .iter()
            .map(|slot| {
                slot.as_ref().map(|s| {
                    let t = s.telemetry();
                    if include_spans {
                        t.report()
                    } else {
                        t.report_metrics_only()
                    }
                })
            })
            .collect()
    }

    /// Fleet-wide metrics: every live shard's snapshot merged into one,
    /// as if the cluster were a single proxy.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let reports = self.stats_reports(false);
        StatsReport::merge_metrics(reports.iter().flatten())
    }

    /// Abruptly stops shard `i` (its socket closes; in-flight
    /// connections die), simulating a shard failure. The ring is left
    /// unchanged — surviving the loss is the *client's* job, which is
    /// exactly what the failover tests exercise. Returns the dead
    /// shard's final statistics, or `None` if already killed.
    pub fn kill_shard(&mut self, i: usize) -> Option<ServerStats> {
        // The dead shard must stop probing peers (and peers will fail
        // open when probing it).
        if let Some(Some(_peer)) = self.peers.get(i) {
            self.proxies[i].clear_peer_cache();
        }
        if let Some(w) = self.watches.get_mut(i) {
            *w = None;
        }
        self.servers.get_mut(i)?.take().map(|s| s.shutdown())
    }

    /// True when shard `i` is still serving.
    pub fn is_alive(&self, i: usize) -> bool {
        self.servers.get(i).is_some_and(|s| s.is_some())
    }

    /// Stops every remaining shard and returns their final statistics,
    /// indexed by shard id (`None` for shards killed earlier).
    pub fn shutdown(mut self) -> Vec<Option<ServerStats>> {
        // Unwire peer caches first so no shard's request path touches a
        // dying sibling, and close the links' sockets.
        for (i, peer) in self.peers.iter().enumerate() {
            if peer.is_some() {
                self.proxies[i].clear_peer_cache();
            }
        }
        self.watches.clear();
        self.servers
            .iter_mut()
            .map(|slot| slot.take().map(|s| s.shutdown()))
            .collect()
    }
}
