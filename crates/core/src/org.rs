//! The organization: one set of centralized services, many clients.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dvm_bytecode::RewriteUnit;
use dvm_classfile::ClassFile;
use dvm_cluster::{ClusterClassProvider, ClusterClientConfig, ClusterOptions, ProxyCluster};
use dvm_compiler::IrPackage;
use dvm_membership::{MembershipOptions, MembershipPlane};
use dvm_monitor::{
    AdminConsole, AuditSink, ClientDescription, ConsoleSink, ProfileMode, SiteTable,
};
use dvm_net::{Hello, NetClassProvider, NetConfig, ProxyServer, RemoteConsole, ServerConfig};
use dvm_proxy::{
    CodeOrigin, IrProduct, MapOrigin, Proxy, ProxyError, RequestContext, Rewrite, RewriteCost,
    Rewritten, Signer,
};
use dvm_security::{EnforcementManager, Policy, SecurityId, SecurityServer};
use dvm_telemetry::{StatsReport, Telemetry};
use dvm_verifier::{MapEnvironment, StaticVerifier};
use dvm_watch::{Watch, WatchConfig};

use crate::client::DvmClient;
use crate::config::{CostModel, ServiceConfig};
use crate::filters::{
    filter_error, AuditFilter, ProfileFilter, SecurityFilter, StaticServiceStats, UnitFilter,
    VerifierFilter,
};

/// An organization running a distributed virtual machine: centralized
/// static services on a proxy (the network compiler among them, when
/// the IR tier is enabled), a security server, an administration
/// console, and any number of clients.
pub struct Organization {
    /// The code proxy hosting the static service pipeline.
    pub proxy: Arc<Proxy>,
    /// The centralized security service; it answers queries from, and
    /// applies grants and revokes to, the one shared policy.
    pub security: Arc<Mutex<SecurityServer>>,
    /// The remote administration console.
    pub console: Arc<Mutex<AdminConsole>>,
    /// Instrumentation site table shared by rewriters and clients.
    pub sites: Arc<Mutex<SiteTable>>,
    /// Aggregated static-service statistics.
    pub service_stats: Arc<Mutex<StaticServiceStats>>,
    // The only policy: the security server, every shard's security
    // filter and each session's enforcement manager share it.
    policy: Arc<Mutex<Policy>>,
    signer: Option<Signer>,
    services: ServiceConfig,
    // Shared by the primary proxy and any cluster shards built later.
    origin: Arc<dyn CodeOrigin>,
    // Memoized continuous-observability plane over the primary proxy
    // (created on first `watch()` call).
    watch: Mutex<Option<Arc<Watch>>>,
    /// The cost model all timing derives from.
    pub cost: CostModel,
}

/// The IR package lowered from `unit`'s final bodies, with the
/// pass-pipeline statistics as `exec.opt.<pass>` span work; `None` when
/// no method lowered (or lowering failed), leaving the class on the
/// interpreter. The proxy signs, keys and caches it.
fn compile_ir(unit: &mut RewriteUnit) -> Option<IrProduct> {
    let start = Instant::now();
    let pkg = IrPackage::compile(&unit.class, &mut unit.bodies).ok()?;
    if pkg.methods_compiled == 0 {
        return None;
    }
    let p = &pkg.passes;
    Some(IrProduct {
        pass_work: vec![
            ("inline".to_owned(), p.services_inlined as u64),
            ("fold".to_owned(), p.folded as u64),
            ("copy".to_owned(), p.copies_propagated as u64),
            ("dce".to_owned(), p.eliminated as u64),
        ],
        bytes: pkg.bytes,
        compile_cycles: pkg.compile_cycles,
        lower_ns: start.elapsed().as_nanos() as u64,
    })
}

/// One proxy shard's rewrite: the static services edit one
/// [`RewriteUnit`] in turn, each edited body is encoded once, the class
/// is generated once, and with the exec tier on the same in-memory
/// bodies are lowered to IR.
struct StaticServices {
    services: Vec<Box<dyn UnitFilter>>,
    exec_tier: bool,
}

impl Rewrite for StaticServices {
    fn stages(&self) -> Vec<&str> {
        self.services.iter().map(|s| s.name()).collect()
    }

    fn rewrite(
        &self,
        original: &[u8],
        observe: &mut dyn FnMut(&str, u64),
    ) -> Result<Rewritten, ProxyError> {
        let class = ClassFile::parse(original).map_err(|e| ProxyError::Parse(e.to_string()))?;
        let mut unit = RewriteUnit::new(class);
        for service in &self.services {
            let start = Instant::now();
            service.apply_unit(&mut unit).map_err(ProxyError::Filter)?;
            observe(service.name(), start.elapsed().as_nanos() as u64);
        }
        unit.bodies
            .encode_dirty(&mut unit.class)
            .map_err(|e| ProxyError::Filter(filter_error("generate", e)))?;
        let payload = unit
            .class
            .to_bytes()
            .map_err(|e| ProxyError::Parse(e.to_string()))?;
        let ir = if self.exec_tier {
            compile_ir(&mut unit)
        } else {
            None
        };
        Ok(Rewritten {
            payload,
            ir,
            bodies_decoded: unit.bodies.decoded(),
            bodies_encoded: unit.bodies.encoded(),
        })
    }
}

/// The handshake a remote client of this organization sends.
fn client_hello(user: &str, principal: &str) -> Hello {
    Hello {
        user: user.to_owned(),
        principal: principal.to_owned(),
        hardware: "x86/200MHz/64MB".to_owned(),
        native_format: "x86".to_owned(),
        jvm_version: "dvm-repro-0.1".to_owned(),
    }
}

/// Builds one shard's static services per `config`. Services hold
/// `Box`es, so one set cannot be shared — each proxy shard gets its own,
/// but all share the same policy, site table and statistics sinks,
/// which is what makes N shards one logical service.
fn build_services(
    config: &ServiceConfig,
    policy: &Arc<Mutex<Policy>>,
    sites: &Arc<Mutex<SiteTable>>,
    service_stats: &Arc<Mutex<StaticServiceStats>>,
) -> Box<StaticServices> {
    let mut services: Vec<Box<dyn UnitFilter>> = Vec::new();
    if config.verify {
        let verifier = StaticVerifier::new(MapEnvironment::with_bootstrap());
        services.push(Box::new(VerifierFilter::new(
            verifier,
            service_stats.clone(),
        )));
    }
    if config.security {
        services.push(Box::new(SecurityFilter::new(
            policy.clone(),
            SecurityId(1),
            service_stats.clone(),
        )));
    }
    if config.audit {
        services.push(Box::new(AuditFilter::new(
            sites.clone(),
            service_stats.clone(),
        )));
    }
    if config.profile {
        services.push(Box::new(ProfileFilter::new(
            sites.clone(),
            ProfileMode::Method,
            service_stats.clone(),
        )));
    }
    Box::new(StaticServices {
        services,
        exec_tier: config.exec_tier,
    })
}

/// One proxy over `origin` running `services` and signing with
/// `signer`, on a telemetry plane named `node`.
fn build_proxy(
    node: &str,
    origin: &Arc<dyn CodeOrigin>,
    services: Box<StaticServices>,
    config: &ServiceConfig,
    signer: &Option<Signer>,
    cost: &CostModel,
) -> Arc<Proxy> {
    let proxy = Proxy::new(
        Box::new(origin.clone()),
        services,
        8 << 20,
        config.caching,
        signer.clone(),
        Arc::new(Telemetry::new(node)),
    );
    Arc::new(proxy.with_rewrite_cost(RewriteCost {
        cycles_per_byte: cost.proxy_cycles_per_byte,
        cpu: cost.cpu,
    }))
}

impl Organization {
    /// Builds an organization whose origin serves `classes` and whose
    /// services follow `config`.
    pub fn new(
        classes: &[ClassFile],
        policy: Policy,
        config: ServiceConfig,
        cost: CostModel,
    ) -> dvm_classfile::Result<Organization> {
        let mut origin = MapOrigin::new();
        for cf in classes {
            let mut cf = cf.clone();
            let name = cf.name()?.to_owned();
            origin.insert(&format!("class://{name}"), cf.to_bytes()?);
        }
        Ok(Self::with_origin(Box::new(origin), policy, config, cost))
    }

    /// Builds an organization over an arbitrary code origin.
    pub fn with_origin(
        origin: Box<dyn dvm_proxy::CodeOrigin>,
        policy: Policy,
        config: ServiceConfig,
        cost: CostModel,
    ) -> Organization {
        let service_stats = Arc::new(Mutex::new(StaticServiceStats::default()));
        let sites = Arc::new(Mutex::new(SiteTable::new()));
        let policy = Arc::new(Mutex::new(policy));
        let origin: Arc<dyn CodeOrigin> = Arc::from(origin);
        let services = build_services(&config, &policy, &sites, &service_stats);
        let signer = if config.signing {
            Some(Signer::new(b"dvm-org-key"))
        } else {
            None
        };
        let proxy = build_proxy("proxy", &origin, services, &config, &signer, &cost);
        let security = Arc::new(Mutex::new(SecurityServer::new(policy.clone())));
        Organization {
            proxy,
            security,
            console: Arc::new(Mutex::new(AdminConsole::new())),
            sites,
            service_stats,
            policy,
            signer,
            services: config,
            origin,
            watch: Mutex::new(None),
            cost,
        }
    }

    /// This organization's continuous-observability plane: a
    /// [`Watch`] over the primary proxy's telemetry, created on first
    /// call (with default tuning and no objectives) and shared
    /// thereafter. Callers drive it with [`Watch::tick_at`] or a
    /// [`dvm_watch::WatchDriver`]; for per-shard watches on a cluster
    /// use [`ClusterOptions`]'s `watch` field instead.
    pub fn watch(&self) -> Arc<Watch> {
        self.watch_with(WatchConfig::default())
    }

    /// [`Organization::watch`] with explicit tuning and objectives.
    /// The first caller's configuration wins; later calls return the
    /// already-created watch unchanged.
    pub fn watch_with(&self, config: WatchConfig) -> Arc<Watch> {
        let mut slot = self.watch.lock();
        if let Some(w) = slot.as_ref() {
            return w.clone();
        }
        let w = Watch::new(self.proxy.telemetry(), config);
        *slot = Some(w.clone());
        w
    }

    /// Builds one additional proxy shard: its own static services and
    /// rewrite cache over the same origin, signer, policy, site table, and
    /// statistics sinks as the primary proxy. N shards built this way
    /// are the paper's proxy scaled out — byte-identical (and
    /// identically signed) responses from every shard.
    pub fn shard_proxy(&self) -> Arc<Proxy> {
        self.shard_proxy_named("proxy")
    }

    /// [`Organization::shard_proxy`] with the shard's telemetry plane
    /// named `node` (e.g. `"shard2"`), so stats pulled from a fleet stay
    /// attributable to the shard that produced them.
    pub fn shard_proxy_named(&self, node: &str) -> Arc<Proxy> {
        let services = build_services(
            &self.services,
            &self.policy,
            &self.sites,
            &self.service_stats,
        );
        build_proxy(
            node,
            &self.origin,
            services,
            &self.services,
            &self.signer,
            &self.cost,
        )
    }

    /// The primary proxy's observable state: its metrics snapshot plus
    /// its recent spans. Cluster deployments aggregate instead via
    /// [`ProxyCluster::stats_reports`] (in-process) or
    /// [`dvm_cluster::collect_fleet_stats`] (over the wire).
    pub fn stats(&self) -> StatsReport {
        self.proxy.telemetry().report()
    }

    /// The organization's policy, the one the security server edits.
    pub fn policy(&self) -> Arc<Mutex<Policy>> {
        self.policy.clone()
    }

    /// Creates a new DVM client for `user` running code as `principal`.
    ///
    /// The client performs the §3.3 handshake with the administration
    /// console (credentials, hardware, native format) and registers with
    /// the security server's invalidation protocol.
    pub fn client(&self, user: &str, principal: &str) -> dvm_jvm::Result<DvmClient> {
        let session = self.console.lock().handshake(ClientDescription {
            user: user.to_owned(),
            hardware: "x86/200MHz/64MB".to_owned(),
            native_format: "x86".to_owned(),
            jvm_version: "dvm-repro-0.1".to_owned(),
        });
        let enforcement = self.enforcement(principal);
        let ctx = RequestContext {
            client: user.to_owned(),
            principal: principal.to_owned(),
            url: String::new(),
            trace: None,
        };
        let audit: Box<dyn AuditSink> = Box::new(ConsoleSink::new(self.console.clone(), session));
        DvmClient::wire(
            self.proxy.clone(),
            ctx,
            self.signer.clone(),
            enforcement,
            Some(audit),
            self.cost,
        )
    }

    /// The enforcement manager of a session running as `principal`
    /// (an unknown principal runs as SID 1), when security is on.
    fn enforcement(&self, principal: &str) -> Option<EnforcementManager> {
        if !self.services.security {
            return None;
        }
        let sid = self.policy.lock().principals.get(principal).copied();
        let sid = sid.unwrap_or(SecurityId(1));
        Some(EnforcementManager::register(self.security.clone(), sid))
    }

    /// Puts this organization's proxy and console behind a live TCP
    /// socket (e.g. `"127.0.0.1:0"` for an ephemeral port). Remote
    /// clients built with [`Organization::remote_client`] connect to
    /// [`ProxyServer::addr`].
    pub fn serve(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<ProxyServer> {
        self.serve_with(addr, ServerConfig::default())
    }

    /// [`Organization::serve`] with explicit server tuning (connection
    /// limit, idle deadline, fault injection).
    pub fn serve_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<ProxyServer> {
        ProxyServer::bind(addr, self.proxy.clone(), Some(self.console.clone()), config)
    }

    /// Creates a DVM client whose classes arrive over TCP from the
    /// server at `addr` (see [`Organization::serve`]).
    ///
    /// The handshake happens on the wire: the provider connection and
    /// the audit channel each present credentials and receive their own
    /// console session. Signature verification uses the organization's
    /// key, exactly as the in-process client does.
    pub fn remote_client(
        &self,
        addr: std::net::SocketAddr,
        user: &str,
        principal: &str,
    ) -> std::io::Result<DvmClient> {
        self.remote_client_with(addr, user, principal, NetConfig::default())
    }

    /// [`Organization::remote_client`] with explicit client tuning
    /// (timeouts, retry budget, backoff).
    pub fn remote_client_with(
        &self,
        addr: std::net::SocketAddr,
        user: &str,
        principal: &str,
        net: NetConfig,
    ) -> std::io::Result<DvmClient> {
        let hello = client_hello(user, principal);
        let provider = NetClassProvider::new(addr, hello.clone(), self.signer.clone(), net)?;
        // The audit counters (`audit_batches_total`, drops) land on the
        // client's own plane, beside its fetch metrics.
        let console = RemoteConsole::connect_on(addr, hello, net, provider.telemetry())
            .map_err(std::io::Error::other)?;
        let audit: Box<dyn AuditSink> = Box::new(console);
        let enforcement = self.enforcement(principal);
        DvmClient::wire_remote(provider, enforcement, Some(audit), self.cost)
            .map_err(std::io::Error::other)
    }

    /// Scales this organization's proxy out to `shards` socket-backed
    /// shards acting as one logical proxy (consistent-hash routed, with
    /// peer cache-fill between shards). Every shard reports into this
    /// organization's console. Clients come from
    /// [`Organization::cluster_client`].
    pub fn serve_cluster(&self, shards: usize) -> std::io::Result<ProxyCluster> {
        self.serve_cluster_with(shards, ClusterOptions::default())
    }

    /// [`Organization::serve_cluster`] with explicit cluster tuning
    /// (ring seed and vnodes, per-shard server config, peer-fill toggle).
    pub fn serve_cluster_with(
        &self,
        shards: usize,
        opts: ClusterOptions,
    ) -> std::io::Result<ProxyCluster> {
        let proxies = (0..shards)
            .map(|i| self.shard_proxy_named(&format!("shard{i}")))
            .collect();
        ProxyCluster::start(proxies, Some(self.console.clone()), opts)
    }

    /// [`Organization::serve_cluster_with`] wrapped in a
    /// [`dvm_membership::MembershipPlane`]: the cluster starts at
    /// `shards` shards and can then grow ([`Organization::grow_cluster`]),
    /// shrink ([`Organization::shrink_cluster`]), and self-heal (gossip
    /// failure detection) at runtime while clients keep fetching.
    pub fn serve_elastic(
        &self,
        shards: usize,
        opts: ClusterOptions,
        membership: MembershipOptions,
    ) -> std::io::Result<MembershipPlane> {
        let cluster = self.serve_cluster_with(shards, opts)?;
        Ok(MembershipPlane::new(cluster, membership))
    }

    /// Grows an elastic cluster by one shard built from this
    /// organization's substrate (same policy, signer, console, and
    /// rewrite pipeline as every other shard). The new shard pulls its
    /// key range out of the current owners before this returns, so its
    /// first fetches hit warm cache.
    pub fn grow_cluster(
        &self,
        plane: &mut MembershipPlane,
    ) -> std::io::Result<dvm_membership::JoinReport> {
        let id = plane.cluster().len();
        let proxy = self.shard_proxy_named(&format!("shard{id}"));
        plane.join(proxy)
    }

    /// Shrinks an elastic cluster by retiring `shard`: its keys drain
    /// to the survivors first, then its server shuts down and the new
    /// epoch is published.
    pub fn shrink_cluster(
        &self,
        plane: &mut MembershipPlane,
        shard: u32,
    ) -> dvm_membership::RetireReport {
        plane.retire(shard)
    }

    /// Backs the primary proxy's rewrite cache with a persistent store
    /// at `dir`: rewrites cached from now on survive a kill, and a new
    /// organization built over the same classes and `dir` serves them
    /// from the disk tier without re-rewriting.
    pub fn persist(&self, dir: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.proxy
            .open_store(dir, dvm_store::StoreConfig::default())
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// [`Organization::serve_cluster_with`] with per-shard persistent
    /// data directories under `data_dir` (`shard0`, `shard1`, …): the
    /// warm-restart deployment shape. Restarting a cluster over the
    /// same directory serves previously rewritten classes from disk.
    pub fn serve_cluster_persistent(
        &self,
        shards: usize,
        mut opts: ClusterOptions,
        data_dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<ProxyCluster> {
        opts.data_dir = Some(data_dir.into());
        self.serve_cluster_with(shards, opts)
    }

    /// Creates a DVM client whose classes arrive from the shard cluster:
    /// each fetch is routed by the shared ring and fails over to replica
    /// shards on transport failures or typed overload rejections.
    pub fn cluster_client(
        &self,
        cluster: &ProxyCluster,
        user: &str,
        principal: &str,
    ) -> std::io::Result<DvmClient> {
        self.cluster_client_with(cluster, user, principal, ClusterClientConfig::default())
    }

    /// [`Organization::cluster_client`] with explicit client tuning
    /// (per-shard net config, circuit-breaker thresholds, rounds).
    pub fn cluster_client_with(
        &self,
        cluster: &ProxyCluster,
        user: &str,
        principal: &str,
        config: ClusterClientConfig,
    ) -> std::io::Result<DvmClient> {
        let hello = client_hello(user, principal);
        let provider = ClusterClassProvider::new(
            cluster.addrs().to_vec(),
            cluster.ring().clone(),
            hello.clone(),
            self.signer.clone(),
            config,
        );
        // The audit channel is fire-and-forget, so it pins one shard
        // (spread across clients by user name) rather than failing over
        // per event; all shards ingest into the same console. Connecting
        // does walk the shards, though — a client must still come up
        // when its preferred audit shard is down.
        let preferred = {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in user.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            (h % cluster.addrs().len() as u64) as usize
        };
        let mut console = None;
        let mut last_err = None;
        for i in 0..cluster.addrs().len() {
            let shard = (preferred + i) % cluster.addrs().len();
            let addr = cluster.addrs()[shard];
            match RemoteConsole::connect_on(addr, hello.clone(), config.net, provider.telemetry()) {
                Ok(c) => {
                    console = Some(c);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let console = console.ok_or_else(|| {
            std::io::Error::other(last_err.expect("cluster has at least one shard"))
        })?;
        let audit: Box<dyn AuditSink> = Box::new(console);
        let enforcement = self.enforcement(principal);
        DvmClient::wire_cluster(provider, enforcement, Some(audit), self.cost)
            .map_err(std::io::Error::other)
    }
}
