//! The organization: one set of centralized services, many clients.

use std::sync::Arc;

use parking_lot::Mutex;

use dvm_classfile::ClassFile;
use dvm_cluster::{ClusterClassProvider, ClusterClientConfig, ClusterOptions, ProxyCluster};
use dvm_compiler::{ExecCompiler, ExecCompilerStats};
use dvm_membership::{MembershipOptions, MembershipPlane};
use dvm_monitor::{
    AdminConsole, AuditSink, ClientDescription, ConsoleSink, ProfileMode, SiteTable,
};
use dvm_net::{Hello, NetClassProvider, NetConfig, ProxyServer, RemoteConsole, ServerConfig};
use dvm_proxy::{
    CodeOrigin, IrProducer, IrProduct, MapOrigin, Pipeline, Proxy, RequestContext, RewriteCost,
    Signer,
};
use dvm_security::{EnforcementManager, Policy, SecurityId, SecurityServer};
use dvm_telemetry::{StatsReport, Telemetry};
use dvm_verifier::{MapEnvironment, StaticVerifier};
use dvm_watch::{Watch, WatchConfig};

use crate::client::DvmClient;
use crate::config::{CostModel, ServiceConfig};
use crate::filters::{
    AuditFilter, ProfileFilter, SecurityFilter, StaticServiceStats, VerifierFilter,
};

/// An organization running a distributed virtual machine: centralized
/// static services on a proxy, a security server, an administration
/// console, the network compiler (the IR tier's shared
/// [`ExecCompiler`], when enabled), and any number of clients.
pub struct Organization {
    /// The code proxy hosting the static service pipeline.
    pub proxy: Arc<Proxy>,
    /// The centralized security service.
    pub security: Arc<Mutex<SecurityServer>>,
    /// The remote administration console.
    pub console: Arc<Mutex<AdminConsole>>,
    /// Instrumentation site table shared by rewriters and clients.
    pub sites: Arc<Mutex<SiteTable>>,
    /// Aggregated static-service statistics.
    pub service_stats: Arc<Mutex<StaticServiceStats>>,
    policy: Arc<Mutex<Policy>>,
    signer: Option<Signer>,
    services: ServiceConfig,
    // Shared by the primary proxy and any cluster shards built later.
    origin: Arc<dyn CodeOrigin>,
    // The IR compiler every proxy shard shares (one per-signature cache
    // for the whole organization); `None` with the exec tier disabled.
    ir_producer: Option<Arc<ExecIrProducer>>,
    // Memoized continuous-observability plane over the primary proxy
    // (created on first `watch()` call).
    watch: Mutex<Option<Arc<Watch>>>,
    /// The cost model all timing derives from.
    pub cost: CostModel,
}

/// Adapts the `dvm-compiler` IR service to the proxy's producer hook:
/// the rewritten payload's MD5 is the compilation-cache signature, and
/// the pass-pipeline statistics become `exec.opt.<pass>` span work.
struct ExecIrProducer {
    compiler: Mutex<ExecCompiler>,
}

impl ExecIrProducer {
    fn new() -> ExecIrProducer {
        ExecIrProducer {
            compiler: Mutex::new(ExecCompiler::new()),
        }
    }

    fn stats(&self) -> ExecCompilerStats {
        self.compiler.lock().stats
    }
}

impl IrProducer for ExecIrProducer {
    fn produce(&self, class_bytes: &[u8]) -> Option<IrProduct> {
        let signature = dvm_proxy::md5::hex(&dvm_proxy::md5::md5(class_bytes));
        let pkg = self.compiler.lock().compile(&signature, class_bytes).ok()?;
        if pkg.methods_compiled == 0 {
            return None;
        }
        let p = &pkg.passes;
        Some(IrProduct {
            bytes: pkg.bytes.clone(),
            pass_work: vec![
                ("inline".to_owned(), p.services_inlined as u64),
                ("fold".to_owned(), p.folded as u64),
                ("copy".to_owned(), p.copies_propagated as u64),
                ("dce".to_owned(), p.eliminated as u64),
            ],
            compile_cycles: pkg.compile_cycles,
        })
    }
}

/// Builds one static-service filter pipeline per `config`. Filters hold
/// `Box`es, so a pipeline cannot be shared — each proxy shard gets its
/// own, but all pipelines share the same policy, site table, and
/// statistics sinks, which is what makes N shards one logical service.
fn build_pipeline(
    config: &ServiceConfig,
    policy: &Arc<Mutex<Policy>>,
    sites: &Arc<Mutex<SiteTable>>,
    service_stats: &Arc<Mutex<StaticServiceStats>>,
) -> Pipeline {
    let default_sid = SecurityId(1);
    let mut pipeline = Pipeline::new();
    if config.verify {
        let verifier = StaticVerifier::new(MapEnvironment::with_bootstrap());
        pipeline.push(Box::new(VerifierFilter::new(
            verifier,
            service_stats.clone(),
        )));
    }
    if config.security {
        pipeline.push(Box::new(SecurityFilter::new(
            policy.clone(),
            default_sid,
            service_stats.clone(),
        )));
    }
    if config.audit {
        pipeline.push(Box::new(AuditFilter::new(
            sites.clone(),
            service_stats.clone(),
        )));
    }
    if config.profile {
        pipeline.push(Box::new(ProfileFilter::new(
            sites.clone(),
            ProfileMode::Method,
            service_stats.clone(),
        )));
    }
    pipeline
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

        let pipeline = build_pipeline(&config, &policy, &sites, &service_stats);
        let signer = if config.signing {
            Some(Signer::new(b"dvm-org-key"))
        } else {
            None
        };
        let proxy = Arc::new(
            Proxy::new(
                Box::new(origin.clone()),
                pipeline,
                8 << 20,
                config.caching,
                signer.clone(),
            )
            .with_rewrite_cost(RewriteCost {
                cycles_per_byte: cost.proxy_cycles_per_byte,
                cpu: cost.cpu,
            }),
        );
        let ir_producer = if config.exec_tier {
            let producer = Arc::new(ExecIrProducer::new());
            proxy.set_ir_producer(producer.clone());
            Some(producer)
        } else {
            None
        };
        let security = Arc::new(Mutex::new(SecurityServer::new(policy.lock().clone())));
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
            ir_producer,
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

    /// Statistics of the shared IR compilation service, when the exec
    /// tier is enabled.
    pub fn exec_compiler_stats(&self) -> Option<ExecCompilerStats> {
        self.ir_producer.as_ref().map(|p| p.stats())
    }

    /// Builds one additional proxy shard: its own pipeline and rewrite
    /// cache over the same origin, signer, policy, site table, and
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
        let pipeline = build_pipeline(
            &self.services,
            &self.policy,
            &self.sites,
            &self.service_stats,
        );
        let proxy = Arc::new(
            Proxy::new(
                Box::new(self.origin.clone()),
                pipeline,
                8 << 20,
                self.services.caching,
                self.signer.clone(),
            )
            .with_rewrite_cost(RewriteCost {
                cycles_per_byte: self.cost.proxy_cycles_per_byte,
                cpu: self.cost.cpu,
            })
            .with_telemetry(Arc::new(Telemetry::new(node))),
        );
        if let Some(producer) = &self.ir_producer {
            // All shards share one compilation cache: a signature
            // compiled anywhere in the fleet is compiled once.
            proxy.set_ir_producer(producer.clone());
        }
        proxy
    }

    /// The primary proxy's observable state: its metrics snapshot plus
    /// its recent spans. Cluster deployments aggregate instead via
    /// [`ProxyCluster::stats_reports`] (in-process) or
    /// [`dvm_cluster::collect_fleet_stats`] (over the wire).
    pub fn stats(&self) -> StatsReport {
        self.proxy.telemetry().report()
    }

    /// Read access to the policy.
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
        let (sid, enforcement) = self.principal_wiring(principal);
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
            sid,
            Some(audit),
            self.cost,
        )
    }

    fn principal_wiring(&self, principal: &str) -> (SecurityId, Option<EnforcementManager>) {
        let sid = self
            .policy
            .lock()
            .principals
            .get(principal)
            .copied()
            .unwrap_or(SecurityId(1));
        let enforcement = if self.services.security {
            Some(EnforcementManager::register(self.security.clone()))
        } else {
            None
        };
        (sid, enforcement)
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
        let hello = Hello {
            user: user.to_owned(),
            principal: principal.to_owned(),
            hardware: "x86/200MHz/64MB".to_owned(),
            native_format: "x86".to_owned(),
            jvm_version: "dvm-repro-0.1".to_owned(),
        };
        let provider = NetClassProvider::new(addr, hello.clone(), self.signer.clone(), net)?;
        let mut console =
            RemoteConsole::connect(addr, hello, net).map_err(std::io::Error::other)?;
        // The audit counters (`audit_batches_total`, drops) land on the
        // client's own plane, beside its fetch metrics.
        console.set_telemetry(provider.telemetry());
        let audit: Box<dyn AuditSink> = Box::new(console);
        let (sid, enforcement) = self.principal_wiring(principal);
        DvmClient::wire_remote(provider, enforcement, sid, Some(audit), self.cost)
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
        let store = dvm_store::Store::open(dir, dvm_store::StoreConfig::default())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        self.proxy.attach_store(store);
        Ok(())
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
        let hello = Hello {
            user: user.to_owned(),
            principal: principal.to_owned(),
            hardware: "x86/200MHz/64MB".to_owned(),
            native_format: "x86".to_owned(),
            jvm_version: "dvm-repro-0.1".to_owned(),
        };
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
            match RemoteConsole::connect(cluster.addrs()[shard], hello.clone(), config.net) {
                Ok(c) => {
                    console = Some(c);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let mut console = console.ok_or_else(|| {
            std::io::Error::other(last_err.expect("cluster has at least one shard"))
        })?;
        console.set_telemetry(provider.telemetry());
        let audit: Box<dyn AuditSink> = Box::new(console);
        let (sid, enforcement) = self.principal_wiring(principal);
        DvmClient::wire_cluster(provider, enforcement, sid, Some(audit), self.cost)
            .map_err(std::io::Error::other)
    }
}
