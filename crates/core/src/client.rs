//! The DVM client: a thin VM whose classes arrive through the proxy and
//! whose dynamic service components are wired to the organization's
//! servers.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dvm_cluster::ClusterClassProvider;
use dvm_exec::ClassIr;
use dvm_jvm::{AuditKind, ClassProvider, Completion, DynamicServices, SecurityDecision, Value, Vm};
use dvm_monitor::{AuditSink, EventKind, ProfileCollector, SiteId};
use dvm_net::NetClassProvider;
use dvm_netsim::SimTime;
use dvm_proxy::{Proxy, RequestContext, ServedFrom, Signer};
use dvm_security::{EnforcementManager, PermissionId, SecurityId};
use dvm_telemetry::{Counter, Histogram, SpanId, Telemetry, TraceContext, TraceId};

use crate::config::CostModel;

/// One class transfer observed by the client.
#[derive(Debug, Clone)]
pub struct TransferRecord {
    /// Class internal name.
    pub class: String,
    /// Bytes received.
    pub bytes: usize,
    /// Where the proxy served it from.
    pub served_from: ServedFrom,
}

/// Compiled-IR packages deposited by a provider for the VM's execution
/// tier to bind as their classes finish linking (the VM's pending map,
/// shared via [`dvm_jvm::ExecTier::adopt_pending`]).
type IrPending = Arc<Mutex<HashMap<String, ClassIr>>>;

/// The provider that fetches classes through the proxy.
struct ProxyProvider {
    proxy: Arc<Proxy>,
    ctx: RequestContext,
    signer: Option<Signer>,
    transfers: Arc<Mutex<Vec<TransferRecord>>>,
    telemetry: Arc<Telemetry>,
    fetch_ns: Arc<Histogram>,
    ir_installs: Arc<Counter>,
    ir_pending: IrPending,
}

impl ProxyProvider {
    /// Fetches and deposits the compiled-IR package belonging to the
    /// served payload `served`. Every absence (no producer on the proxy,
    /// unparseable package, bad signature) leaves the class on the
    /// interpreter tier — the tier is an optimization, never a
    /// requirement.
    fn fetch_ir(&mut self, served: &[u8]) {
        let key = dvm_proxy::ir_key(served);
        let Ok(response) = self.proxy.handle_request_detailed(&key, &self.ctx) else {
            return;
        };
        let payload = match &self.signer {
            Some(s) => {
                let (check, payload) = s.detach(&response.bytes);
                if check != dvm_proxy::SignatureCheck::Valid {
                    return;
                }
                match payload {
                    Some(p) => p.to_vec(),
                    None => return,
                }
            }
            None => response.bytes.to_vec(),
        };
        if let Ok(ir) = dvm_exec::decode(&payload) {
            self.ir_installs.inc();
            self.ir_pending.lock().insert(ir.class.clone(), ir);
        }
    }
}

impl ClassProvider for ProxyProvider {
    fn load(&mut self, name: &str) -> Option<Vec<u8>> {
        let url = format!("class://{name}");
        // Root a trace per fetch; the in-process proxy records its spans
        // (handle, stages, origin) into its own recorder, exactly as a
        // remote shard would.
        let trace = TraceId::generate();
        let root = SpanId::generate();
        self.ctx.trace = Some(TraceContext {
            trace,
            parent: root,
        });
        let start = self.telemetry.recorder().now_ns();
        let response = self.proxy.handle_request_detailed(&url, &self.ctx);
        let end = self.telemetry.recorder().now_ns();
        self.fetch_ns.record(end.saturating_sub(start));
        self.telemetry.recorder().record_span(
            trace,
            root,
            SpanId::NONE,
            "client.fetch",
            start,
            end.saturating_sub(start),
        );
        let response = response.ok()?;
        self.fetch_ir(&response.bytes);
        let bytes = match &self.signer {
            // Clients "redirect incorrectly signed or unsigned code to the
            // centralized services"; in this provider a bad signature
            // simply fails the load.
            Some(s) => {
                let (check, payload) = s.detach(&response.bytes);
                if check != dvm_proxy::SignatureCheck::Valid {
                    return None;
                }
                payload?.to_vec()
            }
            None => response.bytes.to_vec(),
        };
        self.transfers.lock().push(TransferRecord {
            class: name.to_owned(),
            bytes: bytes.len(),
            served_from: response.served_from,
        });
        Some(bytes)
    }
}

/// The client-resident dynamic service components, adapted to the VM's
/// hook interface.
struct ClientServices {
    enforcement: Option<EnforcementManager>,
    sid: SecurityId,
    audit: Option<Box<dyn AuditSink>>,
    profile: Arc<Mutex<ProfileCollector>>,
}

impl DynamicServices for ClientServices {
    fn security_check(&mut self, sid: i32, perm: i32) -> SecurityDecision {
        match &mut self.enforcement {
            Some(em) => {
                // Rewritten code carries the SID chosen at rewrite time;
                // the enforcement manager still verifies it against the
                // session's SID (they agree in this reproduction).
                let sid = if sid >= 0 {
                    SecurityId(sid as u32)
                } else {
                    self.sid
                };
                let (allowed, cost) = em.check(sid, PermissionId(perm as u32));
                if allowed {
                    SecurityDecision::Allow { cost_cycles: cost }
                } else {
                    SecurityDecision::Deny { cost_cycles: cost }
                }
            }
            None => SecurityDecision::Allow { cost_cycles: 0 },
        }
    }

    fn audit_event(&mut self, site: i32, kind: AuditKind) {
        if let Some(sink) = &mut self.audit {
            let kind = match kind {
                AuditKind::Enter => EventKind::Enter,
                AuditKind::Exit => EventKind::Exit,
                AuditKind::Event => EventKind::Event,
            };
            sink.record(SiteId(site), kind);
        }
    }

    fn profile_count(&mut self, site: i32) {
        self.profile.lock().count(SiteId(site));
    }

    fn first_use(&mut self, site: i32) {
        self.profile.lock().first_use(SiteId(site));
    }

    fn flush(&mut self) {
        if let Some(sink) = &mut self.audit {
            sink.flush();
        }
    }
}

/// Timing breakdown of one application run (all simulated).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the program completed.
    pub completion: Completion,
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// Client CPU time (execution, including dynamic service components).
    pub exec_time: SimTime,
    /// LAN transfer time for all classes fetched.
    pub network_time: SimTime,
    /// Proxy processing time (rewrites and cache fetches).
    pub proxy_time: SimTime,
    /// End-to-end time.
    pub total_time: SimTime,
    /// Per-class transfers.
    pub transfers: Vec<TransferRecord>,
    /// Runtime link checks executed (`dvm/rt/RTVerifier`).
    pub dynamic_verify_checks: u64,
    /// Time spent in those checks (the DVM side of Figure 7).
    pub dynamic_verify_time: SimTime,
    /// Access checks executed.
    pub security_checks: u64,
    /// Uncaught-exception description, if any.
    pub exception: Option<(String, String)>,
}

/// Cycles one `dvm/rt/RTVerifier` check costs (matches the natives).
pub const DYNAMIC_CHECK_CYCLES: u64 = 40;

/// A DVM client attached to an organization.
pub struct DvmClient {
    /// The underlying engine (exposed for inspection in experiments).
    pub vm: Vm,
    profile: Arc<Mutex<ProfileCollector>>,
    transfers: Arc<Mutex<Vec<TransferRecord>>>,
    cost: CostModel,
    telemetry: Arc<Telemetry>,
}

impl DvmClient {
    /// Builds a client wired to the given in-process organization
    /// services.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn wire(
        proxy: Arc<Proxy>,
        ctx: RequestContext,
        signer: Option<Signer>,
        enforcement: Option<EnforcementManager>,
        sid: SecurityId,
        audit: Option<Box<dyn AuditSink>>,
        cost: CostModel,
    ) -> dvm_jvm::Result<DvmClient> {
        let transfers = Arc::new(Mutex::new(Vec::new()));
        let telemetry = Arc::new(Telemetry::new(&format!("client:{}", ctx.client)));
        let fetch_ns = telemetry.registry().histogram("client.fetch_ns");
        let ir_installs = telemetry.registry().counter("client.ir_installs");
        let ir_pending: IrPending = Arc::new(Mutex::new(HashMap::new()));
        let provider = ProxyProvider {
            proxy,
            ctx,
            signer,
            transfers: transfers.clone(),
            telemetry: telemetry.clone(),
            fetch_ns,
            ir_installs,
            ir_pending: ir_pending.clone(),
        };
        Self::assemble(
            Box::new(provider),
            enforcement,
            sid,
            audit,
            transfers,
            cost,
            telemetry,
            Some(ir_pending),
        )
    }

    /// Builds a client whose classes arrive over a live socket: the same
    /// wiring as `DvmClient::wire`, but the provider is a
    /// [`NetClassProvider`] talking to a `ProxyServer`. The provider has
    /// already verified signatures; a transfer hook feeds the same
    /// [`TransferRecord`] accounting the in-process path uses.
    pub fn wire_remote(
        mut provider: NetClassProvider,
        enforcement: Option<EnforcementManager>,
        sid: SecurityId,
        audit: Option<Box<dyn AuditSink>>,
        cost: CostModel,
    ) -> dvm_jvm::Result<DvmClient> {
        let transfers = Arc::new(Mutex::new(Vec::new()));
        let sink = transfers.clone();
        provider.set_transfer_hook(Box::new(move |t: &dvm_net::NetTransfer| {
            // The transfer manifest is per-class, like the in-process
            // provider's; IR-package fetches ride alongside and are
            // accounted by the `net.client.ir_*` counters instead.
            if t.url.starts_with(dvm_proxy::IR_SCHEME) {
                return;
            }
            let class = t.url.strip_prefix("class://").unwrap_or(&t.url).to_owned();
            sink.lock().push(TransferRecord {
                class,
                bytes: t.bytes,
                served_from: t.served_from,
            });
        }));
        let ir_pending: IrPending = Arc::new(Mutex::new(HashMap::new()));
        let ir_sink = ir_pending.clone();
        provider.set_ir_hook(Box::new(move |_name: &str, payload: &[u8]| {
            if let Ok(ir) = dvm_exec::decode(payload) {
                ir_sink.lock().insert(ir.class.clone(), ir);
            }
        }));
        let telemetry = provider.telemetry();
        Self::assemble(
            Box::new(provider),
            enforcement,
            sid,
            audit,
            transfers,
            cost,
            telemetry,
            Some(ir_pending),
        )
    }

    /// Builds a client over a shard cluster: the same wiring as
    /// [`DvmClient::wire_remote`], but the provider is a
    /// [`ClusterClassProvider`] that routes each fetch on the shared
    /// consistent-hash ring and fails over across shards.
    pub fn wire_cluster(
        mut provider: ClusterClassProvider,
        enforcement: Option<EnforcementManager>,
        sid: SecurityId,
        audit: Option<Box<dyn AuditSink>>,
        cost: CostModel,
    ) -> dvm_jvm::Result<DvmClient> {
        let transfers = Arc::new(Mutex::new(Vec::new()));
        let sink = transfers.clone();
        provider.set_transfer_hook(Box::new(move |t: &dvm_net::NetTransfer| {
            let class = t.url.strip_prefix("class://").unwrap_or(&t.url).to_owned();
            sink.lock().push(TransferRecord {
                class,
                bytes: t.bytes,
                served_from: t.served_from,
            });
        }));
        let telemetry = provider.telemetry();
        Self::assemble(
            Box::new(provider),
            enforcement,
            sid,
            audit,
            transfers,
            cost,
            telemetry,
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        provider: Box<dyn ClassProvider>,
        enforcement: Option<EnforcementManager>,
        sid: SecurityId,
        audit: Option<Box<dyn AuditSink>>,
        transfers: Arc<Mutex<Vec<TransferRecord>>>,
        cost: CostModel,
        telemetry: Arc<Telemetry>,
        ir_pending: Option<IrPending>,
    ) -> dvm_jvm::Result<DvmClient> {
        let profile = Arc::new(Mutex::new(ProfileCollector::new()));
        let services = ClientServices {
            enforcement,
            sid,
            audit,
            profile: profile.clone(),
        };
        let mut vm = Vm::with_services(provider, Box::new(services))?;
        if let Some(pending) = ir_pending {
            // The provider deposits fetched IR packages into this map
            // mid-load; adopting it lets the VM bind each package the
            // moment its class links.
            vm.exec.adopt_pending(pending);
        }
        Ok(DvmClient {
            vm,
            profile,
            transfers,
            cost,
            telemetry,
        })
    }

    /// This client's telemetry plane: its fetch latency histogram and
    /// the root spans of every trace it started (shared with the
    /// provider — a cluster client's failover counters live here too).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// Runs `main` of `class`, producing the timing report. Buffered
    /// audit events are delivered before it returns, whatever the outcome.
    pub fn run_main(&mut self, class: &str) -> dvm_jvm::Result<RunReport> {
        let cycles_before = self.vm.stats.cycles;
        let completion = self.vm.run_main(class);
        self.vm.services.flush();
        Ok(self.report(completion?, cycles_before))
    }

    /// Runs an arbitrary static method; flushes audit events like
    /// [`DvmClient::run_main`].
    pub fn run_static(
        &mut self,
        class: &str,
        method: &str,
        descriptor: &str,
        args: Vec<Value>,
    ) -> dvm_jvm::Result<RunReport> {
        let cycles_before = self.vm.stats.cycles;
        let completion = self.vm.run_static(class, method, descriptor, args);
        self.vm.services.flush();
        Ok(self.report(completion?, cycles_before))
    }

    /// Read access to the profile collected so far.
    pub fn profile(&self) -> Arc<Mutex<ProfileCollector>> {
        self.profile.clone()
    }

    fn report(&self, completion: Completion, cycles_before: u64) -> RunReport {
        let stats = &self.vm.stats;
        let exec_cycles = stats.cycles - cycles_before;
        let transfers = self.transfers.lock().clone();
        let mut network = SimTime::ZERO;
        let mut proxy = SimTime::ZERO;
        for t in &transfers {
            // Request plus response over the LAN.
            network += self.cost.lan.transfer_time(t.bytes as u64) + self.cost.lan.latency;
            proxy += match t.served_from {
                ServedFrom::Rewritten => self
                    .cost
                    .cpu
                    .time_for(t.bytes as u64 * self.cost.proxy_cycles_per_byte),
                ServedFrom::DiskCache => self.cost.cpu.time_for(self.cost.cache_disk_cycles),
                ServedFrom::MemoryCache => SimTime::from_micros(200),
                // Filled from a peer shard's cache: a disk-cache-grade
                // fetch plus one extra LAN hop between shards.
                ServedFrom::Peer => {
                    self.cost.cpu.time_for(self.cost.cache_disk_cycles) + self.cost.lan.latency
                }
            };
        }
        let exec_time = self.cost.cpu.time_for(exec_cycles);
        let exception = match &completion {
            Completion::Exception(e) => self.vm.exception_message(*e),
            Completion::Normal(_) => None,
        };
        RunReport {
            completion,
            instructions: stats.instructions,
            exec_time,
            network_time: network,
            proxy_time: proxy,
            total_time: exec_time + network + proxy,
            transfers,
            dynamic_verify_checks: stats.dynamic_verify_checks,
            dynamic_verify_time: self
                .cost
                .cpu
                .time_for(stats.dynamic_verify_checks * DYNAMIC_CHECK_CYCLES),
            security_checks: stats.security_checks,
            exception,
        }
    }
}
