//! `ChaosRunner`: M concurrent clients against a K-shard cluster, every
//! byte funneled through per-shard [`ChaosLink`]s, with the run's
//! outcome checked against a fault-free oracle and a set of named
//! invariants.
//!
//! The runner's contract is the paper's safety argument under hostile
//! networks: whatever the transport does — resets, stalls, corruption,
//! truncation — a client either receives the exact bytes the organization
//! proxy would serve on a perfect network, or a *typed* error. Nothing
//! in between. A failed invariant produces a [`Violation`] carrying
//! enough context to replay the run from its seed.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dvm_cluster::{ClusterClassProvider, ClusterClientConfig, ProxyCluster};
use dvm_monitor::{AuditSink, EventKind, SiteId};
use dvm_net::Hello;
use dvm_netsim::SimRng;
use dvm_proxy::{Proxy, RequestContext, ServedFrom, SignatureCheck, Signer};
use dvm_telemetry::MetricsSnapshot;

use crate::link::{ChaosLink, LinkStats};
use crate::schedule::ChaosSchedule;

/// Kill shard `shard` roughly `after` into the run.
#[derive(Debug, Clone, Copy)]
pub struct ShardKill {
    /// Shard id to kill.
    pub shard: usize,
    /// Delay from run start.
    pub after: Duration,
}

/// Everything a chaos run needs besides the cluster itself.
#[derive(Clone)]
pub struct RunnerConfig {
    /// Master seed: link fault placement, client URL orders, and (via
    /// the jitter seeds) client backoff all derive from it.
    pub seed: u64,
    /// Concurrent clients.
    pub clients: usize,
    /// Fetches each client performs.
    pub fetches_per_client: usize,
    /// The fault schedule every link runs (per-link streams are
    /// decorrelated by shard id).
    pub schedule: ChaosSchedule,
    /// Cluster-client tuning shared by every client.
    pub client_config: ClusterClientConfig,
    /// Signature verification key; `None` disables verification (used
    /// deliberately to prove the harness catches corrupt deliveries).
    pub signer: Option<Signer>,
    /// Identity template; each client gets `user = "<user><i>"`.
    pub hello: Hello,
    /// Scheduled shard kills.
    pub kills: Vec<ShardKill>,
    /// Whether clients stream audit events through their link.
    pub audit: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            seed: 0,
            clients: 4,
            fetches_per_client: 8,
            schedule: ChaosSchedule::default(),
            client_config: ClusterClientConfig::default(),
            signer: None,
            hello: Hello {
                user: "chaos".into(),
                principal: "applets".into(),
                ..Hello::default()
            },
            kills: Vec::new(),
            audit: true,
        }
    }
}

/// One failed invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant's stable name (e.g. `payload-matches-oracle`).
    pub invariant: &'static str,
    /// What was observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Master seed of the run.
    pub seed: u64,
    /// The schedule, in replayable grammar form.
    pub schedule: String,
    /// Client count.
    pub clients: usize,
    /// Shard count.
    pub shards: usize,
    /// Fetches attempted across all clients.
    pub fetches_attempted: u64,
    /// Fetches that delivered verified bytes.
    pub fetches_ok: u64,
    /// Fetches that failed with a typed error.
    pub fetches_failed: u64,
    /// Median successful-fetch latency in nanoseconds.
    pub fetch_p50_ns: u64,
    /// 99th-percentile successful-fetch latency in nanoseconds.
    pub fetch_p99_ns: u64,
    /// Per-link (== per-shard) interposer stats.
    pub link_stats: Vec<LinkStats>,
    /// Audit events the clients emitted / delivered / dropped.
    pub audit_emitted: u64,
    /// Audit events written to a socket.
    pub audit_sent: u64,
    /// Audit events abandoned after reconnect failure.
    pub audit_dropped: u64,
    /// Successful fetches the proxies satisfied by rewriting.
    pub serves_rewritten: u64,
    /// Successful fetches served from a shard's memory cache tier.
    pub serves_memory: u64,
    /// Successful fetches served from a shard's disk cache tier.
    pub serves_disk: u64,
    /// Successful fetches served via peer cache-fill.
    pub serves_peer: u64,
    /// Every invariant failure (empty on a clean run).
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total faults the links injected.
    pub fn faults_injected(&self) -> u64 {
        self.link_stats.iter().map(|s| s.faults_total()).sum()
    }

    /// The one line to paste into a replay: everything that determines
    /// fault placement.
    pub fn replay_line(&self) -> String {
        format!(
            "CHAOS REPLAY: seed={} schedule={:?} clients={} shards={}",
            self.seed, self.schedule, self.clients, self.shards
        )
    }

    /// A human summary; violations come with the replay line attached.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos run: {}/{} fetches ok ({} typed failures), {} faults injected, p50 {:.2}ms p99 {:.2}ms\n",
            self.fetches_ok,
            self.fetches_attempted,
            self.fetches_failed,
            self.faults_injected(),
            self.fetch_p50_ns as f64 / 1e6,
            self.fetch_p99_ns as f64 / 1e6,
        );
        out.push_str(&format!(
            "audit: {} emitted, {} sent, {} dropped\n",
            self.audit_emitted, self.audit_sent, self.audit_dropped
        ));
        out.push_str(&format!(
            "served: {} rewritten, {} memory, {} disk, {} peer\n",
            self.serves_rewritten, self.serves_memory, self.serves_disk, self.serves_peer
        ));
        if self.violations.is_empty() {
            out.push_str("all invariants held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION {v}\n"));
            }
            out.push_str(&self.replay_line());
            out.push('\n');
        }
        out
    }
}

/// What one client thread brings home.
struct ClientOutcome {
    ok: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    payload_mismatches: Vec<String>,
    audit_emitted: u64,
    audit_sent: u64,
    audit_dropped: u64,
    serves_rewritten: u64,
    serves_memory: u64,
    serves_disk: u64,
    serves_peer: u64,
    snapshot: MetricsSnapshot,
}

/// The fault-free reference: what the organization's proxy serves for
/// each URL on a perfect network, post-verification. Any payload a
/// client accepts during the chaos run must be byte-identical to this.
pub fn oracle_payloads(
    proxy: &Proxy,
    signer: &Option<Signer>,
    hello: &Hello,
    urls: &[String],
) -> Result<HashMap<String, Vec<u8>>, String> {
    let mut oracle = HashMap::new();
    for url in urls {
        let ctx = RequestContext {
            client: "chaos-oracle".into(),
            principal: hello.principal.clone(),
            url: url.clone(),
            trace: None,
        };
        let served = proxy
            .handle_request_detailed(url, &ctx)
            .map_err(|e| format!("oracle fetch of {url} failed: {e}"))?;
        let payload = match signer {
            Some(s) => match s.detach(&served.bytes) {
                (SignatureCheck::Valid, Some(p)) => p.to_vec(),
                other => return Err(format!("oracle signature on {url}: {:?}", other.0)),
            },
            None => served.bytes.to_vec(),
        };
        oracle.insert(url.clone(), payload);
    }
    Ok(oracle)
}

/// The outcome of a kill-then-restart scenario: one faulted run, a
/// simulated crash (servers die, stores are *not* flushed), a rebuild
/// over the same data directories, and one clean run that must be
/// served warm.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// The faulted first life.
    pub first: ChaosReport,
    /// The clean second life over the recovered stores.
    pub second: ChaosReport,
    /// Records the restarted shards recovered from their logs.
    pub recovered_records: u64,
    /// Restart-specific invariant failures (the per-phase reports carry
    /// their own).
    pub violations: Vec<Violation>,
}

impl RestartReport {
    /// True when both phases and every restart invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.first.ok() && self.second.ok()
    }

    /// A human summary of both lives and the restart verdict.
    pub fn render(&self) -> String {
        let mut out = String::from("--- first life (faulted) ---\n");
        out.push_str(&self.first.render());
        out.push_str(&format!(
            "--- restart: {} records recovered ---\n",
            self.recovered_records
        ));
        out.push_str("--- second life (clean, warm) ---\n");
        out.push_str(&self.second.render());
        if self.violations.is_empty() {
            out.push_str("restart invariants held\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION {v}\n"));
            }
        }
        out
    }
}

/// The harness. See the module docs; [`ChaosRunner::run`] is the whole
/// API for single-life runs, [`ChaosRunner::run_restart`] for
/// crash-recovery scenarios.
pub struct ChaosRunner;

/// A report for a run that never got off the ground.
fn empty_report(cfg: &RunnerConfig, shards: usize, violations: Vec<Violation>) -> ChaosReport {
    ChaosReport {
        seed: cfg.seed,
        schedule: cfg.schedule.to_string(),
        clients: cfg.clients,
        shards,
        fetches_attempted: 0,
        fetches_ok: 0,
        fetches_failed: 0,
        fetch_p50_ns: 0,
        fetch_p99_ns: 0,
        link_stats: Vec::new(),
        audit_emitted: 0,
        audit_sent: 0,
        audit_dropped: 0,
        serves_rewritten: 0,
        serves_memory: 0,
        serves_disk: 0,
        serves_peer: 0,
        violations,
    }
}

impl ChaosRunner {
    /// Runs `cfg.clients` concurrent clients fetching `urls` through
    /// per-shard [`ChaosLink`]s under `cfg.schedule`, applying scheduled
    /// shard kills, then checks every invariant and reports.
    pub fn run(cluster: &mut ProxyCluster, urls: &[String], cfg: &RunnerConfig) -> ChaosReport {
        Self::run_inner(cluster, urls, cfg, None)
    }

    /// A full chaos run, optionally against a pre-computed oracle. The
    /// restart scenario passes one in so the second life's proxies see
    /// no traffic besides the clients' — their rewrite counters then
    /// measure exactly what the warm-restart invariant asserts on.
    fn run_inner(
        cluster: &mut ProxyCluster,
        urls: &[String],
        cfg: &RunnerConfig,
        oracle_override: Option<&HashMap<String, Vec<u8>>>,
    ) -> ChaosReport {
        let shards = cluster.len();
        assert!(!urls.is_empty(), "a chaos run needs at least one URL");

        let mut violations: Vec<Violation> = Vec::new();

        // The oracle is computed before any fault can fire, straight off
        // shard 0's proxy (rewriting is deterministic and signing uses
        // the organization key, so every shard serves these exact bytes).
        let oracle_owned;
        let oracle: &HashMap<String, Vec<u8>> = match oracle_override {
            Some(o) => o,
            None => match oracle_payloads(cluster.proxy(0), &cfg.signer, &cfg.hello, urls) {
                Ok(o) => {
                    oracle_owned = o;
                    &oracle_owned
                }
                Err(e) => {
                    return empty_report(
                        cfg,
                        shards,
                        vec![Violation {
                            invariant: "oracle",
                            detail: e,
                        }],
                    )
                }
            },
        };

        // Hold every shard's telemetry plane now: the Arcs stay valid
        // after a kill, so conservation can still be checked for shards
        // that died mid-run.
        let shard_telemetry: Vec<_> = (0..shards)
            .map(|i| {
                cluster
                    .shard_telemetry(i)
                    .expect("all shards alive at start")
            })
            .collect();

        // One interposer per shard, each with a decorrelated seed.
        let mut links = Vec::with_capacity(shards);
        let mut link_addrs: Vec<SocketAddr> = Vec::with_capacity(shards);
        for (i, &upstream) in cluster.addrs().to_vec().iter().enumerate() {
            let link_seed = SimRng::derive(cfg.seed, 0x1000 + i as u64).next_u64();
            let link = ChaosLink::start(upstream, cfg.schedule.clone(), link_seed)
                .expect("bind chaos link");
            link_addrs.push(link.addr());
            links.push(link);
        }

        let ring = cluster.ring().clone();

        let mut outcomes: Vec<Option<ClientOutcome>> = Vec::with_capacity(cfg.clients);
        let mut panics: Vec<String> = Vec::new();

        std::thread::scope(|scope| {
            let killer = scope.spawn(move || {
                let start = Instant::now();
                let mut kills = cfg.kills.clone();
                kills.sort_by_key(|k| k.after);
                for kill in kills {
                    let elapsed = start.elapsed();
                    if kill.after > elapsed {
                        std::thread::sleep(kill.after - elapsed);
                    }
                    cluster.kill_shard(kill.shard);
                }
            });

            let handles: Vec<_> = (0..cfg.clients)
                .map(|c| {
                    let link_addrs = link_addrs.clone();
                    let ring = ring.clone();
                    scope.spawn(move || run_client(c, cfg, urls, oracle, link_addrs, ring, shards))
                })
                .collect();
            for (c, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(outcome) => outcomes.push(Some(outcome)),
                    Err(panic) => {
                        outcomes.push(None);
                        panics.push(format!("client {c} panicked: {}", panic_message(&panic)));
                    }
                }
            }
            let _ = killer.join();
        });

        // --- failures-are-typed -----------------------------------------
        // Every failure a client observes must be a typed error surfaced
        // through Result; a panic anywhere in the client stack under
        // network faults is itself the bug this harness exists to catch.
        for p in panics {
            violations.push(Violation {
                invariant: "failures-are-typed",
                detail: p,
            });
        }

        // --- payload-matches-oracle -------------------------------------
        for outcome in outcomes.iter().flatten() {
            for m in &outcome.payload_mismatches {
                violations.push(Violation {
                    invariant: "payload-matches-oracle",
                    detail: m.clone(),
                });
            }
        }

        // --- audit-conservation -----------------------------------------
        // Per client: every emitted event was either written to a socket
        // or counted as dropped, and the drop count is mirrored into the
        // client's telemetry plane. (In-flight loss after a successful
        // write is the server's side of the ledger: received ≤ sent.)
        let mut audit_emitted = 0u64;
        let mut audit_sent = 0u64;
        let mut audit_dropped = 0u64;
        for (c, outcome) in outcomes.iter().enumerate() {
            let Some(o) = outcome else { continue };
            audit_emitted += o.audit_emitted;
            audit_sent += o.audit_sent;
            audit_dropped += o.audit_dropped;
            if o.audit_emitted != o.audit_sent + o.audit_dropped {
                violations.push(Violation {
                    invariant: "audit-conservation",
                    detail: format!(
                        "client {c}: emitted {} != sent {} + dropped {}",
                        o.audit_emitted, o.audit_sent, o.audit_dropped
                    ),
                });
            }
            let counted = o.snapshot.counter("audit_dropped_total");
            if counted != o.audit_dropped {
                violations.push(Violation {
                    invariant: "audit-conservation",
                    detail: format!(
                        "client {c}: audit_dropped_total {} != dropped {}",
                        counted, o.audit_dropped
                    ),
                });
            }
        }

        // --- breaker-consistency ----------------------------------------
        // Per client: the breaker's transition counters must describe a
        // realizable history — a circuit still open was opened; every
        // opened-and-no-longer-open circuit left through half-open or a
        // direct close; never more circuits open than shards exist.
        for (c, outcome) in outcomes.iter().enumerate() {
            let Some(o) = outcome else { continue };
            let opened = o.snapshot.counter("cluster.breaker.opened");
            let half_open = o.snapshot.counter("cluster.breaker.half_open");
            let closed = o.snapshot.counter("cluster.breaker.closed");
            let open_now = o.snapshot.gauge("cluster.breaker.open_now");
            if open_now < 0 || open_now as u64 > shards as u64 {
                violations.push(Violation {
                    invariant: "breaker-consistency",
                    detail: format!("client {c}: open_now {open_now} outside [0, {shards}]"),
                });
            }
            let open_now = open_now.max(0) as u64;
            if open_now > opened {
                violations.push(Violation {
                    invariant: "breaker-consistency",
                    detail: format!("client {c}: open_now {open_now} > opened {opened}"),
                });
            }
            if opened - open_now > half_open + closed {
                violations.push(Violation {
                    invariant: "breaker-consistency",
                    detail: format!(
                        "client {c}: {} circuits left open state but only {} exits recorded",
                        opened - open_now,
                        half_open + closed
                    ),
                });
            }
        }

        // --- telemetry-conservation -------------------------------------
        // Per shard: every served request arrived in at least one frame,
        // whether the shard survived the run or was killed mid-way.
        let mut server_audit_received = 0u64;
        for (i, telemetry) in shard_telemetry.iter().enumerate() {
            let snap = telemetry.registry().snapshot();
            server_audit_received += snap.counter("net.server.audit_events");
            let frames_in = snap.counter("net.server.frames_in");
            let requests = snap.counter("net.server.requests");
            if frames_in < requests {
                violations.push(Violation {
                    invariant: "telemetry-conservation",
                    detail: format!(
                        "shard {i}: frames_in {frames_in} < requests served {requests}"
                    ),
                });
            }
            if frames_in > 0 && snap.counter("net.server.bytes_in") == 0 {
                violations.push(Violation {
                    invariant: "telemetry-conservation",
                    detail: format!("shard {i}: {frames_in} frames but zero bytes counted"),
                });
            }
        }
        if server_audit_received > audit_sent {
            violations.push(Violation {
                invariant: "audit-conservation",
                detail: format!(
                    "servers received {server_audit_received} audit events but clients only sent {audit_sent}"
                ),
            });
        }

        let link_stats: Vec<LinkStats> = links.into_iter().map(|l| l.shutdown()).collect();

        let mut latencies: Vec<u64> = outcomes
            .iter()
            .flatten()
            .flat_map(|o| o.latencies_ns.iter().copied())
            .collect();
        latencies.sort_unstable();
        let pct = |p: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
            latencies[idx]
        };

        let fetches_ok: u64 = outcomes.iter().flatten().map(|o| o.ok).sum();
        let fetches_failed: u64 = outcomes.iter().flatten().map(|o| o.failed).sum();

        ChaosReport {
            seed: cfg.seed,
            schedule: cfg.schedule.to_string(),
            clients: cfg.clients,
            shards,
            fetches_attempted: fetches_ok + fetches_failed,
            fetches_ok,
            fetches_failed,
            fetch_p50_ns: pct(0.50),
            fetch_p99_ns: pct(0.99),
            link_stats,
            audit_emitted,
            audit_sent,
            audit_dropped,
            serves_rewritten: outcomes.iter().flatten().map(|o| o.serves_rewritten).sum(),
            serves_memory: outcomes.iter().flatten().map(|o| o.serves_memory).sum(),
            serves_disk: outcomes.iter().flatten().map(|o| o.serves_disk).sum(),
            serves_peer: outcomes.iter().flatten().map(|o| o.serves_peer).sum(),
            violations,
        }
    }

    /// The kill-then-restart scenario. `make_cluster` must build a
    /// cluster over a *persistent* data directory and is called twice:
    /// once for the faulted first life, once — over the same
    /// directories — for the clean second life.
    ///
    /// Before any fault fires, every URL is served once in-process on
    /// its home shard, so each home shard's store durably holds the
    /// rewrite (the settle pass also yields the oracle both lives are
    /// checked against). The first life then runs under `cfg` — faults,
    /// kills and all — and "crashes": its servers are shut down and no
    /// store is flushed, so recovery sees exactly what the append path
    /// already made durable. The second life must prove two invariants:
    ///
    /// * `warm-restart-serves-without-re-rewrite` — the restarted
    ///   shards recovered records, at least one client fetch is served
    ///   from the disk tier, and **zero** rewrites happen cluster-wide.
    /// * `no-post-recovery-corruption` — every second-life fetch
    ///   succeeds byte-identical to the oracle, and no shard's store
    ///   reports a rejected disk load or a corrupt read.
    pub fn run_restart<F>(mut make_cluster: F, urls: &[String], cfg: &RunnerConfig) -> RestartReport
    where
        F: FnMut() -> ProxyCluster,
    {
        let mut first_cluster = make_cluster();
        let shards = first_cluster.len();
        let mut violations: Vec<Violation> = Vec::new();

        // Settle pass: deterministic persistence. Routing in-process via
        // the ring puts each rewrite in its home shard's store exactly
        // where ring-routed clients will look for it after the restart.
        let mut oracle: HashMap<String, Vec<u8>> = HashMap::new();
        for url in urls {
            let home = first_cluster.ring().home(url).unwrap_or(0) as usize;
            let ctx = RequestContext {
                client: "chaos-restart-settle".into(),
                principal: cfg.hello.principal.clone(),
                url: url.clone(),
                trace: None,
            };
            let served = match first_cluster.proxy(home).handle_request_detailed(url, &ctx) {
                Ok(s) => s,
                Err(e) => {
                    violations.push(Violation {
                        invariant: "restart-settle",
                        detail: format!("settle fetch of {url} on shard {home} failed: {e}"),
                    });
                    continue;
                }
            };
            let payload = match &cfg.signer {
                Some(s) => match s.detach(&served.bytes) {
                    (SignatureCheck::Valid, Some(p)) => p.to_vec(),
                    other => {
                        violations.push(Violation {
                            invariant: "restart-settle",
                            detail: format!("settle signature on {url}: {:?}", other.0),
                        });
                        continue;
                    }
                },
                None => served.bytes.to_vec(),
            };
            oracle.insert(url.clone(), payload);
        }
        if oracle.len() != urls.len() {
            let _ = first_cluster.shutdown();
            return RestartReport {
                first: empty_report(cfg, shards, Vec::new()),
                second: empty_report(cfg, shards, Vec::new()),
                recovered_records: 0,
                violations,
            };
        }

        let first = Self::run_inner(&mut first_cluster, urls, cfg, Some(&oracle));

        // The crash: servers die, stores are dropped *without* a flush.
        // Only what the append path already wrote to the logs survives
        // into the second life.
        let _ = first_cluster.shutdown();

        let mut second_cluster = make_cluster();
        let recovered_records: u64 = (0..second_cluster.len())
            .filter_map(|i| second_cluster.proxy(i).store_stats())
            .map(|s| s.recovered_records)
            .sum();

        // The second life is clean — no faults, no kills, a derived seed
        // so the clients walk different shuffles — and must be warm.
        let mut clean = cfg.clone();
        clean.seed = SimRng::derive(cfg.seed, 0x4000).next_u64();
        clean.schedule = ChaosSchedule::default();
        clean.kills.clear();
        let second = Self::run_inner(&mut second_cluster, urls, &clean, Some(&oracle));

        // --- warm-restart-serves-without-re-rewrite ---------------------
        if recovered_records == 0 {
            violations.push(Violation {
                invariant: "warm-restart-serves-without-re-rewrite",
                detail: "restarted shards recovered zero records — the restart was cold".into(),
            });
        }
        let rewrites: u64 = (0..second_cluster.len())
            .map(|i| second_cluster.proxy(i).stats().rewrites)
            .sum();
        if rewrites > 0 {
            violations.push(Violation {
                invariant: "warm-restart-serves-without-re-rewrite",
                detail: format!("second life re-rewrote {rewrites} classes"),
            });
        }
        if second.serves_disk == 0 {
            violations.push(Violation {
                invariant: "warm-restart-serves-without-re-rewrite",
                detail: "no second-life fetch was served from the disk tier".into(),
            });
        }

        // --- no-post-recovery-corruption --------------------------------
        if second.fetches_failed > 0 {
            violations.push(Violation {
                invariant: "no-post-recovery-corruption",
                detail: format!(
                    "{} second-life fetches failed on a fault-free network",
                    second.fetches_failed
                ),
            });
        }
        for v in &second.violations {
            if v.invariant == "payload-matches-oracle" {
                violations.push(Violation {
                    invariant: "no-post-recovery-corruption",
                    detail: format!("recovered payload diverged: {}", v.detail),
                });
            }
        }
        for i in 0..second_cluster.len() {
            let cache = second_cluster.proxy(i).cache_stats();
            if cache.disk_load_rejects > 0 {
                violations.push(Violation {
                    invariant: "no-post-recovery-corruption",
                    detail: format!(
                        "shard {i} rejected {} disk-tier loads after recovery",
                        cache.disk_load_rejects
                    ),
                });
            }
            if let Some(store) = second_cluster.proxy(i).store_stats() {
                if store.read_corruptions > 0 {
                    violations.push(Violation {
                        invariant: "no-post-recovery-corruption",
                        detail: format!(
                            "shard {i} hit {} corrupt store reads after recovery",
                            store.read_corruptions
                        ),
                    });
                }
            }
        }

        let _ = second_cluster.shutdown();

        RestartReport {
            first,
            second,
            recovered_records,
            violations,
        }
    }
}

/// One client's whole life: connect through the links, fetch a seeded
/// shuffle of the URL list, verify each payload against the oracle,
/// stream audit events, and account for everything.
fn run_client(
    c: usize,
    cfg: &RunnerConfig,
    urls: &[String],
    oracle: &HashMap<String, Vec<u8>>,
    link_addrs: Vec<SocketAddr>,
    ring: dvm_cluster::HashRing,
    shards: usize,
) -> ClientOutcome {
    let hello = Hello {
        user: format!("{}{c}", cfg.hello.user),
        ..cfg.hello.clone()
    };
    let mut provider = ClusterClassProvider::new(
        link_addrs.clone(),
        ring,
        hello.clone(),
        cfg.signer.clone(),
        cfg.client_config,
    );
    let telemetry = provider.telemetry();

    // The audit channel rides a link too (shard chosen round-robin), so
    // faults hit the fire-and-forget path as hard as the request path.
    let mut console = if cfg.audit {
        let mut net = cfg.client_config.net;
        net.jitter_seed = SimRng::derive(cfg.seed, 0x3000 + c as u64).next_u64();
        dvm_net::RemoteConsole::connect_on(link_addrs[c % shards], hello, net, telemetry.clone())
            .ok()
    } else {
        None
    };

    // Each client walks its own seeded shuffle of the URL list, so the
    // cluster sees interleaved, non-identical access patterns that are
    // still a pure function of the master seed.
    let mut order: Vec<usize> = (0..urls.len()).collect();
    let mut rng = SimRng::derive(cfg.seed, 0x2000 + c as u64);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }

    let mut outcome = ClientOutcome {
        ok: 0,
        failed: 0,
        latencies_ns: Vec::new(),
        payload_mismatches: Vec::new(),
        audit_emitted: 0,
        audit_sent: 0,
        audit_dropped: 0,
        serves_rewritten: 0,
        serves_memory: 0,
        serves_disk: 0,
        serves_peer: 0,
        snapshot: telemetry.registry().snapshot(),
    };

    for j in 0..cfg.fetches_per_client {
        let url = &urls[order[j % order.len()]];
        let started = Instant::now();
        match provider.fetch(url) {
            Ok((bytes, transfer)) => {
                outcome.ok += 1;
                match transfer.served_from {
                    ServedFrom::Rewritten => outcome.serves_rewritten += 1,
                    ServedFrom::MemoryCache => outcome.serves_memory += 1,
                    ServedFrom::DiskCache => outcome.serves_disk += 1,
                    ServedFrom::Peer => outcome.serves_peer += 1,
                }
                outcome
                    .latencies_ns
                    .push(started.elapsed().as_nanos() as u64);
                let expected = &oracle[url];
                if &bytes != expected {
                    outcome.payload_mismatches.push(format!(
                        "client {c} fetch {j} of {url}: {} bytes delivered, oracle has {} ({} bytes differ)",
                        bytes.len(),
                        expected.len(),
                        bytes
                            .iter()
                            .zip(expected.iter())
                            .filter(|(a, b)| a != b)
                            .count(),
                    ));
                }
                if let Some(con) = console.as_mut() {
                    con.record(SiteId(j as i32), EventKind::Event);
                    outcome.audit_emitted += 1;
                }
            }
            // Any Err here is by definition typed (it came through
            // Result); panics are caught at join instead.
            Err(_) => outcome.failed += 1,
        }
    }

    if let Some(mut con) = console.take() {
        // Closing writes the events still buffered, so only then are
        // the sent and dropped tallies final.
        con.close();
        outcome.audit_sent = con.sent();
        outcome.audit_dropped = con.dropped();
    }
    provider.close();
    outcome.snapshot = telemetry.registry().snapshot();
    outcome
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}
