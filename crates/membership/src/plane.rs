//! The membership plane: orchestrating elastic scale over a cluster.
//!
//! [`ProxyCluster`] owns the *mechanics* of membership — binding
//! servers, remapping the ring, publishing epochs. This module owns the
//! *policy*: a join is not done until the new shard has pulled its key
//! range out of the old owners (so its first fetches hit warm cache),
//! a retirement drains the departing shard's keys into the survivors
//! before its server goes away (so nothing is re-rewritten that did not
//! have to be), and a shard that stops answering gossip probes is
//! suspected, confirmed dead, and retired without an operator.

use std::net::SocketAddr;
use std::sync::Arc;

use dvm_cluster::{HealthConfig, HealthTracker, ProxyCluster, RemapPlan};
use dvm_net::{Hello, NetConfig};
use dvm_proxy::Proxy;
use dvm_telemetry::{Counter, Gauge, JournalKind, Registry, Telemetry};

use crate::gossip::{GossipConfig, GossipEvent, Pinger, SwimDetector, TcpPinger};
use crate::migrate::{MigrationClient, MigrationConfig, MigrationError, MigrationReport};

/// Plane tuning.
#[derive(Debug, Clone, Copy)]
pub struct MembershipOptions {
    /// Transport knobs for migration pulls and gossip probes.
    pub net: NetConfig,
    /// Migration retry/backoff tuning.
    pub migration: MigrationConfig,
    /// Failure-detector tuning.
    pub gossip: GossipConfig,
    /// Seed for the deterministic probe schedule.
    pub gossip_seed: u64,
    /// Circuit-breaker tuning for the plane's health view.
    pub health: HealthConfig,
}

impl Default for MembershipOptions {
    fn default() -> Self {
        MembershipOptions {
            net: NetConfig::default(),
            migration: MigrationConfig::default(),
            gossip: GossipConfig::default(),
            gossip_seed: 0xD5A1_57E5,
            health: HealthConfig::default(),
        }
    }
}

/// What a join accomplished.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// The new shard's id.
    pub shard: u32,
    /// The minimal remap that gave it its key range.
    pub plan: RemapPlan,
    /// The migration pull, summed over every source shard.
    pub migration: MigrationReport,
    /// Source shards that could not be fully drained (their keys warm
    /// up lazily through re-rewrites instead).
    pub failed_sources: Vec<u32>,
}

/// What a retirement accomplished.
#[derive(Debug, Clone)]
pub struct RetireReport {
    /// The departed shard's id.
    pub shard: u32,
    /// The remap that re-homed its segments onto the survivors.
    pub plan: RemapPlan,
    /// The drain pull out of the departing shard (zeroed when it was
    /// already dead).
    pub drained: MigrationReport,
    /// False when the departing shard could not be drained (dead or
    /// unreachable) and retirement was committed anyway.
    pub drain_ok: bool,
}

dvm_telemetry::counters! {
    /// Registered handles behind [`MembershipStats`].
    struct MembershipCounters;
    /// The plane's lifetime counts, read from its telemetry node.
    pub struct MembershipStats {
        /// Shards joined.
        joins = "membership.joins",
        /// Shards retired.
        retires = "membership.retires",
        /// Shards restarted in place.
        restarts = "membership.restarts",
        /// Cache entries moved by migration (joins and drains).
        migrated_keys = "membership.migrated_keys",
        /// Value bytes moved by migration.
        migrated_bytes = "membership.migrated_bytes",
        /// Cut migration streams resumed from their cursor.
        migration_resumes = "membership.migration_resumes",
        /// Retirements committed without a drain (source dead).
        undrained_retires = "membership.undrained_retires",
        /// Gossip suspicions opened.
        suspects = "membership.gossip.suspects",
        /// Suspicions refuted by a live answer.
        refutes = "membership.gossip.refutes",
        /// Members declared dead by gossip.
        deaths = "membership.gossip.deaths",
    }
}

struct Metrics {
    counters: MembershipCounters,
    gossip_probes: Arc<Counter>,
    epoch: Arc<Gauge>,
    shards_live: Arc<Gauge>,
}

impl Metrics {
    fn register(r: &Registry) -> Metrics {
        Metrics {
            counters: MembershipCounters::register(r),
            gossip_probes: r.counter("membership.gossip.probes"),
            epoch: r.gauge("membership.epoch"),
            shards_live: r.gauge("membership.shards_live"),
        }
    }
}

/// A pinger that feeds every probe outcome into the plane's health
/// tracker, so the breaker view and the gossip view agree on what they
/// saw.
struct RecordingPinger<'a> {
    inner: TcpPinger,
    health: &'a mut HealthTracker,
    probes: u64,
}

impl Pinger for RecordingPinger<'_> {
    fn ping(&mut self, target: u32) -> bool {
        self.probes += 1;
        let up = self.inner.ping(target);
        if up {
            self.health.record_success(target);
        } else {
            self.health.record_failure(target);
        }
        up
    }

    fn ping_req(&mut self, via: u32, target: u32) -> bool {
        self.probes += 1;
        let up = self.inner.ping_req(via, target);
        if up {
            self.health.record_success(target);
        } else {
            self.health.record_failure(target);
        }
        up
    }
}

/// The membership plane over one cluster.
pub struct MembershipPlane {
    cluster: ProxyCluster,
    opts: MembershipOptions,
    detector: SwimDetector,
    health: HealthTracker,
    telemetry: Arc<Telemetry>,
    metrics: Metrics,
}

impl std::fmt::Debug for MembershipPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipPlane")
            .field("epoch", &self.cluster.ring().epoch())
            .field("shards", &self.cluster.ring().shards().len())
            .finish()
    }
}

impl MembershipPlane {
    /// Wraps a running cluster; every current ring member starts as an
    /// alive gossip member.
    pub fn new(cluster: ProxyCluster, opts: MembershipOptions) -> MembershipPlane {
        let telemetry = Arc::new(Telemetry::new("membership"));
        let metrics = Metrics::register(telemetry.registry());
        let mut detector = SwimDetector::new(opts.gossip_seed, opts.gossip);
        for &s in cluster.ring().shards() {
            detector.add_member(s);
        }
        let health = HealthTracker::new(opts.health, telemetry.clone());
        let plane = MembershipPlane {
            cluster,
            opts,
            detector,
            health,
            telemetry,
            metrics,
        };
        plane.publish_gauges();
        plane
    }

    fn publish_gauges(&self) {
        self.metrics.epoch.set(self.cluster.ring().epoch() as i64);
        self.metrics
            .shards_live
            .set(self.cluster.live_addrs().len() as i64);
    }

    /// The wrapped cluster (routing, stats, shard handles).
    pub fn cluster(&self) -> &ProxyCluster {
        &self.cluster
    }

    /// Mutable cluster access for operations the plane does not
    /// mediate (kills in chaos runs, shutdown).
    pub fn cluster_mut(&mut self) -> &mut ProxyCluster {
        &mut self.cluster
    }

    /// Consumes the plane, returning the cluster for shutdown.
    pub fn into_cluster(self) -> ProxyCluster {
        self.cluster
    }

    /// This plane's telemetry node (`membership.*`, `gossip` breaker
    /// gauges).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.telemetry.clone()
    }

    /// The counts on this plane's telemetry node.
    pub fn stats(&self) -> MembershipStats {
        self.metrics.counters.view()
    }

    /// The plane's breaker view of a shard (true = quarantined).
    pub fn is_quarantined(&self, shard: u32) -> bool {
        self.health.is_quarantined(shard)
    }

    fn migration_hello(shard: u32) -> Hello {
        Hello {
            user: format!("shard{shard}"),
            principal: "cluster-peer".into(),
            ..Hello::default()
        }
    }

    fn track(&mut self, m: &MigrationReport) {
        let c = &self.metrics.counters;
        c.migrated_keys.add(m.keys);
        c.migrated_bytes.add(m.bytes);
        c.migration_resumes.add(m.resumes);
    }

    /// Adds `proxy` as a new shard and warms it up: the ring assigns it
    /// a minimal key range at a new epoch, and the shard pulls that
    /// range out of each previous owner over the migration protocol
    /// before this call returns. A source that cannot be reached is
    /// recorded in the report and skipped — its keys warm up lazily.
    pub fn join(&mut self, proxy: Arc<Proxy>) -> std::io::Result<JoinReport> {
        let (shard, plan) = self.cluster.spawn_shard(proxy)?;
        self.telemetry
            .record_event(JournalKind::RingEpoch { epoch: plan.epoch });
        self.telemetry
            .record_event(JournalKind::MigrationBegun { shard });
        let target = self.cluster.proxy(shard as usize).clone();
        let live: Vec<(u32, SocketAddr)> = self.cluster.live_addrs();
        let mut migration = MigrationReport {
            complete: true,
            ..MigrationReport::default()
        };
        let mut failed_sources = Vec::new();
        for source in plan.sources() {
            let Some(&(_, addr)) = live.iter().find(|&&(s, _)| s == source) else {
                failed_sources.push(source);
                continue;
            };
            let mut puller =
                MigrationClient::new(addr, Self::migration_hello(shard), self.opts.migration);
            match puller.pull(shard, plan.epoch, |url, bytes| {
                target.migrate_ingest(url, bytes.to_vec());
            }) {
                Ok(m) => {
                    migration.keys += m.keys;
                    migration.bytes += m.bytes;
                    migration.resumes += m.resumes;
                    migration.complete &= m.complete;
                }
                Err(MigrationError::Refused(_)) | Err(MigrationError::Unreachable) => {
                    migration.complete = false;
                    failed_sources.push(source);
                }
            }
        }
        self.track(&migration);
        self.telemetry
            .record_event(JournalKind::MigrationCompleted {
                shard,
                entries: migration.keys,
            });
        self.detector.add_member(shard);
        self.metrics.counters.joins.inc();
        self.publish_gauges();
        Ok(JoinReport {
            shard,
            plan,
            migration,
            failed_sources,
        })
    }

    /// Retires `shard`: first drains every key it owns into the
    /// survivor that inherits it (per the retirement preview — the
    /// committed plan is identical), then commits the ring change and
    /// shuts the shard's server down. A dead or unreachable shard is
    /// retired without a drain; the survivors re-rewrite its keys on
    /// demand, bounded by the keys it owned.
    pub fn retire(&mut self, shard: u32) -> RetireReport {
        let mut preview = self.cluster.ring().clone();
        let plan = preview.retire_shard(shard);
        let mut drained = MigrationReport::default();
        let mut drain_ok = false;
        let is_member = self.cluster.ring().shards().contains(&shard);
        if is_member && self.cluster.is_alive(shard as usize) && !plan.is_empty() {
            // Pull *all* the departing shard's keys out of it (it is
            // still the published owner), landing each on the survivor
            // the post-retirement ring homes it on.
            let addr = self.cluster.addrs()[shard as usize];
            let epoch = self.cluster.ring().epoch();
            let survivors: Vec<(u32, Arc<Proxy>)> = plan
                .targets()
                .iter()
                .map(|&t| (t, self.cluster.proxy(t as usize).clone()))
                .collect();
            let mut puller =
                MigrationClient::new(addr, Self::migration_hello(shard), self.opts.migration);
            self.telemetry
                .record_event(JournalKind::MigrationBegun { shard });
            match puller.pull(shard, epoch, |url, bytes| {
                if let Some(home) = preview.home(url) {
                    if let Some((_, p)) = survivors.iter().find(|&&(s, _)| s == home) {
                        p.migrate_ingest(url, bytes.to_vec());
                    }
                }
            }) {
                Ok(m) => {
                    drain_ok = m.complete;
                    drained = m;
                }
                Err(_) => drain_ok = false,
            }
            self.telemetry
                .record_event(JournalKind::MigrationCompleted {
                    shard,
                    entries: drained.keys,
                });
        }
        self.track(&drained);
        let (plan, _) = self.cluster.retire_shard(shard as usize);
        if is_member {
            self.telemetry.record_event(JournalKind::RingEpoch {
                epoch: self.cluster.ring().epoch(),
            });
            self.detector.remove_member(shard);
            self.metrics.counters.retires.inc();
            if !drain_ok {
                self.metrics.counters.undrained_retires.inc();
            }
            self.publish_gauges();
        }
        RetireReport {
            shard,
            plan,
            drained,
            drain_ok,
        }
    }

    /// Restarts a killed shard in place (same ring ownership, new
    /// socket, bumped epoch) and re-admits it to gossip.
    pub fn restart(&mut self, shard: u32) -> std::io::Result<SocketAddr> {
        let addr = self.cluster.restart_shard(shard as usize)?;
        self.telemetry.record_event(JournalKind::RingEpoch {
            epoch: self.cluster.ring().epoch(),
        });
        self.detector.add_member(shard);
        self.metrics.counters.restarts.inc();
        self.publish_gauges();
        Ok(addr)
    }

    /// One gossip protocol period: probe the next member over TCP,
    /// escalate to indirect probes, expire suspicions. Probes target
    /// every *ring member's* last known address — including killed
    /// shards, which is exactly how their death is noticed. Every
    /// outcome also feeds the plane's health tracker.
    pub fn gossip_tick(&mut self) -> Vec<GossipEvent> {
        // Keep detector membership in lockstep with the ring.
        let members: Vec<u32> = self.cluster.ring().shards().to_vec();
        for &s in &members {
            if self.detector.state(s).is_none() {
                self.detector.add_member(s);
            }
        }
        let pairs: Vec<(u32, SocketAddr)> = members
            .iter()
            .map(|&s| (s, self.cluster.addrs()[s as usize]))
            .collect();
        let hello = Hello {
            user: "gossip".into(),
            principal: "cluster-peer".into(),
            ..Hello::default()
        };
        let mut pinger = RecordingPinger {
            inner: TcpPinger::new(&pairs, hello, self.opts.net),
            health: &mut self.health,
            probes: 0,
        };
        let events = self.detector.tick(&mut pinger);
        self.metrics.gossip_probes.add(pinger.probes);
        for e in &events {
            match e {
                GossipEvent::Suspect { .. } => {
                    self.metrics.counters.suspects.inc();
                }
                GossipEvent::Refute { .. } => {
                    self.metrics.counters.refutes.inc();
                }
                GossipEvent::Dead { .. } => {
                    self.metrics.counters.deaths.inc();
                }
            }
        }
        events
    }

    /// Members gossip has declared dead but the ring still carries.
    pub fn dead_members(&self) -> Vec<u32> {
        self.detector
            .dead_members()
            .into_iter()
            .filter(|s| self.cluster.ring().shards().contains(s))
            .collect()
    }

    /// Retires every gossip-confirmed-dead member (no drain is possible
    /// — they are dead), returning what was done. This is the
    /// "auto-propose ring removal" step; callers wanting manual
    /// approval read [`MembershipPlane::dead_members`] instead.
    pub fn retire_dead(&mut self) -> Vec<RetireReport> {
        self.dead_members()
            .into_iter()
            .map(|s| self.retire(s))
            .collect()
    }
}
