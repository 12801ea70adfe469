//! End-to-end tests for the dvm-telemetry stats plane: a remote fetch
//! through a live shard cluster produces one distributed trace whose
//! spans cover client → shard → pipeline, and `stats://` reads pull a
//! mergeable per-shard picture of the whole fleet — including the
//! client-side circuit breaker opening after a shard is killed.

use std::time::Duration;

use dvm_repro::cluster::{
    collect_fleet_stats, ClusterClassProvider, ClusterClientConfig, HealthConfig,
};
use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::net::{Hello, NetConfig};
use dvm_repro::proxy::Signer;
use dvm_repro::security::Policy;
use dvm_repro::telemetry::{Span, SpanId};
use dvm_repro::workload::{corpus, Applet};

fn org_over(applets: &[Applet]) -> Organization {
    let classes: Vec<_> = applets
        .iter()
        .flat_map(|a| a.classes.iter().cloned())
        .collect();
    let mut services = ServiceConfig::dvm();
    services.signing = true;
    Organization::new(
        &classes,
        Policy::parse(dvm_repro::security::policy::example_policy()).unwrap(),
        services,
        CostModel::default(),
    )
    .unwrap()
}

fn hello(user: &str) -> Hello {
    Hello {
        user: user.to_owned(),
        principal: "applets".to_owned(),
        hardware: "x86/200MHz/64MB".to_owned(),
        native_format: "x86".to_owned(),
        jvm_version: "dvm-repro-0.1".to_owned(),
    }
}

fn small_applets(seed: u64, n: usize) -> Vec<Applet> {
    let mut applets = corpus(seed);
    applets.sort_by_key(|a| {
        a.classes
            .iter()
            .map(|c| c.clone().to_bytes().unwrap().len())
            .sum::<usize>()
    });
    applets.truncate(n);
    applets
}

fn fast_config() -> ClusterClientConfig {
    ClusterClientConfig {
        net: NetConfig {
            connect_timeout: Duration::from_millis(250),
            read_timeout: Duration::from_millis(2_000),
            write_timeout: Duration::from_millis(2_000),
            ..NetConfig::default()
        },
        health: HealthConfig {
            failure_threshold: 2,
            // Long enough that an opened breaker is still open when the
            // test inspects the gauge.
            quarantine: Duration::from_secs(30),
        },
        rounds: 3,
        round_backoff: Duration::from_millis(10),
        ..ClusterClientConfig::default()
    }
}

fn provider_for(cluster: &dvm_repro::cluster::ProxyCluster, user: &str) -> ClusterClassProvider {
    ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello(user),
        Some(Signer::new(b"dvm-org-key")),
        fast_config(),
    )
}

/// The tentpole acceptance scenario: one remote fetch through a 3-shard
/// cluster yields one trace whose spans — gathered from the client's own
/// recorder plus every shard's `stats://?spans=1` read — cover the client
/// fetch, the serving shard, the proxy, and its pipeline stages.
#[test]
fn one_remote_fetch_produces_a_full_cross_process_trace() {
    let applets = small_applets(19, 1);
    let org = org_over(&applets);
    let cluster = org.serve_cluster(3).unwrap();
    let mut provider = provider_for(&cluster, "tracer");

    let url = format!("class://{}", applets[0].main_class);
    let (bytes, _) = provider.fetch(&url).unwrap();
    assert!(!bytes.is_empty());

    // The client's recorder holds the trace root.
    let client_spans = provider.telemetry().recorder().dump();
    let root = client_spans
        .iter()
        .find(|s| s.name == "cluster.fetch")
        .expect("client recorded no root span");
    assert_eq!(root.parent, SpanId::NONE);
    let trace = root.trace;

    // Pull every shard's span window over the wire and keep this trace.
    let mut spans: Vec<Span> = client_spans
        .iter()
        .filter(|s| s.trace == trace)
        .cloned()
        .collect();
    for &addr in cluster.addrs() {
        let report = dvm_repro::net::fetch_stats(addr, NetConfig::default(), true).unwrap();
        assert!(report.node.starts_with("shard"), "node = {}", report.node);
        spans.extend(report.spans.into_iter().filter(|s| s.trace == trace));
    }

    assert!(
        spans.len() >= 5,
        "expected >= 5 spans, got {}: {:?}",
        spans.len(),
        spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    let has = |name: &str| spans.iter().any(|s| s.name == name);
    assert!(has("cluster.fetch"), "client span missing");
    assert!(has("shard.serve"), "shard span missing");
    assert!(has("proxy.handle"), "proxy span missing");
    let stages: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("stage."))
        .collect();
    assert!(!stages.is_empty(), "no pipeline stage spans");
    assert!(
        stages.iter().any(|s| s.duration_ns > 0),
        "every stage latency was zero: {stages:?}"
    );
    // Parenting holds across processes: every non-root span of the trace
    // points at another span of the trace.
    let ids: Vec<SpanId> = spans.iter().map(|s| s.id).collect();
    for s in spans.iter().filter(|s| s.parent != SpanId::NONE) {
        assert!(
            ids.contains(&s.parent),
            "span {} has a dangling parent",
            s.name
        );
    }
    cluster.shutdown();
}

/// The stats plane sees the whole fleet: per-shard reports merge into a
/// snapshot consistent with the workload, and after a shard is killed
/// the collector marks it unreachable while the client's circuit
/// breaker (visible in *its* report) opens.
#[test]
fn fleet_stats_merge_and_survive_a_shard_kill() {
    let applets = small_applets(31, 3);
    let org = org_over(&applets);
    let mut cluster = org.serve_cluster(3).unwrap();
    let mut provider = provider_for(&cluster, "fleet-user");

    let urls: Vec<String> = applets
        .iter()
        .flat_map(|a| a.classes.iter())
        .map(|c| format!("class://{}", c.name().unwrap()))
        .collect();
    for url in &urls {
        provider.fetch(url).unwrap();
    }

    let fleet = collect_fleet_stats(cluster.addrs(), NetConfig::default(), false);
    assert_eq!(fleet.reachable(), 3);
    // The merged snapshot accounts for the workload: every fetch hit
    // some shard's proxy (peer fills can only add on top).
    let served = fleet.merged.counters.get("proxy.requests").copied();
    assert!(
        served.unwrap_or(0) >= urls.len() as u64,
        "merged proxy.requests = {served:?}, expected >= {}",
        urls.len()
    );
    let frames_in = fleet.merged.counters.get("net.server.frames_in").copied();
    assert!(frames_in.unwrap_or(0) > 0, "no wire frames counted");
    // Per-shard attribution survives the merge path.
    let mut nodes: Vec<String> = fleet
        .shards
        .iter()
        .filter_map(|s| s.report.as_ref().map(|r| r.node.clone()))
        .collect();
    nodes.sort();
    assert_eq!(nodes, ["shard0", "shard1", "shard2"]);

    // Kill a shard, then hammer a URL homed on it until the client's
    // breaker opens.
    let dead = cluster.ring().home(&urls[0]).unwrap() as usize;
    cluster.kill_shard(dead).expect("shard was alive");
    for _ in 0..3 {
        // Failover keeps these succeeding; the dead home keeps failing.
        provider.fetch(&urls[0]).unwrap();
    }
    let client_report = provider.telemetry().report();
    let opened = client_report
        .metrics
        .counters
        .get("cluster.breaker.opened")
        .copied()
        .unwrap_or(0);
    assert!(opened >= 1, "breaker never opened: {client_report:?}");
    assert_eq!(
        client_report
            .metrics
            .gauges
            .get("cluster.breaker.open_now")
            .copied(),
        Some(1),
        "dead shard's circuit should still be open"
    );
    assert!(
        client_report
            .metrics
            .counters
            .get("cluster.failovers")
            .copied()
            .unwrap_or(0)
            >= 1
    );

    // The collector tolerates the dead shard and says which one it is.
    let fleet = collect_fleet_stats(
        cluster.addrs(),
        NetConfig {
            connect_timeout: Duration::from_millis(250),
            ..NetConfig::default()
        },
        false,
    );
    assert_eq!(fleet.reachable(), 2);
    let down = &fleet.shards[dead];
    assert!(!down.reachable());
    assert!(down.error.is_some());
    cluster.shutdown();
}
