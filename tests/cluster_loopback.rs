//! End-to-end tests for dvm-cluster: real sockets, ring-routed fetches,
//! mid-run shard failure with client failover, typed-overload failover,
//! peer cache-fill over the wire, and a batched remote audit trail equal
//! to the in-process one.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use dvm_repro::cluster::{ClusterClientConfig, ClusterOptions, HashRing, HealthConfig};
use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::monitor::{EventKind, SessionId, SiteId};
use dvm_repro::net::{
    fetch_stats, FaultPlan, Hello, NetClassProvider, NetClientCounters, NetConfig, ServerConfig,
};
use dvm_repro::proxy::{ServedFrom, Signer};
use dvm_repro::security::Policy;
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

fn org_signer() -> Option<Signer> {
    Some(Signer::new(b"dvm-org-key"))
}

/// The smallest `n` corpus applets (cheap to execute in a debug build).
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

/// Fast-failing client tuning so a dead shard costs milliseconds, not
/// the default connect timeout.
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
            quarantine: Duration::from_millis(200),
        },
        rounds: 3,
        round_backoff: Duration::from_millis(10),
        ..ClusterClientConfig::default()
    }
}

/// The acceptance scenario: three shards serve a fleet of clients; one
/// shard is killed mid-run (on a barrier, so "mid" is deterministic) and
/// every client still completes every applet with verified signatures —
/// zero failed clients.
#[test]
fn killing_one_of_three_shards_mid_run_loses_no_client() {
    let applets = small_applets(11, 4);
    let org = org_over(&applets);
    let mut cluster = org
        .serve_cluster_with(
            3,
            ClusterOptions {
                seed: 7,
                // Transient drops on top of the hard kill: failover and
                // same-shard retry coexist.
                server: ServerConfig {
                    fault: Some(FaultPlan::drop_every_nth(17)),
                    ..ServerConfig::default()
                },
                ..ClusterOptions::default()
            },
        )
        .unwrap();

    const CLIENTS: usize = 4;
    // Clients run one applet, rendezvous, the main thread kills shard 1,
    // then they run the rest against the degraded cluster.
    let barrier = Barrier::new(CLIENTS + 1);
    let mut clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            org.cluster_client_with(&cluster, &format!("user{i}"), "applets", fast_config())
                .unwrap()
        })
        .collect();

    let dead = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(i, mut client)| {
                let applets = &applets;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut completions = Vec::new();
                    let first = client
                        .run_main(&applets[i % applets.len()].main_class)
                        .unwrap();
                    completions.push(first.completion);
                    barrier.wait();
                    for a in applets {
                        let report = client.run_main(&a.main_class).unwrap();
                        assert!(!report.transfers.is_empty(), "client {i} fetched nothing");
                        completions.push(report.completion);
                    }
                    completions
                })
            })
            .collect();

        barrier.wait();
        let dead = cluster.kill_shard(1).expect("shard 1 was alive");
        assert!(dead.requests > 0, "shard 1 never served before the kill");
        assert!(!cluster.is_alive(1));

        for (i, h) in handles.into_iter().enumerate() {
            let completions = h.join().unwrap_or_else(|_| panic!("client {i} panicked"));
            assert_eq!(completions.len(), 1 + applets.len());
            for c in completions {
                assert!(
                    matches!(c, dvm_repro::jvm::Completion::Normal(_)),
                    "client {i}: {c:?}"
                );
            }
        }
        dead
    });

    // Signing was on and every load verified (a bad signature fails the
    // class load, which would have failed run_main). The survivors did
    // real work after the kill.
    let s0 = cluster.shard_stats(0).unwrap();
    let s2 = cluster.shard_stats(2).unwrap();
    assert!(s0.requests + s2.requests > 0);

    // A brand-new client must also come up against the degraded cluster,
    // even when its preferred audit shard is the dead one.
    for user in ["late0", "late1", "late2"] {
        let mut late = org
            .cluster_client_with(&cluster, user, "applets", fast_config())
            .unwrap();
        let report = late.run_main(&applets[0].main_class).unwrap();
        assert!(matches!(
            report.completion,
            dvm_repro::jvm::Completion::Normal(_)
        ));
    }

    // A restarted shard's server reports into the plane its first life
    // used, so its stats count both lives.
    cluster.restart_shard(1).unwrap();
    let url = format!("class://{}", applets[0].classes[0].name().unwrap());
    let mut direct = NetClassProvider::new(
        cluster.addrs()[1],
        hello("after-restart"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    direct.fetch(&url).unwrap();
    direct.close();
    let both_lives = cluster.shard_stats(1).unwrap();
    assert!(both_lives.requests > dead.requests);
    let plane = cluster.shard_telemetry(1).unwrap().registry().snapshot();
    assert_eq!(both_lives.requests, plane.counter("net.server.requests"));
    cluster.shutdown();
}

/// A shard at its connection limit answers with a typed `Overloaded`
/// rejection, and the cluster client fails over to the next replica
/// instead of retrying the full backoff schedule against the busy shard.
#[test]
fn typed_overload_fails_over_to_the_next_shard() {
    let applets = small_applets(23, 2);
    let org = org_over(&applets);
    let cluster = org
        .serve_cluster_with(
            2,
            ClusterOptions {
                seed: 3,
                // One connection per shard, and no peer links competing
                // for it.
                server: ServerConfig {
                    max_connections: 1,
                    ..ServerConfig::default()
                },
                peer_fill: false,
                ..ClusterOptions::default()
            },
        )
        .unwrap();

    let url = format!("class://{}", applets[0].main_class);
    let home = cluster.ring().home(&url).unwrap();

    // A direct connection occupies the home shard's only slot.
    let mut squatter = NetClassProvider::new(
        cluster.addrs()[home as usize],
        hello("squatter"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    squatter.fetch(&url).unwrap(); // connected and idle, holding the permit

    let mut provider = dvm_repro::cluster::ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello("walker"),
        org_signer(),
        fast_config(),
    );
    let (bytes, transfer) = provider.fetch(&url).unwrap();
    assert!(!bytes.is_empty());
    // Served, but not by the home shard: the overload rejection moved
    // the fetch to the replica, which had to rewrite it itself.
    assert_eq!(transfer.served_from, ServedFrom::Rewritten);
    let stats = provider.stats();
    assert!(stats.failovers >= 1, "no failover recorded: {stats:?}");
    assert_eq!(stats.requests, 1);

    let home_stats = cluster.shard_stats(home as usize).unwrap();
    assert!(
        home_stats.overload_rejects >= 1,
        "home shard never rejected: {home_stats:?}"
    );
    cluster.shutdown();
}

/// Peer cache-fill over the wire: a shard that misses locally fetches
/// the home shard's cached rewrite (`PEER_GET`) and serves it as
/// `ServedFrom::Peer` without paying the rewrite; a shard that rewrites
/// a foreign class pushes it home (`PEER_PUT`), where it lands on the
/// disk tier.
#[test]
fn peer_cache_fill_crosses_the_wire_in_both_directions() {
    let applets = small_applets(37, 2);
    let org = org_over(&applets);
    let cluster = org
        .serve_cluster_with(
            2,
            ClusterOptions {
                seed: 5,
                ..ClusterOptions::default()
            },
        )
        .unwrap();

    let url = format!("class://{}", applets[0].main_class);
    let home = cluster.ring().home(&url).unwrap() as usize;
    let other = 1 - home;

    // Warm the home shard (a plain rewrite there).
    let mut at_home = NetClassProvider::new(
        cluster.addrs()[home],
        hello("warmer"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    let (home_bytes, t) = at_home.fetch(&url).unwrap();
    assert_eq!(t.served_from, ServedFrom::Rewritten);

    // Fetch the same URL at the *other* shard: local miss, PEER_GET hit.
    let mut at_other = NetClassProvider::new(
        cluster.addrs()[other],
        hello("strayed"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    let (peer_bytes, t) = at_other.fetch(&url).unwrap();
    assert_eq!(t.served_from, ServedFrom::Peer, "expected a peer fill");
    assert_eq!(t.processing_ns, 0, "a peer fill pays no rewrite");
    assert_eq!(peer_bytes, home_bytes, "peer fill changed the payload");
    assert_eq!(cluster.proxy(other).stats().peer_fills, 1);
    assert_eq!(cluster.proxy(other).stats().rewrites, 0);
    let home_server = cluster.shard_stats(home).unwrap();
    assert!(home_server.peer_gets >= 1 && home_server.peer_hits >= 1);
    // The asking shard's side of the probe is on its own plane.
    let asker = fetch_stats(cluster.addrs()[other], NetConfig::default(), false).unwrap();
    assert_eq!(asker.metrics.counter("cluster.peer.gets"), 1);
    assert_eq!(asker.metrics.counter("cluster.peer.hits"), 1);
    assert_eq!(asker.metrics.counter("cluster.peer.failures"), 0);

    // Now the reverse: a URL homed on the *other* shard, first fetched
    // at `home` — which rewrites it and offers it home with PEER_PUT.
    let foreign = applets[1]
        .classes
        .iter()
        .map(|c| format!("class://{}", c.name().unwrap()))
        .find(|u| cluster.ring().home(u).unwrap() as usize == other);
    if let Some(foreign_url) = foreign {
        let (bytes, t) = at_home.fetch(&foreign_url).unwrap();
        assert_eq!(t.served_from, ServedFrom::Rewritten);
        assert!(cluster.proxy(home).stats().peer_offers >= 1);
        // The offer landed on the other shard's disk tier: a client
        // asking there is served from cache, not rewritten.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while cluster.shard_stats(other).unwrap().peer_puts == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(cluster.shard_stats(other).unwrap().peer_puts >= 1);
        let offerer = fetch_stats(cluster.addrs()[home], NetConfig::default(), false).unwrap();
        assert!(offerer.metrics.counter("cluster.peer.puts") >= 1);
        let (offered, t) = at_other.fetch(&foreign_url).unwrap();
        assert_eq!(t.served_from, ServedFrom::DiskCache, "offer not cached");
        assert_eq!(offered, bytes);
        assert_eq!(cluster.proxy(other).stats().rewrites, 0);
    }
    cluster.shutdown();
}

/// A cluster client's per-shard connections count on its one plane:
/// after N fetches spread over three shards, `net.client.requests` is N
/// and the typed `NetClientStats` read from that plane agrees.
#[test]
fn per_shard_connections_count_on_the_cluster_clients_one_plane() {
    let applets = small_applets(41, 2);
    let org = org_over(&applets);
    let cluster = org.serve_cluster(3).unwrap();
    let urls: Vec<String> = applets
        .iter()
        .flat_map(|a| a.classes.iter())
        .map(|c| format!("class://{}", c.name().unwrap()))
        .collect();
    let mut provider = dvm_repro::cluster::ClusterClassProvider::new(
        cluster.addrs().to_vec(),
        cluster.ring().clone(),
        hello("counted"),
        org_signer(),
        ClusterClientConfig::default(),
    );
    let mut bytes = 0u64;
    for url in &urls {
        bytes += provider.fetch(url).unwrap().0.len() as u64;
    }
    let homes: std::collections::HashSet<u32> =
        urls.iter().filter_map(|u| cluster.ring().home(u)).collect();
    assert!(homes.len() >= 2, "the URLs should spread over shards");

    let plane = provider.telemetry();
    let snap = plane.registry().snapshot();
    let n = urls.len() as u64;
    assert_eq!(snap.counter("net.client.requests"), n);
    assert_eq!(snap.counter("net.client.reconnects"), homes.len() as u64);
    let stats = NetClientCounters::register(plane.registry()).view();
    assert_eq!(stats.requests, n);
    assert_eq!(stats.reconnects, homes.len() as u64);
    assert_eq!(stats.bytes_received, bytes);
    assert_eq!(stats.signature_failures, 0);
    assert_eq!(provider.stats().requests, n);
    provider.close();
    cluster.shutdown();
}

/// The cluster path is the same machine as the single-server path:
/// identical completions and transfer manifests for the same applet.
#[test]
fn cluster_client_matches_single_server_client() {
    let applets = small_applets(73, 1);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let cluster = org.serve_cluster(3).unwrap();

    let mut single = org
        .remote_client(server.addr(), "alice", "applets")
        .unwrap();
    let single_report = single.run_main(&applets[0].main_class).unwrap();

    let mut clustered = org.cluster_client(&cluster, "bob", "applets").unwrap();
    let cluster_report = clustered.run_main(&applets[0].main_class).unwrap();

    assert_eq!(
        format!("{:?}", single_report.completion),
        format!("{:?}", cluster_report.completion)
    );
    let manifest = |r: &dvm_repro::core::RunReport| {
        let mut v: Vec<(String, usize)> = r
            .transfers
            .iter()
            .map(|t| (t.class.clone(), t.bytes))
            .collect();
        v.sort();
        v
    };
    assert_eq!(manifest(&single_report), manifest(&cluster_report));

    // The client's ring replica and the cluster's agree on every class.
    let replica = HashRing::with_shards(3, cluster.ring().vnodes(), cluster.ring().seed());
    for t in &cluster_report.transfers {
        let url = format!("class://{}", t.class);
        assert_eq!(replica.home(&url), cluster.ring().home(&url));
    }

    server.shutdown();
    cluster.shutdown();
}

/// Batching changes how audit events travel, not which ones arrive: an
/// applet run in-process (`ConsoleSink`, one console call per event) and
/// through a cluster client (batched `RemoteConsole`) leaves the same
/// `(site, kind)` sequence in the organization's console, with exactly
/// the same count.
#[test]
fn batched_remote_audit_events_match_the_in_process_ones() {
    let applets = small_applets(73, 1);
    let org = org_over(&applets);
    let cluster = org.serve_cluster(3).unwrap();
    let main_class = &applets[0].main_class;

    // The first run's events leave mostly before class fetches; the
    // second run loads nothing, so its events leave by size, deadline,
    // or the end of the run.
    let mut local = org.client("in-process", "applets").unwrap();
    let mut remote = org.cluster_client(&cluster, "remote", "applets").unwrap();
    for _ in 0..2 {
        local.run_main(main_class).unwrap();
        remote.run_main(main_class).unwrap();
    }

    // Every session `user` opened (the remote client opens one per
    // connection; only its audit channel carries events): the exact
    // event count, and the retained `(site, kind)` sequence.
    let trail = |user: &str| {
        let console = org.console.lock();
        let sessions: Vec<SessionId> = (0..console.session_count() as u64)
            .map(SessionId)
            .filter(|&s| console.session(s).is_some_and(|d| d.user == user))
            .collect();
        let count: u64 = sessions.iter().map(|&s| console.session_events(s)).sum();
        let sequence: Vec<(SiteId, EventKind)> = console
            .log()
            .filter(|r| sessions.contains(&r.session))
            .map(|r| (r.site, r.kind))
            .collect();
        (count, sequence)
    };
    let (want, local_sequence) = trail("in-process");
    assert!(want > 0, "the applet produced no audit events");
    assert_eq!(local_sequence.len() as u64, want, "trail outgrew retention");

    // run_main flushed before returning; the shard may still be
    // ingesting the last batch.
    let deadline = Instant::now() + Duration::from_secs(10);
    while trail("remote").0 < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let (got, remote_sequence) = trail("remote");
    assert_eq!(got, want, "remote audit count");
    assert_eq!(remote_sequence, local_sequence);
    cluster.shutdown();
}
