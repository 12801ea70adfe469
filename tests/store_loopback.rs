//! End-to-end warm-restart acceptance over real sockets: a proxy backed
//! by `dvm-store` is killed, rebuilt from scratch over the same data
//! directory — by a *new* `Organization` instance, so nothing can ride
//! along in memory — and must serve the previously rewritten classes
//! from the disk tier, byte-identical, with **zero** re-rewrites.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dvm_repro::cluster::ClusterOptions;
use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::net::{fetch_stats, Hello, NetClassProvider, NetConfig};
use dvm_repro::proxy::md5::md5;
use dvm_repro::proxy::{ServedFrom, Signer};
use dvm_repro::security::Policy;
use dvm_repro::store::{Store, StoreConfig};
use dvm_repro::workload::{corpus, Applet};

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dvm-store-loopback-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
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

/// A fresh `Organization` over `applets` — called once per "process
/// life" so the second life shares no memory with the first.
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

/// A signed-fetch client of the shard at `addr`.
fn client_of(addr: SocketAddr, user: &str) -> NetClassProvider {
    NetClassProvider::new(
        addr,
        hello(user),
        Some(Signer::new(b"dvm-org-key")),
        NetConfig::default(),
    )
    .unwrap()
}

fn class_urls(applets: &[Applet]) -> Vec<String> {
    applets
        .iter()
        .flat_map(|a| a.classes.iter())
        .map(|c| format!("class://{}", c.name().unwrap()))
        .collect()
}

/// A restarted shard's store is on its plane from birth: the very first
/// `stats://` read of the second life already carries the recovery —
/// `store.recovered_records`, the live-record gauge and the
/// `store.open` span — before any request has reached the proxy.
#[test]
fn first_stats_read_after_a_restart_shows_the_recovery() {
    let dir = TempDir::new();
    let applets = small_applets(23, 2);
    let urls = class_urls(&applets);
    {
        let org = org_over(&applets);
        let cluster = org
            .serve_cluster_persistent(1, ClusterOptions::default(), &dir.0)
            .unwrap();
        let mut provider = client_of(cluster.addrs()[0], "life1");
        for url in &urls {
            provider.fetch(url).unwrap();
        }
        provider.close();
        cluster.shutdown();
    }

    let org = org_over(&applets);
    let cluster = org
        .serve_cluster_persistent(1, ClusterOptions::default(), &dir.0)
        .unwrap();
    let report = fetch_stats(cluster.addrs()[0], NetConfig::default(), true).unwrap();
    let n = urls.len() as u64;
    assert!(report.metrics.counter("store.recovered_records") >= n);
    assert!(report.metrics.gauge("store.live_records") >= n as i64);
    assert_eq!(report.metrics.counter("proxy.requests"), 0);
    assert!(
        report.spans.iter().any(|s| s.name == "store.open"),
        "no store.open span on the shard's plane"
    );
    let view = cluster.proxy(0).store_stats().unwrap();
    assert_eq!(
        view.recovered_records,
        report.metrics.counter("store.recovered_records")
    );
    cluster.shutdown();
}

/// The tentpole acceptance: fill a persistent single-shard proxy over
/// TCP, kill it without flushing, rebuild everything from scratch over
/// the same directory, and fetch again. Every class must arrive from
/// the disk tier with the exact bytes (and therefore the exact MD5) of
/// the first life, and the rewrite counter must stay at zero.
#[test]
fn restarted_shard_serves_rewrites_from_disk_with_zero_rewrites() {
    let dir = TempDir::new();
    let applets = small_applets(19, 3);
    let urls = class_urls(&applets);

    // Life 1: rewrite everything once, remember the delivered payloads.
    let mut first_payloads = Vec::new();
    {
        let org = org_over(&applets);
        let cluster = org
            .serve_cluster_persistent(1, ClusterOptions::default(), &dir.0)
            .unwrap();
        let mut provider = client_of(cluster.addrs()[0], "life1");
        for url in &urls {
            let (bytes, transfer) = provider.fetch(url).unwrap();
            assert_eq!(transfer.served_from, ServedFrom::Rewritten);
            first_payloads.push(bytes);
        }
        assert_eq!(cluster.proxy(0).stats().rewrites, urls.len() as u64);
        provider.close();
        // The "crash": no flush_store, no graceful anything — whatever
        // the append path already wrote is all the next life gets.
        cluster.shutdown();
    }

    // Life 2: a brand-new organization over the same directory.
    let org = org_over(&applets);
    let cluster = org
        .serve_cluster_persistent(1, ClusterOptions::default(), &dir.0)
        .unwrap();
    let stats = cluster.proxy(0).store_stats().expect("persistent shard");
    assert!(
        stats.recovered_records >= urls.len() as u64,
        "recovery found {} records for {} classes",
        stats.recovered_records,
        urls.len()
    );

    let mut provider = client_of(cluster.addrs()[0], "life2");
    for (url, first) in urls.iter().zip(&first_payloads) {
        let (bytes, transfer) = provider.fetch(url).unwrap();
        assert_eq!(
            transfer.served_from,
            ServedFrom::DiskCache,
            "{url} was not served from the recovered disk tier"
        );
        assert_eq!(&bytes, first, "{url}: restart changed the payload");
        assert_eq!(
            md5(&bytes),
            md5(first),
            "{url}: MD5 diverged across the restart"
        );
    }
    assert_eq!(
        cluster.proxy(0).stats().rewrites,
        0,
        "the warm shard re-rewrote classes"
    );
    assert_eq!(cluster.proxy(0).cache_stats().disk_load_rejects, 0);
    provider.close();
    cluster.shutdown();
}

/// A persistent entry whose bytes no longer match their digest is
/// rejected and re-rewritten, and the rejection is visible to anyone
/// who pulls the shard's stats over the wire.
#[test]
fn a_corrupt_disk_entry_is_rejected_and_counted_on_the_stats_plane() {
    let dir = TempDir::new();
    let applets = small_applets(19, 1);
    let url = class_urls(&applets).remove(0);
    // The store's own checksum covers what was written, so only the
    // cache's digest check can tell this entry is wrong.
    let mut store = Store::open(dir.0.join("shard0"), StoreConfig::default()).unwrap();
    store
        .put(&url, &[[0; 16].as_slice(), b"stale"].concat())
        .unwrap();
    store.flush().unwrap();
    drop(store);

    let org = org_over(&applets);
    let cluster = org
        .serve_cluster_persistent(1, ClusterOptions::default(), &dir.0)
        .unwrap();
    let (_, transfer) = client_of(cluster.addrs()[0], "corrupt")
        .fetch(&url)
        .unwrap();
    assert_eq!(transfer.served_from, ServedFrom::Rewritten);
    let report = fetch_stats(cluster.addrs()[0], NetConfig::default(), false).unwrap();
    assert_eq!(report.metrics.counter("proxy.cache.disk_load_rejects"), 1);
    cluster.shutdown();
}

/// Peer cache-fill offers land durably: a class rewritten by a non-home
/// shard is offered to its home shard, whose *store* must hold it — so
/// after a full cluster restart the home shard serves it from disk
/// without ever having rewritten it itself.
#[test]
fn peer_offers_survive_a_cluster_restart_on_the_home_shard() {
    let dir = TempDir::new();
    let applets = small_applets(43, 3);
    let urls = class_urls(&applets);
    let opts = || ClusterOptions {
        seed: 9,
        ..ClusterOptions::default()
    };

    // Life 1: find a URL whose home is shard 0, fetch it *through shard
    // 1* so shard 1 rewrites and offers the result to shard 0.
    let (url, first_bytes) = {
        let org = org_over(&applets);
        let cluster = org.serve_cluster_persistent(2, opts(), &dir.0).unwrap();
        let url = urls
            .iter()
            .find(|u| cluster.ring().home(u) == Some(0))
            .expect("some URL homes at shard 0")
            .clone();
        let mut provider = client_of(cluster.addrs()[1], "via-peer");
        let (bytes, _) = provider.fetch(&url).unwrap();
        provider.close();
        assert_eq!(
            cluster.proxy(0).stats().rewrites,
            0,
            "the home shard must not have rewritten anything itself"
        );
        // The offer is pushed over a real socket; give the home shard a
        // moment to land it in its store before the "crash".
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while cluster.proxy(0).store_stats().map_or(0, |s| s.appends) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "peer offer never landed in the home shard's store"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        cluster.shutdown();
        (url, bytes)
    };

    // Life 2: the home shard alone must serve the peer-offered rewrite
    // from its recovered store.
    let org = org_over(&applets);
    let cluster = org.serve_cluster_persistent(2, opts(), &dir.0).unwrap();
    let mut provider = client_of(cluster.addrs()[0], "home-direct");
    let (bytes, transfer) = provider.fetch(&url).unwrap();
    assert_eq!(
        transfer.served_from,
        ServedFrom::DiskCache,
        "the home shard did not recover the peer offer"
    );
    assert_eq!(
        bytes, first_bytes,
        "peer-offered payload changed across restart"
    );
    assert_eq!(cluster.proxy(0).stats().rewrites, 0);
    provider.close();
    cluster.shutdown();
}
