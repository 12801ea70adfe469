//! Loopback end-to-end tests for the optimizing execution tier: a live
//! `ProxyServer` compiles rewritten classes to IR packages, clients
//! fetch them next to the classes over real sockets and execute on the
//! IR tier, repeat fetches serve cached IR with zero re-lowering, and
//! the compiled-IR disk tier survives a kill + warm restart.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dvm_repro::cluster::ClusterOptions;
use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::net::{Hello, NetClassProvider, NetConfig};
use dvm_repro::proxy::{ServedFrom, Signer};
use dvm_repro::security::Policy;
use dvm_repro::workload::{corpus, Applet};

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dvm-exec-loopback-{}-{}",
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

fn class_urls(applets: &[Applet]) -> Vec<String> {
    applets
        .iter()
        .flat_map(|a| a.classes.iter())
        .map(|c| format!("class://{}", c.name().unwrap()))
        .collect()
}

/// A full remote client executes applet code on the IR tier: the
/// proxy compiled the rewritten classes, the provider fetched the IR
/// packages next to them over the socket, and the VM dispatched
/// compiled methods.
#[test]
fn remote_client_executes_on_the_ir_tier() {
    let applets = small_applets(11, 2);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();

    let mut client = org
        .remote_client(server.addr(), "tiered", "applets")
        .unwrap();
    let report = client.run_main(&applets[0].main_class).unwrap();
    assert!(
        matches!(report.completion, dvm_repro::jvm::Completion::Normal(_)),
        "{:?}",
        report.completion
    );
    let stats = client.vm.exec.stats;
    assert!(
        stats.installed_classes > 0,
        "no IR packages arrived over the wire: {stats:?}"
    );
    assert!(
        stats.ir_invocations > 0,
        "nothing executed on the IR tier: {stats:?}"
    );
    assert!(org.proxy.stats().ir_compiles > 0);
    server.shutdown();
}

/// The cache path: a second client's fetches serve every class and
/// every IR package from the proxy cache — the compiler does zero
/// re-lowering, and the packages arrive byte-identical.
#[test]
fn second_fetch_serves_cached_ir_with_zero_relowering() {
    let applets = small_applets(23, 3);
    let urls = class_urls(&applets);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();

    // First life: every class is rewritten and compiled once.
    let mut first_ir = Vec::new();
    {
        let mut provider = NetClassProvider::new(
            server.addr(),
            hello("cold"),
            org_signer(),
            NetConfig::default(),
        )
        .unwrap();
        for url in &urls {
            let (_, transfer) = provider.fetch(url).unwrap();
            assert_eq!(transfer.served_from, ServedFrom::Rewritten);
            let key = transfer.ir_key.expect("class fetches carry an IR key");
            if let Ok((ir_bytes, _)) = provider.fetch(&key) {
                dvm_repro::exec::decode(&ir_bytes).expect("served IR decodes");
                first_ir.push((key, ir_bytes));
            }
        }
        provider.close();
    }
    let compiled = org.proxy.stats().ir_compiles;
    assert!(compiled > 0, "the proxy compiled nothing");
    assert_eq!(compiled, first_ir.len() as u64);
    let cold_served = org.proxy.stats().ir_served;

    // Second life: same fetches, warm proxy. Zero new compilations —
    // every IR package is a cache hit with the exact same bytes.
    {
        let mut provider = NetClassProvider::new(
            server.addr(),
            hello("warm"),
            org_signer(),
            NetConfig::default(),
        )
        .unwrap();
        for url in &urls {
            let (_, transfer) = provider.fetch(url).unwrap();
            assert_ne!(transfer.served_from, ServedFrom::Rewritten);
        }
        for (key, first) in &first_ir {
            let (ir_bytes, _) = provider.fetch(key).expect("warm IR fetch");
            assert_eq!(&ir_bytes, first, "{key}: cached IR diverged");
        }
        provider.close();
    }
    assert_eq!(
        org.proxy.stats().ir_compiles,
        compiled,
        "the warm pass re-lowered classes"
    );
    assert!(org.proxy.stats().ir_served > cold_served);
    server.shutdown();
}

/// The warm-restart acceptance: kill a persistent shard without
/// flushing, rebuild a brand-new organization over the same directory,
/// and fetch the IR packages again. They must arrive from the disk
/// tier, byte-identical, with zero re-lowering — compiled code
/// survives restarts exactly like rewritten classes do.
#[test]
fn compiled_ir_survives_a_shard_restart_on_the_disk_tier() {
    let dir = TempDir::new();
    let applets = small_applets(19, 2);
    let urls = class_urls(&applets);

    // Life 1: rewrite + compile everything once, remember the IR bytes.
    let mut first_ir = Vec::new();
    {
        let org = org_over(&applets);
        let cluster = org
            .serve_cluster_persistent(1, ClusterOptions::default(), &dir.0)
            .unwrap();
        let mut provider = NetClassProvider::new(
            cluster.addrs()[0],
            hello("life1"),
            org_signer(),
            NetConfig::default(),
        )
        .unwrap();
        for url in &urls {
            let (_, transfer) = provider.fetch(url).unwrap();
            let key = transfer.ir_key.expect("class fetches carry an IR key");
            if let Ok((ir_bytes, _)) = provider.fetch(&key) {
                first_ir.push((key, ir_bytes));
            }
        }
        assert!(!first_ir.is_empty(), "no IR packages were compiled");
        assert_eq!(cluster.proxy(0).stats().ir_compiles, first_ir.len() as u64);
        provider.close();
        // The "crash": no flush, no graceful anything.
        cluster.shutdown();
    }

    // Life 2: a brand-new organization over the same directory serves
    // the compiled IR from disk without lowering a single method.
    let org = org_over(&applets);
    let cluster = org
        .serve_cluster_persistent(1, ClusterOptions::default(), &dir.0)
        .unwrap();
    let mut provider = NetClassProvider::new(
        cluster.addrs()[0],
        hello("life2"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    for (key, first) in &first_ir {
        let (ir_bytes, transfer) = provider.fetch(key).unwrap();
        assert_eq!(
            transfer.served_from,
            ServedFrom::DiskCache,
            "{key} was not served from the recovered disk tier"
        );
        assert_eq!(&ir_bytes, first, "{key}: restart changed the package");
        dvm_repro::exec::decode(&ir_bytes).expect("recovered IR decodes");
    }
    assert_eq!(
        cluster.proxy(0).stats().ir_compiles,
        0,
        "the warm shard re-lowered classes"
    );
    assert_eq!(cluster.proxy(0).stats().rewrites, 0);
    provider.close();
    cluster.shutdown();
}
