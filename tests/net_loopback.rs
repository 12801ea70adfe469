//! Loopback end-to-end tests for dvm-net: real TCP sockets, concurrent
//! clients, signature verification, cache-tier reporting, fault
//! injection, and clean shutdown.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::net::{
    FaultPlan, Frame, Hello, NetClassProvider, NetConfig, NetError, ProxyServer, ServerConfig,
};
use dvm_repro::proxy::{CacheTier, ServedFrom, Signer};
use dvm_repro::security::Policy;
use dvm_repro::telemetry::{SpanId, TraceContext, TraceId};
use dvm_repro::workload::{corpus, Applet};

/// A signed, cached, fully-serviced organization over `applets`.
fn org_over(applets: &[Applet]) -> Organization {
    org_with(applets, true)
}

/// [`org_over`] with the proxy's rewrite cache on or off.
fn org_with(applets: &[Applet], caching: bool) -> Organization {
    let classes: Vec<_> = applets
        .iter()
        .flat_map(|a| a.classes.iter().cloned())
        .collect();
    let mut services = ServiceConfig::dvm();
    services.signing = true;
    services.caching = caching;
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

/// The acceptance scenario: at least eight concurrent `DvmClient`s fetch
/// and run applet-corpus code through a live `ProxyServer`, with zero
/// signature failures and audit events arriving at the console.
#[test]
fn eight_concurrent_remote_clients_run_corpus_applets() {
    let applets = small_applets(11, 4);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        for i in 0..8usize {
            let applet = &applets[i % applets.len()];
            let org = &org;
            scope.spawn(move || {
                let user = format!("user{i}");
                let mut client = org.remote_client(addr, &user, "applets").unwrap();
                let report = client.run_main(&applet.main_class).unwrap();
                assert!(
                    matches!(report.completion, dvm_repro::jvm::Completion::Normal(_)),
                    "client {i}: {:?}",
                    report.completion
                );
                assert!(!report.transfers.is_empty(), "client {i} fetched nothing");
                // A bad signature would have failed the class load outright,
                // so a normal completion certifies verification; the tiers
                // must still be sensible for a warm shared cache.
                for t in &report.transfers {
                    assert!(
                        matches!(
                            t.served_from,
                            ServedFrom::Rewritten | ServedFrom::MemoryCache
                        ),
                        "client {i} class {} came from {:?}",
                        t.class,
                        t.served_from
                    );
                }
            });
        }
    });

    // Each remote client opens a provider and an audit connection, and
    // every handshake creates a console session.
    assert_eq!(org.console.lock().session_count(), 16);

    // Audit events are fire-and-forget: give the server a moment to drain
    // what the clients wrote before they disconnected.
    let deadline = Instant::now() + Duration::from_secs(5);
    while org.console.lock().total_events() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        org.console.lock().total_events() > 0,
        "no audit events reached the console over the wire"
    );

    // More events may land until the server stops; compare the console
    // with the server's count only once nothing can arrive.
    let stats = server.shutdown();
    assert_eq!(stats.connections, 16);
    assert!(stats.requests > 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.audit_events, org.console.lock().total_events());
}

/// Tier reporting over the wire: the first fetch is rewritten, repeats
/// are served from the memory cache, and no signature ever fails.
#[test]
fn cache_tiers_and_signatures_are_reported_correctly() {
    let applets = small_applets(23, 2);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let url = format!("class://{}", applets[0].main_class);

    let mut first =
        NetClassProvider::new(addr, hello("alice"), org_signer(), NetConfig::default()).unwrap();
    let (bytes, transfer) = first.fetch(&url).unwrap();
    assert!(!bytes.is_empty());
    assert_eq!(transfer.served_from, ServedFrom::Rewritten);
    assert!(
        transfer.processing_ns > 0,
        "rewrite must charge simulated time"
    );

    let (_, again) = first.fetch(&url).unwrap();
    assert_eq!(again.served_from, ServedFrom::MemoryCache);
    assert_eq!(again.processing_ns, 0);

    let mut second =
        NetClassProvider::new(addr, hello("bob"), org_signer(), NetConfig::default()).unwrap();
    let (other_bytes, cross) = second.fetch(&url).unwrap();
    assert_eq!(cross.served_from, ServedFrom::MemoryCache);
    assert_eq!(
        other_bytes, bytes,
        "both clients must see identical verified payloads"
    );

    assert_eq!(first.stats().signature_failures, 0);
    assert_eq!(second.stats().signature_failures, 0);

    // A client verifying with the wrong key must reject the payload. An
    // integrity failure is retried on a fresh connection (the stream
    // cannot be trusted), so a *persistent* bad key exhausts the retry
    // budget — every attempt rejected, nothing ever delivered.
    let wrong_config = NetConfig {
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        ..NetConfig::default()
    };
    let mut wrong_key = NetClassProvider::new(
        addr,
        hello("mallory"),
        Some(Signer::new(b"not-the-org-key")),
        wrong_config,
    )
    .unwrap();
    match wrong_key.fetch(&url) {
        Err(NetError::Exhausted(inner)) => {
            assert!(matches!(*inner, NetError::BadSignature), "got {inner:?}")
        }
        other => panic!("expected exhausted BadSignature retries, got {other:?}"),
    }
    assert_eq!(
        wrong_key.stats().signature_failures,
        u64::from(wrong_config.max_attempts),
        "every attempt must have been verified and rejected"
    );

    // Typed error frames: an unknown URL is a remote NotFound, not a
    // transport failure.
    match first.fetch("class://no/Such") {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, dvm_repro::net::ErrorCode::NotFound)
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }

    server.shutdown();
}

/// Injected connection drops are recovered by the client's bounded
/// retry/backoff, transparently to the caller.
#[test]
fn injected_connection_drops_are_recovered_by_retry() {
    let applets = small_applets(37, 3);
    let org = org_over(&applets);
    let server = org
        .serve_with(
            "127.0.0.1:0",
            ServerConfig {
                fault: Some(FaultPlan::drop_every_nth(4)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
    let addr = server.addr();

    let cfg = NetConfig {
        max_attempts: 4,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(20),
        ..NetConfig::default()
    };
    let mut provider = NetClassProvider::new(addr, hello("carol"), org_signer(), cfg).unwrap();

    let mut names = Vec::new();
    for a in &applets {
        for c in &a.classes {
            names.push(c.name().unwrap().to_owned());
        }
    }
    for name in &names {
        provider
            .fetch(&format!("class://{name}"))
            .unwrap_or_else(|e| {
                panic!("fetch of {name} not recovered: {e}");
            });
    }

    let stats = provider.stats();
    assert_eq!(stats.requests, names.len() as u64);
    assert!(stats.retries > 0, "the fault plan never fired a retry");
    assert!(stats.reconnects > 1, "recovery must rebuild the connection");
    assert_eq!(stats.signature_failures, 0);

    let server_stats = server.shutdown();
    assert!(server_stats.faults_injected > 0);
}

/// Shutdown joins every connection thread — even with a client still
/// connected — and frees the port.
#[test]
fn shutdown_is_clean_with_live_connections() {
    let applets = small_applets(51, 1);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut provider =
        NetClassProvider::new(addr, hello("dave"), org_signer(), NetConfig::default()).unwrap();
    let url = format!("class://{}", applets[0].main_class);
    provider.fetch(&url).unwrap();

    // The provider stays connected across shutdown: the server must not
    // wait for the peer to hang up.
    let started = Instant::now();
    let stats = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown hung on a live connection"
    );
    assert!(stats.connections >= 1);

    // The listener is gone; a further fetch cannot reconnect.
    std::thread::sleep(Duration::from_millis(20));
    match provider.fetch(&url) {
        Err(_) => {}
        Ok(_) => panic!("fetch succeeded after shutdown"),
    }
}

/// The in-process and socket paths are the same machine: identical
/// completions and identical transfer manifests for the same applet.
#[test]
fn remote_client_matches_in_process_client() {
    let applets = small_applets(73, 1);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();

    let mut local = org.client("alice", "applets").unwrap();
    let local_report = local.run_main(&applets[0].main_class).unwrap();

    let mut remote = org.remote_client(server.addr(), "bob", "applets").unwrap();
    let remote_report = remote.run_main(&applets[0].main_class).unwrap();

    assert_eq!(
        format!("{:?}", local_report.completion),
        format!("{:?}", remote_report.completion)
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
    assert_eq!(manifest(&local_report), manifest(&remote_report));

    server.shutdown();
}

/// Completions the reactor's worker pool handed back to the loop: one
/// per deferred request, none for a request answered on the loop.
fn pool_hops(server: &ProxyServer) -> u64 {
    server
        .telemetry()
        .registry()
        .histogram("reactor.wakeup_ns")
        .count()
}

fn memory_hits(server: &ProxyServer) -> u64 {
    server
        .telemetry()
        .registry()
        .counter("proxy.cache.hit.memory")
        .get()
}

/// A memory-tier hit is answered on the loop thread: no pool hop, and
/// counted exactly once in both the proxy's and the server's books.
#[test]
fn memory_hits_are_served_inline_without_a_pool_hop() {
    let applets = small_applets(29, 1);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let url = format!("class://{}", applets[0].main_class);
    let mut client = NetClassProvider::new(
        server.addr(),
        hello("erin"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();

    let (first, miss) = client.fetch(&url).unwrap();
    assert_eq!(miss.served_from, ServedFrom::Rewritten);
    assert_eq!(pool_hops(&server), 1, "the miss runs on the pool");

    let (hops, hits, responses) = (
        pool_hops(&server),
        memory_hits(&server),
        server.stats().responses,
    );
    const N: u64 = 25;
    for _ in 0..N {
        let (bytes, hit) = client.fetch(&url).unwrap();
        assert_eq!(hit.served_from, ServedFrom::MemoryCache);
        assert_eq!(bytes, first, "an inline hit serves the verified bytes");
    }
    assert_eq!(pool_hops(&server), hops, "a memory hit woke the pool");
    assert_eq!(memory_hits(&server), hits + N);
    assert_eq!(server.stats().responses, responses + N);
    assert_eq!(client.stats().signature_failures, 0);
    server.shutdown();
}

/// Pipelined requests on one connection are answered in request order
/// even when an inline hit sits between two deferred misses.
#[test]
fn pipelined_miss_hit_miss_replies_in_request_order() {
    let applets = small_applets(31, 3);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let urls: Vec<String> = applets
        .iter()
        .map(|a| format!("class://{}", a.main_class))
        .collect();
    // Warm the middle url so it is a memory hit.
    let mut warm = NetClassProvider::new(
        server.addr(),
        hello("frank"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    warm.fetch(&urls[1]).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut burst = Vec::new();
    for (i, url) in urls.iter().enumerate() {
        Frame::CodeRequest {
            request_id: i as u32 + 1,
            session: 0,
            url: url.clone(),
            native_format: "x86".into(),
            trace: None,
        }
        .encode_into(&mut burst);
    }
    stream.write_all(&burst).unwrap();

    let expected = [
        ServedFrom::Rewritten,
        ServedFrom::MemoryCache,
        ServedFrom::Rewritten,
    ];
    for (i, want) in expected.into_iter().enumerate() {
        match Frame::read_from(&mut stream).unwrap() {
            Frame::CodeResponse {
                request_id,
                served_from,
                ..
            } => {
                assert_eq!(request_id, i as u32 + 1, "reply {i} out of order");
                assert_eq!(served_from, want, "reply {i}");
            }
            other => panic!("reply {i}: expected CODE_RESPONSE, got {other:?}"),
        }
    }
    server.shutdown();
}

/// What the loop cannot answer without waiting still goes to the pool:
/// every request of a proxy without a cache, and a disk-tier hit.
#[test]
fn uncached_and_disk_tier_requests_still_use_the_pool() {
    let applets = small_applets(37, 1);
    let url = format!("class://{}", applets[0].main_class);

    let org = org_with(&applets, false);
    let server = org.serve("127.0.0.1:0").unwrap();
    let mut client = NetClassProvider::new(
        server.addr(),
        hello("gina"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    for round in 1..=3 {
        let (_, t) = client.fetch(&url).unwrap();
        assert_eq!(t.served_from, ServedFrom::Rewritten);
        assert_eq!(
            pool_hops(&server),
            round,
            "caching off: every request deferred"
        );
    }
    server.shutdown();

    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let disk_url = "class://disk/Only";
    org.proxy
        .cache_fill(disk_url, b"disk-only bytes".to_vec(), CacheTier::Disk);
    let mut unsigned =
        NetClassProvider::new(server.addr(), hello("hank"), None, NetConfig::default()).unwrap();
    let (bytes, t) = unsigned.fetch(disk_url).unwrap();
    assert_eq!(t.served_from, ServedFrom::DiskCache);
    assert_eq!(bytes, b"disk-only bytes");
    assert_eq!(pool_hops(&server), 1, "a disk-tier hit is deferred");
    // The disk hit promoted the entry: the next request is inline.
    let (_, t) = unsigned.fetch(disk_url).unwrap();
    assert_eq!(t.served_from, ServedFrom::MemoryCache);
    assert_eq!(pool_hops(&server), 1);
    server.shutdown();
}

/// A traced inline hit records the same spans as a deferred one: the
/// server's "shard.serve" with the proxy's "proxy.handle" under it.
#[test]
fn traced_inline_hit_records_serve_and_handle_spans() {
    let applets = small_applets(41, 1);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let url = format!("class://{}", applets[0].main_class);
    let mut client = NetClassProvider::new(
        server.addr(),
        hello("iris"),
        org_signer(),
        NetConfig::default(),
    )
    .unwrap();
    client.fetch(&url).unwrap();
    let hops = pool_hops(&server);

    let trace = TraceContext {
        trace: TraceId::generate(),
        parent: SpanId::generate(),
    };
    let (_, t) = client.fetch_attempt_traced(&url, Some(trace)).unwrap();
    assert_eq!(t.served_from, ServedFrom::MemoryCache);
    assert_eq!(pool_hops(&server), hops, "the traced hit was not inline");

    let spans = server.telemetry().recorder().for_trace(trace.trace);
    let serve = spans
        .iter()
        .find(|s| s.name == "shard.serve")
        .expect("shard.serve span");
    assert_eq!(serve.parent, trace.parent);
    let handle = spans
        .iter()
        .find(|s| s.name == "proxy.handle")
        .expect("proxy.handle span");
    assert_eq!(
        handle.parent, serve.id,
        "proxy.handle parents under shard.serve"
    );
    server.shutdown();
}
