//! The layer replay: a seeded sample of the run's class URLs is taken
//! back through every layer's public function, in request-path order
//! and on the real inputs, with one child span per call. The program
//! is not instrumented; every timing here is taken from outside.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dvm_classfile::ClassFile;
use dvm_compiler::ExecCompiler;
use dvm_core::filters::{AuditFilter, SecurityFilter, VerifierFilter};
use dvm_core::{CostModel, Organization, ServiceConfig, StaticServiceStats};
use dvm_monitor::SiteTable;
use dvm_net::{Frame, FrameAssembler, NetClassProvider, NetConfig};
use dvm_proxy::{md5, CacheTier, Filter, RequestContext, ServedFrom, SignatureCheck};
use dvm_security::SecurityId;
use dvm_store::{Store, StoreConfig};
use dvm_verifier::{MapEnvironment, StaticVerifier};

use crate::corpus::Corpus;
use crate::site::{hello, policy, services, signer, DataDir, Site};
use crate::spec::Workload;
use crate::stats::{median, Rng};
use crate::trace::Tracer;

/// Classes replayed per traced run. Each costs about two rewrites, so
/// this is what fits the traced run's share of `--seconds`.
const REPLAY_OPS: usize = 600;

/// Per-layer values the replay measured, by metric name.
#[derive(Debug, Default)]
pub struct Replayed(BTreeMap<&'static str, f64>);

impl Replayed {
    /// Panics on a name the replay never set: a typo must not read as 0.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("the replay measured nothing named {name}"))
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Microsecond samples per span name, for the medians.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Records `start..end` as a child span of `parent` and keeps the
    /// sample.
    fn record(
        &mut self,
        tracer: &mut Tracer,
        (op, parent): (u64, Option<u32>),
        name: &'static str,
        (start, end): (Instant, Instant),
    ) {
        tracer.record(op, parent, name, start, end);
        self.0
            .entry(name)
            .or_default()
            .push((end - start).as_nanos() as f64 / 1e3);
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(
        &mut self,
        tracer: &mut Tracer,
        at: (u64, Option<u32>),
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(tracer, at, name, (start, Instant::now()));
        out
    }

    fn median_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    fn total_us(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

fn context(url: &str) -> RequestContext {
    RequestContext {
        client: "replay".to_owned(),
        principal: "applets".to_owned(),
        url: url.to_owned(),
        trace: None,
    }
}

/// Replays a sample of `urls` (class URLs resident in `site`) through
/// every layer and returns the per-layer values.
pub fn replay(
    workload: Workload,
    corpus: &Corpus,
    site: &Site,
    urls: &[String],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let mut sample = urls.to_vec();
    sample.sort();
    Rng::new(seed ^ 0x5EED_0F7E_91A7).shuffle(&mut sample);
    sample.truncate(REPLAY_OPS);
    let mut out = Replayed::default();
    let mut t = Samples::default();
    // What the harness itself adds to an op of the traced rounds: the
    // in-loop fingerprint of the reply.
    let checks: Vec<f64> = (tracer.spans().iter())
        .filter(|s| s.name == "harness.check")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    t.0.insert("harness.check", checks);
    let payloads = stages(corpus, &sample, tracer, &mut t, &mut out);
    proxy_in_process(workload, corpus, &payloads, tracer, &mut t)?;
    over_the_wire(site, &sample, tracer, &mut t)?;
    if workload == Workload::DiskChurn {
        store(&payloads, tracer, &mut t)?;
    }
    jvm_tiers(corpus, &mut out)?;

    for (metric, span) in [
        ("classfile.parse_us", "classfile.parse"),
        ("verifier.verify_us", "verifier.verify"),
        ("security.rewrite_us", "security.rewrite"),
        ("monitor.audit_us", "monitor.audit"),
        ("classfile.write_us", "classfile.write"),
        ("compiler.produce_us", "compiler.produce"),
        ("exec.compile_us", "exec.compile"),
        ("exec.encode_us", "exec.encode"),
        ("exec.decode_us", "exec.decode"),
        ("proxy.sign_us", "proxy.sign"),
        ("proxy.verify_sig_us", "proxy.verify_sig"),
        ("proxy.handle_miss_us", "proxy.handle_miss"),
        ("proxy.handle_hit_us", "proxy.handle_hit"),
        ("proxy.handle_disk_us", "proxy.handle_disk"),
        ("net.encode_us", "net.encode"),
        ("net.decode_us", "net.decode"),
        ("net.roundtrip_us", "net.roundtrip"),
        ("cluster.fetch_us", "cluster.fetch"),
        ("store.put_us", "store.put"),
        ("store.get_us", "store.get"),
        ("harness.check_us", "harness.check"),
    ] {
        out.set(metric, t.median_us(span));
    }
    out.set("cluster.route_ns", t.median_us("cluster.route") * 1e3);
    // Σ of the stages `Proxy::serve` runs on a miss ÷ the miss itself.
    let stage_sum: f64 = [
        "classfile.parse",
        "verifier.verify",
        "security.rewrite",
        "monitor.audit",
        "classfile.write",
        "proxy.md5",
        "compiler.produce",
        "proxy.sign",
    ]
    .iter()
    .map(|s| t.median_us(s))
    .sum();
    out.set(
        "proxy.accounted_ratio",
        stage_sum / t.median_us("proxy.handle_miss").max(f64::MIN_POSITIVE),
    );
    Ok(out)
}

/// The rewrite pipeline and the wire, stage by stage, as `Proxy::serve`
/// and the client run them. Returns the signed payloads (the store
/// replay writes them back out).
fn stages(
    corpus: &Corpus,
    sample: &[String],
    tracer: &mut Tracer,
    t: &mut Samples,
    out: &mut Replayed,
) -> Vec<(String, Vec<u8>)> {
    let stats = Arc::new(Mutex::new(StaticServiceStats::default()));
    let sites = Arc::new(Mutex::new(SiteTable::new()));
    let verifier = VerifierFilter::new(
        StaticVerifier::new(MapEnvironment::with_bootstrap()),
        stats.clone(),
    );
    let security =
        SecurityFilter::new(Arc::new(Mutex::new(policy())), SecurityId(1), stats.clone());
    let audit = AuditFilter::new(sites.clone(), stats);
    let mut compiler = ExecCompiler::new();
    let signer = signer();
    let mut assembler = FrameAssembler::new();
    let (mut class_bytes, mut rewritten_bytes, mut ir_bytes) = (0usize, 0usize, 0usize);
    let mut payloads = Vec::with_capacity(sample.len());

    for (i, url) in sample.iter().enumerate() {
        let op = 1 << 48 | i as u64;
        let ctx = context(url);
        let original = corpus.original(url);
        let root = tracer.begin(op, None, "replay.op");
        let at = (op, Some(root));
        let cf = t.time(tracer, at, "classfile.parse", || {
            ClassFile::parse(&original).expect("corpus classes parse")
        });
        let cf = t.time(tracer, at, "verifier.verify", || {
            verifier.apply(cf, &ctx).expect("corpus classes verify")
        });
        let cf = t.time(tracer, at, "security.rewrite", || {
            security.apply(cf, &ctx).expect("security filter applies")
        });
        let mut cf = t.time(tracer, at, "monitor.audit", || {
            audit.apply(cf, &ctx).expect("audit filter applies")
        });
        let bytes = t.time(tracer, at, "classfile.write", || {
            cf.to_bytes().expect("rewritten class serializes")
        });
        let signature = t.time(tracer, at, "proxy.md5", || md5::hex(&md5::md5(&bytes)));
        let package = t.time(tracer, at, "compiler.produce", || {
            compiler
                .compile(&signature, &bytes)
                .expect("rewritten class compiles")
        });
        class_bytes += original.len();
        rewritten_bytes += bytes.len();
        ir_bytes += package.bytes.len();
        let signed = t.time(tracer, at, "proxy.sign", || signer.attach(bytes));
        let frame = Frame::CodeResponse {
            request_id: i as u32 + 1,
            served_from: ServedFrom::Rewritten,
            processing_ns: 0,
            bytes: signed.clone(),
        };
        let wire = t.time(tracer, at, "net.encode", || frame.encode());
        t.time(tracer, at, "net.decode", || {
            assembler.push(&wire);
            assembler
                .next_frame()
                .expect("an encoded frame decodes")
                .expect("a whole frame was pushed")
        });
        let payload = t.time(tracer, at, "proxy.verify_sig", || {
            let (check, payload) = signer.detach(&signed);
            assert_eq!(check, SignatureCheck::Valid);
            payload.expect("valid signatures carry a payload").len()
        });
        assert_eq!(payload + dvm_proxy::TAG_LEN, signed.len());
        t.time(tracer, at, "exec.decode", || {
            dvm_exec::decode(&package.bytes).expect("an encoded package decodes")
        });
        // Off the blocking path: the two halves of `compiler.produce`,
        // and a repeat of its signature (a compilation-cache hit).
        let parsed = ClassFile::parse(&signed[..payload]).expect("rewritten class parses");
        let (ir, _) = t.time(tracer, at, "exec.compile", || {
            dvm_exec::compile_class(&parsed).expect("rewritten class lowers")
        });
        t.time(tracer, at, "exec.encode", || dvm_exec::encode(&ir));
        compiler
            .compile(&signature, &signed[..payload])
            .expect("cached package");
        tracer.finish(root);
        payloads.push((url.clone(), signed));
    }
    let mb_per_s = |bytes: usize, us: f64| bytes as f64 / us.max(f64::MIN_POSITIVE);
    out.set(
        "classfile.parse_mb_per_s",
        mb_per_s(class_bytes, t.total_us("classfile.parse")),
    );
    out.set(
        "proxy.md5_mb_per_s",
        mb_per_s(rewritten_bytes, t.total_us("proxy.md5")),
    );
    out.set(
        "exec.ir_bytes_per_class_byte",
        ir_bytes as f64 / rewritten_bytes.max(1) as f64,
    );
    out.set("monitor.sites", sites.lock().len() as f64);
    out.set("compiler.cache_hits", compiler.stats.cache_hits as f64);
    payloads
}

/// `Proxy::handle_request_detailed` in-process: a miss for every sampled
/// URL, a memory hit for each, and a disk-tier hit for each — the
/// payload filed on the disk tier under a second key, as a peer's offer
/// or an earlier life would have left it.
fn proxy_in_process(
    workload: Workload,
    corpus: &Corpus,
    payloads: &[(String, Vec<u8>)],
    tracer: &mut Tracer,
    t: &mut Samples,
) -> Result<(), String> {
    let org =
        Organization::with_origin(corpus.origin(), policy(), services(), CostModel::default());
    // On disk_churn the disk tier is the real store, as in the run.
    let _data = if workload == Workload::DiskChurn {
        let data = DataDir::create("proxy").map_err(|e| format!("creating data dir: {e}"))?;
        org.persist(&data.0)
            .map_err(|e| format!("attaching a store: {e}"))?;
        Some(data)
    } else {
        None
    };
    for (i, (url, signed)) in payloads.iter().enumerate() {
        let ctx = context(url);
        let on_disk = format!("{url}#disk");
        org.proxy
            .cache_fill(&on_disk, signed.clone(), CacheTier::Disk);
        for (name, key, expected) in [
            ("proxy.handle_miss", url, ServedFrom::Rewritten),
            ("proxy.handle_hit", url, ServedFrom::MemoryCache),
            ("proxy.handle_disk", &on_disk, ServedFrom::DiskCache),
        ] {
            let served = t.time(tracer, (2 << 48 | i as u64, None), name, || {
                org.proxy.handle_request_detailed(key, &ctx)
            });
            let served = served.map_err(|e| format!("in-process {name} for {key}: {e}"))?;
            if served.served_from != expected {
                return Err(format!(
                    "{key} was served from {:?}, not {expected:?}",
                    served.served_from
                ));
            }
        }
    }
    Ok(())
}

/// One idle client against the live cluster: a routed fetch of a
/// memory-resident URL (`cluster.fetch`), the same over a plain
/// connection to the URL's home shard (`net.roundtrip`), and the ring
/// lookup alone (`cluster.route`).
fn over_the_wire(
    site: &Site,
    sample: &[String],
    tracer: &mut Tracer,
    t: &mut Samples,
) -> Result<(), String> {
    let mut routed = site.provider("replay-routed");
    let mut direct: Vec<NetClassProvider> = site
        .cluster
        .addrs()
        .iter()
        .map(|&addr| {
            NetClassProvider::new(
                addr,
                hello("replay-direct"),
                Some(signer()),
                NetConfig::default(),
            )
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connecting to a shard: {e}"))?;
    for (i, url) in sample.iter().enumerate() {
        let at = (4 << 48 | i as u64, None);
        // The first fetch promotes the URL if it sat on disk.
        routed
            .fetch(url)
            .map_err(|e| format!("replaying {url}: {e}"))?;
        t.time(tracer, at, "cluster.fetch", || routed.fetch(url))
            .map_err(|e| format!("replaying {url}: {e}"))?;
        let home = site.cluster.ring().home(url).expect("a ring with shards");
        t.time(tracer, at, "net.roundtrip", || {
            direct[home as usize].fetch(url)
        })
        .map_err(|e| format!("replaying {url} on shard {home}: {e}"))?;
        let route = t.time(tracer, at, "cluster.route", || routed.route(url));
        assert_eq!(route.first(), Some(&home));
    }
    routed.close();
    for p in &mut direct {
        p.close();
    }
    Ok(())
}

/// `Store::put` and `Store::get` on the sampled payloads, in a store of
/// their own with the cluster's configuration.
fn store(
    payloads: &[(String, Vec<u8>)],
    tracer: &mut Tracer,
    t: &mut Samples,
) -> Result<(), String> {
    let data = DataDir::create("store").map_err(|e| format!("creating data dir: {e}"))?;
    let mut store =
        Store::open(&data.0, StoreConfig::default()).map_err(|e| format!("opening store: {e}"))?;
    for (i, (url, bytes)) in payloads.iter().enumerate() {
        t.time(tracer, (5 << 48 | i as u64, None), "store.put", || {
            store.put(url, bytes)
        })
        .map_err(|e| format!("store put: {e}"))?;
    }
    for (i, (url, bytes)) in payloads.iter().enumerate() {
        let got = t
            .time(tracer, (6 << 48 | i as u64, None), "store.get", || {
                store.get(url)
            })
            .map_err(|e| format!("store get: {e}"))?;
        if got.as_deref() != Some(bytes.as_slice()) {
            return Err(format!("store returned other bytes for {url}"));
        }
    }
    Ok(())
}

/// The run-scaled applications on an in-process client, exec tier off
/// then on. Each `main` runs twice on one client; the second run has
/// every class loaded and linked, so it times execution alone. Both
/// tiers are rated in the interpreter's instructions, the work the
/// application asks for, since compiled IR retires fewer for the same
/// work.
fn jvm_tiers(corpus: &Corpus, out: &mut Replayed) -> Result<(), String> {
    let mut work = 0u64;
    for (exec_tier, metric) in [
        (false, "jvm.interp_minsn_per_s"),
        (true, "jvm.ir_minsn_per_s"),
    ] {
        let config = ServiceConfig {
            exec_tier,
            ..services()
        };
        let org =
            Organization::with_origin(corpus.origin(), policy(), config, CostModel::default());
        let mut client = org
            .client("replay-jvm", "applets")
            .map_err(|e| format!("in-process client: {e}"))?;
        let mut seconds = 0.0;
        for app in &corpus.run_apps {
            client
                .run_main(&app.main_class)
                .map_err(|e| format!("loading {}: {e}", app.main_class))?;
            let before = client.vm.stats.instructions;
            let started = Instant::now();
            client
                .run_main(&app.main_class)
                .map_err(|e| format!("running {}: {e}", app.main_class))?;
            seconds += started.elapsed().as_secs_f64();
            if !exec_tier {
                work += client.vm.stats.instructions - before;
            }
        }
        out.set(metric, work as f64 / 1e6 / seconds);
        if exec_tier {
            let s = client.vm.exec.stats;
            let all = (s.ir_invocations + s.interp_invocations).max(1);
            out.set(
                "jvm.ir_dispatch_share",
                s.ir_invocations as f64 / all as f64,
            );
        }
    }
    Ok(())
}
