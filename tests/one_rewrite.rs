//! One rewrite serves every requester (§3.2): the proxy rewrites a URL
//! once and caches it under the URL alone, so the served bytes must not
//! depend on which principal asked first. Each client's enforcement
//! manager decides the injected checks under its own session SID.
//!
//! A two-class app makes one protected call (`System.getProperty`,
//! `prop.read`) under a policy in which `trusted` lacks `prop.read`. It
//! runs for {`applets` first, `trusted` first} × {one in-process proxy,
//! a 3-shard cluster}, with the exec tier on. Every arm must serve the
//! same bytes for every URL, `applets` must always complete, and
//! `trusted` must always raise `SecurityException`.

use std::collections::BTreeMap;

use dvm_repro::bytecode::Asm;
use dvm_repro::classfile::{AccessFlags, Attribute, ClassBuilder, ClassFile, MemberInfo};
use dvm_repro::core::{CostModel, Organization, RunReport, ServiceConfig};
use dvm_repro::jvm::Completion;
use dvm_repro::proxy::{ir_key, Proxy};
use dvm_repro::security::policy::example_policy;
use dvm_repro::security::Policy;

const URLS: [&str; 2] = ["class://t/Main", "class://t/Props"];

fn static_method(cf: &mut ClassFile, name: &str, a: Asm) {
    let code = a.finish().unwrap().encode(&cf.pool).unwrap();
    let name_index = cf.pool.utf8(name).unwrap();
    let descriptor_index = cf.pool.utf8("()V").unwrap();
    cf.methods.push(MemberInfo {
        access: AccessFlags::PUBLIC | AccessFlags::STATIC,
        name_index,
        descriptor_index,
        attributes: vec![Attribute::Code(code)],
    });
}

/// `t/Main.main()` calls `t/Props.read()`, which reads a system property.
fn app() -> Vec<ClassFile> {
    let mut main = ClassBuilder::new("t/Main").build();
    let read = main.pool.methodref("t/Props", "read", "()V").unwrap();
    let mut a = Asm::new(0);
    a.invokestatic(read).ret();
    static_method(&mut main, "main", a);

    let mut props = ClassBuilder::new("t/Props").build();
    let getprop = props
        .pool
        .methodref(
            "java/lang/System",
            "getProperty",
            "(Ljava/lang/String;)Ljava/lang/String;",
        )
        .unwrap();
    let key = props.pool.string("os.name").unwrap();
    let mut a = Asm::new(0);
    a.ldc(key).invokestatic(getprop).pop().ret();
    static_method(&mut props, "read", a);
    vec![main, props]
}

/// The example policy without `trusted`'s `prop.read`.
fn policy() -> Policy {
    let grant = r#"<allow principal="trusted" permission="prop.read"/>"#;
    assert!(example_policy().contains(grant));
    Policy::parse(&example_policy().replace(grant, "")).unwrap()
}

fn org() -> Organization {
    let config = ServiceConfig::dvm();
    assert!(config.exec_tier && config.security);
    Organization::new(&app(), policy(), config, CostModel::default()).unwrap()
}

/// The class bytes and IR package `proxy` holds for each URL, if any.
fn cached(proxy: &Proxy) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for url in URLS {
        let Some((class, _)) = proxy.cache_peek(url) else {
            continue;
        };
        let ir = ir_key(&class);
        if let Some((package, _)) = proxy.cache_peek(&ir) {
            out.insert(ir, package.to_vec());
        }
        out.insert(url.to_owned(), class.to_vec());
    }
    out
}

fn expect_outcome(principal: &str, report: &RunReport) {
    match (principal, &report.completion) {
        ("applets", Completion::Normal(_)) => {}
        ("trusted", Completion::Exception(_)) => {
            let (class, message) = report.exception.clone().unwrap();
            assert_eq!(class, "java/lang/SecurityException");
            assert_eq!(message, "permission 10 denied");
        }
        (p, c) => panic!("{p}: unexpected {c:?} ({:?})", report.exception),
    }
    assert_eq!(report.security_checks, 1, "{principal}: one injected check");
}

/// Runs the app as each principal in `order` (each on a fresh client)
/// and returns what the organization's proxies then serve.
fn run(cluster: bool, order: [&str; 2]) -> BTreeMap<String, Vec<u8>> {
    let org = org();
    if !cluster {
        for (i, principal) in order.into_iter().enumerate() {
            let mut client = org.client(&format!("user{i}"), principal).unwrap();
            expect_outcome(principal, &client.run_main("t/Main").unwrap());
            assert!(
                client.vm.exec.stats.ir_invocations > 0,
                "{principal}: the in-process client runs the served IR"
            );
        }
        return cached(&org.proxy);
    }
    let shards = org.serve_cluster(3).unwrap();
    for (i, principal) in order.into_iter().enumerate() {
        let mut client = org
            .cluster_client(&shards, &format!("user{i}"), principal)
            .unwrap();
        expect_outcome(principal, &client.run_main("t/Main").unwrap());
    }
    // Every shard that holds a URL holds the same bytes for it.
    let mut served = BTreeMap::new();
    for i in 0..shards.len() {
        for (url, bytes) in cached(shards.proxy(i)) {
            let first = served.entry(url.clone()).or_insert_with(|| bytes.clone());
            assert!(*first == bytes, "shards disagree on {url}");
        }
    }
    shards.shutdown();
    served
}

#[test]
fn served_bytes_and_decisions_do_not_depend_on_who_asked_first() {
    let reference = run(false, ["applets", "trusted"]);
    assert_eq!(reference.len(), 2 * URLS.len(), "{:?}", reference.keys());
    for (cluster, order) in [
        (false, ["trusted", "applets"]),
        (true, ["applets", "trusted"]),
        (true, ["trusted", "applets"]),
    ] {
        let served = run(cluster, order);
        assert_eq!(
            served.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>()
        );
        for (url, bytes) in &reference {
            assert!(
                served[url] == *bytes,
                "{url} differs (cluster {cluster}, {order:?} first)"
            );
        }
    }
}

#[test]
fn a_revoke_edits_the_one_policy() {
    let org = org();
    let (sid, perm) = {
        let policy = org.policy();
        let p = policy.lock();
        (p.principals["applets"], p.permissions["prop.read"])
    };
    org.security.lock().revoke(sid, perm);
    assert!(!org.policy().lock().allows(sid, perm));
}
