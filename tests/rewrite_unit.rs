//! The proxy's static services share one decoded form of each method
//! body per miss: verifier phase 2 decodes a body once, the rewriters
//! edit it in place, each edited body is encoded once, and the IR
//! compiler lowers the same in-memory bodies.
//!
//! Two checks of that:
//! - the `proxy.rewrite.bodies_decoded`/`_encoded` counters read exactly
//!   one decode per method with code and one encode per body a service
//!   edited, on every miss of the golden corpus;
//! - the unit path serves the same payload bytes, IR bytes and
//!   Figure-8 statistics as each service's stand-alone `Filter::apply`
//!   chained with `to_bytes` and `ExecCompiler::compile`.
//!
//! A third pins that two shards rewriting one class serve identical IR.

use dvm_classfile::ClassFile;
use dvm_compiler::ExecCompiler;
use dvm_core::filters::{AuditFilter, SecurityFilter, VerifierFilter};
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_proxy::md5::{hex, md5};
use dvm_proxy::{ir_key, Filter, MapOrigin, ProxyError, RequestContext, Signer};
use dvm_security::{Policy, SecurityId};
use dvm_verifier::{MapEnvironment, StaticVerifier};
use dvm_workload::{figure5_apps, generate, AppSpec};

fn policy() -> Policy {
    Policy::parse(dvm_security::policy::example_policy()).expect("policy parses")
}

fn ctx(url: &str) -> RequestContext {
    RequestContext {
        client: "unit".to_owned(),
        principal: "applets".to_owned(),
        url: url.to_owned(),
        trace: None,
    }
}

/// `(url, original bytes)` of every class of `specs`, in request order.
fn corpus(specs: &[AppSpec]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for spec in specs {
        for (name, bytes) in generate(spec).serialize().expect("classes serialize") {
            out.push((format!("class://{name}"), bytes));
        }
    }
    out
}

fn organization(classes: &[(String, Vec<u8>)], signing: bool) -> Organization {
    let mut origin = MapOrigin::new();
    for (url, bytes) in classes {
        origin.insert(url, bytes.clone());
    }
    let config = ServiceConfig {
        signing,
        ..ServiceConfig::dvm()
    };
    Organization::with_origin(Box::new(origin), policy(), config, CostModel::default())
}

#[test]
fn every_miss_decodes_each_body_once_and_encodes_each_edited_body_once() {
    // The golden corpus, served as `golden_pipeline` serves it.
    let classes = corpus(&figure5_apps());
    let org = organization(&classes, true);
    let signer = Signer::new(b"dvm-org-key");
    let (mut decoded, mut encoded) = (0, 0);
    for (url, original) in &classes {
        let before = org.proxy.stats();
        let replacements = org.service_stats.lock().replacements;
        let served = org.proxy.handle_request(url, &ctx(url)).unwrap();
        let after = org.proxy.stats();
        assert_eq!(org.service_stats.lock().replacements, replacements);

        let original = ClassFile::parse(original).unwrap();
        let (_, payload) = signer.detach(&served);
        let served = ClassFile::parse(payload.unwrap()).unwrap();
        let with_code = original.methods.iter().filter(|m| m.code().is_some());
        // A body some service edited is one whose `Code` attribute
        // changed, or one a service added.
        let edited = served
            .methods
            .iter()
            .enumerate()
            .filter(|(i, m)| original.methods.get(*i).map(|o| o.code()) != Some(m.code()))
            .count() as u64;
        assert_eq!(
            after.bodies_decoded - before.bodies_decoded,
            with_code.count() as u64,
            "{url}: decodes"
        );
        assert_eq!(
            after.bodies_encoded - before.bodies_encoded,
            edited,
            "{url}: encodes"
        );
        decoded += after.bodies_decoded - before.bodies_decoded;
        encoded += after.bodies_encoded - before.bodies_encoded;
    }
    assert!(decoded > 5_000 && encoded > 1_000, "{decoded} {encoded}");
}

#[test]
fn unit_rewrite_matches_the_filter_chain() {
    let mut specs: Vec<AppSpec> = figure5_apps().iter().map(|s| s.scaled(1, 20_000)).collect();
    for (i, seed) in [(0, 7), (1, 0xC0FFEE), (4, 0x5EED)] {
        let base = &specs[i];
        specs.push(AppSpec {
            name: format!("{}{seed:x}", base.name),
            seed,
            ..base.clone()
        });
    }
    let classes = corpus(&specs);
    let org = organization(&classes, false);

    // The same services, each as a stand-alone filter, on a fresh
    // organization's statistics, site table and policy.
    let fresh = organization(&[], false);
    let stats = fresh.service_stats.clone();
    let chain: Vec<Box<dyn Filter>> = vec![
        Box::new(VerifierFilter::new(
            StaticVerifier::new(MapEnvironment::with_bootstrap()),
            stats.clone(),
        )),
        Box::new(SecurityFilter::new(
            fresh.policy(),
            SecurityId(1),
            stats.clone(),
        )),
        Box::new(AuditFilter::new(fresh.sites.clone(), stats.clone())),
    ];
    let mut compiler = ExecCompiler::new();
    let (mut packages, mut cycles) = (0, 0);

    for (url, original) in &classes {
        let ctx = ctx(url);
        let served = org.proxy.handle_request(url, &ctx).unwrap();
        let ir = match org.proxy.handle_request(&ir_key(&served), &ctx) {
            Ok(ir) => Some(ir),
            Err(ProxyError::NotFound(_)) => None,
            Err(e) => panic!("{url} ir: {e}"),
        };

        let mut class = ClassFile::parse(original).unwrap();
        for filter in &chain {
            class = filter.apply(class, &ctx).unwrap();
        }
        let payload = class.to_bytes().unwrap();
        let pkg = compiler.compile(&hex(&md5(&payload)), &payload).unwrap();
        let chain_ir = (pkg.methods_compiled > 0).then(|| pkg.bytes.clone());
        if chain_ir.is_some() {
            packages += 1;
            cycles += pkg.compile_cycles;
        }

        assert!(served == payload, "{url}: payload bytes differ");
        assert!(ir == chain_ir, "{url}: IR bytes differ");
        // Both sides start from zero and see the same classes in the same
        // order, so equal totals after each class are equal deltas.
        assert_eq!(
            *org.service_stats.lock(),
            *stats.lock(),
            "{url}: statistics"
        );
    }
    let proxy = org.proxy.stats();
    assert_eq!(
        (proxy.ir_compiles, proxy.ir_compile_cycles),
        (packages, cycles)
    );
}

/// Lowering is deterministic: two shards of one organization that each
/// rewrite the same class serve the same class bytes, `ir://` key and
/// IR bytes, with no compile cache shared between them.
#[test]
fn shards_rewriting_one_class_serve_identical_ir() {
    let spec = figure5_apps().remove(0).scaled(1, 20_000);
    let org = organization(&corpus(std::slice::from_ref(&spec)), true);
    let url = format!("class://{}", generate(&spec).main_class);
    let served: Vec<_> = ["shard0", "shard1"]
        .into_iter()
        .map(|node| {
            let shard = org.shard_proxy_named(node);
            let class = shard.handle_request(&url, &ctx(&url)).unwrap();
            let key = ir_key(&class);
            let ir = shard.handle_request(&key, &ctx(&url)).unwrap();
            assert_eq!(shard.telemetry().node(), node);
            let compiles = shard.telemetry().registry().snapshot();
            assert_eq!(compiles.counter("exec.ir.compiles"), 1, "{node}");
            (class, key, ir)
        })
        .collect();
    assert!(served[0].0 == served[1].0, "class bytes differ");
    assert_eq!(served[0].1, served[1].1);
    assert!(served[0].2 == served[1].2, "IR bytes differ");
}
