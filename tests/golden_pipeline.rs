//! Pins what the rewrite pipeline serves, byte for byte.
//!
//! One generation of the Figure-5 corpus (five applications, 405
//! classes) goes through one single-proxy `Organization` with
//! `ServiceConfig::dvm()` and signing on, in a fixed request order. Each
//! line of `tests/golden/served.txt` is
//!
//! ```text
//! url md5(served) md5(ir) static_checks dynamic_checks_injected
//! ```
//!
//! where `md5(ir)` is the digest of the signed `ir://` package the miss
//! produced (`-` when the class compiled no method), and the two counts
//! are the organization's `service_stats` delta around that one request
//! (Figure 8's data, per class).
//!
//! A refactor of any stage — verifier, security or audit rewriter,
//! serializer, IR compiler, signer — that changes a byte or a count
//! fails here. Regenerate deliberately with
//! `GOLDEN_UPDATE=1 cargo test --test golden_pipeline`.

use dvm_classfile::ClassFile;
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_exec::{compile_class, optimize};
use dvm_proxy::md5::{hex, md5};
use dvm_proxy::{ir_key, MapOrigin, ProxyError, RequestContext};
use dvm_security::Policy;
use dvm_workload::{figure5_apps, generate};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/served.txt");

/// Differing lines printed on a mismatch.
const SHOWN: usize = 8;

/// One generation of the Figure-5 corpus behind a single-proxy
/// organization with `ServiceConfig::dvm()`, and its URLs in request
/// order.
fn golden_org(signing: bool) -> (Organization, Vec<String>) {
    let mut origin = MapOrigin::new();
    let mut urls = Vec::new();
    for spec in figure5_apps() {
        let app = generate(&spec);
        for (name, bytes) in app.serialize().expect("generated classes serialize") {
            let url = format!("class://{name}");
            origin.insert(&url, bytes);
            urls.push(url);
        }
    }
    let policy = Policy::parse(dvm_security::policy::example_policy()).expect("policy parses");
    let config = ServiceConfig {
        signing,
        ..ServiceConfig::dvm()
    };
    let org = Organization::with_origin(Box::new(origin), policy, config, CostModel::default());
    (org, urls)
}

fn context(url: &str) -> RequestContext {
    RequestContext {
        client: "golden".to_owned(),
        principal: "applets".to_owned(),
        url: url.to_owned(),
        trace: None,
    }
}

fn served_lines() -> Vec<String> {
    let (org, urls) = golden_org(true);
    let mut lines = Vec::with_capacity(urls.len());
    for url in urls {
        let ctx = context(&url);
        let before = *org.service_stats.lock();
        let served = org
            .proxy
            .handle_request_detailed(&url, &ctx)
            .unwrap_or_else(|e| panic!("{url}: {e}"));
        let after = *org.service_stats.lock();
        let ir = match org
            .proxy
            .handle_request_detailed(&ir_key(&served.bytes), &ctx)
        {
            Ok(ir) => hex(&md5(&ir.bytes)),
            Err(ProxyError::NotFound(_)) => "-".to_owned(),
            Err(e) => panic!("{url} ir: {e}"),
        };
        lines.push(format!(
            "{url} {} {ir} {} {}",
            hex(&md5(&served.bytes)),
            after.static_checks - before.static_checks,
            after.dynamic_checks_injected - before.dynamic_checks_injected,
        ));
    }
    lines
}

#[test]
fn served_bytes_ir_and_check_counts_match_the_golden() {
    let actual = served_lines();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, actual.join("\n") + "\n").expect("writing the golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .expect("tests/golden/served.txt exists; create it with GOLDEN_UPDATE=1");
    let expected: Vec<&str> = expected.lines().collect();
    let differing: Vec<usize> = (0..expected.len().max(actual.len()))
        .filter(|&i| expected.get(i).copied() != actual.get(i).map(String::as_str))
        .collect();
    if differing.is_empty() {
        return;
    }
    let mut report = format!(
        "{} of {} served lines differ from tests/golden/served.txt \
         (rerun with GOLDEN_UPDATE=1 only if the change is intended):\n",
        differing.len(),
        expected.len().max(actual.len()),
    );
    for &i in differing.iter().take(SHOWN) {
        report += &format!(
            "line {}\n  - {}\n  + {}\n",
            i + 1,
            expected.get(i).copied().unwrap_or("<missing>"),
            actual.get(i).map_or("<missing>", String::as_str),
        );
    }
    panic!("{report}");
}

/// The pass pipeline stops at a fixpoint: run again over its own output
/// on every method the golden corpus's rewritten classes lower, it
/// finds nothing to fold, propagate or eliminate and changes no
/// instruction. Guards every change to when the iteration stops.
#[test]
fn optimized_golden_methods_are_a_fixpoint() {
    let (org, urls) = golden_org(false);
    let mut methods = 0;
    for url in urls {
        let served = org
            .proxy
            .handle_request_detailed(&url, &context(&url))
            .unwrap_or_else(|e| panic!("{url}: {e}"));
        let class = ClassFile::parse(&served.bytes).expect("a served class parses");
        let (ir, _) = compile_class(&class).expect("a served class compiles");
        for func in &ir.methods {
            let mut again = func.clone();
            let stats = optimize(&mut again, &class.pool);
            assert_eq!(
                (stats.folded, stats.copies_propagated, stats.eliminated),
                (0, 0, 0),
                "{url} {}{}",
                func.name,
                func.descriptor
            );
            assert_eq!(again.insns, func.insns, "{url} {}", func.name);
            methods += 1;
        }
    }
    assert!(methods > 5_000, "only {methods} methods lowered");
}
