//! End-to-end tests for the optimizing execution tier: a DVM client
//! fetches rewritten classes, installs the proxy-compiled IR packages
//! served next to them, and actually executes on the IR tier.

use dvm_core::{CostModel, MonolithicClient, Organization, ServiceConfig};
use dvm_jvm::Completion;
use dvm_security::{policy::example_policy, Policy};
use dvm_workload::{figure5_apps, generate};

fn small_spec() -> dvm_workload::AppSpec {
    figure5_apps().remove(0).scaled(1, 20000)
}

fn org(config: ServiceConfig) -> (Organization, String) {
    let app = generate(&small_spec());
    let org = Organization::new(
        &app.classes,
        Policy::parse(example_policy()).unwrap(),
        config,
        CostModel::default(),
    )
    .unwrap();
    (org, app.main_class)
}

#[test]
fn dvm_client_executes_on_the_ir_tier() {
    let (org, main) = org(ServiceConfig::dvm());
    let mut client = org.client("alice", "applets").unwrap();
    let report = client.run_main(&main).unwrap();
    assert!(
        matches!(report.completion, Completion::Normal(_)),
        "{:?}",
        report.exception
    );
    let stats = client.vm.exec.stats;
    assert!(
        stats.installed_classes > 0,
        "proxy-compiled IR should have been installed: {stats:?}"
    );
    assert!(
        stats.ir_invocations > 0,
        "compiled methods should have run on the IR tier: {stats:?}"
    );
    // The proxy installs a package only when some method lowered.
    let pstats = org.proxy.stats();
    assert!(pstats.ir_compiles > 0, "{pstats:?}");
    assert!(pstats.ir_compile_cycles > 0, "{pstats:?}");
}

#[test]
fn second_client_reuses_cached_ir_packages() {
    let (org, main) = org(ServiceConfig::dvm());
    let mut c1 = org.client("alice", "applets").unwrap();
    c1.run_main(&main).unwrap();
    let compiled_once = org.proxy.stats().ir_compiles;
    assert!(compiled_once > 0);

    let mut c2 = org.client("bob", "applets").unwrap();
    let r2 = c2.run_main(&main).unwrap();
    assert!(matches!(r2.completion, Completion::Normal(_)));
    assert!(c2.vm.exec.stats.ir_invocations > 0);
    // The second client's classes come from the proxy cache, so no new
    // compilations happen; the IR packages are served from cache too.
    assert_eq!(org.proxy.stats().ir_compiles, compiled_once);
}

#[test]
fn ir_tier_preserves_program_output() {
    let app = generate(&small_spec());
    let orgn = Organization::new(
        &app.classes,
        Policy::parse(example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let mut tiered = orgn.client("alice", "applets").unwrap();
    let r = tiered.run_main(&app.main_class).unwrap();
    assert!(matches!(r.completion, Completion::Normal(_)));
    assert!(tiered.vm.exec.stats.ir_invocations > 0);

    let mut mono = MonolithicClient::new(&app.classes, CostModel::default()).unwrap();
    let m = mono.run_main(&app.main_class).unwrap();
    assert!(matches!(m.completion, Completion::Normal(_)));
    assert_eq!(mono.vm.exec.stats.ir_invocations, 0);
    assert_eq!(
        tiered.vm.stdout, mono.vm.stdout,
        "the IR tier must not change program output"
    );
}

#[test]
fn disabling_the_exec_tier_keeps_everything_interpreted() {
    let mut config = ServiceConfig::dvm();
    config.exec_tier = false;
    let (org, main) = org(config);
    let mut client = org.client("alice", "applets").unwrap();
    let report = client.run_main(&main).unwrap();
    assert!(matches!(report.completion, Completion::Normal(_)));
    assert_eq!(client.vm.exec.stats.installed_classes, 0);
    assert_eq!(client.vm.exec.stats.ir_invocations, 0);
    assert_eq!(org.proxy.stats().ir_compiles, 0);
}
