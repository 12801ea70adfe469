//! Architecture-level integration tests: the claims of §2–§4 hold on the
//! assembled system.

use dvm_core::{CostModel, MonolithicClient, Organization, ServiceConfig};
use dvm_jvm::Completion;
use dvm_proxy::ServedFrom;
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
fn dvm_client_runs_rewritten_app_to_completion() {
    let (org, main) = org(ServiceConfig::dvm());
    let mut client = org.client("alice", "applets").unwrap();
    let report = client.run_main(&main).unwrap();
    assert!(
        matches!(report.completion, Completion::Normal(_)),
        "{:?}",
        report.exception
    );
    assert!(!report.transfers.is_empty());
    // The audit service recorded method activity centrally.
    assert!(org.console.lock().total_events() > 0);
    // The security rewriter inserted checks... none in this app (no
    // protected operations), but the static stats were collected.
    let stats = *org.service_stats.lock();
    assert!(stats.static_checks > 0);
    assert!(stats.audit_probes > 0);
}

#[test]
fn second_client_benefits_from_proxy_cache() {
    let (org, main) = org(ServiceConfig::dvm());
    let mut c1 = org.client("alice", "applets").unwrap();
    let r1 = c1.run_main(&main).unwrap();
    let mut c2 = org.client("bob", "applets").unwrap();
    let r2 = c2.run_main(&main).unwrap();
    assert!(r1
        .transfers
        .iter()
        .all(|t| t.served_from == ServedFrom::Rewritten));
    assert!(r2
        .transfers
        .iter()
        .all(|t| t.served_from != ServedFrom::Rewritten));
    assert!(
        r2.proxy_time < r1.proxy_time,
        "cached run should spend less proxy time: {} vs {}",
        r2.proxy_time,
        r1.proxy_time
    );
}

#[test]
fn monolithic_and_dvm_compute_identical_results() {
    let app = generate(&small_spec());
    let orgn = Organization::new(
        &app.classes,
        Policy::parse(example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let mut dvm = orgn.client("alice", "applets").unwrap();
    let r = dvm.run_main(&app.main_class).unwrap();
    assert!(matches!(r.completion, Completion::Normal(_)));
    let dvm_out = dvm.vm.stdout.clone();

    let mut mono = MonolithicClient::new(&app.classes, CostModel::default()).unwrap();
    let m = mono.run_main(&app.main_class).unwrap();
    assert!(matches!(m.completion, Completion::Normal(_)));
    assert_eq!(
        dvm_out, mono.vm.stdout,
        "architectures must not change results"
    );
}

#[test]
fn monolithic_client_verifies_locally_dvm_client_does_not() {
    let app = generate(&small_spec());
    let orgn = Organization::new(
        &app.classes,
        Policy::parse(example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let mut dvm = orgn.client("alice", "applets").unwrap();
    let r = dvm.run_main(&app.main_class).unwrap();
    let mut mono = MonolithicClient::new(&app.classes, CostModel::default()).unwrap();
    let m = mono.run_main(&app.main_class).unwrap();

    // Figure 7's claim: client verification effort moves to the server.
    assert!(
        m.verify_checks > 1_000,
        "monolithic checks: {}",
        m.verify_checks
    );
    assert!(
        r.dynamic_verify_time < m.verify_time,
        "DVM client verification {} must be below monolithic {}",
        r.dynamic_verify_time,
        m.verify_time
    );
}

#[test]
fn security_revocation_propagates_to_running_clients() {
    // An app that reads a property (a protected operation).
    use dvm_bytecode::Asm;
    use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, MemberInfo};
    let mut cf = ClassBuilder::new("t/PropReader").build();
    let getprop = cf
        .pool
        .methodref(
            "java/lang/System",
            "getProperty",
            "(Ljava/lang/String;)Ljava/lang/String;",
        )
        .unwrap();
    let key = cf.pool.string("os.name").unwrap();
    let mut a = Asm::new(0);
    a.ldc(key).invokestatic(getprop).pop().ret();
    let attr = a.finish().unwrap().encode(&cf.pool).unwrap();
    let n = cf.pool.utf8("main").unwrap();
    let d = cf.pool.utf8("()V").unwrap();
    cf.methods.push(MemberInfo {
        access: AccessFlags::PUBLIC | AccessFlags::STATIC,
        name_index: n,
        descriptor_index: d,
        attributes: vec![Attribute::Code(attr)],
    });

    let orgn = Organization::new(
        &[cf],
        Policy::parse(example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let (sid, perm) = {
        let p = orgn.policy();
        let p = p.lock();
        (p.principals["applets"], p.permissions["prop.read"])
    };

    // Allowed at first.
    let mut c1 = orgn.client("alice", "applets").unwrap();
    let r1 = c1.run_main("t/PropReader").unwrap();
    assert!(
        matches!(r1.completion, Completion::Normal(_)),
        "{:?}",
        r1.exception
    );
    assert!(r1.security_checks > 0, "the injected check must have run");

    // Revoke centrally; a fresh run of the *same rewritten code* is denied.
    orgn.security.lock().revoke(sid, perm);
    let mut c2 = orgn.client("bob", "applets").unwrap();
    let r2 = c2.run_main("t/PropReader").unwrap();
    match &r2.completion {
        Completion::Exception(_) => {
            let (class, _) = r2.exception.clone().unwrap();
            assert_eq!(class, "java/lang/SecurityException");
        }
        other => panic!("expected SecurityException, got {other:?}"),
    }
}

#[test]
fn unverifiable_code_is_replaced_and_raises_verifyerror() {
    use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, CodeAttribute, MemberInfo};
    // A malformed class: stack underflow in its only method.
    let mut bad = ClassBuilder::new("t/Evil").build();
    let attr = CodeAttribute {
        max_stack: 1,
        max_locals: 0,
        code: vec![0x57, 0xB1], // pop; return
        ..Default::default()
    };
    let n = bad.pool.utf8("main").unwrap();
    let d = bad.pool.utf8("()V").unwrap();
    bad.methods.push(MemberInfo {
        access: AccessFlags::PUBLIC | AccessFlags::STATIC,
        name_index: n,
        descriptor_index: d,
        attributes: vec![Attribute::Code(attr)],
    });

    let orgn = Organization::new(
        &[bad],
        Policy::parse(example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let mut client = orgn.client("alice", "applets").unwrap();
    let r = client.run_main("t/Evil").unwrap();
    let (class, _) = r.exception.expect("must raise");
    assert_eq!(class, "java/lang/VerifyError");
}

#[test]
fn signed_transport_round_trips() {
    let app = generate(&small_spec());
    let mut config = ServiceConfig::dvm();
    config.signing = true;
    let orgn = Organization::new(
        &app.classes,
        Policy::parse(example_policy()).unwrap(),
        config,
        CostModel::default(),
    )
    .unwrap();
    let mut client = orgn.client("alice", "applets").unwrap();
    let r = client.run_main(&app.main_class).unwrap();
    assert!(
        matches!(r.completion, Completion::Normal(_)),
        "{:?}",
        r.exception
    );
}

#[test]
fn profiling_service_collects_first_use_graph() {
    let app = generate(&small_spec());
    let mut config = ServiceConfig::dvm();
    config.profile = true;
    let orgn = Organization::new(
        &app.classes,
        Policy::parse(example_policy()).unwrap(),
        config,
        CostModel::default(),
    )
    .unwrap();
    let mut client = orgn.client("alice", "applets").unwrap();
    client.run_main(&app.main_class).unwrap();
    let profile = client.profile();
    let profile = profile.lock();
    assert!(
        profile.first_use_order().len() > 5,
        "profiled {} methods",
        profile.first_use_order().len()
    );
    // Dead methods never appear.
    let sites = orgn.sites.lock();
    let dead: Vec<_> = app
        .truth
        .iter()
        .filter(|(_, _, d)| *d == dvm_workload::Disposition::Dead)
        .collect();
    assert!(!dead.is_empty());
    for (class, method, _) in dead {
        if let Some((id, _, _)) = sites.iter().find(|(_, c, m)| c == class && m == method) {
            assert!(!profile.was_used(id), "{class}.{method} should be dead");
        }
    }
}

#[test]
fn null_proxy_configuration_leaves_code_unserviced() {
    // The monolithic measurement configuration: the proxy forwards code
    // without transformation and no central services run.
    let app = generate(&small_spec());
    let orgn = Organization::new(
        &app.classes,
        Policy::parse(example_policy()).unwrap(),
        ServiceConfig::monolithic(),
        CostModel::default(),
    )
    .unwrap();
    let mut client = orgn.client("alice", "applets").unwrap();
    let report = client.run_main(&app.main_class).unwrap();
    assert!(matches!(report.completion, Completion::Normal(_)));
    // No service activity anywhere.
    let stats = *orgn.service_stats.lock();
    assert_eq!(stats.static_checks, 0);
    assert_eq!(stats.audit_probes, 0);
    assert_eq!(report.dynamic_verify_checks, 0);
    assert_eq!(report.security_checks, 0);
    assert_eq!(orgn.console.lock().total_events(), 0);
}
