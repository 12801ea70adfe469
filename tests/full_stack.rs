//! Cross-crate integration: scenarios that span the whole workspace —
//! generator → proxy pipeline → client engine → IR compiler → optimizer.

use dvm_repro::bytecode::RewriteUnit;
use dvm_repro::compiler::ExecCompiler;
use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::jvm::{Completion, MapProvider, Vm};
use dvm_repro::monitor::{ProfileMode, SiteTable};
use dvm_repro::optimizer::{repartition_app, ColdPolicy};
use dvm_repro::proxy::md5::{hex, md5};
use dvm_repro::security::Policy;
use dvm_repro::workload::{figure5_apps, generate};

fn small_app() -> dvm_repro::workload::GeneratedApp {
    generate(&figure5_apps().remove(1).scaled(1, 20000)) // javacup
}

/// Each class keyed by the MD5 of its bytes, as the proxy keys the signed
/// payload it serves.
fn keyed_classes(app: &dvm_repro::workload::GeneratedApp) -> Vec<(String, Vec<u8>)> {
    app.classes
        .iter()
        .map(|cf| {
            let bytes = cf.clone().to_bytes().unwrap();
            (hex(&md5(&bytes)), bytes)
        })
        .collect()
}

#[test]
fn network_compiler_translates_every_generated_method() {
    let app = small_app();
    let classes = keyed_classes(&app);
    let with_code = app
        .classes
        .iter()
        .flat_map(|cf| &cf.methods)
        .filter(|m| m.code().is_some())
        .count();
    assert!(with_code > 100, "generated {with_code} methods with code");

    let mut ec = ExecCompiler::new();
    for (sig, bytes) in &classes {
        ec.compile(sig, bytes).unwrap();
    }
    assert_eq!(ec.stats.compilations as usize, classes.len());
    assert_eq!(ec.stats.methods_compiled as usize, with_code);
    assert_eq!(ec.stats.methods_skipped, 0);
}

#[test]
fn compiler_amortizes_across_clients_per_figure_of_merit() {
    let app = small_app();
    let classes = keyed_classes(&app);
    let mut ec = ExecCompiler::new();
    for (sig, bytes) in &classes {
        ec.compile(sig, bytes).unwrap();
    }
    let first = ec.stats;
    assert!(first.cycles_spent > 0);

    // A second client fetching the same rewrites costs nothing extra.
    for (sig, bytes) in &classes {
        ec.compile(sig, bytes).unwrap();
    }
    assert_eq!(ec.stats.cache_hits as usize, classes.len());
    assert_eq!(ec.stats.compilations, first.compilations);
    assert_eq!(ec.stats.cycles_spent, first.cycles_spent);
}

#[test]
fn profile_guided_repartition_preserves_behavior_end_to_end() {
    let app = small_app();

    // Baseline output.
    let mut provider = MapProvider::new();
    for cf in &app.classes {
        let mut cf = cf.clone();
        provider.insert_class(&mut cf).unwrap();
    }
    let mut vm = Vm::new(Box::new(provider)).unwrap();
    vm.run_main(&app.main_class).unwrap();
    let expected = vm.stdout.clone();

    // Profile with real instrumentation.
    let mut sites = SiteTable::new();
    let mut provider = MapProvider::new();
    for cf in &app.classes {
        let mut unit = RewriteUnit::new(cf.clone());
        dvm_repro::monitor::profile_class(&mut unit, &mut sites, ProfileMode::Method).unwrap();
        provider.insert_class(&mut unit.finish().unwrap()).unwrap();
    }
    struct Collector(std::sync::Arc<std::sync::Mutex<dvm_repro::monitor::ProfileCollector>>);
    impl dvm_repro::jvm::DynamicServices for Collector {
        fn profile_count(&mut self, site: i32) {
            self.0
                .lock()
                .unwrap()
                .count(dvm_repro::monitor::SiteId(site));
        }
        fn first_use(&mut self, site: i32) {
            self.0
                .lock()
                .unwrap()
                .first_use(dvm_repro::monitor::SiteId(site));
        }
    }
    let collected = std::sync::Arc::new(std::sync::Mutex::new(
        dvm_repro::monitor::ProfileCollector::new(),
    ));
    let mut vm =
        Vm::with_services(Box::new(provider), Box::new(Collector(collected.clone()))).unwrap();
    vm.run_main(&app.main_class).unwrap();
    let profile = collected.lock().unwrap().clone();
    assert!(!profile.first_use_order().is_empty());

    // Repartition on the real profile; dead methods must move.
    let (split, stats) =
        repartition_app(&app.classes, &sites, &profile, ColdPolicy::NeverUsed).unwrap();
    assert!(stats.methods_moved > 0, "no cold methods found");

    // The split program still verifies under the organization pipeline and
    // produces identical output.
    let org = Organization::new(
        &split,
        Policy::parse(dvm_repro::security::policy::example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let mut client = org.client("integration", "applets").unwrap();
    let report = client.run_main(&app.main_class).unwrap();
    assert!(
        matches!(report.completion, Completion::Normal(_)),
        "{:?}",
        report.exception
    );
    assert_eq!(
        client.vm.stdout, expected,
        "repartitioning changed program output"
    );

    // Overflow classes were fetched lazily only when needed: cold units
    // are NOT in the transfer log unless a stub fired (NeverUsed policy
    // means none should have).
    let cold_fetched = report
        .transfers
        .iter()
        .filter(|t| t.class.ends_with("$Cold"))
        .count();
    assert_eq!(
        cold_fetched, 0,
        "cold overflow units must not ship at startup"
    );

    // And the bytes actually transferred shrank versus the unsplit app
    // pushed through the *same* pipeline (both sides carry the pipeline's
    // instrumentation; the split side additionally defers link checks on
    // the not-yet-seen overflow classes, which costs a little back).
    let shipped_split: usize = report.transfers.iter().map(|t| t.bytes).sum();
    let org_unsplit = Organization::new(
        &app.classes,
        Policy::parse(dvm_repro::security::policy::example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let mut baseline_client = org_unsplit.client("baseline", "applets").unwrap();
    let baseline = baseline_client.run_main(&app.main_class).unwrap();
    let shipped_full: usize = baseline.transfers.iter().map(|t| t.bytes).sum();
    assert!(
        shipped_split < shipped_full,
        "split shipped {shipped_split} bytes, unsplit shipped {shipped_full}"
    );
    // The saving is substantial: at least 10% of the wire bytes.
    assert!(
        (shipped_full - shipped_split) as f64 / shipped_full as f64 > 0.10,
        "saving too small: {shipped_split} vs {shipped_full}"
    );
}

#[test]
fn audit_and_security_compose_on_one_pipeline() {
    // Both services instrument the same classes; the composed result must
    // still verify and run.
    let app = small_app();
    let org = Organization::new(
        &app.classes,
        Policy::parse(dvm_repro::security::policy::example_policy()).unwrap(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let mut client = org.client("compose", "applets").unwrap();
    let report = client.run_main(&app.main_class).unwrap();
    assert!(matches!(report.completion, Completion::Normal(_)));
    let stats = *org.service_stats.lock();
    assert!(stats.audit_probes > 0);
    assert!(stats.static_checks > 0);
    assert!(org.console.lock().total_events() > 0);
}

#[test]
fn site_ids_past_i16_rewrite_verify_and_run() {
    // A long-running proxy's site table outgrows `sipush`: every id
    // here is past 32 767, so each probe pushes a pool `Integer`.
    const PRE_INTERNED: i32 = 40_000;
    let app = small_app();
    let mut sites = SiteTable::new();
    for i in 0..PRE_INTERNED {
        sites.intern("pre/Interned", &format!("m{i}"));
    }
    let verifier = dvm_repro::verifier::StaticVerifier::new(
        dvm_repro::verifier::MapEnvironment::with_bootstrap(),
    );
    let mut provider = MapProvider::new();
    for cf in &app.classes {
        let mut unit = RewriteUnit::new(cf.clone());
        dvm_repro::monitor::audit_class(&mut unit, &mut sites).unwrap();
        dvm_repro::monitor::profile_class(&mut unit, &mut sites, ProfileMode::Block).unwrap();
        let (mut verified, _) = verifier.verify(unit.finish().unwrap()).unwrap();
        provider.insert_class(&mut verified).unwrap();
    }
    assert!(sites.len() > PRE_INTERNED as usize);

    #[derive(Default)]
    struct Reported(std::sync::Arc<std::sync::Mutex<Vec<i32>>>);
    impl dvm_repro::jvm::DynamicServices for Reported {
        fn audit_event(&mut self, site: i32, _kind: dvm_repro::jvm::AuditKind) {
            self.0.lock().unwrap().push(site);
        }
        fn profile_count(&mut self, site: i32) {
            self.0.lock().unwrap().push(site);
        }
        fn first_use(&mut self, site: i32) {
            self.0.lock().unwrap().push(site);
        }
    }
    let reported = Reported::default();
    let seen = reported.0.clone();
    let mut vm = Vm::with_services(Box::new(provider), Box::new(reported)).unwrap();
    let completion = vm.run_main(&app.main_class).unwrap();
    assert!(
        matches!(completion, Completion::Normal(_)),
        "{completion:?}"
    );

    let seen = seen.lock().unwrap();
    assert!(!seen.is_empty(), "no probe fired");
    let app_classes: std::collections::HashSet<&str> =
        app.classes.iter().map(|cf| cf.name().unwrap()).collect();
    for &site in seen.iter() {
        assert!(site >= PRE_INTERNED, "site {site} is a pre-interned id");
        let (class, _) = sites
            .resolve(dvm_repro::monitor::SiteId(site))
            .unwrap_or_else(|| panic!("site {site} was never assigned"));
        assert!(app_classes.contains(class), "site {site} names {class}");
    }
}
