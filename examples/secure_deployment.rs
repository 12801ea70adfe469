//! Secure deployment: organization-wide policy enforcement with central
//! revocation (§3.2 of the paper).
//!
//! An untrusted application reads files under `/data/`. The organization
//! policy allows it for `applets` but not for `trusted`: the proxy
//! rewrites the class once, and both principals run that same cached
//! rewrite, because the served code names only the permission and each
//! client's enforcement manager decides it under its own SID. Then the
//! administrator revokes `file.open` at the *security server*, after
//! which every client in the organization denies the access without any
//! client-side reconfiguration (the cache-invalidation protocol clears
//! the enforcement managers).
//!
//! ```sh
//! cargo run --release --example secure_deployment
//! ```

use dvm_bytecode::Asm;
use dvm_classfile::{AccessFlags, Attribute, ClassBuilder, ClassFile, MemberInfo};
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_jvm::Completion;
use dvm_proxy::ServedFrom;
use dvm_security::Policy;

/// An app that opens `/data/report.txt` and reads a byte.
fn file_reader() -> ClassFile {
    let mut cf = ClassBuilder::new("app/Reader").build();
    let fis = cf.pool.class("java/io/FileInputStream").unwrap();
    let init = cf
        .pool
        .methodref("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V")
        .unwrap();
    let read = cf
        .pool
        .methodref("java/io/FileInputStream", "read", "()I")
        .unwrap();
    let out = cf
        .pool
        .fieldref("java/lang/System", "out", "Ljava/io/PrintStream;")
        .unwrap();
    let println = cf
        .pool
        .methodref("java/io/PrintStream", "println", "(I)V")
        .unwrap();
    let path = cf.pool.string("/data/report.txt").unwrap();

    let mut a = Asm::new(1);
    a.new_object(fis)
        .dup()
        .ldc(path)
        .invokespecial(init)
        .astore(0);
    a.getstatic(out)
        .aload(0)
        .invokevirtual(read)
        .invokevirtual(println);
    a.ret();
    let code = a.finish().unwrap().encode(&cf.pool).unwrap();
    let name = cf.pool.utf8("main").unwrap();
    let desc = cf.pool.utf8("()V").unwrap();
    cf.methods.push(MemberInfo {
        access: AccessFlags::PUBLIC | AccessFlags::STATIC,
        name_index: name,
        descriptor_index: desc,
        attributes: vec![Attribute::Code(code)],
    });
    cf
}

/// The example policy, with `file.open` withheld from `trusted`.
fn policy() -> Policy {
    let grant = r#"<allow principal="trusted" permission="file.open"/>"#;
    let text = dvm_security::policy::example_policy().replace(grant, "");
    Policy::parse(&text).unwrap()
}

fn main() {
    let org = Organization::new(
        &[file_reader()],
        policy(),
        ServiceConfig::dvm(),
        CostModel::default(),
    )
    .unwrap();
    let policy = org.policy();
    let (sid, open_perm) = {
        let p = policy.lock();
        (p.principals["applets"], p.permissions["file.open"])
    };

    // Phase 1: the policy permits file access to 'applets' only. Alice's
    // request makes the proxy rewrite the class; Carol runs the same
    // cached bytes under her own SID.
    println!("== phase 1: policy allows file.open for 'applets', not 'trusted' ==");
    let mut alice = org.client("alice", "applets").unwrap();
    alice.vm.add_file("/data/report.txt", vec![42, 43, 44]);
    let r = alice.run_main("app/Reader").unwrap();
    match &r.completion {
        Completion::Normal(_) => {
            println!(
                "alice (applets) read the file; output = {:?}",
                alice.vm.stdout
            );
            println!("access checks executed: {}", r.security_checks);
        }
        Completion::Exception(_) => println!("ERROR: alice was denied: {:?}", r.exception),
    }
    let mut carol = org.client("carol", "trusted").unwrap();
    carol.vm.add_file("/data/report.txt", vec![42]);
    let r = carol.run_main("app/Reader").unwrap();
    let cached = r
        .transfers
        .iter()
        .all(|t| t.served_from == ServedFrom::MemoryCache);
    println!("carol (trusted) ran the cached rewrite: {cached}");
    match &r.completion {
        Completion::Exception(_) => {
            let (class, msg) = r.exception.clone().unwrap();
            println!("carol was denied: {class}: {msg}");
        }
        Completion::Normal(_) => println!("ERROR: carol was allowed file.open!"),
    }

    // Phase 2: the administrator revokes the permission once, centrally.
    println!("\n== phase 2: administrator revokes file.open at the security server ==");
    org.security.lock().revoke(sid, open_perm);
    println!(
        "cache invalidations pushed to clients: {}",
        org.security.lock().stats.invalidations_sent
    );

    // Phase 3: the same (already rewritten, already cached) code is now
    // denied on every client.
    let mut bob = org.client("bob", "applets").unwrap();
    bob.vm.add_file("/data/report.txt", vec![42]);
    let r = bob.run_main("app/Reader").unwrap();
    match &r.completion {
        Completion::Exception(_) => {
            let (class, msg) = r.exception.clone().unwrap();
            println!("bob was denied: {class}: {msg}");
        }
        Completion::Normal(_) => println!("ERROR: revocation did not take effect!"),
    }

    // The audit trail on the console shows both sessions' activity.
    let console = org.console.lock();
    println!(
        "\naudit log: {} events across {} sessions",
        console.total_events(),
        console.session_count()
    );
}
