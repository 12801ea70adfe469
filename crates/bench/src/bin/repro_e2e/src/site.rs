//! One organization behind a real 3-shard `ProxyCluster` on loopback
//! TCP, and the blocking clients that drive it.

use std::io;
use std::path::{Path, PathBuf};

use dvm_cluster::{ClusterClassProvider, ClusterClientConfig, ClusterOptions, ProxyCluster};
use dvm_core::{CostModel, DvmClient, Organization, ServiceConfig};
use dvm_net::Hello;
use dvm_proxy::Signer;
use dvm_security::Policy;
use dvm_telemetry::MetricsSnapshot;

use crate::corpus::Corpus;

pub const SHARDS: usize = 3;

/// The key `Organization` signs with (it keeps its `Signer` private).
/// A mismatch cannot go unnoticed: every fetch would fail its signature
/// check and the run would report every op as failed.
const ORG_KEY: &[u8] = b"dvm-org-key";

pub fn signer() -> Signer {
    Signer::new(ORG_KEY)
}

/// `ServiceConfig::dvm()` with signing on: verification, security,
/// auditing, caching, signatures and the IR tier.
pub fn services() -> ServiceConfig {
    ServiceConfig {
        signing: true,
        ..ServiceConfig::dvm()
    }
}

pub fn policy() -> Policy {
    Policy::parse(dvm_security::policy::example_policy()).expect("the example policy parses")
}

pub fn hello(user: &str) -> Hello {
    Hello {
        user: user.to_owned(),
        principal: "applets".to_owned(),
        hardware: "x86/200MHz/64MB".to_owned(),
        native_format: "x86".to_owned(),
        jvm_version: "dvm-repro-0.1".to_owned(),
    }
}

/// A directory for store files, inside the build directory the
/// executable lives in, removed when the run ends however it ends.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn create(tag: &str) -> std::io::Result<DataDir> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .expect("an executable has a directory")
            .join(format!("repro_e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Site {
    pub org: Organization,
    pub cluster: ProxyCluster,
}

impl Site {
    /// A fresh organization (empty caches, empty site table) over the
    /// corpus, serving from ephemeral ports. With `data_dir`, every
    /// shard's cache is backed by a `dvm-store` under it and whatever an
    /// earlier life left there is served from the disk tier.
    pub fn start(corpus: &Corpus, data_dir: Option<&Path>) -> io::Result<Site> {
        let org =
            Organization::with_origin(corpus.origin(), policy(), services(), CostModel::default());
        let opts = ClusterOptions {
            data_dir: data_dir.map(Path::to_path_buf),
            ..ClusterOptions::default()
        };
        let cluster = org.serve_cluster_with(SHARDS, opts)?;
        Ok(Site { org, cluster })
    }

    /// A blocking request client routed by the cluster's ring.
    pub fn provider(&self, user: &str) -> ClusterClassProvider {
        ClusterClassProvider::new(
            self.cluster.addrs().to_vec(),
            self.cluster.ring().clone(),
            hello(user),
            Some(signer()),
            ClusterClientConfig::default(),
        )
    }

    /// A fresh DVM client (a JVM) whose classes come from the cluster.
    pub fn client(&self, user: &str) -> io::Result<DvmClient> {
        self.org.cluster_client(&self.cluster, user, "applets")
    }

    /// Every shard's registry merged, as if the cluster were one proxy.
    pub fn counters(&self) -> MetricsSnapshot {
        self.cluster.merged_metrics()
    }

    /// Fsyncs every shard's store (a graceful end of life).
    pub fn flush(&self) {
        for i in 0..self.cluster.len() {
            self.cluster.proxy(i).flush_store();
        }
    }

    /// Stops every shard and joins its threads.
    pub fn stop(self) {
        self.cluster.shutdown();
    }
}
