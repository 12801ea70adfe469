//! The distributed virtual machine, assembled.
//!
//! This crate is the paper's primary contribution in executable form: an
//! [`Organization`] hosts the centralized static services (verification,
//! security, auditing, profiling) as a filter pipeline on a transparent
//! code proxy, plus the security server, administration console, and
//! network compiler (the IR tier: `dvm_compiler::ExecCompiler` compiles
//! each rewritten class once into an `ir://` package); [`DvmClient`]s
//! fetch all code through the proxy and run the small dynamic service
//! components locally; the [`MonolithicClient`] baseline performs every
//! service on the client, as the systems the paper compares against did.
//!
//! # Examples
//!
//! ```
//! use dvm_core::{CostModel, Organization, ServiceConfig};
//! use dvm_security::Policy;
//! use dvm_workload::{figure5_apps, generate};
//!
//! let spec = figure5_apps().remove(0).scaled(1, 20000);
//! let app = generate(&spec);
//! let org = Organization::new(
//!     &app.classes,
//!     Policy::parse(dvm_security::policy::example_policy()).unwrap(),
//!     ServiceConfig::dvm(),
//!     CostModel::default(),
//! )
//! .unwrap();
//! let mut client = org.client("alice", "applets").unwrap();
//! let report = client.run_main(&app.main_class).unwrap();
//! assert!(report.total_time.as_nanos() > 0);
//! ```

pub mod client;
pub mod config;
pub mod filters;
pub mod monolithic;
pub mod org;

pub use client::{DvmClient, RunReport, TransferRecord, DYNAMIC_CHECK_CYCLES};
pub use config::{CostModel, ServiceConfig};
pub use filters::StaticServiceStats;
pub use monolithic::{MonolithicClient, MonolithicReport};
pub use org::Organization;
