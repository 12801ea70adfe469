//! The DVM code-repartitioning service (§5 of the paper).
//!
//! Java's units of code transfer (classes, JAR archives) "fail to capture
//! the dynamic execution path for an application": 10–30% of downloaded
//! code is never invoked. This service regroups application code at
//! method granularity using a first-use profile collected by the
//! monitoring service: frequently used methods stay in the primary class,
//! cold methods move to overflow classes (`<Name>$Cold`) fetched only on
//! demand via forwarding stubs. [`startup`] models the resulting startup
//! times over arbitrary links (Figures 11 and 12).

pub mod error;
pub mod profile_model;
pub mod service;
pub mod splitter;
pub mod startup;

pub use error::{OptimizerError, Result};
pub use profile_model::{AppProfile, ClassProfile, MethodProfile};
pub use service::{repartition_app, ColdPolicy, RepartitionStats};
pub use splitter::{remap_code, split_class, SplitClass};
pub use startup::{improvement_percent, startup_bytes, startup_time, Strategy};
