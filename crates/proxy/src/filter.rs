//! The stackable code-transformation filter API.
//!
//! "An internal filtering API allows the logically separate services ... to
//! be composed on the proxy host. Parsing and code generation are performed
//! only once for all static services, while structuring the services as
//! independent code-transformation filters enables them to be stacked
//! according to site-specific requirements." (§3)
//!
//! Filters receive a parsed [`ClassFile`], never bytes. The proxy runs
//! them through its [`Rewrite`](crate::Rewrite) hook, which `dvm-core`'s
//! static services implement: they parse once at its head, edit one
//! shared form of every method body, and serialize once at its tail.

use std::fmt;

use dvm_classfile::ClassFile;
use dvm_telemetry::TraceContext;

/// Per-request context threaded through the pipeline.
#[derive(Debug, Clone, Default)]
pub struct RequestContext {
    /// Requesting client identifier.
    pub client: String,
    /// Principal the code will run as (chooses the security SID).
    pub principal: String,
    /// Source URL of the code.
    pub url: String,
    /// Distributed-trace context, when the request arrived with one
    /// (spans recorded while serving it parent under `trace.parent`).
    pub trace: Option<TraceContext>,
}

/// A filter failure (converted from service errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterError {
    /// Filter that failed.
    pub filter: String,
    /// Explanation.
    pub reason: String,
}

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "filter {:?} failed: {}", self.filter, self.reason)
    }
}

impl std::error::Error for FilterError {}

/// A code-transformation filter. Implementations must be shareable across
/// proxy worker threads; internal mutability is the implementation's
/// responsibility.
pub trait Filter: Send + Sync {
    /// Short name for audit trails and diagnostics.
    fn name(&self) -> &str;

    /// Transforms one class.
    fn apply(&self, class: ClassFile, ctx: &RequestContext) -> Result<ClassFile, FilterError>;
}
