//! The stackable code-transformation filter API.
//!
//! "An internal filtering API allows the logically separate services ... to
//! be composed on the proxy host. Parsing and code generation are performed
//! only once for all static services, while structuring the services as
//! independent code-transformation filters enables them to be stacked
//! according to site-specific requirements." (§3)
//!
//! Filters receive a parsed [`ClassFile`], never bytes: a [`Pipeline`] is
//! the proxy's [`Rewrite`] that parses once at its head and serializes
//! once at its tail.

use std::fmt;

use dvm_classfile::ClassFile;
use dvm_telemetry::TraceContext;

use crate::proxy::{ProxyError, Rewrite, Rewritten};

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

/// The identity filter: the "null proxy" configuration used for the
/// monolithic baseline measurements in §4.1.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullFilter;

impl Filter for NullFilter {
    fn name(&self) -> &str {
        "null"
    }

    fn apply(&self, class: ClassFile, _ctx: &RequestContext) -> Result<ClassFile, FilterError> {
        Ok(class)
    }
}

/// A stack of filters applied in order.
pub struct Pipeline {
    filters: Vec<Box<dyn Filter>>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.filters.iter().map(|x| x.name()).collect();
        write!(f, "Pipeline({names:?})")
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline {
            filters: Vec::new(),
        }
    }

    /// Appends a filter (site-specific stacking order).
    pub fn push(&mut self, filter: Box<dyn Filter>) {
        self.filters.push(filter);
    }

    /// Filter names in order.
    pub fn names(&self) -> Vec<&str> {
        self.filters.iter().map(|f| f.name()).collect()
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Returns `true` when the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Runs the class through every filter.
    pub fn run(&self, class: ClassFile, ctx: &RequestContext) -> Result<ClassFile, FilterError> {
        self.run_traced(class, ctx, &mut |_, _| {})
    }

    /// [`Pipeline::run`] with a per-stage observer: after each filter
    /// completes, `observe(name, elapsed_ns)` is called with its
    /// wall-clock duration. The proxy uses this to feed per-stage
    /// latency histograms and trace spans without the pipeline knowing
    /// anything about telemetry.
    pub fn run_traced(
        &self,
        mut class: ClassFile,
        ctx: &RequestContext,
        observe: &mut dyn FnMut(&str, u64),
    ) -> Result<ClassFile, FilterError> {
        for f in &self.filters {
            let t0 = std::time::Instant::now();
            class = f.apply(class, ctx)?;
            observe(f.name(), t0.elapsed().as_nanos() as u64);
        }
        Ok(class)
    }
}

impl Rewrite for Pipeline {
    fn stages(&self) -> Vec<&str> {
        self.names()
    }

    fn rewrite(
        &self,
        original: &[u8],
        ctx: &RequestContext,
        observe: &mut dyn FnMut(&str, u64),
    ) -> Result<Rewritten, ProxyError> {
        let parse_error = |e: dvm_classfile::ClassFileError| ProxyError::Parse(e.to_string());
        let class = ClassFile::parse(original).map_err(parse_error)?;
        let mut class = self
            .run_traced(class, ctx, observe)
            .map_err(ProxyError::Filter)?;
        Ok(Rewritten {
            payload: class.to_bytes().map_err(parse_error)?,
            ..Rewritten::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_classfile::{AccessFlags, ClassBuilder};

    struct MarkerFilter(&'static str);

    impl Filter for MarkerFilter {
        fn name(&self) -> &str {
            self.0
        }
        fn apply(
            &self,
            mut class: ClassFile,
            _: &RequestContext,
        ) -> Result<ClassFile, FilterError> {
            // Record application order via synthetic fields.
            let order = class.fields.len();
            let name = format!("__{}_{order}", self.0);
            let ni = class.pool.utf8(&name).map_err(|e| FilterError {
                filter: self.0.into(),
                reason: e.to_string(),
            })?;
            let di = class.pool.utf8("I").unwrap();
            class.fields.push(dvm_classfile::MemberInfo {
                access: AccessFlags::STATIC | AccessFlags::SYNTHETIC,
                name_index: ni,
                descriptor_index: di,
                attributes: vec![],
            });
            Ok(class)
        }
    }

    #[test]
    fn filters_stack_in_order() {
        let mut p = Pipeline::new();
        p.push(Box::new(MarkerFilter("verify")));
        p.push(Box::new(MarkerFilter("secure")));
        assert_eq!(p.names(), vec!["verify", "secure"]);
        let out = p
            .run(ClassBuilder::new("t/X").build(), &RequestContext::default())
            .unwrap();
        assert!(out.find_field("__verify_0").is_some());
        assert!(out.find_field("__secure_1").is_some());
    }

    #[test]
    fn null_filter_is_identity() {
        let mut p = Pipeline::new();
        p.push(Box::new(NullFilter));
        let input = ClassBuilder::new("t/Y").build();
        let out = p.run(input, &RequestContext::default()).unwrap();
        assert_eq!(out.name().unwrap(), "t/Y");
        assert!(out.fields.is_empty());
    }
}
