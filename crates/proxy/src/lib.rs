//! The DVM proxy infrastructure (§3 of the paper).
//!
//! All static service components share one proxy: it "transparently
//! intercepts code requests from clients, parses JVM bytecodes and
//! generates the instrumented program in the appropriate binary format",
//! composing the services as stackable code-transformation [`filter`]s,
//! caching rewrites ([`cache`]), signing output so injected checks are
//! inseparable from applications ([`sign`], over a from-scratch RFC 1321
//! [`md5`]). The paper's audit trail is the monitor's: rewritten code
//! reports `AUDIT_EVENT`s to the administration console (`dvm-monitor`).

pub mod cache;
pub mod filter;
pub mod md5;
pub mod proxy;
pub mod sign;

pub use cache::{CacheExportPage, CacheStats, CacheTier, RewriteCache};
pub use filter::{Filter, FilterError, RequestContext};
pub use proxy::{
    ir_key, CodeOrigin, IrProduct, MapOrigin, PeerCache, Proxy, ProxyError, ProxyStats, Rewrite,
    RewriteCost, Rewritten, ServedFrom, ServedResponse, IR_SCHEME,
};
pub use sign::{SignatureCheck, Signer, TAG_LEN};
