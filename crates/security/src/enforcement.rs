//! The security server and the client-side enforcement manager.
//!
//! The server answers access queries against the organization policy it
//! shares with the static rewriter; each client runs a small enforcement
//! manager that caches results. A cache-invalidation protocol lets the
//! server propagate policy changes: every grant/revoke clears the caches
//! of the clients still running (§3.2).

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::policy::{PermissionId, Policy, SecurityId};

/// Simulated cycles for downloading the relevant policy portion on the
/// first check (the paper's "download" column in Figure 9: ~5 ms at
/// 200 MHz).
pub const POLICY_DOWNLOAD_CYCLES: u64 = 1_000_000;

/// Simulated cycles for a warm enforcement-manager cache hit (~7 µs).
pub const CACHE_HIT_CYCLES: u64 = 1_440;

/// Simulated cycles for a post-download cache miss answered by the server
/// over the LAN.
pub const SERVER_QUERY_CYCLES: u64 = 36_000;

/// Server-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Access queries answered.
    pub queries: u64,
    /// Policy updates applied.
    pub updates: u64,
    /// Cache invalidations pushed to live clients.
    pub invalidations_sent: u64,
}

type CacheCell = Mutex<HashMap<PermissionId, bool>>;

/// The centralized security service. It owns no copy of the policy: it
/// reads and edits the organization's one shared [`Policy`].
#[derive(Debug)]
pub struct SecurityServer {
    policy: Arc<Mutex<Policy>>,
    /// The caches of registered clients; a dropped client's cell dies
    /// with it and is pruned at the next grant or revoke.
    clients: Vec<Weak<CacheCell>>,
    /// Statistics.
    pub stats: ServerStats,
}

impl SecurityServer {
    /// Creates a server over the shared `policy`.
    pub fn new(policy: Arc<Mutex<Policy>>) -> SecurityServer {
        SecurityServer {
            policy,
            clients: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// Answers one access query.
    pub fn query(&mut self, sid: SecurityId, perm: PermissionId) -> bool {
        self.stats.queries += 1;
        self.policy.lock().allows(sid, perm)
    }

    /// Grants a permission and invalidates client caches.
    pub fn grant(&mut self, sid: SecurityId, perm: PermissionId) {
        self.policy.lock().grant(sid, perm);
        self.invalidate_clients();
    }

    /// Revokes a permission and invalidates client caches.
    pub fn revoke(&mut self, sid: SecurityId, perm: PermissionId) {
        self.policy.lock().revoke(sid, perm);
        self.invalidate_clients();
    }

    fn invalidate_clients(&mut self) {
        self.stats.updates += 1;
        let sent = &mut self.stats.invalidations_sent;
        self.clients.retain(|c| {
            let Some(c) = c.upgrade() else { return false };
            c.lock().clear();
            *sent += 1;
            true
        });
    }

    fn register(&mut self) -> Arc<CacheCell> {
        let cell = Arc::new(Mutex::new(HashMap::new()));
        self.clients.push(Arc::downgrade(&cell));
        cell
    }
}

/// Client-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnforcementStats {
    /// Checks answered from the local cache.
    pub cache_hits: u64,
    /// Checks that queried the server.
    pub cache_misses: u64,
    /// Policy-portion downloads performed (first check).
    pub downloads: u64,
    /// Checks denied.
    pub denials: u64,
}

/// The enforcement manager: the dynamic component of the security service,
/// resident on each client. It decides every check under its session's
/// SID; the served code names only the permission.
#[derive(Debug)]
pub struct EnforcementManager {
    server: Arc<Mutex<SecurityServer>>,
    sid: SecurityId,
    cache: Arc<CacheCell>,
    downloaded: bool,
    /// Statistics.
    pub stats: EnforcementStats,
}

impl EnforcementManager {
    /// Registers a new client session running as `sid` with `server`.
    pub fn register(server: Arc<Mutex<SecurityServer>>, sid: SecurityId) -> EnforcementManager {
        let cache = server.lock().register();
        EnforcementManager {
            server,
            sid,
            cache,
            downloaded: false,
            stats: EnforcementStats::default(),
        }
    }

    /// Checks the session's `perm`, returning the decision and its
    /// simulated cycle cost.
    pub fn check(&mut self, perm: PermissionId) -> (bool, u64) {
        if let Some(&allowed) = self.cache.lock().get(&perm) {
            self.stats.cache_hits += 1;
            if !allowed {
                self.stats.denials += 1;
            }
            return (allowed, CACHE_HIT_CYCLES);
        }
        let cost = if self.downloaded {
            self.stats.cache_misses += 1;
            SERVER_QUERY_CYCLES
        } else {
            // First check ever: fetch the relevant portion of the global
            // policy from the server.
            self.downloaded = true;
            self.stats.downloads += 1;
            POLICY_DOWNLOAD_CYCLES
        };
        let allowed = self.server.lock().query(self.sid, perm);
        self.cache.lock().insert(perm, allowed);
        if !allowed {
            self.stats.denials += 1;
        }
        (allowed, cost)
    }

    /// Returns `true` when the cache currently holds a decision for
    /// `perm` (used by the cache-invalidation tests).
    pub fn is_cached(&self, perm: PermissionId) -> bool {
        self.cache.lock().contains_key(&perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::example_policy;

    fn setup() -> (
        Arc<Mutex<SecurityServer>>,
        EnforcementManager,
        SecurityId,
        PermissionId,
    ) {
        let policy = Policy::parse(example_policy()).unwrap();
        let sid = policy.principals["applets"];
        let perm = policy.permissions["file.read"];
        let server = Arc::new(Mutex::new(SecurityServer::new(Arc::new(Mutex::new(
            policy,
        )))));
        let em = EnforcementManager::register(server.clone(), sid);
        (server, em, sid, perm)
    }

    #[test]
    fn first_check_downloads_then_hits_cache() {
        let (_server, mut em, _, perm) = setup();
        let (ok, cost) = em.check(perm);
        assert!(ok);
        assert_eq!(cost, POLICY_DOWNLOAD_CYCLES);
        let (ok, cost) = em.check(perm);
        assert!(ok);
        assert_eq!(cost, CACHE_HIT_CYCLES);
        assert_eq!(em.stats.downloads, 1);
        assert_eq!(em.stats.cache_hits, 1);
    }

    #[test]
    fn revocation_invalidates_client_caches() {
        let (server, mut em, sid, perm) = setup();
        em.check(perm);
        assert!(em.is_cached(perm));
        server.lock().revoke(sid, perm);
        assert!(!em.is_cached(perm), "invalidation must clear the cache");
        let (ok, _) = em.check(perm);
        assert!(!ok, "revoked permission must now be denied");
        assert_eq!(em.stats.denials, 1);
    }

    #[test]
    fn grant_propagates_to_clients() {
        let (server, mut em, sid, _) = setup();
        let new_perm = PermissionId(99);
        let (ok, _) = em.check(new_perm);
        assert!(!ok);
        server.lock().grant(sid, new_perm);
        let (ok, _) = em.check(new_perm);
        assert!(ok);
    }

    #[test]
    fn multiple_clients_all_invalidate() {
        let (server, mut em1, sid, perm) = setup();
        let mut em2 = EnforcementManager::register(server.clone(), sid);
        em1.check(perm);
        em2.check(perm);
        server.lock().revoke(sid, perm);
        assert!(!em1.is_cached(perm));
        assert!(!em2.is_cached(perm));
        assert_eq!(server.lock().stats.invalidations_sent, 2);
    }

    #[test]
    fn dropped_clients_are_pruned_not_invalidated() {
        let (server, mut em, sid, perm) = setup();
        let mut managers: Vec<_> = (0..999)
            .map(|_| EnforcementManager::register(server.clone(), sid))
            .collect();
        em.check(perm);
        managers.clear();
        server.lock().revoke(sid, perm);
        assert_eq!(server.lock().stats.invalidations_sent, 1);
        assert_eq!(server.lock().clients.len(), 1);
        assert!(!em.is_cached(perm));
    }
}
