//! The remote administration console.
//!
//! Clients perform a handshake establishing credentials, their hardware
//! configuration, and their native format (§3.3/§3.4); the console assigns
//! a session id and thereafter receives audit events over that session.
//! The audit log is append-only and lives on the console host: a security
//! breach on a client "may stop the creation of new audit events but
//! cannot tamper with existing audit logs".
//!
//! A remote client batches its events (the net crate's `RemoteConsole`):
//! it writes them when 16 KiB of frames are buffered, when the oldest is
//! 2 ms old (checked as the next event is recorded), before every class
//! fetch, when a run returns, and when the channel closes. That opens a
//! tamper window the paper's design does not have: events a client has
//! recorded but not yet written can still be suppressed by a breach of
//! that client. While the program keeps producing events the window is
//! the 2 ms deadline; it never spans a class fetch or the end of a run,
//! and it never reaches events already written.
//!
//! Aggregate statistics (per-site usage, per-session counts) are exact
//! over the whole stream; the raw event log retains a bounded window (a
//! real console rotates its logs to stable storage — this reproduction
//! keeps the most recent [`AdminConsole::retained_capacity`] records in
//! memory).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sites::SiteId;

/// A monitoring session id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

/// The client's self-description presented during the handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientDescription {
    /// User credentials (already authenticated upstream).
    pub user: String,
    /// Hardware description, e.g. `"x86/200MHz/64MB"`.
    pub hardware: String,
    /// The client's native code format. Recorded, not consumed: the
    /// network compiler ships one portable IR to every client.
    pub native_format: String,
    /// JVM implementation version string.
    pub jvm_version: String,
}

/// Kinds of audit events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Method/constructor entry.
    Enter,
    /// Method/constructor exit.
    Exit,
    /// Generic noteworthy event.
    Event,
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Session that produced the event.
    pub session: SessionId,
    /// Instrumentation site.
    pub site: SiteId,
    /// Event kind.
    pub kind: EventKind,
    /// Sequence number within the log.
    pub seq: u64,
}

/// Default bounded window of raw records kept in memory.
pub const DEFAULT_RETAINED: usize = 1 << 16;

/// The central administration console.
#[derive(Debug)]
pub struct AdminConsole {
    sessions: HashMap<SessionId, ClientDescription>,
    recent: VecDeque<AuditRecord>,
    retained_capacity: usize,
    total_events: u64,
    usage_enter: HashMap<SiteId, u64>,
    per_session: HashMap<SessionId, u64>,
    next_session: u64,
}

impl Default for AdminConsole {
    fn default() -> Self {
        AdminConsole::new()
    }
}

impl AdminConsole {
    /// Creates an empty console with the default retained window.
    pub fn new() -> AdminConsole {
        AdminConsole::with_retention(DEFAULT_RETAINED)
    }

    /// Creates a console retaining up to `retained` raw records.
    pub fn with_retention(retained: usize) -> AdminConsole {
        AdminConsole {
            sessions: HashMap::new(),
            recent: VecDeque::new(),
            retained_capacity: retained.max(1),
            total_events: 0,
            usage_enter: HashMap::new(),
            per_session: HashMap::new(),
            next_session: 0,
        }
    }

    /// The raw-record retention capacity.
    pub fn retained_capacity(&self) -> usize {
        self.retained_capacity
    }

    /// Performs the client handshake, assigning a session id.
    pub fn handshake(&mut self, description: ClientDescription) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(id, description);
        id
    }

    /// Appends an audit event. There is deliberately no API to modify or
    /// remove existing records.
    pub fn record(&mut self, session: SessionId, site: SiteId, kind: EventKind) {
        let seq = self.total_events;
        self.total_events += 1;
        *self.per_session.entry(session).or_insert(0) += 1;
        if kind == EventKind::Enter {
            *self.usage_enter.entry(site).or_insert(0) += 1;
        }
        if self.recent.len() == self.retained_capacity {
            self.recent.pop_front();
        }
        self.recent.push_back(AuditRecord {
            session,
            site,
            kind,
            seq,
        });
    }

    /// Number of active sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The client description for a session.
    pub fn session(&self, id: SessionId) -> Option<&ClientDescription> {
        self.sessions.get(&id)
    }

    /// Total events ever recorded (exact, unaffected by retention).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// The retained window of raw records, oldest first.
    pub fn log(&self) -> impl Iterator<Item = &AuditRecord> {
        self.recent.iter()
    }

    /// Number of retained raw records.
    pub fn retained_len(&self) -> usize {
        self.recent.len()
    }

    /// Retained events for one session.
    pub fn events_for(&self, session: SessionId) -> impl Iterator<Item = &AuditRecord> {
        self.recent.iter().filter(move |r| r.session == session)
    }

    /// Exact event count for one session.
    pub fn session_events(&self, session: SessionId) -> u64 {
        self.per_session.get(&session).copied().unwrap_or(0)
    }

    /// Aggregates usage: how many times each site was entered, across the
    /// network (resource accounting / usage-pattern analysis). Exact over
    /// the whole stream.
    pub fn usage_by_site(&self) -> &HashMap<SiteId, u64> {
        &self.usage_enter
    }

    /// Distinct native formats across sessions: the targets a §3.4
    /// per-format compiler would serve.
    pub fn native_formats(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .sessions
            .values()
            .map(|d| d.native_format.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Where a client's audit events go.
///
/// The client-resident audit component reports upstream through this
/// trait; the console may sit in the same process ([`ConsoleSink`]) or
/// behind a socket (the net crate's `RemoteConsole`), and the client
/// does not care which.
pub trait AuditSink: Send {
    /// Reports one audit event for this sink's session.
    fn record(&mut self, site: SiteId, kind: EventKind);

    /// Delivers any buffered or spooled events; default is a no-op for
    /// unbuffered sinks. A client calls it before every class fetch and
    /// when a run returns.
    fn flush(&mut self) {}
}

/// An [`AuditSink`] writing directly into a shared in-process console.
pub struct ConsoleSink {
    console: Arc<Mutex<AdminConsole>>,
    session: SessionId,
}

impl ConsoleSink {
    /// Binds a sink to `console` under `session`.
    pub fn new(console: Arc<Mutex<AdminConsole>>, session: SessionId) -> ConsoleSink {
        ConsoleSink { console, session }
    }

    /// The session this sink reports under.
    pub fn session(&self) -> SessionId {
        self.session
    }
}

impl AuditSink for ConsoleSink {
    fn record(&mut self, site: SiteId, kind: EventKind) {
        self.console.lock().record(self.session, site, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(user: &str, format: &str) -> ClientDescription {
        ClientDescription {
            user: user.into(),
            hardware: "x86/200MHz/64MB".into(),
            native_format: format.into(),
            jvm_version: "dvm-0.1".into(),
        }
    }

    #[test]
    fn handshake_assigns_unique_sessions() {
        let mut c = AdminConsole::new();
        let a = c.handshake(desc("alice", "x86"));
        let b = c.handshake(desc("bob", "alpha"));
        assert_ne!(a, b);
        assert_eq!(c.session_count(), 2);
        assert_eq!(c.session(a).unwrap().user, "alice");
    }

    #[test]
    fn log_is_append_only_and_ordered() {
        let mut c = AdminConsole::new();
        let s = c.handshake(desc("alice", "x86"));
        c.record(s, SiteId(0), EventKind::Enter);
        c.record(s, SiteId(0), EventKind::Exit);
        let log: Vec<_> = c.log().collect();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].seq, 0);
        assert_eq!(log[1].seq, 1);
        assert_eq!(c.total_events(), 2);
    }

    #[test]
    fn usage_aggregation_counts_entries() {
        let mut c = AdminConsole::new();
        let s1 = c.handshake(desc("alice", "x86"));
        let s2 = c.handshake(desc("bob", "x86"));
        for _ in 0..3 {
            c.record(s1, SiteId(7), EventKind::Enter);
        }
        c.record(s2, SiteId(7), EventKind::Enter);
        c.record(s2, SiteId(7), EventKind::Exit);
        assert_eq!(c.usage_by_site()[&SiteId(7)], 4);
        assert_eq!(c.session_events(s1), 3);
        assert_eq!(c.session_events(s2), 2);
    }

    #[test]
    fn retention_bounds_memory_but_counts_stay_exact() {
        let mut c = AdminConsole::with_retention(10);
        let s = c.handshake(desc("alice", "x86"));
        for _ in 0..100 {
            c.record(s, SiteId(1), EventKind::Enter);
        }
        assert_eq!(c.retained_len(), 10);
        assert_eq!(c.total_events(), 100);
        assert_eq!(c.usage_by_site()[&SiteId(1)], 100);
        // Oldest retained record is seq 90.
        assert_eq!(c.log().next().unwrap().seq, 90);
    }

    #[test]
    fn native_formats_deduplicate() {
        let mut c = AdminConsole::new();
        c.handshake(desc("a", "x86"));
        c.handshake(desc("b", "alpha"));
        c.handshake(desc("c", "x86"));
        assert_eq!(c.native_formats(), vec!["alpha", "x86"]);
    }
}
