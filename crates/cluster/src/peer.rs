//! Peer cache-fill: shard-to-shard traffic over the same wire protocol.
//!
//! When a shard misses its local rewrite cache, the class may already be
//! rewritten on the URL's *home shard* (the one the ring sends most
//! clients to). Rather than pay the full rewrite cost, the shard probes
//! the home shard with a `PEER_GET`; and after it does rewrite a class
//! it does not own, it pushes the result home with a fire-and-forget
//! `PEER_PUT` so the next asker finds it there.
//!
//! Both paths are strictly fail-open: any transport trouble, overload
//! rejection, or cache miss simply falls back to the local rewrite. A
//! peer probe must never be worse than not probing at all.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dvm_net::{ErrorCode, Frame, Hello, NetConfig};
use dvm_proxy::PeerCache;
use dvm_telemetry::{Counter, Telemetry};

use crate::ring::HashRing;

/// One shard's outbound peer-traffic counters, on the shard's plane.
struct PeerCounters {
    /// `PEER_GET` probes sent (`cluster.peer.gets`).
    gets: Arc<Counter>,
    /// Probes answered with bytes (`cluster.peer.hits`).
    hits: Arc<Counter>,
    /// `PEER_PUT` offers delivered (`cluster.peer.puts`).
    puts: Arc<Counter>,
    /// Probes or offers abandoned to a transport failure, overload
    /// rejection, or remote miss (`cluster.peer.failures`).
    failures: Arc<Counter>,
}

struct LinkConn {
    stream: TcpStream,
    next_request: u32,
}

/// One shard's persistent connection to a single peer shard.
///
/// The connection is lazy, serialized by a mutex (peer traffic is rare
/// enough that head-of-line blocking is irrelevant), and rebuilt at most
/// once per operation before failing open.
pub struct PeerLink {
    addr: SocketAddr,
    hello: Hello,
    net: NetConfig,
    conn: Mutex<Option<LinkConn>>,
}

impl std::fmt::Debug for PeerLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerLink")
            .field("addr", &self.addr)
            .finish()
    }
}

impl PeerLink {
    /// Creates a lazy link to the peer at `addr`, identifying itself
    /// with `hello` (conventionally user `shard<N>`).
    pub fn new(addr: SocketAddr, hello: Hello, net: NetConfig) -> PeerLink {
        PeerLink {
            addr,
            hello,
            net,
            conn: Mutex::new(None),
        }
    }

    fn connect(&self) -> Option<LinkConn> {
        let stream = TcpStream::connect_timeout(&self.addr, self.net.connect_timeout).ok()?;
        stream.set_read_timeout(Some(self.net.read_timeout)).ok()?;
        stream
            .set_write_timeout(Some(self.net.write_timeout))
            .ok()?;
        let _ = stream.set_nodelay(true);
        let mut conn = LinkConn {
            stream,
            next_request: 1,
        };
        Frame::Hello(self.hello.clone())
            .write_to(&mut conn.stream)
            .ok()?;
        match Frame::read_from(&mut conn.stream) {
            Ok(Frame::Welcome { .. }) => Some(conn),
            // Anything else — including a typed Overloaded rejection —
            // means this peer cannot help right now; fail open.
            _ => None,
        }
    }

    /// The probe outcome distinguishes "no bytes, connection fine" from
    /// "connection is broken, retry on a fresh one".
    fn get_once(&self, conn: &mut LinkConn, url: &str) -> Result<Option<Vec<u8>>, ()> {
        let request_id = conn.next_request;
        conn.next_request = conn.next_request.wrapping_add(1).max(1);
        Frame::PeerGet {
            request_id,
            url: url.to_owned(),
        }
        .write_to(&mut conn.stream)
        .map_err(|_| ())?;
        match Frame::read_from(&mut conn.stream) {
            Ok(Frame::CodeResponse {
                request_id: rid,
                bytes,
                ..
            }) if rid == request_id => Ok(Some(bytes)),
            Ok(Frame::Error {
                code: ErrorCode::CacheMiss,
                ..
            }) => Ok(None),
            // Wrong id, other error codes, or transport failure: treat
            // the connection as suspect.
            _ => Err(()),
        }
    }

    /// Asks the peer for its cached copy of `url`. `None` on miss or any
    /// failure (after one reconnect attempt).
    pub fn get(&self, url: &str) -> Option<Vec<u8>> {
        let mut guard = self.conn.lock();
        for fresh in [false, true] {
            if guard.is_none() || fresh {
                *guard = self.connect();
            }
            let conn = guard.as_mut()?;
            match self.get_once(conn, url) {
                Ok(answer) => return answer,
                Err(()) => *guard = None,
            }
        }
        None
    }

    /// Offers `bytes` for `url` to the peer, fire-and-forget. Returns
    /// `true` when the frame was written (after at most one reconnect).
    pub fn put(&self, url: &str, bytes: &[u8]) -> bool {
        let frame = Frame::PeerPut {
            url: url.to_owned(),
            bytes: bytes.to_vec(),
        };
        let mut guard = self.conn.lock();
        for fresh in [false, true] {
            if guard.is_none() || fresh {
                *guard = self.connect();
            }
            let Some(conn) = guard.as_mut() else {
                return false;
            };
            if frame.write_to(&mut conn.stream).is_ok() {
                return true;
            }
            *guard = None;
        }
        false
    }

    /// Closes the link (re-established lazily on next use).
    pub fn close(&self) {
        if let Some(mut conn) = self.conn.lock().take() {
            let _ = Frame::Bye.write_to(&mut conn.stream);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One shard's view of its peers: the ring for home lookup plus a link
/// per other shard. Installed into the shard's `Proxy` via
/// [`dvm_proxy::Proxy::set_peer_cache`].
pub struct ClusterPeer {
    shard: u32,
    /// The ring is behind a lock so the membership plane can swap in a
    /// new epoch while requests are in flight; a home lookup sees either
    /// the old owner or the new one, never a torn table.
    ring: RwLock<HashRing>,
    links: RwLock<HashMap<u32, Arc<PeerLink>>>,
    counters: PeerCounters,
}

impl std::fmt::Debug for ClusterPeer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterPeer")
            .field("shard", &self.shard)
            .field("links", &self.links.read().len())
            .finish()
    }
}

impl ClusterPeer {
    /// Creates a peer table for `shard`, counting `cluster.peer.*` on
    /// `telemetry` (the shard's plane); links are installed afterwards
    /// with [`ClusterPeer::set_links`] once every shard's server has a
    /// bound address.
    pub fn new(shard: u32, ring: HashRing, telemetry: &Telemetry) -> ClusterPeer {
        let r = telemetry.registry();
        ClusterPeer {
            shard,
            ring: RwLock::new(ring),
            links: RwLock::new(HashMap::new()),
            counters: PeerCounters {
                gets: r.counter("cluster.peer.gets"),
                hits: r.counter("cluster.peer.hits"),
                puts: r.counter("cluster.peer.puts"),
                failures: r.counter("cluster.peer.failures"),
            },
        }
    }

    /// Installs the link table (shard id → link).
    pub fn set_links(&self, links: HashMap<u32, Arc<PeerLink>>) {
        *self.links.write() = links;
    }

    /// Swaps in the ring for a new epoch (membership change). Peer
    /// traffic started under the old epoch completes against whichever
    /// shard it already chose — both sides still verify signatures, so
    /// a stale home costs a miss, never wrong bytes.
    pub fn set_ring(&self, ring: HashRing) {
        *self.ring.write() = ring;
    }

    /// The epoch of the ring this peer table routes with.
    pub fn ring_epoch(&self) -> u64 {
        self.ring.read().epoch()
    }

    fn link_for_home(&self, url: &str) -> Option<Arc<PeerLink>> {
        let home = self.ring.read().home(url)?;
        if home == self.shard {
            // This shard *is* the home: nothing to ask, nowhere to push.
            return None;
        }
        self.links.read().get(&home).cloned()
    }
}

impl PeerCache for ClusterPeer {
    fn fetch_from_home(&self, url: &str) -> Option<Vec<u8>> {
        let link = self.link_for_home(url)?;
        self.counters.gets.inc();
        let answer = link.get(url);
        if answer.is_some() {
            self.counters.hits.inc();
        } else {
            self.counters.failures.inc();
        }
        answer
    }

    fn offer_to_home(&self, url: &str, bytes: &[u8]) -> bool {
        let Some(link) = self.link_for_home(url) else {
            return false;
        };
        if link.put(url, bytes) {
            self.counters.puts.inc();
            true
        } else {
            self.counters.failures.inc();
            false
        }
    }
}
