//! The proxy's two-tier rewrite cache.
//!
//! "The proxy uses a cache to avoid rewriting code shared between clients"
//! (§3). Rewritten classes live in a bounded in-memory tier backed by an
//! unbounded on-disk tier; §4.1.2 measures a cached fetch at 338 ms, which
//! is the disk tier's access profile. The proxy counts which tier
//! answered; the cache counts what only it sees — evictions, rejected
//! disk loads, failed store writes — on the proxy's telemetry plane.
//!
//! Values are `Arc<[u8]>` end to end, so a memory-tier hit is a refcount
//! bump, not an allocation — the same representation `MapOrigin` uses.
//!
//! The disk tier has two implementations behind `DiskTier`: the
//! original in-process `HashMap` (dies with the process), and a
//! [`dvm_store::Store`]-backed persistent tier that survives a kill and
//! lets the shard restart warm. Persistent entries are stored as
//! `md5(payload) ‖ payload`, and the digest is re-verified on every
//! disk-tier load: a flipped byte, a stale file from another build, or
//! a partially recovered record degrades to a cache *miss* (the class
//! is re-rewritten) rather than ever serving wrong bytes.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use dvm_store::{Store, StoreStats};
use dvm_telemetry::Registry;

use crate::md5::md5;

/// One page of a key-ordered cache export: the entries plus a flag that
/// is `true` when the range is exhausted.
pub type CacheExportPage = (Vec<(String, Arc<[u8]>)>, bool);

/// Which tier served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from memory.
    Memory,
    /// Served from the on-disk store.
    Disk,
}

dvm_telemetry::counters! {
    /// Registered handles behind [`CacheStats`].
    pub(crate) struct CacheCounters;
    /// The counts only the cache can see, read from the owning proxy's
    /// telemetry plane. Tier hits and misses are the proxy's
    /// (`ProxyStats`); a peek, a fill or an export counts neither.
    pub struct CacheStats {
        /// Evictions from memory to disk.
        evictions = "proxy.cache.evictions",
        /// Disk-tier loads rejected because the stored MD5 did not match
        /// the payload (treated as misses; the entry is purged).
        disk_load_rejects = "proxy.cache.disk_load_rejects",
        /// Persistent-store writes that failed (the entry stays
        /// memory-only; the cache fails open).
        store_errors = "proxy.cache.store_errors",
    }
}

/// The unbounded tier: in-process (lost on kill) or store-backed
/// (recovered on restart).
enum DiskTier {
    Ephemeral(HashMap<String, Arc<[u8]>>),
    Persistent(Box<Store>),
}

impl std::fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskTier::Ephemeral(m) => write!(f, "Ephemeral({} entries)", m.len()),
            DiskTier::Persistent(s) => write!(f, "Persistent({} entries)", s.len()),
        }
    }
}

/// Seals `value` for the persistent tier: 16-byte MD5 then payload.
fn seal(value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + value.len());
    out.extend_from_slice(&md5(value));
    out.extend_from_slice(value);
    out
}

/// Opens a sealed envelope, returning the payload (copied once, into
/// its shared allocation) only when the digest still matches it.
fn unseal(sealed: &[u8]) -> Option<Arc<[u8]>> {
    let (digest, payload) = sealed.split_at_checked(16)?;
    (md5(payload) == digest).then(|| Arc::from(payload))
}

/// A bounded-memory, unbounded-disk cache of rewritten class bytes.
#[derive(Debug)]
pub struct RewriteCache {
    memory: HashMap<String, Arc<[u8]>>,
    // Insertion-ordered keys for FIFO eviction.
    order: VecDeque<String>,
    disk: DiskTier,
    memory_capacity_bytes: usize,
    memory_bytes: usize,
    pub(crate) counters: CacheCounters,
}

impl RewriteCache {
    /// Creates a cache with the given memory-tier capacity in bytes and
    /// an ephemeral (in-process) disk tier, counting on `registry`.
    pub fn new(memory_capacity_bytes: usize, registry: &Registry) -> RewriteCache {
        RewriteCache {
            memory: HashMap::new(),
            order: VecDeque::new(),
            disk: DiskTier::Ephemeral(HashMap::new()),
            memory_capacity_bytes,
            memory_bytes: 0,
            counters: CacheCounters::register(registry),
        }
    }

    /// Replaces the disk tier with a persistent store. Entries already
    /// in the ephemeral tier are written through (sealed) so nothing
    /// cached so far is lost; entries already in the store — a previous
    /// life of this shard — become visible immediately.
    pub fn attach_store(&mut self, mut store: Store) {
        if let DiskTier::Ephemeral(map) = &self.disk {
            let mut entries: Vec<(&String, &Arc<[u8]>)> = map.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            for (key, value) in entries {
                if store.put(key, &seal(value)).is_err() {
                    self.counters.store_errors.inc();
                }
            }
        }
        self.disk = DiskTier::Persistent(Box::new(store));
    }

    /// This cache's evictions, rejected disk loads and store errors.
    pub fn stats(&self) -> CacheStats {
        self.counters.view()
    }

    /// Whether the disk tier survives a process kill.
    pub fn is_persistent(&self) -> bool {
        matches!(self.disk, DiskTier::Persistent(_))
    }

    /// The persistent store's own counters, when one is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        match &self.disk {
            DiskTier::Persistent(s) => Some(s.stats()),
            DiskTier::Ephemeral(_) => None,
        }
    }

    /// Mutable access to the attached store (telemetry wiring, flush).
    pub fn store_mut(&mut self) -> Option<&mut Store> {
        match &mut self.disk {
            DiskTier::Persistent(s) => Some(s),
            DiskTier::Ephemeral(_) => None,
        }
    }

    /// Reads `key` from the disk tier, verifying the envelope when
    /// persistent. A failed verification purges the entry and counts a
    /// `disk_load_rejects` — corrupt bytes are never returned.
    fn disk_get(&mut self, key: &str) -> Option<Arc<[u8]>> {
        match &mut self.disk {
            DiskTier::Ephemeral(map) => map.get(key).cloned(),
            DiskTier::Persistent(store) => {
                let sealed = store.get(key).ok().flatten()?;
                let payload = unseal(&sealed);
                if payload.is_none() {
                    let _ = store.delete(key);
                    self.counters.disk_load_rejects.inc();
                }
                payload
            }
        }
    }

    fn disk_put(&mut self, key: &str, value: &Arc<[u8]>) {
        match &mut self.disk {
            DiskTier::Ephemeral(map) => {
                map.insert(key.to_owned(), Arc::clone(value));
            }
            DiskTier::Persistent(store) => {
                if store.put(key, &seal(value)).is_err() {
                    self.counters.store_errors.inc();
                }
            }
        }
    }

    fn disk_contains(&self, key: &str) -> bool {
        match &self.disk {
            DiskTier::Ephemeral(map) => map.contains_key(key),
            DiskTier::Persistent(store) => store.contains(key),
        }
    }

    /// Looks up `key`, reporting which tier answered. Disk hits are
    /// promoted to memory.
    pub fn get(&mut self, key: &str) -> Option<(Arc<[u8]>, CacheTier)> {
        if let Some(v) = self.get_memory(key) {
            return Some((v, CacheTier::Memory));
        }
        if let Some(v) = self.disk_get(key) {
            self.insert_memory(key.to_owned(), Arc::clone(&v));
            return Some((v, CacheTier::Disk));
        }
        None
    }

    /// Looks up `key` in the memory tier only, never touching the disk
    /// tier (the caller falls back to [`get`] for that).
    ///
    /// [`get`]: RewriteCache::get
    pub fn get_memory(&self, key: &str) -> Option<Arc<[u8]>> {
        self.memory.get(key).cloned()
    }

    /// Inserts a rewritten class.
    pub fn put(&mut self, key: String, value: Arc<[u8]>) {
        self.disk_put(&key, &value);
        self.insert_memory(key, value);
    }

    /// Inserts into a chosen tier: `Memory` behaves like [`put`]
    /// (resident in both tiers), `Disk` stores on disk only without
    /// disturbing the memory tier's working set. Peer cache-fill uses
    /// the disk tier for unsolicited offers so a remote shard's rewrite
    /// cannot evict this shard's hot classes.
    ///
    /// [`put`]: RewriteCache::put
    pub fn put_tier(&mut self, key: String, value: Arc<[u8]>, tier: CacheTier) {
        match tier {
            CacheTier::Memory => self.put(key, value),
            CacheTier::Disk => self.disk_put(&key, &value),
        }
    }

    /// Looks up `key` without counting a hit or a miss (and without
    /// promoting disk hits): the peer-protocol probe, which must not
    /// skew the local hit/miss accounting that the cache ablations
    /// report. (Persistent disk reads still verify the envelope.)
    pub fn peek(&mut self, key: &str) -> Option<(Arc<[u8]>, CacheTier)> {
        if let Some(v) = self.memory.get(key) {
            return Some((Arc::clone(v), CacheTier::Memory));
        }
        self.disk_get(key).map(|v| (v, CacheTier::Disk))
    }

    /// Up to `max` cached entries in ascending key order, strictly after
    /// `after`, plus `true` when the range is exhausted. The disk tier
    /// is the full cached population (every `put` writes through), so
    /// exporting it never misses a memory-resident entry. Persistent
    /// envelopes are verified: an entry whose digest no longer matches
    /// is purged and skipped, counted in `disk_load_rejects` — corrupt
    /// bytes never migrate. No hit/miss accounting, no promotion.
    pub fn export_after(&mut self, after: &str, max: usize) -> CacheExportPage {
        match &mut self.disk {
            DiskTier::Ephemeral(map) => {
                let mut keys: Vec<&String> = map.keys().filter(|k| k.as_str() > after).collect();
                keys.sort();
                let complete = keys.len() <= max;
                let keys: Vec<String> = keys.into_iter().take(max).cloned().collect();
                let out = keys
                    .into_iter()
                    .map(|k| {
                        let v = map[&k].clone();
                        (k, v)
                    })
                    .collect();
                (out, complete)
            }
            DiskTier::Persistent(store) => {
                let mut rejects = 0;
                let result = match store.export_after(after, max) {
                    Ok((entries, complete)) => {
                        let mut out = Vec::with_capacity(entries.len());
                        for (k, sealed) in entries {
                            match unseal(&sealed) {
                                Some(payload) => out.push((k, payload)),
                                None => {
                                    let _ = store.delete(&k);
                                    rejects += 1;
                                }
                            }
                        }
                        (out, complete)
                    }
                    Err(_) => {
                        self.counters.store_errors.inc();
                        (Vec::new(), true)
                    }
                };
                self.counters.disk_load_rejects.add(rejects);
                result
            }
        }
    }

    fn insert_memory(&mut self, key: String, value: Arc<[u8]>) {
        if self.memory.contains_key(&key) {
            return;
        }
        // An oversized value can never be memory-resident; admitting it
        // would evict the entire working set and then evict the value
        // itself — a full cache flush for nothing. It lives on disk only.
        if value.len() > self.memory_capacity_bytes {
            return;
        }
        self.memory_bytes += value.len();
        self.memory.insert(key.clone(), value);
        self.order.push_back(key);
        while self.memory_bytes > self.memory_capacity_bytes {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            if let Some(v) = self.memory.remove(&victim) {
                self.memory_bytes -= v.len();
                self.counters.evictions.inc();
            }
        }
    }

    /// Number of entries in the disk tier (total cached population).
    pub fn len(&self) -> usize {
        match &self.disk {
            DiskTier::Ephemeral(map) => map.len(),
            DiskTier::Persistent(store) => store.len(),
        }
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes resident in the memory tier.
    pub fn memory_resident_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Whether `key` is cached in any tier (no promotion, no stats).
    pub fn contains(&self, key: &str) -> bool {
        self.memory.contains_key(key) || self.disk_contains(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use dvm_store::StoreConfig;

    fn cache(memory_capacity_bytes: usize) -> RewriteCache {
        RewriteCache::new(memory_capacity_bytes, &Registry::new())
    }

    fn bytes(v: Vec<u8>) -> Arc<[u8]> {
        v.into()
    }

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("dvm-cache-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn memory_then_disk_tiering() {
        let mut c = cache(10);
        c.put("a".into(), bytes(vec![0; 8]));
        assert_eq!(c.get("a").unwrap().1, CacheTier::Memory);
        // Inserting b (8 bytes) evicts a from memory (capacity 10).
        c.put("b".into(), bytes(vec![0; 8]));
        assert_eq!(c.stats().evictions, 1);
        // a now comes from disk and is promoted.
        assert_eq!(c.get("a").unwrap().1, CacheTier::Disk);
        assert_eq!(c.get("a").unwrap().1, CacheTier::Memory);
    }

    #[test]
    fn a_miss_reads_as_none() {
        let mut c = cache(100);
        assert!(c.get("nope").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn memory_hits_share_the_allocation() {
        let mut c = cache(100);
        let v = bytes(vec![7; 32]);
        c.put("a".into(), Arc::clone(&v));
        let (hit, tier) = c.get("a").unwrap();
        assert_eq!(tier, CacheTier::Memory);
        // Same allocation, not a copy.
        assert!(Arc::ptr_eq(&hit, &v));
    }

    #[test]
    fn put_tier_disk_keeps_memory_working_set() {
        let mut c = cache(100);
        c.put("hot".into(), bytes(vec![0; 90]));
        c.put_tier("offer".into(), bytes(vec![0; 90]), CacheTier::Disk);
        // The unsolicited offer must not evict the hot entry.
        assert_eq!(c.get("hot").unwrap().1, CacheTier::Memory);
        assert_eq!(c.stats().evictions, 0);
        // The offer is present, on disk (a later get may promote it).
        assert_eq!(c.peek("offer").unwrap().1, CacheTier::Disk);
    }

    #[test]
    fn peek_counts_nothing_and_promotes_nothing() {
        let mut c = cache(4);
        c.put("a".into(), bytes(vec![0; 8])); // oversized: disk-only
        let before = c.stats();
        assert_eq!(c.peek("a").unwrap().1, CacheTier::Disk);
        assert!(c.peek("nope").is_none());
        assert_eq!(c.stats(), before);
        // Still on disk only: peek did not promote.
        assert_eq!(c.peek("a").unwrap().1, CacheTier::Disk);
    }

    #[test]
    fn disk_tier_is_unbounded() {
        let mut c = cache(4);
        for i in 0..50 {
            c.put(format!("k{i}"), bytes(vec![0; 8]));
        }
        assert_eq!(c.len(), 50);
        assert!(c.memory_resident_bytes() <= 8);
    }

    // ---- regression tests for the eviction path (satellite bugfix) ----

    #[test]
    fn fifo_eviction_order_is_exact_insertion_order() {
        let mut c = cache(30);
        c.put("first".into(), bytes(vec![0; 10]));
        c.put("second".into(), bytes(vec![0; 10]));
        c.put("third".into(), bytes(vec![0; 10]));
        assert_eq!(c.stats().evictions, 0);
        // 10 more bytes: exactly one eviction, and it must be "first".
        c.put("fourth".into(), bytes(vec![0; 10]));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.peek("first").map(|(_, t)| t), Some(CacheTier::Disk));
        assert_eq!(c.peek("second").map(|(_, t)| t), Some(CacheTier::Memory));
        // Another: "second" goes next, never "third".
        c.put("fifth".into(), bytes(vec![0; 10]));
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.peek("second").map(|(_, t)| t), Some(CacheTier::Disk));
        assert_eq!(c.peek("third").map(|(_, t)| t), Some(CacheTier::Memory));
        assert_eq!(c.peek("fourth").map(|(_, t)| t), Some(CacheTier::Memory));
        assert_eq!(c.peek("fifth").map(|(_, t)| t), Some(CacheTier::Memory));
    }

    #[test]
    fn value_exactly_at_capacity_is_admitted_alone() {
        let mut c = cache(16);
        c.put("small".into(), bytes(vec![0; 4]));
        // len == capacity: admitted, evicting the rest of the set.
        c.put("exact".into(), bytes(vec![0; 16]));
        assert_eq!(c.peek("exact").map(|(_, t)| t), Some(CacheTier::Memory));
        assert_eq!(c.peek("small").map(|(_, t)| t), Some(CacheTier::Disk));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.memory_resident_bytes(), 16);
    }

    #[test]
    fn oversized_value_goes_disk_only_without_flushing_the_working_set() {
        let mut c = cache(20);
        c.put("hot1".into(), bytes(vec![0; 8]));
        c.put("hot2".into(), bytes(vec![0; 8]));
        // 21 bytes > capacity 20: before the fix this evicted hot1 and
        // hot2 *and then itself*, leaving memory empty.
        c.put("huge".into(), bytes(vec![0; 21]));
        assert_eq!(
            c.stats().evictions,
            0,
            "oversized insert must evict nothing"
        );
        assert_eq!(c.peek("hot1").map(|(_, t)| t), Some(CacheTier::Memory));
        assert_eq!(c.peek("hot2").map(|(_, t)| t), Some(CacheTier::Memory));
        assert_eq!(c.peek("huge").map(|(_, t)| t), Some(CacheTier::Disk));
        assert_eq!(c.memory_resident_bytes(), 16);
        // A get of the oversized value serves from disk and still does
        // not disturb the working set (no phantom promotion).
        assert_eq!(c.get("huge").unwrap().1, CacheTier::Disk);
        assert_eq!(c.get("huge").unwrap().1, CacheTier::Disk);
        assert_eq!(c.peek("hot1").map(|(_, t)| t), Some(CacheTier::Memory));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn export_after_walks_both_tier_backends_in_key_order() {
        // Ephemeral backend.
        let mut c = cache(8);
        for i in 0..6 {
            c.put(format!("k{i}"), bytes(vec![i as u8; 16])); // oversized: disk-only
        }
        let before = c.stats();
        let (page, complete) = c.export_after("", 4);
        assert!(!complete);
        let keys: Vec<&str> = page.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["k0", "k1", "k2", "k3"]);
        let (page, complete) = c.export_after("k3", 4);
        assert!(complete);
        assert_eq!(page.len(), 2);
        assert_eq!(&page[1].1[..], &[5u8; 16][..]);
        assert_eq!(c.stats(), before, "export counts nothing");

        // Persistent backend, including a corrupt entry that must be
        // skipped and purged rather than exported.
        let tmp = TempDir::new("export");
        let mut c = cache(100);
        let mut store = store_at(&tmp.0);
        let mut sealed = seal(b"rotten");
        let n = sealed.len();
        sealed[n - 1] ^= 0xFF;
        store.put("bad", &sealed).unwrap();
        c.attach_store(store);
        c.put("a".into(), bytes(b"alpha".to_vec()));
        c.put("z".into(), bytes(b"zeta".to_vec()));
        let (page, complete) = c.export_after("", 10);
        assert!(complete);
        let keys: Vec<&str> = page.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "z"], "corrupt entry must not migrate");
        assert_eq!(c.stats().disk_load_rejects, 1);
        assert!(!c.contains("bad"), "corrupt entry purged");
    }

    // ---- persistent disk tier ----

    fn store_at(dir: &std::path::Path) -> Store {
        Store::open(dir, StoreConfig::default()).unwrap()
    }

    #[test]
    fn attach_store_migrates_and_survives_reattach() {
        let tmp = TempDir::new("migrate");
        let mut c = cache(100);
        c.put("early".into(), bytes(b"cached before attach".to_vec()));
        c.attach_store(store_at(&tmp.0));
        assert!(c.is_persistent());
        assert_eq!(c.len(), 1);
        c.put("late".into(), bytes(b"cached after attach".to_vec()));

        // "Kill" the cache; a fresh one over the same dir starts warm.
        drop(c);
        let mut c = cache(100);
        c.attach_store(store_at(&tmp.0));
        assert_eq!(c.len(), 2);
        let (v, tier) = c.get("early").unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(&v[..], b"cached before attach");
        let (v, _) = c.get("late").unwrap();
        assert_eq!(&v[..], b"cached after attach");
    }

    #[test]
    fn corrupt_persistent_entry_is_rejected_not_served() {
        let tmp = TempDir::new("reject");
        let mut c = cache(100);
        let mut store = store_at(&tmp.0);
        // Plant an entry whose digest does not match its payload, as a
        // stale or tampered origin would.
        let mut sealed = seal(b"the real payload");
        let n = sealed.len();
        sealed[n - 1] ^= 0xFF;
        store.put("url", &sealed).unwrap();
        c.attach_store(store);
        assert!(c.get("url").is_none(), "corrupt entry must read as a miss");
        assert_eq!(c.stats().disk_load_rejects, 1);
        // And the poisoned entry was purged, not left to fail again.
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn envelope_round_trips_and_rejects_flips() {
        let sealed = seal(b"payload");
        assert_eq!(unseal(&sealed).as_deref(), Some(&b"payload"[..]));
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(unseal(&bad).is_none(), "flip at {i} accepted");
        }
        assert!(unseal(&[0; 15]).is_none(), "short envelope accepted");
    }
}
