//! A consistent-hash ring with virtual nodes.
//!
//! The ring maps class URLs to shards so that every client (and every
//! shard's peer-fill logic) agrees on a URL's *home shard* without any
//! coordination traffic: agreement is a pure function of (seed, shard
//! set, vnode count).
//!
//! Placement is claim-style rather than random-point-style: the circle
//! is cut into `vnodes` blocks of `n` equal segments, and each block is
//! a seeded permutation of the shards. Every shard therefore owns
//! exactly `vnodes` equal arcs — its virtual nodes — so balance is
//! exact by construction (the only variance left is the key hash's
//! multinomial noise), instead of the ±1/√vnodes arc-length lottery a
//! randomly-thrown ring pays. Removing a shard hands each of its arcs
//! to the next arc's owner clockwise, which remaps *only* the removed
//! shard's keys — the property that makes failover cheap: no
//! reshuffling of the surviving shards' cache contents.
//!
//! Hashing is from scratch (FNV-1a into a SplitMix64 finalizer): the
//! reproduction builds its substrate rather than importing it, and the
//! ring must be deterministic across processes — a client and a fleet
//! of shards each build their own copy and *must* agree.

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the key, then mixed: string keys land uniformly even
/// when they share long prefixes (`class://com/example/...`).
fn hash_key(seed: u64, key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in key.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// Seeded Fisher–Yates over `items`, independent per `block`.
fn shuffle_block(seed: u64, block: u64, items: &mut [u32]) {
    let mut state = mix64(seed ^ block.wrapping_mul(0xA24B_AED4_963E_E407));
    for i in (1..items.len()).rev() {
        state = mix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One segment changing owner in a membership transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMove {
    /// Segment index on the ring.
    pub segment: u32,
    /// The owner before the transition.
    pub from: u32,
    /// The owner after the transition.
    pub to: u32,
}

/// The explicit, minimal remap produced by an online membership change:
/// exactly the segments whose owner changed, nothing else. The plan is
/// what drives live cache migration — each `from` shard streams the keys
/// of its moved segments to the matching `to` shard — and its `epoch` is
/// the version clients compare against to learn they are stale.
#[derive(Debug, Clone, Default)]
pub struct RemapPlan {
    /// The ring epoch *after* the transition this plan describes.
    pub epoch: u64,
    /// Every segment that changed hands.
    pub moves: Vec<SegmentMove>,
    /// Total segments on the ring (for computing moved fractions).
    pub segments_total: u32,
}

impl RemapPlan {
    /// True when the transition moved nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Number of segments that changed owner.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Distinct shards losing segments, sorted (the migration sources).
    pub fn sources(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self.moves.iter().map(|m| m.from).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Distinct shards gaining segments, sorted (the migration targets).
    pub fn targets(&self) -> Vec<u32> {
        let mut t: Vec<u32> = self.moves.iter().map(|m| m.to).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

/// A seeded, deterministic consistent-hash ring over shard ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Owner of each equal-width segment, clockwise. Initially
    /// `vnodes` blocks × one segment per shard; removals reassign
    /// segments in place without resizing.
    owners: Vec<u32>,
    /// Distinct live shard ids, sorted.
    shards: Vec<u32>,
    vnodes: u32,
    seed: u64,
    /// Monotonically increasing version of the membership. Construction
    /// (and the offline `add_shard`/`remove_shard` used by fixed-size
    /// clusters) leaves it at zero; every *online* transition
    /// ([`HashRing::join_shard`] / [`HashRing::retire_shard`]) bumps it,
    /// and clients compare epochs to learn their routing is stale.
    epoch: u64,
}

impl HashRing {
    /// Creates an empty ring with `vnodes` virtual nodes per shard.
    pub fn new(vnodes: u32, seed: u64) -> HashRing {
        HashRing {
            owners: Vec::new(),
            shards: Vec::new(),
            vnodes: vnodes.max(1),
            seed,
            epoch: 0,
        }
    }

    /// Creates a ring populated with shards `0..n`.
    pub fn with_shards(n: u32, vnodes: u32, seed: u64) -> HashRing {
        let mut ring = HashRing::new(vnodes, seed);
        for shard in 0..n {
            ring.add_shard(shard);
        }
        ring
    }

    /// Rebuilds segment ownership from the live shard set: one block of
    /// equal segments per vnode, each block an independently seeded
    /// permutation of the shards.
    fn rebuild(&mut self) {
        self.owners.clear();
        if self.shards.is_empty() {
            return;
        }
        let mut block = self.shards.clone();
        for b in 0..self.vnodes as u64 {
            block.copy_from_slice(&self.shards);
            shuffle_block(self.seed, b, &mut block);
            self.owners.extend_from_slice(&block);
        }
    }

    /// Adds `shard` (idempotent). Addition rebuilds the ring — in this
    /// system cluster membership is fixed at start, and it is *removal*
    /// (the failure path) that must disturb nothing else.
    pub fn add_shard(&mut self, shard: u32) {
        if self.shards.contains(&shard) {
            return;
        }
        self.shards.push(shard);
        self.shards.sort_unstable();
        self.rebuild();
    }

    /// Removes `shard`, handing each of its segments to the next
    /// segment's owner clockwise — every other shard's arcs are
    /// untouched, so only the removed shard's keys change home.
    pub fn remove_shard(&mut self, shard: u32) {
        if !self.shards.contains(&shard) {
            return;
        }
        self.shards.retain(|&s| s != shard);
        if self.shards.is_empty() {
            self.owners.clear();
            return;
        }
        let n = self.owners.len();
        for p in 0..n {
            if self.owners[p] != shard {
                continue;
            }
            // Walk clockwise to the first segment owned by a survivor.
            // (Consecutive segments may all belong to `shard` when the
            // block permutations happen to align.)
            let mut q = (p + 1) % n;
            while self.owners[q] == shard {
                q = (q + 1) % n;
            }
            self.owners[p] = self.owners[q];
        }
    }

    /// Adds `shard` online with a *minimal* remap: the segment layout is
    /// left in place and the new shard claims exactly its fair share of
    /// segments — a deterministic, seeded pick spread proportionally
    /// across the current owners — so the only keys whose home changes
    /// are the ones moving *to* the new shard. Returns the explicit
    /// remap plan and bumps the epoch. Idempotent for present shards
    /// (empty plan, epoch unchanged).
    pub fn join_shard(&mut self, shard: u32) -> RemapPlan {
        if self.shards.contains(&shard) {
            return RemapPlan {
                epoch: self.epoch,
                moves: Vec::new(),
                segments_total: self.owners.len() as u32,
            };
        }
        if self.shards.is_empty() {
            // First member: lay out one block of segments, all its own.
            self.shards.push(shard);
            self.owners = vec![shard; self.vnodes as usize];
            self.epoch += 1;
            return RemapPlan {
                epoch: self.epoch,
                moves: Vec::new(),
                segments_total: self.owners.len() as u32,
            };
        }
        self.shards.push(shard);
        self.shards.sort_unstable();
        let n = self.shards.len() as u64;
        let total = self.owners.len();
        let target = (total as u64 / n) as usize;

        // Group segments by current owner, preserving segment order.
        let mut owned: Vec<(u32, Vec<usize>)> = Vec::new();
        for (p, &o) in self.owners.iter().enumerate() {
            match owned.iter_mut().find(|(id, _)| *id == o) {
                Some((_, v)) => v.push(p),
                None => owned.push((o, vec![p])),
            }
        }
        owned.sort_by_key(|(id, _)| *id);

        // Largest-remainder apportionment: each owner cedes ~1/n of its
        // segments so post-join counts stay within one segment of fair.
        let mut takes: Vec<usize> = owned.iter().map(|(_, v)| v.len() / n as usize).collect();
        let mut deficit = target.saturating_sub(takes.iter().sum::<usize>());
        let mut order: Vec<usize> = (0..owned.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(owned[i].1.len() % n as usize), owned[i].0));
        while deficit > 0 {
            let before = deficit;
            for &i in &order {
                if deficit == 0 {
                    break;
                }
                if takes[i] < owned[i].1.len() {
                    takes[i] += 1;
                    deficit -= 1;
                }
            }
            if deficit == before {
                break; // nothing left to cede (degenerate tiny rings)
            }
        }

        // Which of an owner's segments move is a seeded rank over
        // (seed, joiner, segment): deterministic, so two replicas
        // applying the same join agree segment for segment.
        let mut moves = Vec::new();
        for ((owner, segs), take) in owned.into_iter().zip(takes) {
            let mut ranked = segs;
            ranked.sort_by_key(|&p| {
                mix64(self.seed ^ (shard as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ p as u64)
            });
            for &p in ranked.iter().take(take) {
                self.owners[p] = shard;
                moves.push(SegmentMove {
                    segment: p as u32,
                    from: owner,
                    to: shard,
                });
            }
        }
        moves.sort_by_key(|m| m.segment);
        self.epoch += 1;
        RemapPlan {
            epoch: self.epoch,
            moves,
            segments_total: total as u32,
        }
    }

    /// Removes `shard` online, handing each of its segments to the next
    /// surviving owner clockwise (the same minimal remap as
    /// [`HashRing::remove_shard`]) — but returns the explicit plan and
    /// bumps the epoch, so a departure can *drain*: every move names the
    /// survivor that must receive the departing shard's keys before its
    /// socket closes. Unknown shards yield an empty plan.
    pub fn retire_shard(&mut self, shard: u32) -> RemapPlan {
        let total = self.owners.len() as u32;
        if !self.shards.contains(&shard) {
            return RemapPlan {
                epoch: self.epoch,
                moves: Vec::new(),
                segments_total: total,
            };
        }
        let before = self.owners.clone();
        self.remove_shard(shard);
        let mut moves = Vec::new();
        for (p, (&was, &now)) in before.iter().zip(&self.owners).enumerate() {
            if was != now {
                moves.push(SegmentMove {
                    segment: p as u32,
                    from: was,
                    to: now,
                });
            }
        }
        self.epoch += 1;
        RemapPlan {
            epoch: self.epoch,
            moves,
            segments_total: total,
        }
    }

    /// The ring's membership version (see the `epoch` field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch without remapping any segment — used for
    /// address-only membership transitions (a shard restarting at a new
    /// socket keeps its ownership but clients must relearn where it is).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The raw segment-owner table, clockwise (for snapshot encoding).
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// Rebuilds a ring from raw snapshot state, e.g. one received in a
    /// `RING_UPDATE`. The caller vouches that `owners` only names shards
    /// in `shards`; routing treats the table as authoritative either way.
    pub fn from_snapshot(
        vnodes: u32,
        seed: u64,
        epoch: u64,
        shards: Vec<u32>,
        owners: Vec<u32>,
    ) -> HashRing {
        HashRing {
            owners,
            shards,
            vnodes: vnodes.max(1),
            seed,
            epoch,
        }
    }

    /// The current shard ids, sorted.
    pub fn shards(&self) -> &[u32] {
        &self.shards
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard is on the ring.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The seed the ring (and every replica of it) was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The segment `key`'s position falls in.
    fn segment(&self, key: &str) -> Option<usize> {
        if self.owners.is_empty() {
            return None;
        }
        let pos = hash_key(self.seed, key);
        // Multiply-shift maps the full u64 range onto segment indices
        // without modulo bias.
        Some(((pos as u128 * self.owners.len() as u128) >> 64) as usize)
    }

    /// The home shard of `key`: owner of the segment the key hashes
    /// into.
    pub fn home(&self, key: &str) -> Option<u32> {
        self.segment(key).map(|i| self.owners[i])
    }

    /// Every shard in failover-preference order for `key`: the home
    /// shard first, then each subsequent *distinct* shard walking
    /// clockwise. Clients try these in order; the prefix of length `r`
    /// is also the natural replica set for replication policies.
    pub fn route(&self, key: &str) -> Vec<u32> {
        let Some(start) = self.segment(key) else {
            return Vec::new();
        };
        let mut order = Vec::with_capacity(self.shards.len());
        for step in 0..self.owners.len() {
            let shard = self.owners[(start + step) % self.owners.len()];
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = HashRing::with_shards(5, 64, 42);
        let b = HashRing::with_shards(5, 64, 42);
        for i in 0..1000 {
            let key = format!("class://k{i}");
            assert_eq!(a.home(&key), b.home(&key));
            assert_eq!(a.route(&key), b.route(&key));
        }
    }

    #[test]
    fn different_seeds_shuffle_ownership() {
        let a = HashRing::with_shards(4, 64, 1);
        let b = HashRing::with_shards(4, 64, 2);
        let moved = (0..1000)
            .filter(|i| {
                let key = format!("class://k{i}");
                a.home(&key) != b.home(&key)
            })
            .count();
        assert!(moved > 500, "only {moved}/1000 keys moved between seeds");
    }

    #[test]
    fn route_orders_every_shard_starting_at_home() {
        let ring = HashRing::with_shards(6, 64, 7);
        let order = ring.route("class://demo/App");
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], ring.home("class://demo/App").unwrap());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ring.shards());
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut a = HashRing::new(64, 9);
        for s in [3, 0, 2, 1] {
            a.add_shard(s);
        }
        let b = HashRing::with_shards(4, 64, 9);
        for i in 0..500 {
            let key = format!("k{i}");
            assert_eq!(a.home(&key), b.home(&key));
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(64, 0);
        assert!(ring.home("anything").is_none());
        assert!(ring.route("anything").is_empty());
        assert!(ring.is_empty());
    }

    #[test]
    fn removal_remaps_only_the_removed_shards_keys() {
        let mut ring = HashRing::with_shards(5, 64, 5);
        let keys: Vec<String> = (0..2000).map(|i| format!("class://k{i}")).collect();
        let before: Vec<u32> = keys.iter().map(|k| ring.home(k).unwrap()).collect();
        ring.remove_shard(2);
        for (k, &was) in keys.iter().zip(&before) {
            let now = ring.home(k).unwrap();
            if was != 2 {
                assert_eq!(now, was, "{k} moved despite its home surviving");
            } else {
                assert_ne!(now, 2, "{k} still maps to the removed shard");
            }
        }
    }

    #[test]
    fn join_remaps_only_keys_moving_to_the_new_shard() {
        let mut ring = HashRing::with_shards(3, 128, 11);
        let keys: Vec<String> = (0..2000).map(|i| format!("class://k{i}")).collect();
        let before: Vec<u32> = keys.iter().map(|k| ring.home(k).unwrap()).collect();
        let plan = ring.join_shard(3);
        assert_eq!(plan.epoch, 1);
        assert!(!plan.is_empty());
        for (k, &was) in keys.iter().zip(&before) {
            let now = ring.home(k).unwrap();
            if now != was {
                assert_eq!(now, 3, "{k} moved {was}->{now}, not to the joiner");
            }
        }
    }

    #[test]
    fn join_plan_matches_ownership_delta() {
        let mut ring = HashRing::with_shards(4, 64, 23);
        let before = ring.owners().to_vec();
        let plan = ring.join_shard(9);
        let after = ring.owners();
        let mut delta = Vec::new();
        for (p, (&was, &now)) in before.iter().zip(after).enumerate() {
            if was != now {
                assert_eq!(now, 9);
                delta.push((p as u32, was));
            }
        }
        assert_eq!(plan.moves.len(), delta.len());
        for (m, (seg, from)) in plan.moves.iter().zip(delta) {
            assert_eq!((m.segment, m.from, m.to), (seg, from, 9));
        }
        assert_eq!(plan.targets(), vec![9]);
    }

    #[test]
    fn join_keeps_balance_near_fair() {
        let mut ring = HashRing::with_shards(3, 128, 7);
        ring.join_shard(3);
        ring.join_shard(4);
        ring.join_shard(5);
        let total = ring.owners().len();
        let fair = total / 6;
        for &s in &[0u32, 1, 2, 3, 4, 5] {
            let c = ring.owners().iter().filter(|&&o| o == s).count();
            assert!(
                (c as i64 - fair as i64).abs() <= 2,
                "shard {s}: {c} segments vs fair {fair}"
            );
        }
    }

    #[test]
    fn retire_plan_names_clockwise_survivors_and_bumps_epoch() {
        let mut ring = HashRing::with_shards(5, 64, 5);
        let removal_only = {
            let mut r = ring.clone();
            r.remove_shard(2);
            r.owners().to_vec()
        };
        let plan = ring.retire_shard(2);
        assert_eq!(ring.epoch(), 1);
        assert_eq!(plan.epoch, 1);
        assert_eq!(ring.owners(), &removal_only[..]);
        assert_eq!(plan.sources(), vec![2]);
        assert!(plan.moves.iter().all(|m| m.to != 2));
        // Idempotent on unknown shard: empty plan, epoch untouched.
        let noop = ring.retire_shard(2);
        assert!(noop.is_empty());
        assert_eq!(ring.epoch(), 1);
    }

    #[test]
    fn join_is_deterministic_across_replicas() {
        let mut a = HashRing::with_shards(3, 128, 77);
        let mut b = HashRing::with_shards(3, 128, 77);
        let pa = a.join_shard(3);
        let pb = b.join_shard(3);
        assert_eq!(pa.moves, pb.moves);
        assert_eq!(a.owners(), b.owners());
    }

    #[test]
    fn snapshot_roundtrip_preserves_routing() {
        let mut ring = HashRing::with_shards(4, 64, 13);
        ring.join_shard(4);
        let copy = HashRing::from_snapshot(
            ring.vnodes(),
            ring.seed(),
            ring.epoch(),
            ring.shards().to_vec(),
            ring.owners().to_vec(),
        );
        assert_eq!(copy.epoch(), ring.epoch());
        for i in 0..500 {
            let k = format!("class://k{i}");
            assert_eq!(copy.home(&k), ring.home(&k));
        }
    }

    #[test]
    fn balance_is_exact_by_construction() {
        // Claim-style placement: every shard owns exactly `vnodes`
        // equal-width segments, so key counts deviate from fair share
        // only by the key hash's multinomial noise.
        for shards in [2u32, 3, 4, 8] {
            let ring = HashRing::with_shards(shards, 64, 99);
            let keys = 8000u32;
            let mut counts = vec![0u32; shards as usize];
            for i in 0..keys {
                counts[ring.home(&format!("class://k{i}")).unwrap() as usize] += 1;
            }
            let fair = keys as f64 / shards as f64;
            for (s, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - fair).abs() / fair;
                assert!(
                    dev < 0.15,
                    "shard {s}/{shards}: {c} keys vs fair {fair:.0} ({dev:.3})"
                );
            }
        }
    }
}
