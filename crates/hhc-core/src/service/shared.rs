//! The shared L2 tier: an append-only, read-lock-free family cache plus
//! the live fault set and its generation counter.
//!
//! Entries are the same translation-canonical families the per-builder
//! [`FamilyCache`](crate::FamilyCache) stores (CSR node list for
//! `Xu = 0`, plus the plan counts), keyed by the same
//! `(m, Xu⊕Xv, Yu, Yv, order)` key — so one stored solve serves every
//! worker and every cube-field translation.
//!
//! ## Append-only generations
//!
//! The tier is read-mostly to an extreme degree — after warm-up, stores
//! happen only on cold keys — and a store must not cost more than the
//! construction it saves. So each shard keeps its entries in
//! **append-only probe tables** that readers probe without a lock:
//!
//! * Each shard publishes an `Arc<Gens { hot, cold }>`. A generation is
//!   a fixed-size open-addressing table of write-once
//!   [`OnceLock`] slots, a power of two at least `2 × shard_capacity`
//!   long, so it always keeps a vacant slot and every probe ends.
//!   The hot table is allocated by its first store, so an empty shard
//!   costs nothing.
//! * A writer (a cache-miss promotion) takes a small per-shard mutex,
//!   returns if the key is in either generation, and otherwise fills
//!   one vacant hot slot with `OnceLock::set` — O(1), nothing else is
//!   touched or copied.
//! * Readers hold a per-worker [`L2Reader`] that caches one `Gens` `Arc`
//!   per shard. A probe is one `Acquire` load of the shard version and
//!   a probe of the locally held tables: **no lock, no reference-count
//!   traffic, no clone**; a hit copies nodes straight from the entry's
//!   slab into the caller's [`PathSet`] scratch.
//!
//! **Why `OnceLock`, and why a probe chain stays valid.** A slot only
//! ever goes from vacant to filled, and the filled value is never
//! changed again. A reader's linear probe stops at the first vacant
//! slot, so a fill can only extend the chain it walks, never break it.
//! `OnceLock` gives that transition without `unsafe`: `set` publishes
//! the entry with release ordering and `get` reads it with acquire, so
//! a reader that sees a slot filled sees the whole entry. A slot still
//! being filled reads as vacant — a harmless miss, see below. A reader
//! holding the shard's `Gens` therefore sees every new entry at once,
//! with no version bump.
//!
//! **When readers refresh.** The shard version moves only when the
//! `Gens` `Arc` is replaced: when the hot table holds `shard_capacity`
//! entries and rotates to cold (once per `shard_capacity` stores), and
//! on [`SharedFamilyCache::flush`]. Only then does a reader briefly
//! take the shard mutex to re-clone the `Arc`.
//!
//! Staleness is harmless by construction: entries are plain
//! (fault-blind) canonical families — immutable facts about the
//! topology — so a reader probing one-rotation-old generations can only
//! miss a key some other worker *just* added (it reconstructs and the
//! store is idempotent: racing writers of the same key insert identical
//! bytes) or replay an entry that was *just* evicted (still a correct
//! family). Memory reclamation is still the `Arc` drop chain: a
//! rotation drops the publisher's reference to the old cold table, and
//! the table (with the entries it owns) is freed when the last reader
//! holding the old `Gens` refreshes — no epochs, no hazard pointers, no
//! unsafe.
//!
//! ## Fault feed
//!
//! Entries hold *plain* (fault-blind) constructions, which never become
//! wrong when the fault set changes. What changes is whether a replayed
//! (translated) family is *usable* under the current faults; that check
//! is the fault scan the avoiding layer already performs on the
//! replayed node set, and a blocked replay is repaired through
//! `construct_avoiding`'s rebuild (which bypasses every cache tier by
//! design). This is the lazy-invalidation scheme: fault events bump
//! [`SharedFamilyCache::generation`] and touch nothing else; only the
//! entries whose translated families actually intersect a fault pay a
//! repair, and they become servable again the moment the fault clears —
//! no eager scan, no cache discard.
//!
//! Eviction mirrors the L1: two generations per shard ("hot"/"cold"),
//! a full hot table becomes the cold table, bounding each shard at
//! `2 × shard_capacity` entries. There is no cold→hot promotion on a
//! hit — promotion would put a write on the read path, and the L1 in
//! front of this tier already keeps the genuinely hot keys local.

use crate::node::NodeId;
use crate::pathset::PathSet;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// Default shard count (rounded up to a power of two internally).
pub const DEFAULT_L2_SHARDS: usize = 16;

/// Default hot-generation capacity per shard. With the default 16
/// shards this bounds the tier at `2 × 16 × 1024` entries — a few tens
/// of megabytes of HHC(5) families, shared by every worker.
pub const DEFAULT_L2_SHARD_CAPACITY: usize = 1024;

/// Geometry of a [`SharedFamilyCache`]. `shard_capacity = 0` disables
/// the tier (probes and stores become no-ops), mirroring
/// [`CacheConfig`](crate::CacheConfig) capacity-0 semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Write-side mutex stripes; rounded up to a power of two, at
    /// least 1. (Readers never lock regardless of the count.)
    pub shards: usize,
    /// Hot-generation capacity of each stripe. Each generation's table
    /// is allocated in full at its first store: a power of two at least
    /// `2 × shard_capacity` slots of 16 bytes.
    pub shard_capacity: usize,
}

impl L2Config {
    /// The default enabled geometry.
    pub fn enabled() -> Self {
        L2Config {
            shards: DEFAULT_L2_SHARDS,
            shard_capacity: DEFAULT_L2_SHARD_CAPACITY,
        }
    }

    /// An inert tier: every probe misses, every store is dropped. The
    /// reference mode for the per-worker-cache-only baseline.
    pub fn disabled() -> Self {
        L2Config {
            shards: 1,
            shard_capacity: 0,
        }
    }
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config::enabled()
    }
}

/// One cached canonical family: a contiguous CSR node/offset slab plus
/// the plan counts of the construction that produced it. Immutable once
/// stored; owned by the generation table it was stored into.
#[derive(Debug)]
struct SharedEntry {
    nodes: Box<[u128]>,
    offsets: Box<[u32]>,
    rotations: u64,
    detours: u64,
}

/// A write-once probe-table slot holding `(key, entry)`. The payload is
/// boxed so a slot is 16 bytes and a sparsely filled table stays small.
type Slot = OnceLock<Box<(u128, SharedEntry)>>;

/// Linear-probe lookup in one generation. `h` must be `fold_mix(key)`.
#[inline]
fn probe(table: &[Slot], h: u64, key: u128) -> Option<&SharedEntry> {
    let mask = table.len() - 1;
    let mut i = h as usize & mask;
    while let Some(e) = table[i].get() {
        if e.0 == key {
            return Some(&e.1);
        }
        i = (i + 1) & mask;
    }
    None
}

/// A shard's published generations. `hot` is allocated by the first
/// store after a publish; `cold` is the previous rotation's hot table,
/// shared with the `Gens` it was hot in.
#[derive(Debug, Default)]
struct Gens {
    hot: OnceLock<Arc<[Slot]>>,
    cold: Option<Arc<[Slot]>>,
}

impl Gens {
    /// Looks `key` up in the hot generation, then the cold one.
    #[inline]
    fn get(&self, h: u64, key: u128) -> Option<&SharedEntry> {
        self.hot
            .get()
            .into_iter()
            .chain(&self.cold)
            .find_map(|t| probe(t, h, key))
    }
}

/// Write-side state of one shard: the published generations plus their
/// entry counts. Guarded by the shard mutex; readers touch it only to
/// re-clone `gens` after a version bump.
#[derive(Debug)]
struct ShardWriter {
    gens: Arc<Gens>,
    hot_len: usize,
    cold_len: usize,
}

#[derive(Debug)]
struct ShardState {
    /// Bumped (release, under the mutex) each time `gens` is replaced;
    /// readers pair one acquire load with their locally cached `Gens`.
    version: AtomicU64,
    inner: Mutex<ShardWriter>,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            version: AtomicU64::new(0),
            inner: Mutex::new(ShardWriter {
                gens: Arc::default(),
                hot_len: 0,
                cold_len: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardWriter> {
        // A writer that panicked mid-store left the tables and counts
        // consistent (a slot is filled before its count moves), so
        // poison carries no information here.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes fresh generations — an unallocated hot table over
    /// `cold` — and bumps the version. Must be called with the lock held
    /// (`w` is the guard's target).
    fn publish(&self, w: &mut ShardWriter, cold: Option<Arc<[Slot]>>, cold_len: usize) {
        let hot = OnceLock::new();
        *w = ShardWriter {
            gens: Arc::new(Gens { hot, cold }),
            hot_len: 0,
            cold_len,
        };
        self.version.fetch_add(1, Ordering::Release);
    }
}

/// Splitmix64 finalizer over the folded 128-bit key: the low bits index
/// a shard's probe table, the high bits pick the shard, so dense key
/// families spread across both levels independently.
#[inline]
fn fold_mix(key: u128) -> u64 {
    let mut z = ((key ^ (key >> 64)) as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shared L2 family-cache tier plus the live fault set it is
/// invalidated against. See the module docs.
///
/// All methods take `&self`; the type is `Sync` and meant to live in an
/// [`Arc`] shared by every worker's
/// [`PathBuilder`](crate::PathBuilder) (attached via
/// [`PathBuilder::attach_shared_cache`](crate::PathBuilder::attach_shared_cache),
/// which wraps it in a per-worker `L2Reader`).
#[derive(Debug)]
pub struct SharedFamilyCache {
    shards: Box<[ShardState]>,
    shard_mask: usize,
    shard_capacity: usize,
    /// Bumped once per fault-set mutation, while the fault write lock is
    /// held; readers pair it with the set via [`Self::faults_snapshot`].
    generation: AtomicU64,
    faults: RwLock<HashSet<NodeId>>,
}

impl SharedFamilyCache {
    pub fn new(cfg: L2Config) -> Self {
        let n = cfg.shards.max(1).next_power_of_two();
        SharedFamilyCache {
            shards: (0..n).map(|_| ShardState::new()).collect(),
            shard_mask: n - 1,
            shard_capacity: cfg.shard_capacity,
            generation: AtomicU64::new(0),
            faults: RwLock::new(HashSet::new()),
        }
    }

    /// Number of shards (power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Hot-generation capacity per shard (0 = inert tier).
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Entries currently retained across all shards and generations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let w = s.lock();
                w.hot_len + w.cold_len
            })
            .sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current fault-set generation: bumped once per successful
    /// [`Self::add_fault`] / [`Self::clear_fault`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Current fault count.
    pub fn fault_count(&self) -> usize {
        self.faults
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Marks `v` faulty; returns `false` (and does not bump the
    /// generation) if it already was.
    pub fn add_fault(&self, v: NodeId) -> bool {
        let mut f = self.faults.write().unwrap_or_else(PoisonError::into_inner);
        let added = f.insert(v);
        if added {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        added
    }

    /// Heals `v`; returns `false` (and does not bump the generation) if
    /// it was not faulty.
    pub fn clear_fault(&self, v: NodeId) -> bool {
        let mut f = self.faults.write().unwrap_or_else(PoisonError::into_inner);
        let removed = f.remove(&v);
        if removed {
            self.generation.fetch_add(1, Ordering::AcqRel);
        }
        removed
    }

    /// A consistent `(generation, fault set)` pair: the generation is
    /// read under the same read lock that guards the clone, so it never
    /// lags the set. Workers re-snapshot only when
    /// [`Self::generation`] moves — the epoch scheme's fast path is one
    /// atomic load per query.
    pub fn faults_snapshot(&self) -> (u64, HashSet<NodeId>) {
        let f = self.faults.read().unwrap_or_else(PoisonError::into_inner);
        (self.generation.load(Ordering::Acquire), f.clone())
    }

    /// [`Self::faults_snapshot`] into a caller-owned set (capacity is
    /// reused, so a long-lived worker re-snapshots without allocating
    /// once its set has grown to the high-water fault count).
    pub fn faults_snapshot_into(&self, out: &mut HashSet<NodeId>) -> u64 {
        let f = self.faults.read().unwrap_or_else(PoisonError::into_inner);
        out.clone_from(&f);
        self.generation.load(Ordering::Acquire)
    }

    /// Drops every cached entry in every shard (fault set and
    /// generation untouched). Exists for the full-rebuild-on-fault
    /// baseline ablation; the serving path never needs it.
    pub fn flush(&self) {
        for s in self.shards.iter() {
            s.publish(&mut s.lock(), None, 0);
        }
    }

    #[inline]
    fn shard_of(&self, h: u64) -> &ShardState {
        &self.shards[(h >> 32) as usize & self.shard_mask]
    }

    /// Stores the family in `set` (a fresh construction under
    /// translation `mask`) canonicalised to `Xu = 0` into a vacant slot
    /// of the shard's hot table, rotating a full hot table to cold
    /// first. Racing writers of the same key insert identical bytes
    /// (construction is deterministic), so first-writer-wins is
    /// harmless.
    pub(crate) fn store(&self, key: u128, mask: u128, set: &PathSet, rotations: u64, detours: u64) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut nodes = Vec::with_capacity(set.total_nodes());
        let mut offsets = Vec::with_capacity(set.len() + 1);
        offsets.push(0u32);
        for path in set.iter() {
            nodes.extend(path.iter().map(|v| v.raw() ^ mask));
            offsets.push(nodes.len() as u32);
        }
        let entry = SharedEntry {
            nodes: nodes.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            rotations,
            detours,
        };
        let h = fold_mix(key);
        let shard = self.shard_of(h);
        let mut w = shard.lock();
        if w.gens.get(h, key).is_some() {
            return;
        }
        if w.hot_len >= self.shard_capacity {
            let (cold, cold_len) = (w.gens.hot.get().cloned(), w.hot_len);
            shard.publish(&mut w, cold, cold_len);
        }
        let len = (2 * self.shard_capacity).next_power_of_two();
        let table = w
            .gens
            .hot
            .get_or_init(|| (0..len).map(|_| Slot::new()).collect());
        let mut i = h as usize & (len - 1);
        while table[i].get().is_some() {
            i = (i + 1) & (len - 1);
        }
        // Vacant under the lock, so `set` cannot lose a race.
        let _ = table[i].set(Box::new((key, entry)));
        w.hot_len += 1;
    }
}

impl Default for SharedFamilyCache {
    fn default() -> Self {
        SharedFamilyCache::new(L2Config::enabled())
    }
}

/// Cached per-reader view of one shard: the `Gens` `Arc` the reader
/// last saw and the shard version it was published at.
#[derive(Debug)]
struct LocalShard {
    version: u64,
    gens: Arc<Gens>,
}

/// A per-worker read handle over a [`SharedFamilyCache`].
///
/// The reader caches one published `Gens` `Arc` per shard; a probe is
/// one acquire load of the shard version plus a table probe of the
/// local generations — no lock and no reference-count traffic on the
/// steady-state path. Stores into the held tables are visible at once;
/// only when the version moved (a rotation or a flush) does the reader
/// take the shard mutex to re-clone the new `Arc`. The generations it
/// let go of are freed when their last holder refreshes (plain `Arc`
/// reclamation — see the module docs).
///
/// Created by
/// [`PathBuilder::attach_shared_cache`](crate::PathBuilder::attach_shared_cache);
/// one reader per builder/worker.
#[derive(Debug)]
pub(crate) struct L2Reader {
    cache: Arc<SharedFamilyCache>,
    local: Box<[LocalShard]>,
}

impl L2Reader {
    pub(crate) fn new(cache: Arc<SharedFamilyCache>) -> Self {
        // Start from the published generations themselves: stores do
        // not bump the version, so a private empty copy would never see
        // them.
        let local = cache
            .shards
            .iter()
            .map(|s| {
                let w = s.lock();
                LocalShard {
                    version: s.version.load(Ordering::Relaxed),
                    gens: Arc::clone(&w.gens),
                }
            })
            .collect();
        L2Reader { cache, local }
    }

    /// The shared tier this reader probes.
    pub(crate) fn cache(&self) -> &Arc<SharedFamilyCache> {
        &self.cache
    }

    /// On a hit, appends the cached family translated by `mask` to
    /// `out` and returns its `(rotations, detours)` plan counts —
    /// byte-identical to what the construction that stored it produced,
    /// by the same equivariance argument as the L1 replay. Lock-free
    /// and allocation-free unless the shard rotated or was flushed
    /// since the last probe (then one brief mutex hold to re-clone the
    /// generations).
    #[inline]
    pub(crate) fn replay(
        &mut self,
        key: u128,
        mask: u128,
        out: &mut PathSet,
    ) -> Option<(u64, u64)> {
        if self.cache.shard_capacity == 0 {
            return None;
        }
        let h = fold_mix(key);
        let idx = (h >> 32) as usize & self.cache.shard_mask;
        let shard = &self.cache.shards[idx];
        let local = &mut self.local[idx];
        let v = shard.version.load(Ordering::Acquire);
        if v != local.version {
            let w = shard.lock();
            local.gens = Arc::clone(&w.gens);
            // Re-read under the lock: no writer can be mid-publish, so
            // the pair is consistent.
            local.version = shard.version.load(Ordering::Relaxed);
        }
        let e = local.gens.get(h, key)?;
        out.extend_csr_xor(&e.nodes, &e.offsets, mask);
        Some((e.rotations, e.detours))
    }

    /// Promotes a fresh construction into the shared tier (write side —
    /// takes the shard mutex; see [`SharedFamilyCache::store`]).
    pub(crate) fn store(&self, key: u128, mask: u128, set: &PathSet, rotations: u64, detours: u64) {
        self.cache.store(key, mask, set, rotations, detours);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_path_set() -> PathSet {
        let mut set = PathSet::new();
        for p in [[5u128, 7, 9], [5, 6, 9]] {
            for raw in p {
                set.push_node(NodeId::from_raw(raw));
            }
            set.finish_path();
        }
        set
    }

    fn reader(l2: &Arc<SharedFamilyCache>) -> L2Reader {
        L2Reader::new(Arc::clone(l2))
    }

    #[test]
    fn store_replay_round_trips_translation() {
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 4,
            shard_capacity: 8,
        }));
        l2.store(1, 4, &two_path_set(), 2, 1);
        let mut r = reader(&l2);
        let mut out = PathSet::new();
        let (nr, nd) = r.replay(1, 8, &mut out).unwrap();
        assert_eq!((nr, nd), (2, 1));
        let expect: Vec<u128> = [5u128, 7, 9, 5, 6, 9].iter().map(|r| r ^ 4 ^ 8).collect();
        let got: Vec<u128> = out.iter().flatten().map(|v| v.raw()).collect();
        assert_eq!(got, expect);
        assert!(r.replay(2, 0, &mut PathSet::new()).is_none());
    }

    #[test]
    fn reader_sees_stores_published_after_creation() {
        // The reader must see stores made both before and after its
        // first probe of a shard.
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: 8,
        }));
        let mut r = reader(&l2);
        let mut out = PathSet::new();
        for key in 0..32u128 {
            assert!(r.replay(key, 0, &mut out).is_none(), "cold tier misses");
            l2.store(key, 0, &two_path_set(), key as u64, 0);
            out.clear();
            assert_eq!(
                r.replay(key, 0, &mut out).expect("store is visible"),
                (key as u64, 0)
            );
            out.clear();
        }
    }

    #[test]
    fn stale_snapshot_is_refreshed_not_resurrected() {
        // After a flush, readers must stop replaying dropped entries.
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: 8,
        }));
        let mut r = reader(&l2);
        l2.store(7, 0, &two_path_set(), 1, 0);
        let mut out = PathSet::new();
        assert!(r.replay(7, 0, &mut out).is_some());
        l2.flush();
        out.clear();
        assert!(r.replay(7, 0, &mut out).is_none(), "flush is visible");
    }

    #[test]
    fn disabled_tier_is_inert() {
        let l2 = Arc::new(SharedFamilyCache::new(L2Config::disabled()));
        l2.store(1, 0, &two_path_set(), 0, 1);
        assert!(reader(&l2).replay(1, 0, &mut PathSet::new()).is_none());
        assert!(l2.is_empty());
    }

    #[test]
    fn shard_capacity_bounds_entries() {
        let cap = 4;
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: cap,
        });
        let set = two_path_set();
        for key in 0..10 * cap as u128 {
            l2.store(key, 0, &set, 1, 0);
        }
        assert!(
            l2.len() <= 2 * cap,
            "two-generation sweep must bound the shard at 2×capacity"
        );
    }

    #[test]
    fn cold_generation_still_replays() {
        let cap = 2;
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: cap,
        }));
        let set = two_path_set();
        for key in 0..cap as u128 + 1 {
            l2.store(key, 0, &set, key as u64, 0);
        }
        // Key 0 or 1 was swept to the cold generation by the third
        // store; both must still replay from the published generations.
        let mut r = reader(&l2);
        let mut out = PathSet::new();
        for key in 0..cap as u128 + 1 {
            out.clear();
            assert_eq!(
                r.replay(key, 0, &mut out),
                Some((key as u64, 0)),
                "key {key} must survive the generation sweep"
            );
        }
    }

    #[test]
    fn fault_events_bump_generation_only_on_change() {
        let l2 = SharedFamilyCache::default();
        let v = NodeId::from_raw(42);
        assert_eq!(l2.generation(), 0);
        assert!(l2.add_fault(v));
        assert!(!l2.add_fault(v), "duplicate add is a no-op");
        assert_eq!(l2.generation(), 1);
        assert_eq!(l2.fault_count(), 1);
        assert!(l2.clear_fault(v));
        assert!(!l2.clear_fault(v), "duplicate clear is a no-op");
        assert_eq!(l2.generation(), 2);
        let (gen, snap) = l2.faults_snapshot();
        assert_eq!(gen, 2);
        assert!(snap.is_empty());
        let mut reused = HashSet::new();
        reused.insert(NodeId::from_raw(9));
        assert_eq!(l2.faults_snapshot_into(&mut reused), 2);
        assert!(reused.is_empty(), "snapshot_into replaces the contents");
    }

    #[test]
    fn flush_drops_entries_but_keeps_faults() {
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: 8,
        });
        l2.store(1, 0, &two_path_set(), 1, 0);
        l2.add_fault(NodeId::from_raw(7));
        l2.flush();
        assert!(l2.is_empty());
        assert_eq!(l2.fault_count(), 1);
        assert_eq!(l2.generation(), 1);
    }

    #[test]
    fn concurrent_store_replay_smoke() {
        // Writers and readers race over a small key space; every replay
        // must return either a miss or the exact stored family.
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: 16,
        }));
        let set = two_path_set();
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let l2 = Arc::clone(&l2);
                let set = set.clone();
                std::thread::spawn(move || {
                    for round in 0..50u128 {
                        for key in 0..24u128 {
                            l2.store(key, 0, &set, key as u64, round as u64 % 7 + t);
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let l2 = Arc::clone(&l2);
                std::thread::spawn(move || {
                    let mut r = L2Reader::new(l2);
                    let mut out = PathSet::new();
                    let mut hits = 0u64;
                    for round in 0..200u128 {
                        let key = round % 24;
                        out.clear();
                        if let Some((nr, _)) = r.replay(key, 0, &mut out) {
                            assert_eq!(nr, key as u64, "payload matches key");
                            assert_eq!(out.len(), 2, "stored family has two paths");
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
        // After the dust settles a fresh reader sees every key.
        let mut r = L2Reader::new(Arc::clone(&l2));
        let mut out = PathSet::new();
        for key in 0..24u128 {
            out.clear();
            assert!(r.replay(key, 0, &mut out).is_some());
        }

        // Same race on a tiny shard, so the writers rotate the
        // generations many times under the readers' probes.
        let cap = 4;
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: cap,
        }));
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let l2 = Arc::clone(&l2);
                let set = set.clone();
                std::thread::spawn(move || {
                    for round in 0..50u128 {
                        for key in 0..24u128 {
                            l2.store(key, 0, &set, key as u64, round as u64 % 7 + t);
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let l2 = Arc::clone(&l2);
                let set = set.clone();
                std::thread::spawn(move || {
                    let mut r = L2Reader::new(l2);
                    let mut out = PathSet::new();
                    for round in 0..2000u128 {
                        let key = round % 24;
                        out.clear();
                        if let Some((nr, _)) = r.replay(key, 0, &mut out) {
                            assert_eq!(nr, key as u64, "payload matches key");
                            assert_eq!(out, set, "hit replays the stored family");
                        }
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert!(l2.len() <= 2 * cap, "rotations keep the shard bounded");
        assert!(
            version(&l2, 0) >= 3,
            "the writers must rotate at least three times"
        );
    }

    fn version(l2: &SharedFamilyCache, shard: usize) -> u64 {
        l2.shards[shard].version.load(Ordering::Acquire)
    }

    #[test]
    fn open_hot_generation_stores_are_visible_without_a_version_bump() {
        let cap = 8;
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: cap,
        }));
        l2.store(100, 0, &two_path_set(), 100, 0);
        let mut r = reader(&l2);
        let held = Arc::clone(&r.local[0].gens);
        let mut out = PathSet::new();
        for key in 0..cap as u128 - 1 {
            l2.store(key, 0, &two_path_set(), key as u64, 0);
            assert_eq!(
                version(&l2, 0),
                0,
                "a store into open slots publishes nothing"
            );
            out.clear();
            assert_eq!(r.replay(key, 0, &mut out), Some((key as u64, 0)));
            assert!(
                Arc::ptr_eq(&r.local[0].gens, &held),
                "the reader still holds its earlier generations"
            );
        }
    }

    #[test]
    fn version_bumps_once_per_rotation_and_once_per_flush() {
        let cap = 4;
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 2,
            shard_capacity: cap,
        });
        // Keys that all land in shard 0, so its store count is exact.
        let keys: Vec<u128> = (0..)
            .filter(|&k| (fold_mix(k) >> 32) as usize & l2.shard_mask == 0)
            .take(5 * cap)
            .collect();
        for (n, &key) in keys.iter().enumerate() {
            l2.store(key, 0, &two_path_set(), 0, 0);
            // Store n+1 rotates exactly when the n stores before it
            // filled the hot table, i.e. n / cap times so far.
            assert_eq!(version(&l2, 0), (n / cap) as u64, "after {} stores", n + 1);
        }
        assert_eq!(version(&l2, 1), 0, "the untouched shard never published");
        let before = [version(&l2, 0), version(&l2, 1)];
        l2.flush();
        assert_eq!([version(&l2, 0), version(&l2, 1)], before.map(|v| v + 1));
    }

    #[test]
    fn restoring_a_cold_key_does_not_insert_it_again() {
        let cap = 2;
        let l2 = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: cap,
        });
        for key in 0..cap as u128 + 1 {
            l2.store(key, 0, &two_path_set(), key as u64, 0);
        }
        // Keys 0 and 1 now sit in the cold generation, key 2 in the hot.
        let (len, v) = (l2.len(), version(&l2, 0));
        assert_eq!(len, cap + 1);
        for key in 0..cap as u128 + 1 {
            l2.store(key, 0, &two_path_set(), 9, 9);
            assert_eq!(l2.len(), len, "key {key} is already stored");
            assert_eq!(version(&l2, 0), v, "a duplicate store publishes nothing");
        }
        let mut out = PathSet::new();
        assert_eq!(reader(&Arc::new(l2)).replay(0, 0, &mut out), Some((0, 0)));
    }
}
