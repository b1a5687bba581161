//! Bounded cache of canonical disjoint-path families.
//!
//! `HHC(m)` is vertex-transitive under cube-field translation: for any
//! mask `A`, the map `(X, Y) ↦ (X ⊕ A, Y)` is an automorphism (internal
//! edges ignore the cube field; the external edge at `(X, Y)` flips cube
//! bit `Y` on both sides). The whole construction is equivariant under
//! it — plan selection reads only `dx = Xu ⊕ Xv`, `Yu`, `Yv`, `m` and the
//! crossing order; fans run in son-cube coordinates; assembly threads the
//! cube field through XORs only. So the family for `(u, v)` is the family
//! for the canonical pair `((0, Yu), (dx, Yv))` with every node
//! translated by `Xu`, and one cached solve serves all `2^{2^m}`
//! translated instances of its signature.
//!
//! Each [`PathBuilder`](crate::PathBuilder) holds exactly one family
//! cache, `FamilyTier`, implemented once as a
//! [`SharedFamilyCache`]: by default a private single-shard table, or
//! a tier shared with other builders (the router's workers) once one is
//! attached — the attached tier replaces the private table rather than
//! sitting behind it. Eviction is the shared tier's: two append-only
//! generations, a full hot table becomes the cold one, bounding the
//! cache at `2 × capacity` keys; a private table also promotes cold hits
//! into its hot generation.
//!
//! Entries also carry the rotation/detour plan counts of the cached
//! family so metric conservation laws (`rotation_plans + detour_plans =
//! degree × cross_cube + same_cube`) survive cache replays.

use super::CrossingOrder;
use crate::pathset::PathSet;
use crate::service::{L2Config, L2Reader, SharedFamilyCache};
use std::sync::Arc;

/// Default hot-generation capacity. An HHC(5) family entry is a few
/// kilobytes, so the default bounds a private table at single-digit
/// megabytes while covering typical repeated-pattern workloads.
pub const DEFAULT_FAMILY_CACHE_CAPACITY: usize = 1024;

/// Adaptive-bypass warm-up: a private table never latches probe-only before it
/// has seen this many probes (a cold cache always starts at a 0% hit
/// rate; that is not evidence the workload lacks reuse).
pub const BYPASS_MIN_PROBES: u64 = 512;

/// Adaptive-bypass hit-rate floor: below this lifetime hit rate a
/// private table is judged useless for the running workload (uniform-random
/// pairs on a large address space re-key almost every query).
pub const BYPASS_HIT_FLOOR: f64 = 0.05;

/// Adaptive-bypass streak: probe-only additionally requires this many
/// consecutive misses, so a workload that alternates phases of reuse
/// and churn is not punished for one cold burst.
pub const BYPASS_CONSEC_MISSES: u64 = 256;

/// Capacities of the two construction caches carried by a
/// [`PathBuilder`](crate::PathBuilder). Capacity 0 disables the
/// corresponding cache (identical results, no memoisation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Hot-generation capacity of the canonical fan cache.
    pub fan_capacity: usize,
    /// Hot-generation capacity of the builder's private family table
    /// (unused while a shared tier is attached).
    pub family_capacity: usize,
}

impl CacheConfig {
    /// Both caches at their default capacities (the `PathBuilder`
    /// default).
    pub fn enabled() -> Self {
        CacheConfig {
            fan_capacity: hypercube::DEFAULT_FAN_CACHE_CAPACITY,
            family_capacity: DEFAULT_FAMILY_CACHE_CAPACITY,
        }
    }

    /// Both caches disabled: every query is solved from scratch. The
    /// reference mode for equivalence testing and ablation benchmarks.
    pub fn disabled() -> Self {
        CacheConfig {
            fan_capacity: 0,
            family_capacity: 0,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::enabled()
    }
}

/// Cache key: everything the construction output depends on besides the
/// translation mask. `dx` occupies the low 64 bits (positions `2^m ≤ 64`),
/// then `Yu`, `Yv`, `m` and the crossing order in separate bytes.
pub(crate) fn family_key(m: u32, dx: u128, yu: u32, yv: u32, order: CrossingOrder) -> u128 {
    debug_assert!(dx < 1u128 << 64 && yu < 64 && yv < 64 && m <= 6);
    let order_bit = match order {
        CrossingOrder::Gray => 0u128,
        CrossingOrder::Sorted => 1,
    };
    dx | (yu as u128) << 64 | (yv as u128) << 72 | (m as u128) << 80 | order_bit << 88
}

/// The one family cache a [`PathBuilder`](crate::PathBuilder) probes:
/// a private single-shard [`SharedFamilyCache`] table by default, or a
/// shared tier attached with
/// [`PathBuilder::attach_shared_cache`](crate::PathBuilder::attach_shared_cache),
/// which replaces the private table. Both are read through an
/// `L2Reader`, so a query does one probe and at most one store
/// whichever it is.
#[derive(Debug)]
pub(crate) struct FamilyTier {
    reader: L2Reader,
    /// The adaptive bypass of a private table; `None` for a shared tier,
    /// which keeps storing because other builders replay its entries.
    bypass: Option<Bypass>,
}

/// Adaptive bypass: lifetime probe/hit accounting of a private table.
/// When the hit rate stays under `BYPASS_HIT_FLOOR` after
/// `BYPASS_MIN_PROBES` probes and the table has just missed
/// `BYPASS_CONSEC_MISSES` times in a row, it latches `probe_only`:
/// stored entries keep replaying but no new ones are inserted, so a
/// churn workload (uniform-random pairs over a huge key space) stops
/// paying the canonicalise-and-copy cost of a store on every query.
/// The latch is one-way for the table's lifetime.
#[derive(Debug, Default)]
struct Bypass {
    probes: u64,
    hits: u64,
    consec_misses: u64,
    probe_only: bool,
}

impl Bypass {
    fn record(&mut self, hit: bool) {
        self.probes += 1;
        if hit {
            self.hits += 1;
            self.consec_misses = 0;
            return;
        }
        self.consec_misses += 1;
        self.probe_only |= self.probes >= BYPASS_MIN_PROBES
            && self.consec_misses >= BYPASS_CONSEC_MISSES
            && (self.hits as f64) < BYPASS_HIT_FLOOR * self.probes as f64;
    }
}

impl FamilyTier {
    /// A private table holding up to `2 × capacity` families (capacity 0:
    /// inert, no bypass accounting).
    pub(crate) fn private(capacity: usize) -> Self {
        let table = SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: capacity,
        });
        FamilyTier {
            reader: L2Reader::new(Arc::new(table)).promoting(),
            bypass: Some(Bypass::default()),
        }
    }

    /// A reader over a tier other builders share.
    pub(crate) fn shared(l2: Arc<SharedFamilyCache>) -> Self {
        FamilyTier {
            reader: L2Reader::new(l2),
            bypass: None,
        }
    }

    /// Whether this is a shared tier rather than the builder's own table.
    pub(crate) fn is_shared(&self) -> bool {
        self.bypass.is_none()
    }

    /// Probe-only latches of this table: 0 or 1 (always 0 when shared).
    pub(crate) fn bypass_events(&self) -> u64 {
        self.bypass.as_ref().map_or(0, |b| b.probe_only as u64)
    }

    /// On a hit, appends the cached family translated by `mask` to `out`
    /// and returns its `(rotations, detours)` plan counts.
    pub(crate) fn replay(
        &mut self,
        key: u128,
        mask: u128,
        out: &mut PathSet,
    ) -> Option<(u64, u64)> {
        let hit = self.reader.replay(key, mask, out);
        if let Some(b) = &mut self.bypass {
            if self.reader.cache().shard_capacity() > 0 {
                b.record(hit.is_some());
            }
        }
        hit
    }

    /// Stores a fresh construction for some pair with translation mask
    /// `mask` under `key`, unless the bypass has latched.
    pub(crate) fn store(&self, key: u128, mask: u128, set: &PathSet, rotations: u64, detours: u64) {
        if !self.bypass.as_ref().is_some_and(|b| b.probe_only) {
            self.reader.store(key, mask, set, rotations, detours);
        }
    }
}

impl Default for FamilyTier {
    fn default() -> Self {
        FamilyTier::private(DEFAULT_FAMILY_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::PathBuilder;
    use crate::node::NodeId;

    #[test]
    fn keys_separate_every_component() {
        let mut keys = std::collections::HashSet::new();
        for (m, dx, yu, yv, order) in [
            (3u32, 0b101u128, 1u32, 2u32, CrossingOrder::Gray),
            (3, 0b101, 1, 2, CrossingOrder::Sorted),
            (3, 0b101, 2, 1, CrossingOrder::Gray),
            (3, 0b100, 1, 2, CrossingOrder::Gray),
            (4, 0b101, 1, 2, CrossingOrder::Gray),
        ] {
            assert!(keys.insert(family_key(m, dx, yu, yv, order)));
        }
    }

    fn one_path_set() -> PathSet {
        let mut set = PathSet::new();
        set.push_node(NodeId::from_raw(3));
        set.finish_path();
        set
    }

    /// A builder whose private family table holds `capacity` entries
    /// per generation.
    fn builder(capacity: usize) -> PathBuilder {
        PathBuilder::with_caches(CacheConfig {
            fan_capacity: 0,
            family_capacity: capacity,
        })
    }

    #[test]
    fn capacity_zero_is_inert() {
        let mut b = builder(0);
        b.family.store(1, 0, &one_path_set(), 0, 1);
        assert!(b.family.replay(1, 0, &mut PathSet::new()).is_none());
        assert!(b.family.reader.cache().is_empty());
        // A disabled table does no bypass accounting either.
        let bypass = b.family.bypass.as_ref().expect("private table");
        assert_eq!(bypass.probes, 0);
        assert!(!bypass.probe_only);
    }

    #[test]
    fn bypass_latches_after_sustained_misses_and_stops_inserting() {
        let mut b = builder(8);
        let set = one_path_set();
        // An entry stored before the latch keeps replaying after it.
        b.family.store(u128::MAX, 0, &set, 1, 0);
        let mut out = PathSet::new();
        for key in 0..BYPASS_MIN_PROBES as u128 {
            assert!(b.family.replay(key, 0, &mut out).is_none());
        }
        assert_eq!(
            b.family.bypass_events(),
            1,
            "miss streak should latch probe-only"
        );
        assert_eq!(b.metrics().construction.family_bypass_events, 1);
        assert_eq!(b.family.bypass.as_ref().unwrap().probes, BYPASS_MIN_PROBES);
        // Latched: store is a no-op...
        let before = b.family.reader.cache().len();
        b.family.store(42, 0, &set, 0, 1);
        assert_eq!(b.family.reader.cache().len(), before);
        assert!(b.family.replay(42, 0, &mut out).is_none());
        // ...but pre-latch entries still hit, and the event count stays 1.
        assert!(b.family.replay(u128::MAX, 0, &mut out).is_some());
        assert_eq!(b.family.bypass_events(), 1);
    }

    #[test]
    fn bypass_never_latches_while_the_cache_is_useful() {
        let mut b = builder(8);
        b.family.store(7, 0, &one_path_set(), 1, 0);
        let mut out = PathSet::new();
        for _ in 0..4 * BYPASS_MIN_PROBES {
            assert!(b.family.replay(7, 0, &mut out).is_some());
        }
        assert_eq!(b.family.bypass_events(), 0);
        let bypass = b.family.bypass.as_ref().unwrap();
        assert_eq!(bypass.hits, bypass.probes);
    }

    #[test]
    fn a_private_table_promotes_cold_hits() {
        let mut b = builder(2);
        let set = one_path_set();
        for key in 0..3 {
            b.family.store(key, 0, &set, key as u64, 0);
        }
        // Keys 0 and 1 now sit in the cold generation. Hitting 0 moves it
        // back to the hot one, so the next rotation drops 1 but keeps 0.
        let mut out = PathSet::new();
        assert!(b.family.replay(0, 0, &mut out).is_some());
        b.family.store(3, 0, &set, 3, 0);
        assert_eq!(b.family.replay(0, 0, &mut out), Some((0, 0)));
        assert!(b.family.replay(1, 0, &mut out).is_none());
    }

    #[test]
    fn a_shared_tier_never_latches() {
        // The shared tier keeps storing however badly it hits: other
        // builders replay what this one stores.
        let l2 = Arc::new(SharedFamilyCache::new(L2Config {
            shards: 1,
            shard_capacity: 8,
        }));
        let mut b = builder(8);
        b.attach_shared_cache(Arc::clone(&l2));
        let mut out = PathSet::new();
        for key in 0..2 * BYPASS_MIN_PROBES as u128 {
            assert!(b.family.replay(key, 0, &mut out).is_none());
        }
        b.family.store(42, 0, &one_path_set(), 0, 1);
        assert_eq!(b.family.bypass_events(), 0);
        assert!(b.family.replay(42, 0, &mut out).is_some());
    }
}
