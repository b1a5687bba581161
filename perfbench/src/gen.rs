//! Seeded input generators.
//!
//! Every workload input — query pairs, the standing fault set and the
//! fault events — is a pure function of the `--seed` argument and a
//! per-stream tag, so two runs with one seed see identical inputs no
//! matter how fast the program under test answers them.

use hhc_core::{
    disjoint_paths_into, CacheConfig, CrossingOrder, Hhc, NodeId, PathBuilder, PathSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use workloads::Pattern;

/// An ordered query pair `(u, v)`.
pub type Pair = (NodeId, NodeId);

/// Canonical family key: the router's caches store a family once per
/// `(Xu ⊕ Xv, Yu, Yv)` class (with `m` and the crossing order fixed per
/// workload), so two pairs with one key share a cache entry.
pub type FamilyKey = (u128, u32, u32);

/// Queries per `query_many_into` call in the service workloads.
pub const BATCH: usize = 64;
/// Distinct family keys in the `serve_hot` pool.
pub const HOT_POOL: usize = 256;
/// Distinct family keys in the `serve_churn` pool.
pub const CHURN_POOL: usize = 4096;
/// Standing live faults on `serve_churn`.
pub const CHURN_FAULTS: usize = 256;

/// An independent RNG stream for one input of one run.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// A seed for one simulator run, derived from the run's seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    stream(seed, tag).gen()
}

pub fn family_key(h: &Hhc, (u, v): Pair) -> FamilyKey {
    (
        h.cube_field(u) ^ h.cube_field(v),
        h.node_field(u),
        h.node_field(v),
    )
}

/// `n` uniformly random pairs with pairwise distinct family keys.
pub fn distinct_pool(h: &Hhc, n: usize, rng: &mut StdRng) -> Vec<Pair> {
    let mut seen = HashSet::with_capacity(n);
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let p = workloads::sampling::random_pair(h, rng);
        if seen.insert(family_key(h, p)) {
            pool.push(p);
        }
    }
    pool
}

/// `n` pairs drawn the way the simulator draws them: a uniform source
/// and a [`Pattern::UniformRandom`] destination.
pub fn pattern_pairs(h: &Hhc, n: usize, rng: &mut StdRng) -> Vec<Pair> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let u = workloads::sampling::random_node(h, rng);
        if let Some(v) = Pattern::UniformRandom.destination(h, u, rng) {
            if u != v {
                out.push((u, v));
            }
        }
    }
    out
}

/// Mixing rounds of the [`ColdStream`] key permutation.
const KEY_ROUNDS: usize = 4;

/// An endless stream of uniform pairs whose family keys never repeat.
///
/// The `i`-th key is a seeded bijection of the counter `i` over the
/// whole key space (`2^m` bits of `Xu ⊕ Xv`, then `m` bits each of `Yu`
/// and `Yv`), so the stream stores no key to avoid repeats and its
/// memory does not grow with the number of pairs handed out. `Xu` is
/// drawn at random; the keys that would give `u = v` are skipped.
pub struct ColdStream {
    rng: StdRng,
    /// Per round: a key to XOR in and an odd multiplier.
    rounds: [(u64, u64); KEY_ROUNDS],
    counter: u64,
    issued: usize,
}

impl ColdStream {
    pub fn new(seed: u64) -> Self {
        let mut rng = stream(seed, 3);
        let rounds = std::array::from_fn(|_| (rng.gen(), rng.gen::<u64>() | 1));
        ColdStream {
            rng,
            rounds,
            counter: 0,
            issued: 0,
        }
    }

    /// A bijection of `[0, 2^bits)`: each round XORs a key in,
    /// multiplies by an odd number and folds the high half down, all
    /// modulo `2^bits`, and each of those steps is invertible.
    fn permute(&self, mut x: u64, bits: u32) -> u64 {
        let mask = (1u64 << bits) - 1;
        for &(key, mul) in &self.rounds {
            x = (x ^ key) & mask;
            x = x.wrapping_mul(mul) & mask;
            x ^= x >> (bits / 2 + 1);
        }
        x
    }

    /// Replaces `out` with the next `n` pairs of the stream.
    pub fn fill(&mut self, h: &Hhc, n: usize, out: &mut Vec<Pair>) {
        let (m, positions) = (h.m(), h.positions());
        let bits = positions + 2 * m;
        assert!(bits < 64, "the key space of HHC({m}) does not fit a u64");
        let y_mask = (1u64 << m) - 1;
        out.clear();
        while out.len() < n {
            assert!(self.counter >> bits == 0, "the key space is exhausted");
            let key = self.permute(self.counter, bits);
            self.counter += 1;
            let (d, yu, yv) = (key >> (2 * m), (key >> m) & y_mask, key & y_mask);
            if d == 0 && yu == yv {
                continue;
            }
            let xu = self.rng.gen::<u64>() & ((1u64 << positions) - 1);
            let u = h.node(xu as u128, yu as u32).expect("in range");
            let v = h.node((xu ^ d) as u128, yv as u32).expect("in range");
            out.push((u, v));
        }
        self.issued += n;
    }

    /// Keys handed out so far.
    pub fn distinct_keys(&self) -> usize {
        self.issued
    }
}

/// One fault-feed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    Add(NodeId),
    Clear(NodeId),
}

/// The `serve_churn` fault feed: a standing set of live faults on
/// interior nodes of the pool's plain families, never on a pool
/// endpoint, churned by one add or clear per batch so the live count
/// stays within one of its standing size.
pub struct FaultFeed {
    live: Vec<NodeId>,
    live_set: HashSet<NodeId>,
    endpoints: HashSet<NodeId>,
    rng: StdRng,
    builder: PathBuilder,
    family: PathSet,
    events: u64,
}

impl FaultFeed {
    /// Draws the standing set of `count` faults for `pool`.
    pub fn new(h: &Hhc, pool: &[Pair], count: usize, seed: u64) -> Self {
        let mut feed = FaultFeed {
            live: Vec::with_capacity(count + 1),
            live_set: HashSet::with_capacity(count + 1),
            endpoints: pool.iter().flat_map(|&(u, v)| [u, v]).collect(),
            rng: stream(seed, 4),
            builder: PathBuilder::with_caches(CacheConfig::disabled()),
            family: PathSet::new(),
            events: 0,
        };
        while feed.live.len() < count {
            let v = feed.candidate(h, pool);
            feed.live.push(v);
            feed.live_set.insert(v);
        }
        feed
    }

    /// A random interior node of a random path of a random pool pair's
    /// plain family, neither a pool endpoint nor already live.
    fn candidate(&mut self, h: &Hhc, pool: &[Pair]) -> NodeId {
        loop {
            let (u, v) = pool[self.rng.gen_range(0..pool.len())];
            disjoint_paths_into(
                h,
                u,
                v,
                CrossingOrder::Gray,
                &mut self.family,
                &mut self.builder,
            )
            .expect("pool pairs are valid and distinct");
            let path = self.family.path(self.rng.gen_range(0..self.family.len()));
            if path.len() < 3 {
                continue;
            }
            let w = path[self.rng.gen_range(1..path.len() - 1)];
            if !self.endpoints.contains(&w) && !self.live_set.contains(&w) {
                return w;
            }
        }
    }

    /// The next event: even events clear a random live fault, odd
    /// events add a fresh one.
    pub fn next_event(&mut self, h: &Hhc, pool: &[Pair]) -> FaultEvent {
        self.events += 1;
        if self.events % 2 == 1 {
            let v = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            self.live_set.remove(&v);
            FaultEvent::Clear(v)
        } else {
            let v = self.candidate(h, pool);
            self.live.push(v);
            self.live_set.insert(v);
            FaultEvent::Add(v)
        }
    }

    pub fn live(&self) -> &HashSet<NodeId> {
        &self.live_set
    }

    pub fn standing(&self) -> &[NodeId] {
        &self.live
    }

    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_core::service::{DEFAULT_L2_SHARDS, DEFAULT_L2_SHARD_CAPACITY};
    use hhc_core::DEFAULT_FAMILY_CACHE_CAPACITY;

    fn keys(h: &Hhc, pairs: &[Pair]) -> HashSet<FamilyKey> {
        pairs.iter().map(|&p| family_key(h, p)).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let h = Hhc::new(5).unwrap();
        assert_eq!(
            distinct_pool(&h, 100, &mut stream(7, 1)),
            distinct_pool(&h, 100, &mut stream(7, 1))
        );
        assert_ne!(
            distinct_pool(&h, 100, &mut stream(7, 1)),
            distinct_pool(&h, 100, &mut stream(8, 1))
        );
        let (mut a, mut b) = (ColdStream::new(7), ColdStream::new(7));
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            a.fill(&h, BATCH, &mut pa);
            b.fill(&h, BATCH, &mut pb);
            assert_eq!(pa, pb);
        }
        let pool = distinct_pool(&h, 64, &mut stream(7, 2));
        let mut fa = FaultFeed::new(&h, &pool, 16, 7);
        let mut fb = FaultFeed::new(&h, &pool, 16, 7);
        assert_eq!(fa.standing(), fb.standing());
        for _ in 0..50 {
            assert_eq!(fa.next_event(&h, &pool), fb.next_event(&h, &pool));
        }
        let h4 = Hhc::new(4).unwrap();
        assert_eq!(
            pattern_pairs(&h4, 50, &mut stream(7, 5)),
            pattern_pairs(&h4, 50, &mut stream(7, 5))
        );
    }

    #[test]
    fn hot_pool_fits_one_worker_l1() {
        let h = Hhc::new(5).unwrap();
        let pool = distinct_pool(&h, HOT_POOL, &mut stream(11, 1));
        assert_eq!(keys(&h, &pool).len(), HOT_POOL);
        const { assert!(HOT_POOL <= DEFAULT_FAMILY_CACHE_CAPACITY) };
    }

    #[test]
    fn cold_keys_never_repeat() {
        let h = Hhc::new(5).unwrap();
        let mut s = ColdStream::new(11);
        let mut seen = HashSet::new();
        let mut batch = Vec::new();
        for _ in 0..400 {
            s.fill(&h, BATCH, &mut batch);
            for &p in &batch {
                assert_ne!(p.0, p.1);
                assert!(seen.insert(family_key(&h, p)), "a cold key repeated");
            }
        }
        assert_eq!(s.distinct_keys(), 400 * BATCH);
    }

    #[test]
    fn cold_key_permutation_is_a_bijection() {
        let s = ColdStream::new(5);
        let bits = 12;
        let image: HashSet<u64> = (0..1u64 << bits).map(|x| s.permute(x, bits)).collect();
        assert_eq!(image.len(), 1 << bits);
        assert!(image.iter().all(|&y| y >> bits == 0));
    }

    #[test]
    fn churn_pool_lies_between_l1_and_l2_capacity() {
        let h = Hhc::new(5).unwrap();
        let pool = distinct_pool(&h, CHURN_POOL, &mut stream(11, 2));
        let distinct = keys(&h, &pool).len();
        // One worker's L1 holds two generations of the family capacity;
        // the L2 holds two generations per shard.
        let l1 = 2 * DEFAULT_FAMILY_CACHE_CAPACITY;
        let l2 = 2 * DEFAULT_L2_SHARDS * DEFAULT_L2_SHARD_CAPACITY;
        assert!(l1 < distinct && distinct < l2, "{l1} < {distinct} < {l2}");
    }

    #[test]
    fn no_fault_is_ever_an_endpoint() {
        let h = Hhc::new(5).unwrap();
        let pool = distinct_pool(&h, 512, &mut stream(13, 2));
        let mut feed = FaultFeed::new(&h, &pool, CHURN_FAULTS, 13);
        let endpoints: HashSet<NodeId> = pool.iter().flat_map(|&(u, v)| [u, v]).collect();
        assert_eq!(feed.live().len(), CHURN_FAULTS);
        assert!(feed.live().iter().all(|v| !endpoints.contains(v)));
        for _ in 0..1000 {
            if let FaultEvent::Add(v) = feed.next_event(&h, &pool) {
                assert!(!endpoints.contains(&v));
            }
            assert!(feed.live().len().abs_diff(CHURN_FAULTS) <= 1);
            assert!(feed.live().iter().all(|v| !endpoints.contains(v)));
        }
        assert_eq!(feed.events(), 1000);
    }
}
