//! Property tests for the batch path engine: batched construction must
//! be node-for-node identical to the per-pair API, and the flat
//! [`PathSet`] arena must round-trip losslessly through `Vec<Path>`.

use hhc_core::{batch, disjoint, CacheConfig, CrossingOrder, Hhc, NodeId, PathBuilder, PathSet};
use proptest::prelude::*;

/// Builds a valid HHC node from arbitrary bits.
fn node(h: &Hhc, x: u64, y: u64) -> NodeId {
    let xmask = (1u128 << h.positions()) - 1;
    h.node(x as u128 & xmask, (y % h.positions() as u64) as u32)
        .expect("masked into range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `construct_many` (rayon) and `construct_many_serial` (one scratch)
    /// produce exactly the per-pair `disjoint_paths` families, in input
    /// order, for every m ∈ 1..=4 and both crossing orders.
    #[test]
    fn batch_identical_to_per_pair(
        m in 1u32..=4,
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..12),
        gray in any::<bool>(),
    ) {
        let h = Hhc::new(m).unwrap();
        let order = if gray { CrossingOrder::Gray } else { CrossingOrder::Sorted };
        let pairs: Vec<(NodeId, NodeId)> = raw
            .into_iter()
            .map(|(xa, ya, xb, yb)| (node(&h, xa, ya), node(&h, xb, yb)))
            .filter(|(u, v)| u != v)
            .collect();
        prop_assume!(!pairs.is_empty());

        let (batched, _) = batch::construct_many(&h, &pairs, order, CacheConfig::default()).unwrap();
        let serial = batch::construct_many_serial(&h, &pairs, order, &mut PathBuilder::new()).unwrap();
        prop_assert_eq!(batched.len(), pairs.len());
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let single = disjoint::disjoint_paths(&h, u, v, order).unwrap();
            prop_assert_eq!(&batched[i].to_paths(), &single, "rayon batch, pair {}", i);
            prop_assert_eq!(&serial[i], &batched[i], "serial batch, pair {}", i);
        }
    }

    /// A reused `PathBuilder` never leaks state between queries: an
    /// interleaved sequence of different pairs through one scratch gives
    /// the same families as fresh per-pair calls.
    #[test]
    fn scratch_reuse_is_stateless(
        m in 1u32..=4,
        raw in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 2..8),
    ) {
        let h = Hhc::new(m).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = raw
            .into_iter()
            .map(|(xa, ya, xb, yb)| (node(&h, xa, ya), node(&h, xb, yb)))
            .filter(|(u, v)| u != v)
            .collect();
        prop_assume!(pairs.len() >= 2);
        let mut scratch = PathBuilder::new();
        let mut out = PathSet::new();
        // Run the list twice through the same scratch, checking both runs.
        for _ in 0..2 {
            for &(u, v) in &pairs {
                disjoint::disjoint_paths_into(&h, u, v, CrossingOrder::Gray, &mut out, &mut scratch)
                    .unwrap();
                let fresh = disjoint::disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap();
                prop_assert_eq!(out.to_paths(), fresh);
            }
        }
    }

    /// `PathSet` ↔ `Vec<Path>` round-trips losslessly, and the accessors
    /// (`len`, `path`, `iter`, `total_nodes`, `max_len`) agree with the
    /// nested representation.
    #[test]
    fn pathset_round_trips(
        paths in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1..10),
            0..8,
        ),
    ) {
        let paths: Vec<Vec<NodeId>> = paths
            .into_iter()
            .map(|p| p.into_iter().map(|x| NodeId::from_raw(x as u128)).collect())
            .collect();
        let set = PathSet::from_paths(&paths);
        prop_assert_eq!(set.len(), paths.len());
        prop_assert_eq!(set.total_nodes(), paths.iter().map(Vec::len).sum::<usize>());
        let expect_max = paths.iter().map(|p| p.len().saturating_sub(1)).max().unwrap_or(0);
        prop_assert_eq!(set.max_len(), expect_max);
        for (i, p) in paths.iter().enumerate() {
            prop_assert_eq!(set.path(i), p.as_slice());
        }
        let collected: Vec<&[NodeId]> = set.iter().collect();
        prop_assert_eq!(collected.len(), paths.len());
        prop_assert_eq!(&set.to_paths(), &paths);
        prop_assert_eq!(PathSet::from_paths(&set.to_paths()), set);
    }
}
