//! Route-selection strategies.
//!
//! Strategies are pure: given the network, a pair and the fault set they
//! return a full route or `None` (unroutable). The simulator charges an
//! unroutable packet as a drop at injection time.
//!
//! ```
//! use hhc_core::Hhc;
//! use netsim::Strategy;
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::collections::HashSet;
//!
//! let h = Hhc::new(2).unwrap();
//! let (u, v) = (h.node(0, 0).unwrap(), h.node(0xA, 3).unwrap());
//! let mut rng = StdRng::seed_from_u64(1);
//! let route = Strategy::SinglePath
//!     .select(&h, u, v, &HashSet::new(), &mut rng)
//!     .expect("no faults: always routable");
//! assert_eq!(route.first(), Some(&u));
//! assert_eq!(route.last(), Some(&v));
//! ```

use crate::net::{Network, RouteScratch};
use hhc_core::{FaultOracle, NodeId, Path};
use rand::Rng;

/// How sources pick routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The deterministic single route of [`hhc_core::routing::route`].
    /// Fails if any node on that one route is faulty.
    SinglePath,
    /// Uniformly random member of the `m + 1` node-disjoint paths —
    /// oblivious load balancing. Ignores faults (pure performance mode).
    MultipathRandom,
    /// Picks uniformly among the *fault-free* members of the `m + 1`
    /// disjoint paths; fails only if all of them are blocked (impossible
    /// for `f ≤ m` faults when the endpoints are alive).
    FaultAdaptive,
    /// Requests a fault-free disjoint family directly from the network
    /// ([`Network::disjoint_routes_avoiding_into`]) and picks uniformly
    /// among its members. Where [`Strategy::FaultAdaptive`] filters a
    /// fault-blind family — and collapses once the faults blanket most
    /// of it — this *constructs around* the faults, so on fault-aware
    /// topologies (the HHC) it sustains delivery at fault counts where
    /// selection-time filtering fails.
    FaultFree,
    /// Valiant's two-phase randomised routing: route deterministically to
    /// a uniformly random intermediate node, then on to the destination.
    /// The classic fix for adversarial permutation traffic — it converts
    /// any pattern into two uniform-random phases at the cost of ~2×
    /// path length. The walk may revisit nodes (that is fine in a
    /// store-and-forward network). Fails only if faults block the chosen
    /// walk after a bounded number of redraws.
    Valiant,
}

impl Strategy {
    /// Selects a route from `src` to `dst` (`src ≠ dst`), or `None` if the
    /// strategy cannot route around the faults. Allocates a fresh scratch
    /// per call; loops should use [`Strategy::select_with`].
    pub fn select<N: Network + ?Sized, F: FaultOracle + ?Sized, R: Rng>(
        &self,
        net: &N,
        src: NodeId,
        dst: NodeId,
        faults: &F,
        rng: &mut R,
    ) -> Option<Path> {
        self.select_with(net, src, dst, faults, rng, &mut RouteScratch::new())
    }

    /// [`Strategy::select`] with caller-owned route scratch: the disjoint
    /// family is built into the scratch's buffers and only the chosen
    /// route is copied out. Identical routes and RNG draw sequence.
    pub fn select_with<N: Network + ?Sized, F: FaultOracle + ?Sized, R: Rng>(
        &self,
        net: &N,
        src: NodeId,
        dst: NodeId,
        faults: &F,
        rng: &mut R,
        scratch: &mut RouteScratch,
    ) -> Option<Path> {
        let mut out = Vec::new();
        self.select_into(net, src, dst, faults, rng, scratch, &mut out)
            .then_some(out)
    }

    /// [`Strategy::select_with`] writing the chosen route into `out`
    /// (cleared first); returns whether a route was selected. The
    /// allocation-free form the simulator's injection loop uses — one
    /// route buffer lives for the whole run. Same routes, same RNG draw
    /// sequence as the allocating forms (which delegate here).
    #[allow(clippy::too_many_arguments)]
    pub fn select_into<N: Network + ?Sized, F: FaultOracle + ?Sized, R: Rng>(
        &self,
        net: &N,
        src: NodeId,
        dst: NodeId,
        faults: &F,
        rng: &mut R,
        scratch: &mut RouteScratch,
        out: &mut Vec<NodeId>,
    ) -> bool {
        debug_assert_ne!(src, dst);
        debug_assert!(!faults.is_faulty(src) && !faults.is_faulty(dst));
        out.clear();
        match self {
            Strategy::SinglePath => {
                let p = net.route(src, dst);
                if path_blocked(&p, faults) {
                    false
                } else {
                    out.extend_from_slice(&p);
                    true
                }
            }
            Strategy::MultipathRandom => {
                let paths = net.disjoint_routes_into(src, dst, scratch);
                let i = rng.gen_range(0..paths.len());
                out.extend_from_slice(paths.path(i));
                true
            }
            Strategy::FaultAdaptive => {
                // Single pass over the family: collect the indices of the
                // fault-free members, then index the draw directly. (The
                // previous count-then-`nth` form walked the filter twice,
                // re-probing the fault set for every node of every path.)
                let mut alive = std::mem::take(&mut scratch.alive_idx);
                alive.clear();
                let paths = net.disjoint_routes_into(src, dst, scratch);
                alive.extend(
                    paths
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| !path_blocked(p, faults))
                        .map(|(i, _)| i as u32),
                );
                let routed = if alive.is_empty() {
                    false
                } else {
                    let i = rng.gen_range(0..alive.len());
                    out.extend_from_slice(paths.path(alive[i] as usize));
                    true
                };
                scratch.alive_idx = alive;
                routed
            }
            Strategy::FaultFree => {
                let shim = OracleShim(faults);
                let paths = net.disjoint_routes_avoiding_into(src, dst, &shim, scratch);
                if paths.is_empty() {
                    false
                } else {
                    let i = rng.gen_range(0..paths.len());
                    out.extend_from_slice(paths.path(i));
                    true
                }
            }
            Strategy::Valiant => {
                let mask = net.address_mask();
                for _ in 0..8 {
                    let w = NodeId::from_raw(
                        ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) & mask,
                    );
                    if w == src || w == dst || faults.is_faulty(w) {
                        continue;
                    }
                    out.clear();
                    out.extend_from_slice(&net.route(src, w));
                    out.extend(net.route(w, dst).into_iter().skip(1));
                    if !path_blocked(out, faults) {
                        return true;
                    }
                }
                // Every redraw was blocked: honour the "cleared first"
                // contract rather than leaking the last blocked walk.
                out.clear();
                false
            }
        }
    }
}

/// Adapts a generic `F: FaultOracle + ?Sized` borrow into a sized value
/// that coerces to `&dyn FaultOracle` — the form
/// [`Network::disjoint_routes_avoiding_into`] (and through it the
/// construction layer) accepts.
struct OracleShim<'a, F: ?Sized>(&'a F);

impl<F: FaultOracle + ?Sized> FaultOracle for OracleShim<'_, F> {
    fn is_faulty(&self, v: NodeId) -> bool {
        self.0.is_faulty(v)
    }

    fn fault_count(&self) -> usize {
        self.0.fault_count()
    }
}

/// Whether any node of `path` (endpoints included) is faulty.
pub fn path_blocked<F: FaultOracle + ?Sized>(path: &[NodeId], faults: &F) -> bool {
    path.iter().any(|&v| faults.is_faulty(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhc_core::Hhc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn setup() -> (Hhc, NodeId, NodeId, StdRng) {
        let h = Hhc::new(2).unwrap();
        let u = h.node(0b0000, 0b00).unwrap();
        let v = h.node(0b1010, 0b11).unwrap();
        (h, u, v, StdRng::seed_from_u64(1))
    }

    #[test]
    fn single_path_is_the_router_route() {
        let (h, u, v, mut rng) = setup();
        let p = Strategy::SinglePath
            .select(&h, u, v, &HashSet::new(), &mut rng)
            .unwrap();
        assert_eq!(p, h.route(u, v).unwrap());
    }

    #[test]
    fn single_path_fails_when_blocked() {
        let (h, u, v, mut rng) = setup();
        let p = h.route(u, v).unwrap();
        let faults: HashSet<_> = [p[1]].into_iter().collect();
        assert!(Strategy::SinglePath
            .select(&h, u, v, &faults, &mut rng)
            .is_none());
    }

    #[test]
    fn multipath_random_spreads_over_disjoint_paths() {
        let (h, u, v, mut rng) = setup();
        let all = h.disjoint_paths(u, v).unwrap();
        let mut chosen = std::collections::HashSet::new();
        // One scratch for the whole loop (`select` allocates per call).
        let mut scratch = RouteScratch::new();
        for _ in 0..100 {
            let p = Strategy::MultipathRandom
                .select_with(&h, u, v, &HashSet::new(), &mut rng, &mut scratch)
                .unwrap();
            assert!(all.contains(&p));
            chosen.insert(p);
        }
        assert_eq!(chosen.len(), all.len(), "should eventually use every path");
    }

    #[test]
    fn fault_adaptive_survives_m_faults() {
        let (h, u, v, mut rng) = setup();
        // Block interior nodes of m of the m+1 paths: still routable.
        let paths = h.disjoint_paths(u, v).unwrap();
        let faults: HashSet<_> = paths[..h.m() as usize].iter().map(|p| p[1]).collect();
        let p = Strategy::FaultAdaptive
            .select(&h, u, v, &faults, &mut rng)
            .unwrap();
        assert!(!path_blocked(&p, &faults));
    }

    #[test]
    fn valiant_walks_are_valid_and_varied() {
        let (h, u, v, mut rng) = setup();
        let mut lengths = std::collections::HashSet::new();
        let mut scratch = RouteScratch::new();
        for _ in 0..50 {
            let w = Strategy::Valiant
                .select_with(&h, u, v, &HashSet::new(), &mut rng, &mut scratch)
                .unwrap();
            assert_eq!(*w.first().unwrap(), u);
            assert_eq!(*w.last().unwrap(), v);
            for pair in w.windows(2) {
                assert!(
                    crate::net::Network::is_edge(&h, pair[0], pair[1]),
                    "valiant walk uses a non-edge"
                );
            }
            lengths.insert(w.len());
        }
        assert!(
            lengths.len() > 1,
            "random intermediates should vary lengths"
        );
    }

    #[test]
    fn valiant_avoids_faults() {
        let (h, u, v, mut rng) = setup();
        let direct = h.route(u, v).unwrap();
        let faults: HashSet<_> = [direct[1]].into_iter().collect();
        let mut scratch = RouteScratch::new();
        for _ in 0..20 {
            if let Some(w) =
                Strategy::Valiant.select_with(&h, u, v, &faults, &mut rng, &mut scratch)
            {
                assert!(!path_blocked(&w, &faults));
            }
        }
    }

    #[test]
    fn fault_adaptive_fails_only_when_all_blocked() {
        let (h, u, v, mut rng) = setup();
        let paths = h.disjoint_paths(u, v).unwrap();
        let faults: HashSet<_> = paths.iter().map(|p| p[1]).collect();
        assert!(Strategy::FaultAdaptive
            .select(&h, u, v, &faults, &mut rng)
            .is_none());
    }

    /// Regression: a failed Valiant selection must leave `out` empty —
    /// the old code fell out of the redraw loop with the last *blocked*
    /// walk still in the buffer.
    #[test]
    fn valiant_failure_leaves_out_cleared() {
        let (h, u, v, mut rng) = setup();
        // Every node except the endpoints is faulty: any healthy redraw
        // target is impossible, and to be thorough some draws will hit
        // the intermediate-faulty `continue` path too.
        let faults: HashSet<NodeId> = h
            .all_nodes()
            .into_iter()
            .filter(|&w| w != u && w != v)
            .collect();
        let mut scratch = RouteScratch::new();
        let mut out = vec![u, v, u]; // stale garbage from a previous call
        assert!(!Strategy::Valiant.select_into(
            &h,
            u,
            v,
            &faults,
            &mut rng,
            &mut scratch,
            &mut out
        ));
        assert!(out.is_empty(), "failed selection must clear out");

        // Same property when a redraw finds a healthy intermediate but
        // the walk through it is blocked: only `w` (adjacent to neither
        // endpoint) is healthy, so any walk that *is* attempted leaks
        // into `out` under the old code. Enough calls that the fixed
        // seed is guaranteed to draw `w` at least once.
        let w = h.node(0b0101, 0b01).unwrap();
        let faults: HashSet<NodeId> = h
            .all_nodes()
            .into_iter()
            .filter(|&x| x != u && x != v && x != w)
            .collect();
        let mut attempted = false;
        for _ in 0..64 {
            let mut out = vec![u];
            let probe = rng.clone();
            assert!(!Strategy::Valiant.select_into(
                &h,
                u,
                v,
                &faults,
                &mut rng,
                &mut scratch,
                &mut out
            ));
            assert!(out.is_empty(), "blocked-walk failure must clear out");
            // Did this call actually draw the healthy intermediate?
            let mask = workloads::AddressSpace::address_mask(&h);
            let mut probe = probe;
            for _ in 0..8 {
                let cand = NodeId::from_raw(
                    ((probe.gen::<u64>() as u128) << 64 | probe.gen::<u64>() as u128) & mask,
                );
                attempted |= cand == w;
            }
        }
        assert!(attempted, "seed never exercised the blocked-walk path");
    }

    /// Regression: the single-pass FaultAdaptive selection must pick the
    /// same routes with the same RNG draw sequence as the two-pass
    /// (count, then re-filter + `nth`) form it replaced.
    #[test]
    fn fault_adaptive_single_pass_matches_two_pass_reference() {
        let (h, u, v, mut rng) = setup();
        let mut ref_rng = StdRng::seed_from_u64(1);
        let paths = h.disjoint_paths(u, v).unwrap();
        let mut scratch = RouteScratch::new();
        let mut out = Vec::new();
        // Sweep fault sets from empty to fully blocking.
        for blocked in 0..=paths.len() {
            let faults: HashSet<_> = paths[..blocked].iter().map(|p| p[1]).collect();
            for _ in 0..32 {
                // Reference: the historical double-pass selection.
                let alive = paths.iter().filter(|p| !path_blocked(p, &faults)).count();
                let expect = if alive == 0 {
                    None
                } else {
                    let i = ref_rng.gen_range(0..alive);
                    Some(
                        paths
                            .iter()
                            .filter(|p| !path_blocked(p, &faults))
                            .nth(i)
                            .unwrap()
                            .clone(),
                    )
                };
                let got = Strategy::FaultAdaptive
                    .select_into(&h, u, v, &faults, &mut rng, &mut scratch, &mut out)
                    .then(|| out.clone());
                assert_eq!(got, expect);
            }
            // RNG streams must stay in lockstep (same number of draws).
            assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
        }
    }

    /// FaultFree sustains delivery where FaultAdaptive collapses: block
    /// the midpoint of every member of the fault-blind family. (Not the
    /// first hops — those are all of `u`'s neighbours, which would
    /// disconnect `u` outright.)
    #[test]
    fn fault_free_routes_where_fault_adaptive_fails() {
        let (h, u, v, mut rng) = setup();
        let paths = h.disjoint_paths(u, v).unwrap();
        let faults: HashSet<_> = paths.iter().map(|p| p[p.len() / 2]).collect();
        assert!(Strategy::FaultAdaptive
            .select(&h, u, v, &faults, &mut rng)
            .is_none());
        let p = Strategy::FaultFree
            .select(&h, u, v, &faults, &mut rng)
            .expect("avoiding construction routes around the blanket");
        assert_eq!(*p.first().unwrap(), u);
        assert_eq!(*p.last().unwrap(), v);
        assert!(!path_blocked(&p, &faults));
        for pair in p.windows(2) {
            assert!(crate::net::Network::is_edge(&h, pair[0], pair[1]));
        }
    }

    /// On a fault-oblivious network (the plain cube) FaultFree degrades
    /// to survivor filtering — same behaviour as FaultAdaptive.
    #[test]
    fn fault_free_default_filters_on_the_cube() {
        let q = crate::net::CubeNet::matching_hhc(2);
        let u = NodeId::from_raw(0);
        let v = NodeId::from_raw(63);
        let mut rng = StdRng::seed_from_u64(7);
        let d = crate::net::Network::disjoint_routes(&q, u, v);
        let faults: HashSet<_> = d[..3].iter().map(|p| p[1]).collect();
        let mut scratch = RouteScratch::new();
        for _ in 0..20 {
            let p = Strategy::FaultFree
                .select_with(&q, u, v, &faults, &mut rng, &mut scratch)
                .expect("three of six survivors remain");
            assert!(!path_blocked(&p, &faults));
            assert!(d.contains(&p), "default impl must return family members");
        }
    }
}
