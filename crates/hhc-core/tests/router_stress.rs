//! Concurrency stress for the routing service: the full worker pool
//! hammered with `query_many_into` batches while a dedicated fault-feed
//! thread churns `add_fault`/`clear_fault` at high rate — exercising
//! the lock-free L2 reads, concurrent stores and rotations, the
//! epoch-based fault re-snapshot, and the pooled batch recycling all at
//! once, racing for the whole run.
//!
//! During the churn the exact fault set a given query sees is a race by
//! design, so answers are checked *structurally*: every family must be
//! simple, internally vertex-disjoint `u → v` paths (that property
//! holds under every fault set). Determinism is then recovered at
//! quiescence: the churn thread heals every fault it planted, the run
//! re-queries the whole pool, and those answers must be byte-identical
//! to the serial cold-cache oracle — the equivalence argument of
//! `router_equivalence.rs`, re-proven after a genuinely racy warm-up.
//! Finally the router must shut down cleanly (drop joins the pool).
//!
//! Seeded and bounded: the schedule derives from fixed xorshift seeds,
//! the run is a fixed number of bursts (no time-based loops), and the
//! whole test stays a few seconds even in debug builds.

use hhc_core::disjoint::disjoint_paths;
use hhc_core::verify::verify_disjoint_paths;
use hhc_core::{CrossingOrder, Hhc, NodeId, QueryBatchResult, Router, RouterConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deterministic query pool mixing same-cube and cross-cube pairs.
fn pool_pairs(h: &Hhc, n: usize, mut state: u64) -> Vec<(NodeId, NodeId)> {
    let xmask = (1u128 << h.positions()) - 1;
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let u = h
            .node(
                xorshift(&mut state) as u128 & xmask,
                (xorshift(&mut state) % (1 << h.m()) as u64) as u32,
            )
            .unwrap();
        let v = h
            .node(
                xorshift(&mut state) as u128 & xmask,
                (xorshift(&mut state) % (1 << h.m()) as u64) as u32,
            )
            .unwrap();
        if u != v {
            pairs.push((u, v));
        }
    }
    pairs
}

#[test]
fn churning_faults_under_concurrent_queries() {
    let h = Hhc::new(3).unwrap();
    let pairs = pool_pairs(&h, 12, 0xfeed_f00d_dead_beef);

    // Fault targets: interior nodes of the pool's plain families, never
    // an endpoint of any pool pair — so every answer stays `Ok` and the
    // structural check below applies uniformly.
    let endpoints: HashSet<NodeId> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
    let mut targets = Vec::new();
    for &(u, v) in &pairs {
        for p in disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap() {
            let w = p[p.len() / 2];
            if p.len() > 2 && !endpoints.contains(&w) && !targets.contains(&w) {
                targets.push(w);
            }
        }
    }
    assert!(targets.len() >= 4, "need a real fault pool to churn");

    let mut router = Router::new(
        3,
        RouterConfig {
            threads: 4,
            order: CrossingOrder::Gray,
            ..RouterConfig::default()
        },
    )
    .unwrap();

    // The fault feed races against the queries below, toggling planted
    // faults as fast as it can until told to stop, then heals
    // everything it planted before exiting.
    let stop = Arc::new(AtomicBool::new(false));
    let feed = {
        let shared = Arc::clone(router.shared_cache());
        let stop = Arc::clone(&stop);
        let targets = targets.clone();
        std::thread::spawn(move || {
            let mut state = 0x0dd_ba11u64;
            let mut planted: HashSet<NodeId> = HashSet::new();
            let mut events = 0u64;
            while !stop.load(Ordering::Acquire) {
                let w = targets[xorshift(&mut state) as usize % targets.len()];
                if planted.insert(w) {
                    shared.add_fault(w);
                } else {
                    shared.clear_fault(w);
                    planted.remove(&w);
                }
                events += 1;
            }
            for w in planted {
                shared.clear_fault(w);
            }
            events
        })
    };

    // Phase 1 (racy): hammer the pool through the arena pipeline while
    // the feed churns. Answers are structurally valid whatever fault
    // snapshot each worker happened to act on.
    let mut out = QueryBatchResult::new();
    let mut state = 0x5eed_cafe_u64;
    let mut burst = Vec::new();
    for _ in 0..60 {
        burst.clear();
        burst.extend((0..32).map(|_| pairs[xorshift(&mut state) as usize % pairs.len()]));
        router.query_many_into(&burst, &mut out);
        assert_eq!(out.len(), burst.len());
        for (i, r) in out.iter().enumerate() {
            let fam =
                r.unwrap_or_else(|e| panic!("interior-fault churn must never fail a query: {e:?}"));
            let (u, v) = burst[i];
            verify_disjoint_paths(&h, u, v, &fam.to_paths())
                .unwrap_or_else(|e| panic!("invalid family for pair {i} under churn: {e}"));
        }
    }

    stop.store(true, Ordering::Release);
    let events = feed.join().expect("fault feed panicked");
    assert!(events > 0, "feed never got to run");
    assert_eq!(router.fault_count(), 0, "feed heals everything it planted");

    // Phase 2 (quiescent): with the fault set empty and stable, the
    // warmed-up racy caches must answer byte-identically to a serial
    // cold-cache oracle.
    router.query_many_into(&pairs, &mut out);
    for (i, r) in out.iter().enumerate() {
        let (u, v) = pairs[i];
        let want = disjoint_paths(&h, u, v, CrossingOrder::Gray).unwrap();
        assert_eq!(
            r.unwrap().to_paths(),
            want,
            "quiescent answer {i} diverged from the cold oracle"
        );
    }

    let c = router.metrics().construction;
    assert_eq!(
        c.family_hits + c.l2_hits + c.l2_misses,
        c.queries,
        "tiered-probe conservation law survives the churn"
    );
    assert!(c.l2_hits > 0, "the hot pool must hit the shared tier");
    assert_eq!(c.fault_generation, router.generation());

    // Clean shutdown: drop disconnects the channels and joins the pool.
    drop(router);
}
