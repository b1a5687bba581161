//! The `fault-analysis` engine: static route-survival sweeps.
//!
//! This is the F3c experiment's core, lifted out of the driver so a
//! scenario file can run it: for each fault count, sample `(pair,
//! fault set)` trials and measure both selection-time filtering (does
//! any member of the fault-blind disjoint family survive? — what
//! [`crate::strategy::Strategy::FaultAdaptive`] needs) and fault-aware
//! construction (is the avoiding family non-empty? — what
//! [`crate::strategy::Strategy::FaultFree`] needs).
//!
//! Determinism contract: each row seeds its own `StdRng` with
//! `seed.wrapping_add(row_index)` and draws every trial's inputs
//! *serially* from that stream; only the per-trial analysis fans across
//! rayon workers. Row results are therefore independent of worker
//! count and of which other rows run — a shrunk scenario that keeps a
//! row reproduces that row's numbers exactly.

use super::spec::Placement;
use crate::fault::analyze_with;
use crate::net::RouteScratch;
use hhc_core::{CrossingOrder, Hhc, NodeId, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::HashSet;
use workloads::sampling::random_pair;
use workloads::{adversarial_fault_set, random_fault_set};

/// Aggregates of one fault-count row of a constructive sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisRow {
    /// The fault count this row swept.
    pub fault_count: usize,
    /// Trials sampled.
    pub trials: u32,
    /// Trials where ≥ 1 fault-blind family member survived.
    pub filtered: u32,
    /// Trials where the fault-avoiding family was non-empty.
    pub constructive: u32,
    /// Trials where the avoiding construction deviated from the plain
    /// family (rebuild or survivor fallback).
    pub rerouted: u32,
    /// Total avoiding-family sizes (for the mean).
    pub paths_sum: u64,
    /// Longest avoiding path seen, in hops — the achieved fault
    /// diameter of the row.
    pub max_len: usize,
}

/// Runs one constructive sweep: one [`AnalysisRow`] per fault count, in
/// the given order.
pub fn constructive_sweep(
    h: &Hhc,
    placement: Placement,
    fault_counts: &[usize],
    trials: u32,
    seed: u64,
) -> Vec<AnalysisRow> {
    fault_counts
        .iter()
        .enumerate()
        .map(|(row, &f)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(row as u64));
            let inputs: Vec<(NodeId, NodeId, HashSet<NodeId>)> = (0..trials)
                .map(|_| {
                    let (u, v) = random_pair(h, &mut rng);
                    let faults = match placement {
                        Placement::Random => random_fault_set(h, f, &[u, v], &mut rng),
                        Placement::Adversarial => {
                            let paths = h.disjoint_paths(u, v).expect("distinct healthy pair");
                            adversarial_fault_set(&paths, f, &mut rng)
                        }
                    };
                    (u, v, faults)
                })
                .collect();
            analyze_row(h, f, &inputs)
        })
        .collect()
}

/// Analyses one batch of pre-drawn trials both ways — plain family
/// filtered after the fact vs fault-aware construction — in parallel,
/// each worker holding its own scratch and workspace.
fn analyze_row(
    h: &Hhc,
    fault_count: usize,
    inputs: &[(NodeId, NodeId, HashSet<NodeId>)],
) -> AnalysisRow {
    let per_trial: Vec<(u32, u32, u32, u64, usize)> = inputs
        .par_iter()
        .map_init(
            || (RouteScratch::new(), Workspace::new()),
            |(scratch, ws), (u, v, faults)| {
                let plain = analyze_with(h, *u, *v, faults, scratch);
                let (outcome, set) = ws
                    .construct_avoiding(h, *u, *v, CrossingOrder::Gray, faults)
                    .expect("valid pair, healthy endpoints");
                // The avoiding family can never do worse than filtering:
                // the constructor keeps the plain survivors when the
                // rebuild recovers fewer.
                assert!(
                    outcome.paths as u32 >= plain.surviving_paths,
                    "avoiding family smaller than the survivor set"
                );
                let longest = set.iter().map(|p| p.len() - 1).max().unwrap_or(0);
                (
                    plain.multipath_ok as u32,
                    (outcome.paths > 0) as u32,
                    outcome.rerouted as u32,
                    outcome.paths as u64,
                    longest,
                )
            },
        )
        .collect();
    let mut row = AnalysisRow {
        fault_count,
        trials: inputs.len() as u32,
        filtered: 0,
        constructive: 0,
        rerouted: 0,
        paths_sum: 0,
        max_len: 0,
    };
    for (f, c, r, p, l) in per_trial {
        row.filtered += f;
        row.constructive += c;
        row.rerouted += r;
        row.paths_sum += p;
        row.max_len = row.max_len.max(l);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_honours_the_guarantee() {
        let h = Hhc::new(2).unwrap();
        let counts = [0usize, 1, 2, 5];
        let a = constructive_sweep(&h, Placement::Random, &counts, 40, 0xF3C0);
        let b = constructive_sweep(&h, Placement::Random, &counts, 40, 0xF3C0);
        assert_eq!(a, b, "same seed must reproduce byte-identical rows");
        for row in &a {
            assert_eq!(row.trials, 40);
            // f ≤ m: the paper's guarantee — the avoiding family is
            // always non-empty (here m = 2).
            if row.fault_count <= 2 {
                assert_eq!(row.constructive, row.trials);
            }
            assert!(row.constructive >= row.filtered);
        }
    }

    #[test]
    fn rows_depend_only_on_seed_plus_index_and_fault_count() {
        let h = Hhc::new(2).unwrap();
        let full = constructive_sweep(&h, Placement::Adversarial, &[0, 2, 3], 30, 77);
        // Row index 1 draws from StdRng::seed_from_u64(77 + 1) with
        // fault count 2; a single-row sweep at seed 78 reproduces it
        // exactly. This positional reproducibility is what lets a
        // shrunk sweep keep a row's numbers.
        let alone = constructive_sweep(&h, Placement::Adversarial, &[2], 30, 78);
        assert_eq!(full[1], alone[0]);
    }
}
