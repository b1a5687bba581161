//! F3 — fault tolerance: delivery success vs number of node faults.
//!
//! For HHC(3) (m = 3, so 4 disjoint paths), sweeps the fault count f from
//! 0 to 3m and measures, over random pairs × random fault sets, the
//! probability that (a) the deterministic single route survives and
//! (b) at least one of the m+1 disjoint paths survives. Shape: multipath
//! is exactly 1.0 for f ≤ m (the paper's guarantee) and degrades slowly
//! after; single-path decays immediately.
//!
//! Trials fan across rayon workers: inputs (pair + fault set) are drawn
//! serially so the RNG stream — and therefore every reported number — is
//! identical to the sequential version; only the deterministic analysis
//! runs in parallel, each worker holding its own `RouteScratch`.

use crate::table::Table;
use crate::util;
use hhc_core::{Hhc, NodeId};
use netsim::fault::analyze_with;
use netsim::RouteScratch;
use rayon::prelude::*;
use std::collections::HashSet;
use workloads::random_fault_set;

/// (single ok, multipath ok, surviving paths) tallies over one batch of
/// pre-drawn trials, analysed in parallel.
fn analyze_trials(h: &Hhc, inputs: &[(NodeId, NodeId, HashSet<NodeId>)]) -> (u32, u32, u64) {
    let per_trial: Vec<(u32, u32, u64)> = inputs
        .par_iter()
        .map_init(RouteScratch::new, |scratch, (u, v, faults)| {
            let out = analyze_with(h, *u, *v, faults, scratch);
            (
                out.single_path_ok as u32,
                out.multipath_ok as u32,
                out.surviving_paths as u64,
            )
        })
        .collect();
    per_trial
        .into_iter()
        .fold((0, 0, 0), |(s, m, p), (ds, dm, dp)| {
            (s + ds, m + dm, p + dp)
        })
}

pub fn run() {
    let m = 3u32;
    let h = Hhc::new(m).unwrap();
    let trials = 2000u32;
    let mut t = Table::new(
        "F3: delivery success probability vs node faults f (HHC(3), 2000 trials/row)",
        &[
            "f",
            "single-path ok",
            "multipath ok",
            "avg surviving paths",
            "guarantee",
        ],
    );
    let mut rng = util::rng(0xF3F3);
    // Small f shows the guarantee region; the tail shows where random
    // faults finally start hitting all m+1 paths at once.
    let sweep: &[usize] = &[0, 1, 2, 3, 4, 6, 9, 16, 32, 64, 128, 256, 512];
    for &f in sweep {
        let inputs: Vec<(NodeId, NodeId, HashSet<NodeId>)> = (0..trials)
            .map(|_| {
                let (u, v) = util::random_pair(&h, &mut rng);
                let faults = random_fault_set(&h, f, &[u, v], &mut rng);
                (u, v, faults)
            })
            .collect();
        let (single_ok, multi_ok, surviving_sum) = analyze_trials(&h, &inputs);
        let guarantee = if f as u32 <= m { "f ≤ m ⇒ 1.0" } else { "" };
        if f as u32 <= m {
            assert_eq!(multi_ok, trials, "guarantee violated at f={f}");
        }
        t.row(vec![
            f.to_string(),
            util::f4(single_ok as f64 / trials as f64),
            util::f4(multi_ok as f64 / trials as f64),
            util::f2(surviving_sum as f64 / trials as f64),
            guarantee.into(),
        ]);
    }
    t.emit("f3_fault_tolerance");
    run_adversarial();
}

/// F3b — the adversarial companion: faults placed *on* the pair's
/// disjoint paths (one interior node per path, round-robin). Shows the
/// theorem's threshold is tight: f ≤ m adversarial faults still leave a
/// live path, f = m + 1 kills every blockable path.
pub fn run_adversarial() {
    use workloads::adversarial_fault_set;
    let m = 3u32;
    let h = Hhc::new(m).unwrap();
    let trials = 500u32;
    let mut t = Table::new(
        "F3b: adversarial fault placement on the disjoint family (HHC(3))",
        &["f", "multipath ok", "avg surviving paths", "note"],
    );
    let mut rng = util::rng(0xF3B0);
    for f in 0..=(m as usize + 2) {
        let inputs: Vec<(NodeId, NodeId, HashSet<NodeId>)> = (0..trials)
            .map(|_| {
                let (u, v) = util::random_pair(&h, &mut rng);
                let paths = h.disjoint_paths(u, v).unwrap();
                let faults = adversarial_fault_set(&paths, f, &mut rng);
                (u, v, faults)
            })
            .collect();
        let (_, multi_ok, surviving_sum) = analyze_trials(&h, &inputs);
        let note = if f as u32 <= m {
            "theorem: survives"
        } else {
            "beyond threshold"
        };
        if f as u32 <= m {
            assert_eq!(multi_ok, trials, "adversary beat the theorem at f={f}");
        }
        t.row(vec![
            f.to_string(),
            util::f4(multi_ok as f64 / trials as f64),
            util::f2(surviving_sum as f64 / trials as f64),
            note.into(),
        ]);
    }
    t.emit("f3b_adversarial");
}

/// F3c — constructive fault avoidance vs selection-time filtering.
///
/// F3's "multipath ok" is exactly what `Strategy::FaultAdaptive`
/// achieves: build the family fault-blind, keep the survivors. This
/// sweep puts `Strategy::FaultFree`'s engine — the fault-aware
/// construction `disjoint_paths_avoiding` — next to it at every fault
/// count: delivery is possible iff the avoiding family is non-empty.
/// The avoiding family always contains at least the plain survivors
/// (the constructor falls back to them), so its curve dominates the
/// filtered curve pointwise; the gap is the delivery the reroute
/// machinery buys once faults blanket the fault-blind family. The last
/// columns track the achieved fault diameter — the longest path any
/// avoiding family used — against the `wide.rs`/`bounds.rs` wide-
/// diameter upper bound.
///
/// Honours `EXPERIMENT_QUICK=1` (CI smoke): fewer trials, sparser sweep.
///
/// Both halves run on [`netsim::scenario::analysis::constructive_sweep`]
/// — the engine scenario files with `kind = "fault-analysis"` use — so
/// the driver and the scenario layer agree by construction. Note the
/// engine's determinism contract: each row draws from its own
/// `seed + row_index` stream (not one stream threaded across rows), so
/// rows are positionally reproducible in shrunk sweeps.
pub fn run_constructive() {
    use netsim::scenario::{constructive_sweep, Placement};
    let m = 3u32;
    let h = Hhc::new(m).unwrap();
    let quick = std::env::var("EXPERIMENT_QUICK").is_ok();
    let trials: u32 = if quick { 150 } else { 1000 };
    let sweep: &[usize] = if quick {
        &[0, 2, 4, 9, 32, 128, 512]
    } else {
        &[0, 1, 2, 3, 4, 6, 9, 16, 32, 64, 128, 256, 512]
    };
    let bound = hhc_core::bounds::wide_diameter_upper_bound(&h) as usize;
    let mut t = Table::new(
        &format!(
            "F3c: fault-aware construction vs selection-time filtering \
             (HHC(3), {trials} trials/row, wide-diameter bound {bound})"
        ),
        &[
            "f",
            "filtered ok",
            "constructive ok",
            "reroute rate",
            "avg avoiding paths",
            "max len",
        ],
    );
    let mut worst_len = 0usize;
    for row in constructive_sweep(&h, Placement::Random, sweep, trials, 0xF3C0) {
        worst_len = worst_len.max(row.max_len);
        if row.fault_count as u32 <= m {
            assert_eq!(
                row.constructive, trials,
                "guarantee violated at f={}",
                row.fault_count
            );
        }
        t.row(row_cells(&row));
    }
    assert!(
        worst_len <= bound,
        "avoiding path of length {worst_len} exceeds the wide-diameter bound {bound}"
    );
    t.emit("f3c_constructive");

    // The adversarial companion: faults placed *on* the pair's plain
    // family (one interior node per path, round-robin), the placement
    // that defeats selection-time filtering by design. At f = m + 1
    // filtering delivers 0; the fault-aware construction reroutes
    // around the blanket, because the adversary only knows the
    // fault-blind family.
    let adv_trials: u32 = if quick { 150 } else { 500 };
    let mut t = Table::new(
        &format!(
            "F3c-adv: constructive delivery under adversarial placement \
             on the fault-blind family (HHC(3), {adv_trials} trials/row)"
        ),
        &[
            "f",
            "filtered ok",
            "constructive ok",
            "reroute rate",
            "avg avoiding paths",
            "max len",
        ],
    );
    let adv_sweep: Vec<usize> = (0..=(m as usize + 2)).collect();
    for row in constructive_sweep(&h, Placement::Adversarial, &adv_sweep, adv_trials, 0xF3C1) {
        assert!(
            row.max_len <= bound,
            "avoiding path of length {} exceeds the wide-diameter bound {bound}",
            row.max_len
        );
        t.row(row_cells(&row));
    }
    t.emit("f3c_adversarial");
}

/// Formats one [`netsim::scenario::AnalysisRow`] as an F3c table row.
fn row_cells(row: &netsim::scenario::AnalysisRow) -> Vec<String> {
    let trials = row.trials as f64;
    vec![
        row.fault_count.to_string(),
        util::f4(row.filtered as f64 / trials),
        util::f4(row.constructive as f64 / trials),
        util::f4(row.rerouted as f64 / trials),
        util::f2(row.paths_sum as f64 / trials),
        row.max_len.to_string(),
    ]
}
