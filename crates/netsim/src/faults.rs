//! Fault representations for the simulator.
//!
//! The fault-membership trait is [`hhc_core::FaultOracle`], shared with
//! the construction layer: the selection strategies, the static
//! analysis in [`crate::fault`] and the fault-avoiding construction all
//! accept any oracle, and the public APIs take the builder
//! representation `HashSet<NodeId>`. The engine itself builds a dense
//! [`FaultFlags`] table from that set once per run, because it probes
//! the set per packet on the injection hot path. Timed
//! [`FaultEvent`]s then flip those flags while the run is in progress.
//!
//! ```
//! use hhc_core::{FaultOracle, NodeId};
//! use netsim::FaultFlags;
//! use std::collections::HashSet;
//!
//! let set: HashSet<NodeId> = [5u128, 9].into_iter().map(NodeId::from_raw).collect();
//! let flags = FaultFlags::from_set(&set, 16);
//! assert_eq!(flags.fault_count(), 2);
//! assert!(flags.is_faulty(NodeId::from_raw(9)));
//! assert!(!flags.is_faulty(NodeId::from_raw(4)));
//! ```

use hhc_core::{FaultOracle, NodeId};
use std::collections::HashSet;

/// Dense per-node fault flags for materialised networks: one `bool` per
/// address, probed by direct indexing. The flat simulation core iterates
/// every node each cycle and probes the fault set per packet, so a dense
/// table beats the hash set. Nodes outside the table (never issued by the
/// simulator) read as healthy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultFlags {
    flags: Vec<bool>,
    faulty: usize,
}

impl FaultFlags {
    /// Builds the table from the builder representation, for a network
    /// of `num_nodes` addresses (raw ids `0..num_nodes`).
    pub fn from_set(set: &HashSet<NodeId>, num_nodes: usize) -> Self {
        let mut flags = vec![false; num_nodes];
        let mut faulty = 0;
        for v in set {
            let i = v.raw() as usize;
            if i < num_nodes && !flags[i] {
                flags[i] = true;
                faulty += 1;
            }
        }
        FaultFlags { flags, faulty }
    }

    /// Number of faulty nodes inside the table.
    pub fn len(&self) -> usize {
        self.faulty
    }

    /// Sets the fault flag of `node`, returning whether the flag
    /// changed. Nodes outside the table are ignored (they read as
    /// healthy and stay that way).
    pub fn set(&mut self, node: NodeId, faulty: bool) -> bool {
        let Some(slot) = self.flags.get_mut(node.raw() as usize) else {
            return false;
        };
        if *slot == faulty {
            return false;
        }
        *slot = faulty;
        if faulty {
            self.faulty += 1;
        } else {
            self.faulty -= 1;
        }
        true
    }

    /// Whether no node is faulty.
    pub fn is_empty(&self) -> bool {
        self.faulty == 0
    }
}

/// What a timed [`FaultEvent`] does to its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The node becomes faulty.
    Fail,
    /// The node becomes healthy again.
    Recover,
}

/// A scheduled change to the fault set, applied by the engine at the
/// *start* of `cycle`, before that cycle's injection phase. Faults act
/// at injection time only: a faulty node injects nothing, is never
/// selected as a destination, and is avoided by fault-aware strategies —
/// but packets already in flight are not rerouted or dropped
/// (the "fail-at-injection" model; see `DESIGN.md` §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at whose start the change takes effect.
    pub cycle: u64,
    /// The node changing state.
    pub node: NodeId,
    /// Fail or recover.
    pub action: FaultAction,
}

impl FaultOracle for FaultFlags {
    #[inline]
    fn is_faulty(&self, v: NodeId) -> bool {
        *self.flags.get(v.raw() as usize).unwrap_or(&false)
    }

    fn fault_count(&self) -> usize {
        self.faulty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u128) -> NodeId {
        NodeId::from_raw(raw)
    }

    #[test]
    fn flags_agree_with_hashset_membership() {
        let hs: HashSet<NodeId> = [3u128, 17, 63, 63, 200].map(n).into_iter().collect();
        let ff = FaultFlags::from_set(&hs, 64); // 200 outside the table
        assert_eq!(ff.len(), 3);
        assert!(!ff.is_empty());
        for probe in 0..64u128 {
            assert_eq!(ff.is_faulty(n(probe)), hs.is_faulty(n(probe)));
        }
        // Out-of-table probes read healthy rather than panicking.
        assert!(!ff.is_faulty(n(200)));
        assert!(FaultFlags::default().is_empty());
    }

    #[test]
    fn flags_set_tracks_count_and_ignores_out_of_table() {
        let mut ff = FaultFlags::from_set(&HashSet::new(), 8);
        assert!(ff.is_empty());
        assert!(ff.set(n(3), true));
        assert!(!ff.set(n(3), true), "no-op re-fail");
        assert!(ff.set(n(5), true));
        assert_eq!(ff.len(), 2);
        assert!(ff.is_faulty(n(3)) && ff.is_faulty(n(5)));
        assert!(ff.set(n(3), false));
        assert!(!ff.set(n(3), false), "no-op re-recover");
        assert_eq!(ff.len(), 1);
        assert!(!ff.is_faulty(n(3)));
        // Out-of-table nodes never mutate the table.
        assert!(!ff.set(n(100), true));
        assert_eq!(ff.len(), 1);
        assert!(!ff.is_faulty(n(100)));
    }
}
