//! Fault oracles: the construction-facing view of a fault set.
//!
//! The fault-avoiding construction ([`crate::disjoint_paths_avoiding`])
//! only needs two questions answered — *is this node faulty?* and *are
//! there any faults at all?* — so the oracle trait is deliberately
//! minimal and object-safe: callers hand the engine a `&dyn FaultOracle`
//! and keep whatever representation suits their hot path (hash set,
//! dense bitmap). `netsim` uses this same trait for its selection layer,
//! so one fault set serves both the simulator and the construction
//! engine without conversion.

use crate::node::NodeId;
use std::collections::HashSet;

/// Membership oracle for faulty nodes.
pub trait FaultOracle {
    /// Whether `v` is faulty.
    fn is_faulty(&self, v: NodeId) -> bool;

    /// Number of faulty nodes. `0` lets fault-aware entry points skip
    /// fault handling entirely (and is required to mean "no node is
    /// faulty" — [`is_faulty`](Self::is_faulty) must then be `false`
    /// everywhere).
    fn fault_count(&self) -> usize;
}

impl FaultOracle for HashSet<NodeId> {
    fn is_faulty(&self, v: NodeId) -> bool {
        self.contains(&v)
    }

    fn fault_count(&self) -> usize {
        self.len()
    }
}

impl<T: FaultOracle + ?Sized> FaultOracle for &T {
    fn is_faulty(&self, v: NodeId) -> bool {
        (**self).is_faulty(v)
    }

    fn fault_count(&self) -> usize {
        (**self).fault_count()
    }
}

/// The empty fault set (useful as a default argument).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFaults;

impl FaultOracle for NoFaults {
    fn is_faulty(&self, _v: NodeId) -> bool {
        false
    }

    fn fault_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashset_oracle() {
        let set: HashSet<NodeId> = [NodeId::from_raw(3), NodeId::from_raw(9)]
            .into_iter()
            .collect();
        assert!(set.is_faulty(NodeId::from_raw(3)));
        assert!(!set.is_faulty(NodeId::from_raw(4)));
        assert_eq!(set.fault_count(), 2);
        // Through a reference and a trait object.
        let by_ref: &HashSet<NodeId> = &set;
        assert_eq!(by_ref.fault_count(), 2);
        let dyn_oracle: &dyn FaultOracle = &set;
        assert!(dyn_oracle.is_faulty(NodeId::from_raw(9)));
    }

    #[test]
    fn no_faults_is_empty() {
        assert_eq!(NoFaults.fault_count(), 0);
        assert!(!NoFaults.is_faulty(NodeId::from_raw(0)));
    }
}
