//! Topology-aware diffusion (the CERFACS hardware-locality scheme,
//! arXiv:2008.00832, applied to ParMA).
//!
//! ParMA as described in §III-A balances against a *flat* part graph: every
//! neighbour is an equally good migration target. On a real machine the
//! part → rank → node placement makes some boundaries cheap (shared memory)
//! and some expensive (network). [`TopologyOpts`] carries the
//! [`MachineModel`] into [`crate::improve_weighted`] and friends, where it
//! changes two things:
//!
//! * **candidate ordering/filtering** ([`crate::candidates`]): on-node
//!   neighbours come first, and off-node candidates are dropped entirely
//!   when the on-node deficits can absorb the heavy part's excess;
//! * **selection gating** ([`crate::select`]): each cavity's exact
//!   off-node boundary-pair delta is computed from the residence sets of
//!   its closure, and cavities that create new off-node boundary are
//!   rejected unless the balance credit pays for them at
//!   `off_node_penalty` pairs per unit of load — or unless the heavy part
//!   has no on-node candidate at all, in which case the gate relaxes so
//!   cross-node diffusion can still make progress.
//!
//! On a flat machine ([`MachineModel::flat`] or a single node) the options
//! are inert and diffusion is byte-identical to the topology-blind path.

use pumi_core::PartMap;
use pumi_pcu::{LinkClass, MachineModel};
use pumi_util::PartId;

/// Machine awareness for ParMA diffusion.
///
/// ```
/// use parma::{ImproveOpts, TopologyOpts};
/// use pumi_pcu::MachineModel;
///
/// // 2 nodes × 4 cores; each new off-node boundary pair must be paid for
/// // by 2 units of balance improvement.
/// let topo = TopologyOpts::new(MachineModel::new(2, 4)).off_node_penalty(2.0);
/// assert!(!topo.is_flat());
/// let opts = ImproveOpts::default().topo(topo);
/// assert!(opts.topo.is_some());
///
/// // A flat machine has no hierarchy: the options are inert.
/// assert!(TopologyOpts::new(MachineModel::flat(8)).is_flat());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TopologyOpts {
    /// The node/core layout parts are placed on.
    pub machine: MachineModel,
    /// Off-node boundary pairs a migration may create per unit of balance
    /// credit (entities removed from the heavy part). Higher = stricter.
    pub off_node_penalty: f64,
}

impl TopologyOpts {
    /// Topology awareness for `machine` with the default penalty (1.0).
    pub fn new(machine: MachineModel) -> TopologyOpts {
        TopologyOpts {
            machine,
            off_node_penalty: 1.0,
        }
    }

    /// Set the off-node penalty.
    pub fn off_node_penalty(mut self, p: f64) -> Self {
        self.off_node_penalty = p;
        self
    }

    /// Whether the machine has no usable hierarchy (1 core per node, or a
    /// single node): topology awareness is a no-op.
    pub fn is_flat(&self) -> bool {
        self.machine.cores_per_node == 1 || self.machine.nodes == 1
    }

    /// The node hosting part `p` under `map`.
    pub fn node_of_part(&self, map: &PartMap, p: PartId) -> usize {
        self.machine.node_of(map.rank_of(p))
    }
}

/// Classify the link between the ranks hosting two parts.
pub fn link_of_parts(machine: &MachineModel, map: &PartMap, a: PartId, b: PartId) -> LinkClass {
    machine.link(map.rank_of(a), map.rank_of(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_classification_follows_placement() {
        let machine = MachineModel::new(2, 2);
        let map = PartMap::contiguous(4, 4);
        assert_eq!(link_of_parts(&machine, &map, 0, 1), LinkClass::OnNode);
        assert_eq!(link_of_parts(&machine, &map, 0, 2), LinkClass::OffNode);
        assert_eq!(link_of_parts(&machine, &map, 3, 3), LinkClass::SelfLoop);
    }
}
