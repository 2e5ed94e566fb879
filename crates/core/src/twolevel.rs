//! The on-node vs off-node part boundary of two-level, architecture-aware
//! partitioning (§II-D, Figs 5/6).
//!
//! "The partitioned mesh representation of PUMI is under improvement towards
//! a hybrid mesh partitioning algorithm which involves first partitioning a
//! mesh into nodes and subsequently to the cores on the nodes."
//!
//! Once parts are placed on ranks (a [`PartMap`]) and ranks on nodes (a
//! [`MachineModel`]), every part-boundary link is either on-node (dashed
//! boundaries of Fig 3 — implicit in shared memory) or off-node (solid
//! boundaries — explicit, duplicated in distributed memory).
//! [`off_node_boundary`] is the one measure of that split: the
//! hierarchical partitioner's part-graph weights count the same links, and
//! the topology-aware ParMA tests and the benches measure with it.
//!
//! [`PartMap`]: crate::dist::PartMap

use crate::dist::DistMesh;
use pumi_pcu::{Comm, MachineModel};

/// The on-/off-node split of the part-boundary surface. One link is one
/// (non-ghost entity, remote copy) pair, so an entity on `k` parts
/// contributes `k - 1` links on each of its copies; links are counted
/// world-wide. Bytes are the gid-sized (8 B) proxy for what one boundary
/// sync of that surface ships.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundarySplit {
    /// Boundary links whose two holders share a node.
    pub on_copies: u64,
    /// Boundary links whose two holders sit on different nodes.
    pub off_copies: u64,
}

impl BoundarySplit {
    /// On-node surface in proxy bytes (8 per link).
    pub fn on_bytes(&self) -> u64 {
        self.on_copies * 8
    }

    /// Off-node surface in proxy bytes (8 per link).
    pub fn off_bytes(&self) -> u64 {
        self.off_copies * 8
    }
}

/// Measure the on-/off-node split of `dm`'s part-boundary surface under
/// `machine`, classifying each link by the nodes hosting its two parts
/// (`machine.node_of(dm.map.rank_of(part))`). Collective; every rank
/// returns the same world total.
pub fn off_node_boundary(comm: &Comm, dm: &DistMesh, machine: &MachineModel) -> BoundarySplit {
    let mut on = 0u64;
    let mut off = 0u64;
    for p in &dm.parts {
        let my_node = machine.node_of(dm.map.rank_of(p.id));
        for (e, remotes) in p.shared_entities() {
            if p.is_ghost(e) {
                continue;
            }
            for &(q, _) in remotes {
                if machine.node_of(dm.map.rank_of(q)) == my_node {
                    on += 1;
                } else {
                    off += 1;
                }
            }
        }
    }
    BoundarySplit {
        on_copies: comm.allreduce_sum_u64(on),
        off_copies: comm.allreduce_sum_u64(off),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{distribute, PartMap};
    use pumi_meshgen::tri_rect;
    use pumi_pcu::{execute, execute_on};
    use pumi_util::PartId;

    /// 4 quadrant parts on a 2-node × 2-core machine: parts 0,1 on node 0
    /// and 2,3 on node 1. The x cut is on-node, the y cut off-node (Fig 6).
    #[test]
    fn fig6_on_vs_off_node_boundaries() {
        let machine = MachineModel::new(2, 2);
        execute_on(machine, |c| {
            let serial = tri_rect(4, 4, 1.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                let cx = serial.centroid(e);
                let px = u32::from(cx[0] >= 0.5);
                let py = u32::from(cx[1] >= 0.5);
                elem_part[e.idx()] = py * 2 + px;
            }
            let dm = distribute(c, PartMap::contiguous(4, 4), &serial, &elem_part);
            let split = off_node_boundary(c, &dm, &machine);
            // Each cut line carries 5 vertices and 4 edges. The x cut
            // (x = 0.5) splits 0|1 and 2|3 on-node: 4 two-part vertices and
            // 4 edges, 2 links each. The y cut splits 0|2 and 1|3 off-node
            // likewise. The centre vertex sits on all 4 parts: 4 copies ×
            // 3 links, each copy with 1 on-node and 2 off-node links.
            assert_eq!(split.on_copies, (4 + 4) * 2 + 4);
            assert_eq!(split.off_copies, (4 + 4) * 2 + 8);
        });
    }

    #[test]
    fn single_node_has_no_off_node_surface() {
        execute_on(MachineModel::new(1, 2), |c| {
            let serial = tri_rect(2, 2, 1.0, 1.0);
            let d = serial.elem_dim_t();
            let mut elem_part = vec![0 as PartId; serial.index_space(d)];
            for e in serial.iter(d) {
                elem_part[e.idx()] = u32::from(serial.centroid(e)[0] >= 0.5);
            }
            let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part);
            let split = off_node_boundary(c, &dm, &c.machine());
            assert_eq!(split.off_copies, 0);
            assert!(split.on_copies > 0);
        });
    }

    #[test]
    fn flat_machine_has_no_on_node_surface() {
        execute(4, |c| {
            let serial = tri_rect(8, 8, 1.0, 1.0);
            let labels = pumi_partition::partition_mesh(&serial, 4);
            let dm = distribute(c, PartMap::contiguous(4, 4), &serial, &labels);
            let split = off_node_boundary(c, &dm, &c.machine());
            assert_eq!(split.on_copies, 0);
            assert!(split.off_copies > 0);
            assert_eq!(split.off_bytes(), split.off_copies * 8);
        });
    }

    #[test]
    fn links_sum_to_the_whole_boundary() {
        execute_on(MachineModel::new(2, 2), |c| {
            let serial = tri_rect(8, 8, 1.0, 1.0);
            let labels = pumi_partition::partition_mesh(&serial, 4);
            let dm = distribute(c, PartMap::contiguous(4, 4), &serial, &labels);
            let split = off_node_boundary(c, &dm, &c.machine());
            let mut total = 0u64;
            for p in &dm.parts {
                for (e, remotes) in p.shared_entities() {
                    if !p.is_ghost(e) {
                        total += remotes.len() as u64;
                    }
                }
            }
            let total = c.allreduce_sum_u64(total);
            assert!(total > 0);
            assert_eq!(split.on_copies + split.off_copies, total);
        });
    }
}
