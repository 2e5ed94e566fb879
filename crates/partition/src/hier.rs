//! Hierarchy-aware two-level partitioning against a [`MachineModel`].
//!
//! §II-D: "a hybrid mesh partitioning algorithm which involves first
//! partitioning a mesh into nodes and subsequently to the cores on the
//! nodes. Part handles assigned to threads on the same node shared memory
//! should result in faster communications and reduced memory usage."
//!
//! The CERFACS hardware-locality scheme (arXiv:2008.00832): partition the
//! part graph onto *nodes* first, minimizing the off-node edge cut, then
//! place each node's parts on its cores for core-level balance. Because the
//! node-level pass sees the boundary-copy weights between parts, the
//! expensive network surface is decided where there are few, large pieces;
//! the intra-node placement only shuffles parts across shared memory.
//!
//! Two entry points:
//! * [`partition_mesh_hier`] — serial: label a mesh's elements directly,
//!   node blocks first, then per-core splits nested inside them;
//! * [`partition_hier`] — distributed: take an already-distributed mesh,
//!   build the boundary-copy-weighted part graph collectively, and compute
//!   a part → node → rank placement ([`HierPartition`]) on every rank
//!   identically.
//!
//! On a flat machine ([`MachineModel::flat`], or a single node) there is no
//! hierarchy to exploit and both entry points fall back to the flat path:
//! [`crate::partition_mesh`] for the serial labeling, and the contiguous
//! part map ([`PartMap::contiguous`]) for the distributed placement.

use crate::graph::DualGraph;
use crate::local::split_labels;
use crate::multilevel::{partition_graph, GraphPartOpts};
use pumi_core::dist::{DistMesh, PartMap};
use pumi_mesh::Mesh;
use pumi_pcu::{Comm, MachineModel};
use pumi_util::PartId;

/// Options for the hierarchical partitioners.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierOpts {
    /// Options for the node-level (and serial intra-node) graph partitioner.
    pub graph: GraphPartOpts,
}

/// A part → node → rank placement computed by [`partition_hier`].
#[derive(Debug, Clone)]
pub struct HierPartition {
    /// Node hosting each part.
    pub node_of_part: Vec<u32>,
    /// Rank hosting each part (consistent with `node_of_part` under the
    /// machine model used to compute it).
    pub rank_of_part: Vec<usize>,
    /// Boundary-copy weight crossing nodes under this placement.
    pub off_node_cut: f64,
    /// Total boundary-copy weight between distinct parts.
    pub total_cut: f64,
}

impl HierPartition {
    /// The placement as a [`PartMap`] usable with
    /// [`pumi_core::dist::distribute`].
    pub fn part_map(&self, nranks: usize) -> PartMap {
        PartMap::from_ranks(self.rank_of_part.clone(), nranks)
    }

    /// Fraction of boundary-copy weight that crosses nodes (0 when there is
    /// no boundary at all). The part-graph weights count the same
    /// (entity, remote copy) links as `pumi_core::twolevel::off_node_boundary`,
    /// so this is that measure's `off_copies / (on_copies + off_copies)`
    /// for the mesh placed by [`HierPartition::part_map`], known before any
    /// part moves.
    pub fn off_node_fraction(&self) -> f64 {
        if self.total_cut == 0.0 {
            0.0
        } else {
            self.off_node_cut / self.total_cut
        }
    }
}

/// Serial hierarchical mesh partition: `nparts` element labels for a
/// machine, node blocks first (minimizing the node-level edge cut), then
/// `nparts / machine.nodes` parts nested inside each block. Parts are
/// numbered node-major, so part `p` belongs on node
/// `p / (nparts / machine.nodes)` — the numbering [`PartMap::contiguous`]
/// places correctly.
///
/// On a flat or single-node machine this is exactly
/// [`crate::partition_mesh`].
///
/// # Panics
/// Panics if `nparts` is not a positive multiple of `machine.nodes`.
pub fn partition_mesh_hier(
    mesh: &Mesh,
    nparts: usize,
    machine: &MachineModel,
    opts: HierOpts,
) -> Vec<PartId> {
    assert!(
        nparts >= machine.nodes && nparts.is_multiple_of(machine.nodes),
        "nparts {nparts} must be a positive multiple of nodes {}",
        machine.nodes
    );
    if machine.cores_per_node == 1 || machine.nodes == 1 {
        // No hierarchy to exploit: flat path.
        let g = DualGraph::build(mesh);
        let gl = partition_graph(&g, nparts, opts.graph);
        let mut labels = vec![0 as PartId; mesh.index_space(mesh.elem_dim_t())];
        for (node, &e) in g.elems.iter().enumerate() {
            labels[e.idx()] = gl[node];
        }
        return labels;
    }
    let g = DualGraph::build(mesh);
    let node_labels = partition_graph(&g, machine.nodes, opts.graph);
    let mut labels = vec![0 as PartId; mesh.index_space(mesh.elem_dim_t())];
    for (node, &e) in g.elems.iter().enumerate() {
        labels[e.idx()] = node_labels[node];
    }
    split_labels(mesh, &labels, machine.nodes, nparts / machine.nodes)
}

/// Distributed hierarchical placement: build the boundary-copy-weighted
/// part graph of `dm` collectively, partition it onto `machine.nodes` nodes
/// minimizing the off-node cut, then assign each node's parts to its cores
/// by longest-processing-time load balancing. Every rank computes the same
/// [`HierPartition`] (the part graph is allreduced), so the result can be
/// used directly to build a new [`PartMap`].
///
/// On a flat machine ([`MachineModel::flat`]) the placement is exactly
/// [`PartMap::contiguous`] — the existing flat path — so topology-blind
/// callers lose nothing. On a single-node machine the node level is
/// trivial and only the core-balance placement runs.
///
/// Collective: every rank must call it.
///
/// ```
/// use pumi_core::dist::{distribute, PartMap};
/// use pumi_meshgen::tri_rect;
/// use pumi_partition::hier::{partition_hier, HierOpts};
/// use pumi_partition::partition_mesh;
/// use pumi_pcu::{execute_on, MachineModel};
///
/// let machine = MachineModel::new(2, 2); // 2 nodes × 2 cores
/// execute_on(machine, |c| {
///     let m = tri_rect(8, 8, 1.0, 1.0);
///     let labels = partition_mesh(&m, 8);
///     let dm = distribute(c, PartMap::contiguous(8, c.nranks()), &m, &labels);
///     let h = partition_hier(c, &dm, &c.machine(), HierOpts::default());
///     assert_eq!(h.node_of_part.len(), 8);
///     assert!(h.off_node_cut <= h.total_cut);
///     let map = h.part_map(c.nranks());
///     assert_eq!(map.nparts(), 8);
/// });
/// ```
pub fn partition_hier(
    comm: &Comm,
    dm: &DistMesh,
    machine: &MachineModel,
    opts: HierOpts,
) -> HierPartition {
    let nparts = dm.map.nparts();
    let nranks = machine.nranks();
    // Local contributions: P×P boundary-copy counts, then P element loads.
    let mut flat = vec![0f64; nparts * nparts + nparts];
    for p in &dm.parts {
        flat[nparts * nparts + p.id as usize] += p.mesh.num_elems() as f64;
        for (e, remotes) in p.shared_entities() {
            if p.is_ghost(e) {
                continue;
            }
            for &(q, _) in remotes {
                flat[p.id as usize * nparts + q as usize] += 1.0;
            }
        }
    }
    let flat = comm.allreduce_sum_f64_vec(&flat);
    let (wmat, loads) = flat.split_at(nparts * nparts);

    let fallback = || -> Vec<u32> {
        let map = PartMap::contiguous(nparts, nranks);
        (0..nparts)
            .map(|p| machine.node_of(map.rank_of(p as PartId)) as u32)
            .collect()
    };

    let node_of_part: Vec<u32> = if machine.cores_per_node == 1 || machine.nodes == 1 {
        fallback()
    } else {
        // Symmetrized part graph in CSR form; vertex weight = element load.
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        for p in 0..nparts {
            for q in 0..nparts {
                if q == p {
                    continue;
                }
                let w = wmat[p * nparts + q] + wmat[q * nparts + p];
                if w > 0.0 {
                    adjncy.push(q as u32);
                    adjwgt.push(0.5 * w);
                }
            }
            xadj.push(adjncy.len() as u32);
        }
        let pg = DualGraph {
            xadj,
            adjncy,
            adjwgt,
            elems: Vec::new(),
            vwgt: loads.to_vec(),
        };
        let labels = partition_graph(&pg, machine.nodes, opts.graph);
        // Every node must receive at least one part; if the coarse part
        // graph is too lumpy for that, a contiguous placement is safer.
        let mut populated = vec![false; machine.nodes];
        for &l in &labels {
            populated[l as usize] = true;
        }
        if populated.iter().all(|&b| b) {
            labels
        } else {
            fallback()
        }
    };

    // Intra-node placement: longest-processing-time onto the node's cores.
    let mut rank_of_part = vec![0usize; nparts];
    for node in 0..machine.nodes {
        let mut parts: Vec<usize> = (0..nparts)
            .filter(|&p| node_of_part[p] == node as u32)
            .collect();
        parts.sort_by(|&a, &b| loads[b].partial_cmp(&loads[a]).unwrap().then(a.cmp(&b)));
        let ranks = machine.ranks_on_node(node);
        let base = ranks.start;
        let mut acc = vec![0f64; ranks.len()];
        for p in parts {
            let (core, _) = acc
                .iter()
                .enumerate()
                .min_by(|&(_, a), &(_, b)| a.partial_cmp(b).unwrap())
                .unwrap();
            acc[core] += loads[p];
            rank_of_part[p] = base + core;
        }
    }

    // Cut accounting under the chosen node assignment.
    let mut off_node_cut = 0.0;
    let mut total_cut = 0.0;
    for p in 0..nparts {
        for q in (p + 1)..nparts {
            let w = wmat[p * nparts + q] + wmat[q * nparts + p];
            if w > 0.0 {
                total_cut += 0.5 * w;
                if node_of_part[p] != node_of_part[q] {
                    off_node_cut += 0.5 * w;
                }
            }
        }
    }

    HierPartition {
        node_of_part,
        rank_of_part,
        off_node_cut,
        total_cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_mesh;
    use pumi_core::dist::distribute;
    use pumi_core::twolevel::off_node_boundary;
    use pumi_meshgen::{tet_box, tri_rect};
    use pumi_pcu::execute_on;
    use pumi_util::stats::imbalance;

    /// Distribute `labels` one part per rank, node-major on `machine`, and
    /// measure the off-node share of the part-boundary links.
    fn measured_off_node_fraction(machine: MachineModel, mesh: &Mesh, labels: &[PartId]) -> f64 {
        let n = machine.nranks();
        execute_on(machine, |c| {
            let dm = distribute(c, PartMap::contiguous(n, n), mesh, labels);
            let s = off_node_boundary(c, &dm, &machine);
            s.off_copies as f64 / (s.on_copies + s.off_copies) as f64
        })[0]
    }

    fn loads(mesh: &Mesh, labels: &[PartId], nparts: usize) -> Vec<f64> {
        let mut loads = vec![0f64; nparts];
        for e in mesh.iter(mesh.elem_dim_t()) {
            loads[labels[e.idx()] as usize] += 1.0;
        }
        loads
    }

    #[test]
    fn serial_hier_matches_flat_on_flat_machine() {
        let m = tri_rect(12, 12, 1.0, 1.0);
        let flat = partition_mesh(&m, 8);
        let hier = partition_mesh_hier(&m, 8, &MachineModel::flat(8), HierOpts::default());
        assert_eq!(flat, hier);
        let hier1 = partition_mesh_hier(&m, 8, &MachineModel::new(1, 8), HierOpts::default());
        assert_eq!(flat, hier1);
    }

    #[test]
    fn two_level_covers_all_parts_and_balances() {
        let m = tri_rect(16, 16, 1.0, 1.0);
        let labels = partition_mesh_hier(&m, 16, &MachineModel::new(4, 4), HierOpts::default());
        let loads = loads(&m, &labels, 16);
        assert!(loads.iter().all(|&l| l > 0.0), "{loads:?}");
        assert!(imbalance(&loads) < 1.15, "{loads:?}");
    }

    #[test]
    fn second_level_nests_in_first() {
        let m = tri_rect(12, 12, 1.0, 1.0);
        let (nodes, cores) = (3, 4);
        let machine = MachineModel::new(nodes, cores);
        let labels = partition_mesh_hier(&m, nodes * cores, &machine, HierOpts::default());
        let g = DualGraph::build(&m);
        let node_labels = partition_graph(&g, nodes, GraphPartOpts::default());
        for (node, &e) in g.elems.iter().enumerate() {
            assert_eq!(labels[e.idx()] as usize / cores, node_labels[node] as usize);
        }
    }

    /// A machine-oblivious partitioner gives no guarantee about which part
    /// ids land on which node; model that by permuting the part ids of a
    /// flat partition. The hierarchical partition, numbered node-major,
    /// must keep clearly more of its boundary on-node.
    #[test]
    fn serial_hier_balances_and_keeps_boundary_on_node() {
        let m = tet_box(10, 10, 10, 1.0, 1.0, 1.0);
        let machine = MachineModel::new(4, 4);
        let labels = partition_mesh_hier(&m, 16, &machine, HierOpts::default());
        let loads = loads(&m, &labels, 16);
        assert!(loads.iter().all(|&l| l > 0.0), "{loads:?}");
        assert!(imbalance(&loads) < 1.15, "{loads:?}");
        let oblivious: Vec<PartId> = partition_mesh(&m, 16)
            .iter()
            .map(|&p| (p * 7 + 3) % 16)
            .collect();
        let sh = measured_off_node_fraction(machine, &m, &labels);
        let so = measured_off_node_fraction(machine, &m, &oblivious);
        assert!(
            sh < so - 0.05,
            "hier off-node share {sh:.3} should clearly beat oblivious {so:.3}"
        );
        assert!(sh < 0.75, "hier off-node share too high: {sh:.3}");
    }

    #[test]
    fn degenerate_machine_shapes() {
        let m = tri_rect(6, 6, 1.0, 1.0);
        // 1 node x 4 cores: a plain 4-way partition, all boundary on-node.
        let machine = MachineModel::new(1, 4);
        let labels = partition_mesh_hier(&m, 4, &machine, HierOpts::default());
        assert!(loads(&m, &labels, 4).iter().all(|&l| l > 0.0));
        assert_eq!(measured_off_node_fraction(machine, &m, &labels), 0.0);
        // 4 nodes x 1 core: a flat partition, all boundary off-node.
        let machine = MachineModel::new(4, 1);
        let labels = partition_mesh_hier(&m, 4, &machine, HierOpts::default());
        assert_eq!(measured_off_node_fraction(machine, &m, &labels), 1.0);
    }

    #[test]
    fn distributed_hier_flat_machine_is_contiguous() {
        pumi_pcu::execute(4, |c| {
            let m = tri_rect(8, 8, 1.0, 1.0);
            let labels = partition_mesh(&m, 8);
            let dm = distribute(c, PartMap::contiguous(8, c.nranks()), &m, &labels);
            let h = partition_hier(c, &dm, &c.machine(), HierOpts::default());
            let map = h.part_map(c.nranks());
            let want = PartMap::contiguous(8, c.nranks());
            for p in 0..8 {
                assert_eq!(map.rank_of(p), want.rank_of(p));
            }
        });
    }

    #[test]
    fn distributed_hier_places_every_part_on_its_node() {
        let machine = MachineModel::new(2, 2);
        pumi_pcu::execute_on(machine, |c| {
            let m = tri_rect(10, 10, 1.0, 1.0);
            let labels = partition_mesh(&m, 8);
            let dm = distribute(c, PartMap::contiguous(8, c.nranks()), &m, &labels);
            let machine = c.machine();
            let h = partition_hier(c, &dm, &machine, HierOpts::default());
            for p in 0..8 {
                assert_eq!(
                    machine.node_of(h.rank_of_part[p]) as u32,
                    h.node_of_part[p],
                    "part {p} rank/node mismatch"
                );
            }
            assert!(h.total_cut > 0.0);
            assert!(h.off_node_cut <= h.total_cut);
            // Both nodes host parts.
            let mut nodes: Vec<u32> = h.node_of_part.clone();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), 2);
        });
    }

    /// `off_node_fraction` is the core off-node measure, known before the
    /// move: placing the same parts by the computed map and measuring
    /// gives the same share.
    #[test]
    fn off_node_fraction_is_the_measured_share_under_the_placement() {
        let machine = MachineModel::new(2, 4);
        pumi_pcu::execute_on(machine, |c| {
            let m = tet_box(6, 6, 6, 1.0, 1.0, 1.0);
            let labels = partition_mesh(&m, 16);
            let dm = distribute(c, PartMap::contiguous(16, c.nranks()), &m, &labels);
            let h = partition_hier(c, &dm, &machine, HierOpts::default());
            let placed = distribute(c, h.part_map(c.nranks()), &m, &labels);
            let s = off_node_boundary(c, &placed, &machine);
            let measured = s.off_copies as f64 / (s.on_copies + s.off_copies) as f64;
            assert!(s.off_copies > 0);
            assert!(
                (h.off_node_fraction() - measured).abs() < 1e-12,
                "view {} vs measured {measured}",
                h.off_node_fraction()
            );
        });
    }

    #[test]
    fn distributed_hier_beats_scrambled_placement() {
        // The hierarchical placement's off-node cut must not exceed the cut
        // of an adversarial (interleaved) placement of the same parts.
        let machine = MachineModel::new(2, 4);
        pumi_pcu::execute_on(machine, |c| {
            let m = tet_box(8, 8, 8, 1.0, 1.0, 1.0);
            let labels = partition_mesh(&m, 16);
            let dm = distribute(c, PartMap::contiguous(16, c.nranks()), &m, &labels);
            let machine = c.machine();
            let h = partition_hier(c, &dm, &machine, HierOpts::default());
            // Scrambled: part p on node (p % 2) — interleaved, worst case.
            let scrambled = PartMap::from_ranks((0..16).map(|p| (p % 2) * 4 + p / 4).collect(), 8);
            let placed = distribute(c, scrambled, &m, &labels);
            let s = off_node_boundary(c, &placed, &machine);
            // off_node_cut counts each link pair once.
            assert!(s.off_copies > 0);
            assert!(
                2.0 * h.off_node_cut <= s.off_copies as f64,
                "hier cut {} vs scrambled {}",
                2.0 * h.off_node_cut,
                s.off_copies
            );
        });
    }
}
