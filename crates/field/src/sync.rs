//! Field synchronization across part boundaries and ghost regions.
//!
//! Shared nodes are duplicated on every residence part, and ghost nodes on
//! every holder part; after an owner-side update or a partial assembly the
//! copies must be reconciled. All of it is one operation now: pick a
//! reduction mode and [`sync_fields`] (or the [`FieldSync::sync`] method)
//! moves the data over the star forest —
//!
//! * [`Reduction::Insert`] — root overwrites every copy (owner → copy push),
//! * [`Reduction::Add`] — copies are summed onto the root, then the sum is
//!   pushed back to every copy: the FE assembly reduction,
//! * [`Reduction::Min`] / [`Reduction::Max`] — componentwise extremum over
//!   all copies, everywhere.
//!
//! Values combine at the root in canonical `(to, from)` frame order with
//! leaves packed in sorted entity order, so floating-point results are
//! independent of the chaos scheduler's arrival order.

use crate::field::Field;
use pumi_core::overlap::{Overlap, Reduction, Scope};
use pumi_core::DistMesh;
use pumi_pcu::Comm;
use pumi_util::{Dim, MeshEnt};

/// One field per local part, aligned with `dm.parts`.
pub type DistField = Vec<Field>;

/// Create an identical field on every local part.
pub fn dist_field(dm: &DistMesh, template: &Field) -> DistField {
    dm.parts.iter().map(|_| template.clone()).collect()
}

/// Synchronize `fields` over the share map `overlap` with reduction `red`.
///
/// With [`Reduction::Insert`] this is a pure root→leaf broadcast. With any
/// combining mode, leaf values are first reduced onto the root, then the
/// combined value is broadcast back so every copy (boundary or ghost)
/// agrees. Entities with no value on a copy simply don't contribute.
/// Collective.
pub fn sync_fields(
    comm: &Comm,
    dm: &DistMesh,
    overlap: &Overlap,
    fields: &mut DistField,
    red: Reduction,
) {
    let _span = pumi_obs::span!("field.sync");
    assert_eq!(fields.len(), dm.parts.len());
    let node_dims: Vec<Dim> = fields
        .first()
        .map(|f| f.shape.node_dims(dm.parts[0].mesh.elem_dim()))
        .unwrap_or_default();
    let has = |f: &DistField, slot: usize, e: MeshEnt| {
        node_dims.contains(&e.dim()) && f[slot].get(e).is_some()
    };
    let pack = |f: &DistField, slot: usize, e: MeshEnt, w: &mut pumi_pcu::MsgWriter| {
        w.put_f64_slice(f[slot].get(e).expect("packed entity has a value"));
    };
    // One decode buffer per call: incoming values are read into it, then
    // combined with (or copied onto) the copy's value in place.
    let mut buf = vec![0.0; fields.first().map_or(1, |f| f.ncomp)];
    if red != Reduction::Insert {
        overlap.reduce(
            comm,
            &dm.map,
            Scope::All,
            fields,
            has,
            pack,
            |f, slot, e, r| {
                r.try_get_f64_slice_into(&mut buf)?;
                match f[slot].get_mut(e) {
                    Some(cur) => {
                        for (c, &x) in cur.iter_mut().zip(&buf) {
                            match red {
                                Reduction::Add => *c += x,
                                Reduction::Min => *c = c.min(x),
                                Reduction::Max => *c = c.max(x),
                                Reduction::Insert => unreachable!(),
                            }
                        }
                    }
                    None => f[slot].set(e, &buf),
                }
                Ok(())
            },
        );
    }
    overlap.bcast(
        comm,
        &dm.map,
        Scope::All,
        fields,
        has,
        pack,
        |f, slot, e, r| match f[slot].get_mut(e) {
            Some(cur) => r.try_get_f64_slice_into(cur),
            None => {
                r.try_get_f64_slice_into(&mut buf)?;
                f[slot].set(e, &buf);
                Ok(())
            }
        },
    );
}

/// The one-signature sync entry point on a distributed field:
/// `fields.sync(comm, dm, &overlap, Reduction::Add)`.
pub trait FieldSync {
    /// Synchronize over `overlap` with reduction `red`; see [`sync_fields`].
    fn sync(&mut self, comm: &Comm, dm: &DistMesh, overlap: &Overlap, red: Reduction);
}

impl FieldSync for DistField {
    fn sync(&mut self, comm: &Comm, dm: &DistMesh, overlap: &Overlap, red: Reduction) {
        sync_fields(comm, dm, overlap, self, red);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{Field, FieldShape};
    use pumi_core::overlap::{grow_overlap, GhostOpts};
    use pumi_core::{distribute, PartMap};
    use pumi_meshgen::tri_rect;
    use pumi_pcu::execute;
    use pumi_util::PartId;

    fn two_part_mesh(c: &Comm) -> DistMesh {
        let serial = tri_rect(4, 2, 2.0, 1.0);
        let d = serial.elem_dim_t();
        let mut elem_part = vec![0 as PartId; serial.index_space(d)];
        for e in serial.iter(d) {
            elem_part[e.idx()] = if serial.centroid(e)[0] < 1.0 { 0 } else { 1 };
        }
        distribute(c, PartMap::contiguous(2, 2), &serial, &elem_part)
    }

    #[test]
    fn insert_propagates_owner_values() {
        execute(2, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Owners write their part id + 1; copies write -1 (stale).
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let val = if part.is_owned(v) {
                        part.id as f64 + 1.0
                    } else {
                        -1.0
                    };
                    fields[slot].set_scalar(v, val);
                }
            }
            fields.sync(c, &dm, &ov, Reduction::Insert);
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let want = part.owner(v) as f64 + 1.0;
                    assert_eq!(fields[slot].get_scalar(v), Some(want), "vertex {v:?}");
                }
            }
        });
    }

    #[test]
    fn add_sums_copies() {
        execute(2, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Everyone writes 1 on every local vertex; after Add-sync, a
            // vertex's value equals its residence count on every copy.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    fields[slot].set_scalar(v, 1.0);
                }
            }
            fields.sync(c, &dm, &ov, Reduction::Add);
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let want = part.residence(v).len() as f64;
                    assert_eq!(fields[slot].get_scalar(v), Some(want), "vertex {v:?}");
                }
            }
        });
    }

    #[test]
    fn min_max_reduce_everywhere() {
        execute(2, |c| {
            let dm = two_part_mesh(c);
            let ov = Overlap::from_dist(&dm);
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Each copy writes its part id; Min must yield the smallest
            // residence part, Max the largest, on every copy.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    fields[slot].set_scalar(v, part.id as f64);
                }
            }
            let mut maxed = fields.clone();
            fields.sync(c, &dm, &ov, Reduction::Min);
            maxed.sync(c, &dm, &ov, Reduction::Max);
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    let res = part.residence(v);
                    let lo = *res.first().unwrap() as f64;
                    let hi = *res.last().unwrap() as f64;
                    assert_eq!(fields[slot].get_scalar(v), Some(lo), "min at {v:?}");
                    assert_eq!(maxed[slot].get_scalar(v), Some(hi), "max at {v:?}");
                }
            }
        });
    }

    #[test]
    fn sync_reaches_ghost_copies() {
        execute(2, |c| {
            let mut dm = two_part_mesh(c);
            let ov = grow_overlap(c, &mut dm, GhostOpts::new());
            let template = Field::new("u", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            // Values only on owned, non-ghost vertices: their gid.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    if part.is_owned(v) && !part.is_ghost(v) {
                        fields[slot].set_scalar(v, part.gid_of(v) as f64);
                    }
                }
            }
            fields.sync(c, &dm, &ov, Reduction::Insert);
            // Every vertex copy — including ghosts — got the root value.
            for (slot, part) in dm.parts.iter().enumerate() {
                for v in part.mesh.iter(Dim::Vertex) {
                    assert_eq!(
                        fields[slot].get_scalar(v),
                        Some(part.gid_of(v) as f64),
                        "vertex {v:?} (ghost: {})",
                        part.is_ghost(v)
                    );
                }
            }
        });
    }
}
