//! Delta checkpoints: persist only what changed since the last snapshot.
//!
//! After a full v2 checkpoint, each part can keep a
//! [`pumi_core::DirtyLog`] of mutations (adapt rounds, migrations, field
//! updates). [`write_delta_checkpoint`] drains those logs into
//! `delta_<k:04>/part_*.pmb` files under the base checkpoint directory —
//! v2 part files with [`FLAG_DELTA`] set whose Entities/Tags/Fields
//! sections carry *only* the dirty entities, plus a Deleted section of
//! per-dimension gid lists and a full Remotes section (boundary links are
//! global state and cheap relative to entities). The manifest's
//! `delta_count` is bumped last, so a crash mid-delta leaves the previous
//! restore point intact.
//!
//! Restore replays deltas per part *before* the N→M stitching, so a
//! checkpoint with deltas restores onto any rank count exactly like a
//! fresh full snapshot: deletions first (high dimension to low), then
//! entity upserts (vertices to elements), then tag/field value upserts by
//! gid, then wholesale remote-link replacement.

use crate::chunk::SectionSink;
use crate::error::{IoError, Section};
use crate::format::{
    delta_dir, parse_part_header_v2, part_file_path, Manifest, FLAG_DELTA, MANIFEST_FILE,
};
use crate::read::{decode_fields, decode_remotes, decode_tags, section_bytes, LoadedPart};
use crate::write::{write_part_file_v2, SectionEnc, WriteStats};
use crate::FIELD_TAG_PREFIX;
use pumi_core::{DirtyLog, DistMesh, Part};
use pumi_field::{DistField, Field};
use pumi_geom::GeomEnt;
use pumi_mesh::Topology;
use pumi_pcu::{Comm, MsgError, MsgReader};
use pumi_util::tag::TagKind;
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt, PartId};
use std::path::Path;

// ---------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------

fn encode_delta_entities(part: &Part, log: &DirtyLog, w: &mut dyn SectionSink) {
    let elem_dim = part.mesh.elem_dim();
    for d in 0..=elem_dim {
        let dim = Dim::from_usize(d);
        let rows: Vec<MeshEnt> = part
            .mesh
            .iter(dim)
            .filter(|&e| log.dirty[d].contains(&part.gid_of(e)))
            .collect();
        w.put_u32(rows.len() as u32);
        for e in rows {
            w.put_u64(part.gid_of(e));
            w.put_u8(part.mesh.topo(e).to_u8());
            w.put_u32(part.mesh.class_of(e).0);
            match part.ghost_source(e) {
                Some((src, _)) => {
                    w.put_u8(1);
                    w.put_u32(src);
                }
                None => w.put_u8(0),
            }
            if d == 0 {
                let x = part.mesh.coords(e);
                w.put_f64(x[0]);
                w.put_f64(x[1]);
                w.put_f64(x[2]);
            } else {
                let vgids: Vec<u64> = part
                    .mesh
                    .verts_of(e)
                    .iter()
                    .map(|&v| part.gid_of(MeshEnt::vertex(v)))
                    .collect();
                w.put_u64_slice(&vgids);
            }
        }
    }
}

fn encode_delta_remotes(part: &Part, w: &mut dyn SectionSink) {
    let shared = part.shared_entities();
    w.put_u32(shared.len() as u32);
    for (e, _) in shared {
        w.put_u8(e.dim().as_usize() as u8);
        w.put_u64(part.gid_of(e));
        w.put_u32_slice(&part.residence(e));
    }
}

fn encode_delta_tags(part: &Part, log: &DirtyLog, w: &mut dyn SectionSink) {
    let tm = part.mesh.tags();
    let elem_dim = part.mesh.elem_dim();
    let mut per_tag = Vec::new();
    for tid in tm.tags() {
        if tm.name(tid).starts_with(FIELD_TAG_PREFIX) || tm.count(tid) == 0 {
            continue;
        }
        let mut rows = Vec::new();
        for d in 0..=elem_dim {
            let dim = Dim::from_usize(d);
            for e in part.mesh.iter(dim) {
                if !log.dirty[d].contains(&part.gid_of(e)) {
                    continue;
                }
                if let Some(data) = tm.get(tid, e) {
                    rows.push((d as u8, part.gid_of(e), data));
                }
            }
        }
        if !rows.is_empty() {
            per_tag.push((tid, rows));
        }
    }
    w.put_u32(per_tag.len() as u32);
    let mut buf = Vec::new();
    for (tid, rows) in per_tag {
        w.put_bytes(tm.name(tid).as_bytes());
        w.put_u8(match tm.kind(tid) {
            TagKind::Int => 0,
            TagKind::Double => 1,
            TagKind::Bytes => 2,
        });
        w.put_u32(tm.len_of(tid) as u32);
        w.put_u32(rows.len() as u32);
        for (d, gid, data) in rows {
            w.put_u8(d);
            w.put_u64(gid);
            buf.clear();
            data.encode(&mut buf);
            w.put_bytes(&buf);
        }
    }
}

fn encode_delta_fields(part: &Part, fields: &[&Field], log: &DirtyLog, w: &mut dyn SectionSink) {
    let elem_dim = part.mesh.elem_dim();
    w.put_u32(fields.len() as u32);
    for f in fields {
        w.put_bytes(f.name.as_bytes());
        w.put_u8(crate::format::shape_to_u8(f.shape));
        w.put_u32(f.ncomp as u32);
        let mut rows = Vec::new();
        for d in f.shape.node_dims(elem_dim) {
            for e in part.mesh.iter(d) {
                if !log.dirty[d.as_usize()].contains(&part.gid_of(e)) {
                    continue;
                }
                if let Some(v) = f.get(e) {
                    rows.push((d.as_usize() as u8, part.gid_of(e), v));
                }
            }
        }
        w.put_u32(rows.len() as u32);
        for (d, gid, v) in rows {
            w.put_u8(d);
            w.put_u64(gid);
            w.put_f64_slice(v);
        }
    }
}

fn encode_deleted(log: &DirtyLog, w: &mut dyn SectionSink) {
    for d in 0..4 {
        let mut gids: Vec<GlobalId> = log.deleted[d].iter().copied().collect();
        gids.sort_unstable();
        w.put_u64_slice(&gids);
    }
}

/// Options for [`write_delta_checkpoint`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaOpts {
    /// Raw bytes per chunk (clamped to ≥ 4 KiB).
    pub chunk_len: usize,
}

impl Default for DeltaOpts {
    fn default() -> Self {
        DeltaOpts {
            chunk_len: crate::chunk::DEFAULT_CHUNK_LEN,
        }
    }
}

/// Append one delta round to the v2 checkpoint at `dir`, draining every
/// local part's [`DirtyLog`] (tracking continues into a fresh log).
/// Collective; the partition must match the base snapshot (same part ids),
/// and `dm.start_dirty_tracking()` must have been called after the base
/// write. On failure every rank returns an error together and the
/// manifest's delta count is left unchanged, so the checkpoint still
/// restores to the previous round.
pub fn write_delta_checkpoint(
    comm: &Comm,
    dm: &mut DistMesh,
    fields: &[&DistField],
    dir: &Path,
) -> Result<WriteStats, IoError> {
    write_delta_checkpoint_with(comm, dm, fields, dir, &DeltaOpts::default())
}

/// [`write_delta_checkpoint`] with explicit chunking options.
pub fn write_delta_checkpoint_with(
    comm: &Comm,
    dm: &mut DistMesh,
    fields: &[&DistField],
    dir: &Path,
    opts: &DeltaOpts,
) -> Result<WriteStats, IoError> {
    let _span = pumi_obs::span!("io.write_delta");
    for df in fields {
        assert_eq!(df.len(), dm.parts.len(), "field not aligned with dm.parts");
    }
    for p in &dm.parts {
        assert!(
            p.is_tracking_dirty(),
            "part {}: delta checkpoint without dirty tracking (call start_dirty_tracking after the base write)",
            p.id
        );
    }
    let manifest = crate::read::manifest_bcast(comm, dir)?;
    let mut local_err: Option<IoError> = None;
    if manifest.nparts as usize != dm.map.nparts() {
        local_err = Some(IoError::Manifest {
            path: dir.join(MANIFEST_FILE),
            detail: format!(
                "partition changed since the base snapshot ({} parts now, {} in the file); write a fresh full checkpoint",
                dm.map.nparts(),
                manifest.nparts
            ),
        });
    }
    let k = manifest.delta_count + 1;
    let ddir = delta_dir(dir, k);
    if local_err.is_none() {
        if let Err(e) = std::fs::create_dir_all(&ddir) {
            local_err = Some(IoError::Io {
                path: ddir.clone(),
                source: e,
            });
        }
    }
    let mut bytes_local = 0u64;
    let mut parts_written = 0usize;
    if local_err.is_none() {
        for slot in 0..dm.parts.len() {
            let log = dm.parts[slot]
                .rotate_dirty_log()
                .expect("tracking checked above");
            let part = &dm.parts[slot];
            let pfields: Vec<&Field> = fields.iter().map(|df| &df[slot]).collect();
            let path = part_file_path(&ddir, part.id);
            let sections: Vec<SectionEnc<'_>> = vec![
                (
                    Section::Entities,
                    Box::new(|w: &mut dyn SectionSink| encode_delta_entities(part, &log, w)),
                ),
                (
                    Section::Remotes,
                    Box::new(|w: &mut dyn SectionSink| encode_delta_remotes(part, w)),
                ),
                (
                    Section::Tags,
                    Box::new(|w: &mut dyn SectionSink| encode_delta_tags(part, &log, w)),
                ),
                (
                    Section::Fields,
                    Box::new(|w: &mut dyn SectionSink| {
                        encode_delta_fields(part, &pfields, &log, w)
                    }),
                ),
                (
                    Section::Deleted,
                    Box::new(|w: &mut dyn SectionSink| encode_deleted(&log, w)),
                ),
            ];
            match write_part_file_v2(
                &path,
                part.id,
                part.mesh.elem_dim() as u32,
                part.gid_counter(),
                FLAG_DELTA,
                opts.chunk_len,
                &sections,
            ) {
                Ok(n) => {
                    bytes_local += n;
                    parts_written += 1;
                }
                Err(e) => {
                    local_err = Some(e);
                    break;
                }
            }
        }
    }
    pumi_obs::metrics::counter_add("io.write.bytes", bytes_local);
    let failures = comm.allreduce_sum_u64(local_err.is_some() as u64);
    if failures > 0 {
        return Err(local_err.unwrap_or(IoError::PeerFailed { failures }));
    }

    // Commit point: bump the manifest's delta count (rank 0).
    let mut manifest_err: Option<IoError> = None;
    let mut manifest_bytes = 0u64;
    if comm.rank() == 0 {
        let mut m = manifest;
        m.delta_count = k;
        let data = crate::format::encode_manifest(&m);
        let path = dir.join(MANIFEST_FILE);
        match std::fs::write(&path, &data) {
            Ok(()) => manifest_bytes = data.len() as u64,
            Err(e) => manifest_err = Some(IoError::Io { path, source: e }),
        }
    }
    let failures = comm.allreduce_sum_u64(manifest_err.is_some() as u64);
    if failures > 0 {
        return Err(manifest_err.unwrap_or(IoError::PeerFailed { failures }));
    }
    let bytes_global = comm.allreduce_sum_u64(bytes_local + manifest_bytes);
    Ok(WriteStats {
        bytes_local,
        bytes_global,
        parts_written,
    })
}

// ---------------------------------------------------------------------
// Replay side
// ---------------------------------------------------------------------

fn derr(part: PartId, section: Section) -> impl Fn(MsgError) -> IoError {
    move |e| IoError::Decode {
        part,
        section,
        detail: e.to_string(),
    }
}

/// Apply every delta round to a freshly-loaded base part, in order. Runs
/// per part before any stitching, so N→M restores see the final state.
pub(crate) fn replay_deltas(
    dir: &Path,
    fpart: PartId,
    manifest: &Manifest,
    lp: &mut LoadedPart,
    skip_ghosts: bool,
    remap: &impl Fn(PartId) -> PartId,
) -> Result<(), IoError> {
    let elem_dim = manifest.elem_dim as usize;
    // Ghost provenance keyed by gid: local handles can be invalidated by
    // slot reuse across deletions, gids cannot.
    let mut ghost_map: FxHashMap<(Dim, GlobalId), PartId> = lp
        .ghost_rows
        .iter()
        .map(|&(e, src)| ((e.dim(), lp.part.gid_of(e)), src))
        .collect();
    for k in 1..=manifest.delta_count {
        let path = part_file_path(&delta_dir(dir, k), fpart);
        let data = std::fs::read(&path).map_err(|e| IoError::Io {
            path: path.clone(),
            source: e,
        })?;
        let h = parse_part_header_v2(fpart, &data)?;
        if !h.is_delta() {
            return Err(IoError::Header {
                part: fpart,
                detail: format!("delta round {k}: not a delta part file"),
            });
        }
        if h.elem_dim as usize != elem_dim {
            return Err(IoError::Header {
                part: fpart,
                detail: format!(
                    "delta round {k}: element dimension {} disagrees with manifest ({elem_dim})",
                    h.elem_dim
                ),
            });
        }

        apply_delta_round(
            fpart,
            &mut lp.part,
            elem_dim,
            skip_ghosts,
            &mut ghost_map,
            &mut |s| section_bytes(fpart, &data, &h, s),
        )?;

        // 4. Boundary links are replaced wholesale.
        let payload = section_bytes(fpart, &data, &h, Section::Remotes)?;
        lp.res_rows = decode_remotes(fpart, payload, remap)?;

        lp.gid_counter = lp.gid_counter.max(h.gid_counter);
        lp.bytes += data.len() as u64;
    }
    lp.ghost_rows = ghost_map
        .into_iter()
        .filter_map(|((dim, gid), src)| lp.part.find_gid(dim, gid).map(|e| (e, src)))
        .collect();
    lp.ghost_rows.sort_by_key(|&(e, _)| e);
    Ok(())
}

/// Apply one delta round's Deleted/Entities/Tags/Fields sections (fetched
/// on demand through `fetch`) to a part. Shared by the collective restore
/// ([`replay_deltas`], which also swaps the Remotes rows) and the
/// standalone slice loader behind `pumi-serve` (which has no stitching and
/// skips Remotes entirely).
pub(crate) fn apply_delta_round(
    fpart: PartId,
    part: &mut Part,
    elem_dim: usize,
    skip_ghosts: bool,
    ghost_map: &mut FxHashMap<(Dim, GlobalId), PartId>,
    fetch: &mut dyn FnMut(Section) -> Result<Vec<u8>, IoError>,
) -> Result<(), IoError> {
    // 1. Deletions, elements down to vertices.
    let payload = fetch(Section::Deleted)?;
    let e = derr(fpart, Section::Deleted);
    let mut r = MsgReader::from_vec(payload);
    let mut deleted: [Vec<GlobalId>; 4] = Default::default();
    for slot in &mut deleted {
        *slot = r.try_get_u64_slice().map_err(&e)?;
    }
    for d in (0..4).rev() {
        let dim = Dim::from_usize(d);
        for &gid in &deleted[d] {
            ghost_map.remove(&(dim, gid));
            if let Some(ent) = part.find_gid(dim, gid) {
                part.delete_entity(ent);
            }
        }
    }

    // 2. Entity upserts, vertices up to elements.
    let payload = fetch(Section::Entities)?;
    apply_entity_upserts(fpart, part, payload, elem_dim, skip_ghosts, ghost_map)?;

    // 3. Tag and field value upserts by gid.
    let payload = fetch(Section::Tags)?;
    decode_tags(fpart, part, payload, skip_ghosts)?;
    let payload = fetch(Section::Fields)?;
    decode_fields(fpart, part, payload, skip_ghosts)?;
    Ok(())
}

/// Decode a delta Entities section into the part: existing gids are
/// updated in place, new gids are created. Ghost provenance lands in
/// `ghost_map` (the caller folds it back into stitch rows).
fn apply_entity_upserts(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    elem_dim: usize,
    skip_ghosts: bool,
    ghost_map: &mut FxHashMap<(Dim, GlobalId), PartId>,
) -> Result<(), IoError> {
    let sec = Section::Entities;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    // Entities that became ghosts on an N≠M restore are dropped like their
    // base-snapshot counterparts; deletion runs top-down after the scan.
    let mut demote: Vec<MeshEnt> = Vec::new();
    for d in 0..=elem_dim {
        let dim = Dim::from_usize(d);
        let n = r.try_get_u32().map_err(&e)?;
        for _ in 0..n {
            let gid = r.try_get_u64().map_err(&e)?;
            let topo_code = r.try_get_u8().map_err(&e)?;
            let class = r.try_get_u32().map_err(&e)?;
            let ghost = r.try_get_u8().map_err(&e)? != 0;
            let src = if ghost {
                Some(r.try_get_u32().map_err(&e)?)
            } else {
                None
            };
            let topo = Topology::try_from_u8(topo_code)
                .ok_or(MsgError::bad_enum("topology", topo_code))
                .map_err(&e)?;
            if topo.dim().as_usize() != d {
                return Err(IoError::Decode {
                    part: fpart,
                    section: sec,
                    detail: format!("topology {topo:?} in dimension-{d} block"),
                });
            }
            match src {
                Some(s) if !skip_ghosts => {
                    ghost_map.insert((dim, gid), s);
                }
                _ => {
                    ghost_map.remove(&(dim, gid));
                }
            }
            if d == 0 {
                let x = [
                    r.try_get_f64().map_err(&e)?,
                    r.try_get_f64().map_err(&e)?,
                    r.try_get_f64().map_err(&e)?,
                ];
                match part.find_gid(dim, gid) {
                    Some(v) => {
                        part.mesh.set_coords(v, x);
                        part.mesh.set_class(v, GeomEnt(class));
                        if ghost && skip_ghosts {
                            demote.push(v);
                        }
                    }
                    None => {
                        if ghost && skip_ghosts {
                            continue;
                        }
                        part.add_vertex(x, GeomEnt(class), gid);
                    }
                }
            } else {
                let vgids = r.try_get_u64_slice().map_err(&e)?;
                match part.find_gid(dim, gid) {
                    Some(ent) => {
                        part.mesh.set_class(ent, GeomEnt(class));
                        if ghost && skip_ghosts {
                            demote.push(ent);
                        }
                    }
                    None => {
                        if ghost && skip_ghosts {
                            continue;
                        }
                        let mut verts = Vec::with_capacity(vgids.len());
                        for g in vgids {
                            match part.find_gid(Dim::Vertex, g) {
                                Some(v) => verts.push(v.index()),
                                None => {
                                    return Err(IoError::Decode {
                                        part: fpart,
                                        section: sec,
                                        detail: format!(
                                            "delta entity gid {gid} references unknown vertex {g}"
                                        ),
                                    })
                                }
                            }
                        }
                        part.add_entity(topo, &verts, GeomEnt(class), gid);
                    }
                }
            }
        }
    }
    demote.sort_by_key(|ent| std::cmp::Reverse(ent.dim().as_usize()));
    for ent in demote {
        if part.mesh.is_live(ent) {
            part.delete_entity(ent);
        }
    }
    Ok(())
}
