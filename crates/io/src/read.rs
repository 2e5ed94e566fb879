//! Parallel checkpoint reader with N→M repartition-on-load.
//!
//! A checkpoint written from N parts can be restored onto any M ranks:
//!
//! * **M = N** — each rank loads its parts verbatim, including ghost
//!   layers; remote-copy links are rebuilt by one phased exchange of
//!   (dimension, global id, local index) keys.
//! * **M < N** — rank `r` loads the part block `[r·N/M, (r+1)·N/M)` and
//!   merges it into a single part through the migration path.
//! * **M > N** — file part `p` loads onto rank `p·M/N` and is split across
//!   the block `[p·M/N, (p+1)·M/N)` with the local graph partitioner,
//!   again through migration.
//!
//! Ghost layers are dropped when N ≠ M (re-grow with
//! `pumi_core::overlap::grow_overlap` after the restore); global-id
//! counters are floored at the global maximum so ids minted after a
//! restore never collide with checkpointed ones. Every entry point is
//! collective and returns `Err` on *every* rank when any rank fails.
//!
//! Every part is built by one loader over a [`SectionSource`]: it opens
//! the base file and then each delta round's file with [`PartFile::open`]
//! (which checks the delta flag and element dimension against the
//! manifest) and runs the same section decoders on each. The file
//! header's delta flag decides whether the entity decoder updates
//! existing gids in place. The collective reader feeds the loader from
//! disk, each file read once; `pumi-serve` feeds it through its shared
//! chunk cache via [`load_standalone_part`].

use crate::chunk::{decode_chunk, section_raw_bytes};
use crate::error::{agree, IoError, Section};
use crate::format::{
    delta_dir, parse_manifest, parse_part_header_v2, part_file_path, Manifest, PartHeaderV2,
    MANIFEST_FILE,
};
use crate::FIELD_TAG_PREFIX;
use pumi_core::{migrate, DistMesh, MigrationPlan, Part, PartExchange, PartMap};
use pumi_field::{DistField, Field};
use pumi_geom::GeomEnt;
use pumi_mesh::Topology;
use pumi_partition::partition_mesh;
use pumi_pcu::{Comm, MsgError, MsgReader, MsgWriter};
use pumi_util::tag::{TagData, TagKind};
use pumi_util::{Dim, FxHashMap, GlobalId, MeshEnt, PartId};
use std::path::Path;
use std::sync::Arc;

/// Options for [`read_checkpoint_with`].
#[derive(Debug, Clone, Copy)]
pub struct ReadOpts {
    /// Run the `pumi_check::check_dist` invariant checker on the restored
    /// mesh (default `true`), every family except world-wide gid
    /// uniqueness; violations surface as [`IoError::Verify`].
    pub check: bool,
}

impl Default for ReadOpts {
    fn default() -> Self {
        ReadOpts { check: true }
    }
}

/// Statistics from a completed restore.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    /// Parts in the checkpoint (N).
    pub nparts_in: usize,
    /// Bytes read across the world.
    pub bytes_global: u64,
    /// Whether an N→M redistribution ran.
    pub redistributed: bool,
    /// Elements moved by the redistribution (global).
    pub elements_moved: u64,
}

/// A restored checkpoint: the mesh, its fields (in manifest order), and
/// restore statistics.
pub struct Restored {
    /// The distributed mesh, one part per rank after any redistribution.
    pub dm: DistMesh,
    /// Fields in manifest order, each aligned with `dm.parts`.
    pub fields: Vec<DistField>,
    /// Restore statistics.
    pub stats: ReadStats,
}

/// Map a framing error in `section` of part `part`'s file to a typed
/// decode error.
pub(crate) fn derr(part: PartId, section: Section) -> impl Fn(MsgError) -> IoError {
    move |e| IoError::Decode {
        part,
        section,
        detail: e.to_string(),
    }
}

/// One loaded part plus what the post-load stitching exchanges need.
pub(crate) struct LoadedPart {
    pub(crate) part: Part,
    /// Part-boundary rows: (dim, gid, residence parts — already remapped).
    pub(crate) res_rows: Vec<(Dim, GlobalId, Vec<PartId>)>,
    /// Ghost-holder rows: (local ghost entity, source part), sorted by
    /// handle.
    pub(crate) ghost_rows: Vec<(MeshEnt, PartId)>,
    pub(crate) gid_counter: u64,
    /// Part-file bytes, base and deltas.
    pub(crate) bytes: u64,
}

/// Decode an Entities section into `part`. A base snapshot (`upsert ==
/// false`) only creates entities; a delta updates the ones whose gid is
/// already present and creates the rest, so the base load pays no gid
/// lookup per entity. Ghost provenance lands in `ghosts`, keyed by gid
/// because local handles can be reused across a delta's deletions. With
/// `skip_ghosts`, ghost copies are dropped — including entities a delta
/// turned into ghosts.
fn decode_entities(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    elem_dim: usize,
    skip_ghosts: bool,
    upsert: bool,
    ghosts: &mut FxHashMap<(Dim, GlobalId), PartId>,
) -> Result<(), IoError> {
    let sec = Section::Entities;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    // Deletion of demoted entities runs top-down after the scan.
    let mut demote: Vec<MeshEnt> = Vec::new();
    for d in 0..=elem_dim {
        let dim = Dim::from_usize(d);
        let n = r.try_get_u32().map_err(&e)?;
        for _ in 0..n {
            let gid = r.try_get_u64().map_err(&e)?;
            let topo_code = r.try_get_u8().map_err(&e)?;
            let class = GeomEnt(r.try_get_u32().map_err(&e)?);
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
                    ghosts.insert((dim, gid), s);
                }
                _ if upsert => {
                    ghosts.remove(&(dim, gid));
                }
                _ => {}
            }
            let drop = ghost && skip_ghosts;
            let existing = if upsert {
                part.find_gid(dim, gid)
            } else {
                None
            };
            if d == 0 {
                let x = [
                    r.try_get_f64().map_err(&e)?,
                    r.try_get_f64().map_err(&e)?,
                    r.try_get_f64().map_err(&e)?,
                ];
                match existing {
                    Some(v) => {
                        part.mesh.set_coords(v, x);
                        part.mesh.set_class(v, class);
                    }
                    None if drop => {}
                    None => {
                        part.add_vertex(x, class, gid);
                    }
                }
            } else {
                let vgids = r.try_get_u64_slice().map_err(&e)?;
                match existing {
                    Some(ent) => part.mesh.set_class(ent, class),
                    None if drop => {}
                    None => {
                        let mut verts = Vec::with_capacity(vgids.len());
                        for g in vgids {
                            match part.find_gid(Dim::Vertex, g) {
                                Some(v) => verts.push(v.index()),
                                None => {
                                    return Err(IoError::Decode {
                                        part: fpart,
                                        section: sec,
                                        detail: format!(
                                            "entity gid {gid} references unknown vertex {g}"
                                        ),
                                    })
                                }
                            }
                        }
                        part.add_entity(topo, &verts, class, gid);
                    }
                }
            }
            if drop {
                demote.extend(existing);
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

pub(crate) fn decode_remotes(
    fpart: PartId,
    payload: Vec<u8>,
    remap: &dyn Fn(PartId) -> PartId,
) -> Result<Vec<(Dim, GlobalId, Vec<PartId>)>, IoError> {
    let e = derr(fpart, Section::Remotes);
    let mut r = MsgReader::from_vec(payload);
    let n = r.try_get_u32().map_err(&e)?;
    let mut rows = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let db = r.try_get_u8().map_err(&e)?;
        let d = Dim::try_from_u8(db)
            .ok_or(MsgError::bad_enum("dimension", db))
            .map_err(&e)?;
        let gid = r.try_get_u64().map_err(&e)?;
        let res = r.try_get_u32_slice().map_err(&e)?;
        let res: Vec<PartId> = res.into_iter().map(remap).collect();
        rows.push((d, gid, res));
    }
    Ok(rows)
}

pub(crate) fn decode_tags(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    skip_ghosts: bool,
) -> Result<(), IoError> {
    let sec = Section::Tags;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    let ntags = r.try_get_u32().map_err(&e)?;
    for _ in 0..ntags {
        let name = r.try_get_bytes().map_err(&e)?;
        let name = String::from_utf8(name).map_err(|_| IoError::Decode {
            part: fpart,
            section: sec,
            detail: "tag name is not UTF-8".into(),
        })?;
        let kind = match r.try_get_u8().map_err(&e)? {
            0 => TagKind::Int,
            1 => TagKind::Double,
            2 => TagKind::Bytes,
            k => return Err(e(MsgError::bad_enum("tag kind", k))),
        };
        let len = r.try_get_u32().map_err(&e)? as usize;
        let nrows = r.try_get_u32().map_err(&e)?;
        let tid = part.mesh.tags_mut().declare(&name, kind, len);
        for _ in 0..nrows {
            let db = r.try_get_u8().map_err(&e)?;
            let d = Dim::try_from_u8(db)
                .ok_or(MsgError::bad_enum("dimension", db))
                .map_err(&e)?;
            let gid = r.try_get_u64().map_err(&e)?;
            let buf = r.try_get_bytes().map_err(&e)?;
            let mut pos = 0;
            let data = TagData::decode(&buf, &mut pos).ok_or_else(|| IoError::Decode {
                part: fpart,
                section: sec,
                detail: format!("undecodable value for tag '{name}'"),
            })?;
            match part.find_gid(d, gid) {
                Some(ent) => part.mesh.tags_mut().set(tid, ent, data),
                // Ghost entities are dropped on N≠M restores; their rows
                // are skipped with them.
                None if skip_ghosts => {}
                None => {
                    return Err(IoError::Decode {
                        part: fpart,
                        section: sec,
                        detail: format!("tag '{name}' row references unknown gid {gid}"),
                    })
                }
            }
        }
    }
    Ok(())
}

pub(crate) fn decode_fields(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    skip_ghosts: bool,
) -> Result<(), IoError> {
    let sec = Section::Fields;
    let e = derr(fpart, sec);
    let mut r = MsgReader::from_vec(payload);
    let nfields = r.try_get_u32().map_err(&e)?;
    for _ in 0..nfields {
        let name = r.try_get_bytes().map_err(&e)?;
        let name = String::from_utf8(name).map_err(|_| IoError::Decode {
            part: fpart,
            section: sec,
            detail: "field name is not UTF-8".into(),
        })?;
        let _shape = r.try_get_u8().map_err(&e)?;
        let ncomp = r.try_get_u32().map_err(&e)? as usize;
        let nrows = r.try_get_u32().map_err(&e)?;
        // Stage node values in a tag: tags ride migration automatically, so
        // redistribution carries field data with no extra machinery.
        let tid = part.mesh.tags_mut().declare(
            &format!("{FIELD_TAG_PREFIX}{name}"),
            TagKind::Double,
            ncomp,
        );
        for _ in 0..nrows {
            let db = r.try_get_u8().map_err(&e)?;
            let d = Dim::try_from_u8(db)
                .ok_or(MsgError::bad_enum("dimension", db))
                .map_err(&e)?;
            let gid = r.try_get_u64().map_err(&e)?;
            let vals = r.try_get_f64_slice().map_err(&e)?;
            match part.find_gid(d, gid) {
                Some(ent) => part.mesh.tags_mut().set(tid, ent, TagData::Dbls(vals)),
                None if skip_ghosts => {}
                None => {
                    return Err(IoError::Decode {
                        part: fpart,
                        section: sec,
                        detail: format!("field '{name}' row references unknown gid {gid}"),
                    })
                }
            }
        }
    }
    Ok(())
}

/// One part file — base snapshot or delta round — in memory with its
/// parsed header, checked against the manifest by [`PartFile::open`].
pub struct PartFile {
    /// The file part this file belongs to.
    pub fpart: PartId,
    /// 0 for the base snapshot, `k` for delta round `k`.
    pub round: u32,
    /// The compressed on-disk image.
    pub data: Vec<u8>,
    /// The parsed, checksum-verified header and section table.
    pub header: PartHeaderV2,
}

impl PartFile {
    /// Read part `fpart`'s file for `round` of the checkpoint at `dir`
    /// and check its header against `manifest`: the element dimension
    /// must agree, and the delta flag must be set exactly on delta rounds.
    pub fn open(
        dir: &Path,
        manifest: &Manifest,
        fpart: PartId,
        round: u32,
    ) -> Result<PartFile, IoError> {
        let path = if round == 0 {
            part_file_path(dir, fpart)
        } else {
            part_file_path(&delta_dir(dir, round), fpart)
        };
        let data = std::fs::read(&path).map_err(|source| IoError::Io { path, source })?;
        let header = parse_part_header_v2(fpart, &data)?;
        let round_of = if round == 0 {
            String::new()
        } else {
            format!("delta round {round}: ")
        };
        if header.elem_dim != manifest.elem_dim {
            return Err(IoError::Header {
                part: fpart,
                detail: format!(
                    "{round_of}element dimension {} disagrees with manifest ({})",
                    header.elem_dim, manifest.elem_dim
                ),
            });
        }
        if header.is_delta() != (round > 0) {
            return Err(IoError::Header {
                part: fpart,
                detail: if round == 0 {
                    "delta part file where a base snapshot was expected".into()
                } else {
                    format!("{round_of}not a delta part file")
                },
            });
        }
        Ok(PartFile {
            fpart,
            round,
            data,
            header,
        })
    }
}

/// Where the part loader gets its files and section bytes, so that a
/// restore service (`pumi-serve`) can share opened files and a chunk cache
/// across readers. The collective reader reads from disk directly.
pub trait SectionSource {
    /// Part `fpart`'s file for `round` (0 = base snapshot, `k` = delta
    /// round `k`), opened and checked with [`PartFile::open`].
    fn open(&self, fpart: PartId, round: u32) -> Result<Arc<PartFile>, IoError>;

    /// One section's raw stream. The default verifies and decompresses
    /// every chunk; a cache can serve decoded chunks instead.
    fn section(&self, file: &PartFile, section: Section) -> Result<Vec<u8>, IoError> {
        let entry = file.header.find(section)?;
        section_raw_bytes(file.fpart, &file.data, &entry, |idx, hdr, p| {
            decode_chunk(file.fpart, section, idx, hdr, p)
        })
    }
}

/// The collective reader's source: every part file read from disk once.
struct DiskFiles<'a> {
    dir: &'a Path,
    manifest: &'a Manifest,
}

impl SectionSource for DiskFiles<'_> {
    fn open(&self, fpart: PartId, round: u32) -> Result<Arc<PartFile>, IoError> {
        PartFile::open(self.dir, self.manifest, fpart, round).map(Arc::new)
    }
}

/// The one part loader: decode file part `fpart`'s base snapshot, then
/// each delta round in order, into a part with id `loaded_id`. Boundary
/// links come from the newest file (each round replaces them wholesale),
/// with part ids mapped through `remap`.
fn load_part(
    src: &dyn SectionSource,
    manifest: &Manifest,
    fpart: PartId,
    loaded_id: PartId,
    skip_ghosts: bool,
    remap: &dyn Fn(PartId) -> PartId,
) -> Result<LoadedPart, IoError> {
    let elem_dim = manifest.elem_dim as usize;
    let mut part = Part::new(loaded_id, elem_dim);
    let mut ghosts = FxHashMap::default();
    let mut res_rows = Vec::new();
    let mut gid_counter = 0;
    let mut bytes = 0;
    for round in 0..=manifest.delta_count {
        let file = src.open(fpart, round)?;
        let delta = file.header.is_delta();
        if delta {
            let payload = src.section(&file, Section::Deleted)?;
            crate::delta::apply_deletions(fpart, &mut part, payload, &mut ghosts)?;
        }
        let payload = src.section(&file, Section::Entities)?;
        decode_entities(
            fpart,
            &mut part,
            payload,
            elem_dim,
            skip_ghosts,
            delta,
            &mut ghosts,
        )?;
        let payload = src.section(&file, Section::Tags)?;
        decode_tags(fpart, &mut part, payload, skip_ghosts)?;
        let payload = src.section(&file, Section::Fields)?;
        decode_fields(fpart, &mut part, payload, skip_ghosts)?;
        if round == manifest.delta_count {
            let payload = src.section(&file, Section::Remotes)?;
            res_rows = decode_remotes(fpart, payload, remap)?;
        }
        gid_counter = file.header.gid_counter.max(gid_counter);
        bytes += file.data.len() as u64;
    }
    let mut ghost_rows: Vec<(MeshEnt, PartId)> = ghosts
        .into_iter()
        .filter_map(|((dim, gid), src)| part.find_gid(dim, gid).map(|e| (e, src)))
        .collect();
    ghost_rows.sort_by_key(|&(e, _)| e);
    Ok(LoadedPart {
        part,
        res_rows,
        ghost_rows,
        gid_counter,
        bytes,
    })
}

/// Load one part of a checkpoint standalone: no remote-copy stitching, no
/// ghost layers (ghost copies are dropped on decode), deltas replayed in
/// order. Field values stay staged as `__io:f:<name>` double tags, exactly
/// as they ride migration during a collective restore. This is the restore
/// primitive behind `pumi-serve`'s slice service; it runs the same loader
/// as the collective restore, [`read_checkpoint`].
pub fn load_standalone_part(
    manifest: &Manifest,
    fpart: PartId,
    src: &dyn SectionSource,
) -> Result<Part, IoError> {
    Ok(load_part(src, manifest, fpart, fpart, true, &|p| p)?.part)
}

/// Read the manifest on rank 0 and broadcast it.
pub(crate) fn manifest_bcast(comm: &Comm, dir: &Path) -> Result<Manifest, IoError> {
    let path = dir.join(MANIFEST_FILE);
    let mut w = MsgWriter::new();
    if comm.rank() == 0 {
        match std::fs::read(&path) {
            Ok(data) => {
                w.put_u8(1);
                w.put_bytes(&data);
            }
            Err(e) => {
                w.put_u8(0);
                w.put_bytes(e.to_string().as_bytes());
            }
        }
    }
    let blob = comm.bcast_bytes(0, w.finish());
    let mut r = MsgReader::new(blob);
    let framing = |e: MsgError| IoError::Manifest {
        path: path.clone(),
        detail: format!("broadcast framing: {e}"),
    };
    let ok = r.try_get_u8().map_err(framing)?;
    let body = r.try_get_bytes().map_err(framing)?;
    if ok == 0 {
        return Err(IoError::Manifest {
            path,
            detail: String::from_utf8_lossy(&body).into_owned(),
        });
    }
    parse_manifest(&path, &body)
}

/// Restore a checkpoint from `dir` with default options (verification on).
/// Collective over all ranks of `comm`.
pub fn read_checkpoint(comm: &Comm, dir: &Path) -> Result<Restored, IoError> {
    read_checkpoint_with(comm, dir, ReadOpts::default())
}

/// Restore a checkpoint from `dir` onto `comm.nranks()` ranks, regardless
/// of how many parts it was written from. See the module docs for the
/// N→M policy. Collective; on failure every rank returns an error (ranks
/// without a local failure get [`IoError::PeerFailed`]).
pub fn read_checkpoint_with(comm: &Comm, dir: &Path, opts: ReadOpts) -> Result<Restored, IoError> {
    let _span = pumi_obs::span!("io.read");
    let manifest = manifest_bcast(comm, dir)?;
    let n = manifest.nparts as usize;
    let m = comm.nranks();
    let rank = comm.rank();
    let elem_dim = manifest.elem_dim as usize;
    let skip_ghosts = n != m;

    // Part assignment and id remapping (old part id → loaded part id).
    // N ≥ M: ids are unchanged, rank r hosts a contiguous block.
    // N < M: file part p becomes part p·M/N on rank p·M/N; the other ranks
    // start empty and receive elements in the split phase.
    let map = if n >= m {
        PartMap::balanced_blocks(n, m)
    } else {
        PartMap::contiguous(m, m)
    };
    let assignments: Vec<(PartId, PartId)> = if n >= m {
        map.parts_on(rank).iter().map(|&p| (p, p)).collect()
    } else {
        (0..n as PartId)
            .filter(|&p| (p as usize * m) / n == rank)
            .map(|p| (p, ((p as usize * m) / n) as PartId))
            .collect()
    };
    let remap = |p: PartId| -> PartId {
        if n >= m {
            p
        } else {
            ((p as usize * m) / n) as PartId
        }
    };

    let files = DiskFiles {
        dir,
        manifest: &manifest,
    };
    let mut loaded: Vec<LoadedPart> = Vec::new();
    let mut local_err: Option<IoError> = None;
    for &(fpart, loaded_id) in &assignments {
        match load_part(&files, &manifest, fpart, loaded_id, skip_ghosts, &remap) {
            Ok(lp) => loaded.push(lp),
            Err(e) => {
                local_err = Some(e);
                break;
            }
        }
    }
    let bytes_local: u64 = loaded.iter().map(|lp| lp.bytes).sum();
    pumi_obs::metrics::counter_add("io.read.bytes", bytes_local);
    agree(comm, local_err)?;
    let bytes_global = comm.allreduce_sum_u64(bytes_local);

    // Floor every gid counter at the global max so ids minted after the
    // restore stay disjoint from every checkpointed id.
    let max_counter =
        comm.allreduce_max_u64(loaded.iter().map(|lp| lp.gid_counter).max().unwrap_or(0));

    let mut res_rows: Vec<Vec<(Dim, GlobalId, Vec<PartId>)>> = Vec::new();
    let mut ghost_rows: Vec<Vec<(MeshEnt, PartId)>> = Vec::new();
    let mut parts: Vec<Part> = Vec::new();
    if n >= m {
        for lp in loaded {
            parts.push(lp.part);
            res_rows.push(lp.res_rows);
            ghost_rows.push(lp.ghost_rows);
        }
    } else {
        // Exactly one part per rank; ranks outside the start set begin empty.
        match loaded.into_iter().next() {
            Some(lp) => {
                parts.push(lp.part);
                res_rows.push(lp.res_rows);
                ghost_rows.push(lp.ghost_rows);
            }
            None => {
                parts.push(Part::new(rank as PartId, elem_dim));
                res_rows.push(Vec::new());
                ghost_rows.push(Vec::new());
            }
        }
    }
    for p in &mut parts {
        p.bump_gid_counter(max_counter);
    }
    let mut dm = DistMesh { map, parts };

    // Stitch remote-copy links: each resident part announces its local
    // index for every boundary entity to the entity's other residence parts.
    let mut ex = PartExchange::new(comm, &dm.map);
    for (slot, part) in dm.parts.iter().enumerate() {
        for (dim, gid, res) in &res_rows[slot] {
            let Some(local) = part.find_gid(*dim, *gid) else {
                continue;
            };
            for &q in res {
                if q != part.id {
                    let w = ex.to(part.id, q);
                    w.put_u8(dim.as_usize() as u8);
                    w.put_u64(*gid);
                    w.put_u32(local.index());
                }
            }
        }
    }
    let mut incoming: FxHashMap<PartId, FxHashMap<MeshEnt, Vec<(PartId, u32)>>> =
        FxHashMap::default();
    // Remote-copy lists must not depend on frame arrival order.
    let mut frames = ex.finish();
    frames.sort_by_key(|&(from, to, _)| (to, from));
    for (from, to, mut r) in frames {
        let slot = incoming.entry(to).or_default();
        while !r.is_done() {
            let row = || -> Result<(Dim, GlobalId, u32), MsgError> {
                let db = r.try_get_u8()?;
                let d = Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                let gid = r.try_get_u64()?;
                let idx = r.try_get_u32()?;
                Ok((d, gid, idx))
            }();
            let Ok((d, gid, ridx)) = row else { break };
            if let Some(local) = dm.part(to).find_gid(d, gid) {
                slot.entry(local).or_default().push((from, ridx));
            }
        }
    }
    for (to, ents) in incoming {
        let part = dm.part_mut(to);
        for (e, copies) in ents {
            part.set_remotes(e, copies);
        }
    }

    // Relink ghost layers (only on an N = N restore; dropped otherwise).
    if manifest.has_ghosts && !skip_ghosts {
        let mut ex = PartExchange::new(comm, &dm.map);
        for (slot, part) in dm.parts.iter().enumerate() {
            for &(ent, src) in &ghost_rows[slot] {
                let w = ex.to(part.id, src);
                w.put_u8(ent.dim().as_usize() as u8);
                w.put_u64(part.gid_of(ent));
                w.put_u32(ent.index());
            }
        }
        // (owner part → holder part, dim, holder idx, owner idx)
        let mut replies: Vec<(PartId, PartId, u8, u32, u32)> = Vec::new();
        let mut frames = ex.finish();
        frames.sort_by_key(|&(from, to, _)| (to, from));
        for (from, to, mut r) in frames {
            while !r.is_done() {
                let row = || -> Result<(Dim, GlobalId, u32), MsgError> {
                    let db = r.try_get_u8()?;
                    let d = Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                    let gid = r.try_get_u64()?;
                    let idx = r.try_get_u32()?;
                    Ok((d, gid, idx))
                }();
                let Ok((d, gid, holder_idx)) = row else { break };
                let part = dm.part_mut(to);
                if let Some(owner_ent) = part.find_gid(d, gid) {
                    part.record_ghost_holder(owner_ent, (from, holder_idx));
                    replies.push((to, from, d.as_usize() as u8, holder_idx, owner_ent.index()));
                }
            }
        }
        let mut ex = PartExchange::new(comm, &dm.map);
        for (owner, holder, d, holder_idx, owner_idx) in replies {
            let w = ex.to(owner, holder);
            w.put_u8(d);
            w.put_u32(holder_idx);
            w.put_u32(owner_idx);
        }
        let mut frames = ex.finish();
        frames.sort_by_key(|&(from, to, _)| (to, from));
        for (from, to, mut r) in frames {
            while !r.is_done() {
                let row = || -> Result<(Dim, u32, u32), MsgError> {
                    let db = r.try_get_u8()?;
                    let d = Dim::try_from_u8(db).ok_or(MsgError::bad_enum("dimension", db))?;
                    Ok((d, r.try_get_u32()?, r.try_get_u32()?))
                }();
                let Ok((d, holder_idx, owner_idx)) = row else {
                    break;
                };
                let e = MeshEnt::new(d, holder_idx);
                dm.part_mut(to).set_ghost(e, (from, owner_idx));
            }
        }
    }

    // N → M redistribution through the migration path.
    let mut elements_moved = 0u64;
    if n > m {
        let _span = pumi_obs::span!("io.redistribute");
        // Merge: every non-first local part sends all elements to the
        // rank's first part, then parts are renumbered 0..M.
        let d_elem = Dim::from_usize(elem_dim);
        let first = dm.map.parts_on(rank)[0];
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for part in &dm.parts {
            if part.id == first {
                continue;
            }
            let mut plan = MigrationPlan::new();
            for e in part.mesh.iter(d_elem) {
                plan.dest.insert(e, first);
            }
            plans.insert(part.id, plan);
        }
        let stats = migrate(comm, &mut dm, &plans);
        elements_moved = stats.elements_moved;
        dm.parts.retain(|p| p.id == first);
        let old_map = std::mem::replace(&mut dm.map, PartMap::contiguous(m, m));
        for p in &mut dm.parts {
            p.id = old_map.rank_of(p.id) as PartId;
            p.remap_remote_parts(|q| old_map.rank_of(q) as PartId);
        }
    } else if n < m {
        let _span = pumi_obs::span!("io.redistribute");
        // Split: a loaded part fans its elements out over its target block
        // with the local graph partitioner.
        let d_elem = Dim::from_usize(elem_dim);
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for &(fpart, loaded_id) in &assignments {
            let p = fpart as usize;
            let k = ((p + 1) * m) / n - (p * m) / n;
            let part = dm.part(loaded_id);
            if k <= 1 || part.mesh.count(d_elem) == 0 {
                continue;
            }
            let labels = partition_mesh(&part.mesh, k);
            let mut plan = MigrationPlan::new();
            for e in part.mesh.iter(d_elem) {
                let j = labels[e.idx()] as usize;
                if j > 0 {
                    plan.dest.insert(e, loaded_id + j as PartId);
                }
            }
            plans.insert(loaded_id, plan);
        }
        let stats = migrate(comm, &mut dm, &plans);
        elements_moved = stats.elements_moved;
    }

    // Recover staged fields, in manifest order.
    let mut fields: Vec<DistField> = Vec::new();
    for desc in &manifest.fields {
        let tag_name = format!("{FIELD_TAG_PREFIX}{}", desc.name);
        let mut df: DistField = Vec::new();
        for part in &mut dm.parts {
            let mut f = Field::new(&desc.name, desc.shape, desc.ncomp as usize);
            if let Some(tid) = part.mesh.tags().find(&tag_name) {
                for d in desc.shape.node_dims(elem_dim) {
                    let ents: Vec<MeshEnt> = part.mesh.iter(d).collect();
                    for e in ents {
                        if let Some(TagData::Dbls(v)) = part.mesh.tags_mut().remove(tid, e) {
                            f.set(e, &v);
                        }
                    }
                }
            }
            df.push(f);
        }
        fields.push(df);
    }

    if opts.check {
        // No gid family: it hashes every owned entity to a home part. A
        // 125k-triangle checkpoint restored 4 -> 2 on a 2-node machine
        // ships 2.44 MB off-node for it, against 31.6 KB for all the other
        // families together. Symmetry still checks the gid on every
        // boundary link.
        let opts = pumi_check::CheckOpts::all().gids(false);
        if let Err(fail) = pumi_check::check_dist(comm, &dm, opts) {
            return Err(IoError::Verify {
                errors: fail.errors.iter().map(|e| e.to_string()).collect(),
            });
        }
    }

    Ok(Restored {
        dm,
        fields,
        stats: ReadStats {
            nparts_in: n,
            bytes_global,
            redistributed: n != m,
            elements_moved,
        },
    })
}
