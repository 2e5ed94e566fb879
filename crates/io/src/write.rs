//! Parallel checkpoint writer: the one part-file codec.
//!
//! Each rank serializes its local parts — entities, partition-model
//! residence data, ghost provenance, tags, and fields — into one `.pmb`
//! file per part; rank 0 then writes the manifest. Full snapshots and
//! delta rounds ([`crate::delta`]) share every section encoder and the
//! write driver: a full snapshot is a delta in which every entity is
//! dirty. The encoders take an optional [`DirtyLog`] — `None` keeps every
//! entity, `Some(log)` only the logged ones — and a delta file appends the
//! delta-only Deleted section.
//!
//! Writes are collective and fallible: local failures are agreed across
//! ranks (one allreduce) so every rank returns an `Err` together instead
//! of leaving peers blocked in the manifest reduction. The manifest is
//! the commit point; it is written only once every part file is down.
//!
//! The section encoders write through [`SectionSink`] into LZ4-compressed,
//! CRC'd chunks streamed straight to disk, so peak memory is one chunk
//! regardless of part size.

use crate::chunk::{ChunkWriter, SectionSink, DEFAULT_CHUNK_LEN};
use crate::delta::encode_deleted;
use crate::error::{agree, IoError, Section};
use crate::format::{
    encode_header_v2, encode_manifest, encode_table_v2, part_file_path, FieldDesc, Manifest,
    SectionEntryV2, FLAG_DELTA, HEADER_V2_LEN, MANIFEST_FILE,
};
use crate::FIELD_TAG_PREFIX;
use pumi_core::{DirtyLog, DistMesh, Part};
use pumi_field::{DistField, Field};
use pumi_pcu::{Comm, MsgWriter};
use pumi_util::tag::TagKind;
use pumi_util::{Dim, MeshEnt};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// Statistics from a completed checkpoint write.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteStats {
    /// Bytes this rank wrote (part files only).
    pub bytes_local: u64,
    /// Bytes written across the world, including the manifest.
    pub bytes_global: u64,
    /// Part files this rank wrote.
    pub parts_written: usize,
}

/// Options for [`write_checkpoint_with`].
#[derive(Debug, Clone, Copy)]
pub struct WriteOpts {
    /// Raw bytes per chunk (clamped to ≥ 4 KiB).
    pub chunk_len: usize,
}

impl Default for WriteOpts {
    fn default() -> Self {
        WriteOpts {
            chunk_len: DEFAULT_CHUNK_LEN,
        }
    }
}

/// The entities of dimension `dim` a part file carries: every one for a
/// full snapshot (`dirty == None`), only the logged ones for a delta.
fn rows(part: &Part, dirty: Option<&DirtyLog>, dim: Dim) -> Vec<MeshEnt> {
    part.mesh
        .iter(dim)
        .filter(|&e| dirty.is_none_or(|log| log.dirty[dim.as_usize()].contains(&part.gid_of(e))))
        .collect()
}

fn encode_entities(part: &Part, dirty: Option<&DirtyLog>, w: &mut dyn SectionSink) {
    for d in 0..=part.mesh.elem_dim() {
        let ents = rows(part, dirty, Dim::from_usize(d));
        w.put_u32(ents.len() as u32);
        for e in ents {
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

/// Boundary links are global state and cheap relative to entities, so
/// deltas carry them in full too.
fn encode_remotes(part: &Part, w: &mut dyn SectionSink) {
    let shared = part.shared_entities();
    w.put_u32(shared.len() as u32);
    for (e, _) in shared {
        w.put_u8(e.dim().as_usize() as u8);
        w.put_u64(part.gid_of(e));
        w.put_u32_slice(&part.residence(e));
    }
}

fn encode_tags(part: &Part, dirty: Option<&DirtyLog>, w: &mut dyn SectionSink) {
    let tm = part.mesh.tags();
    let elem_dim = part.mesh.elem_dim();
    // Collect rows first: the declared count can exceed the live-entity
    // rows, and internal "__io:" staging tags must not persist.
    let mut per_tag = Vec::new();
    for tid in tm.tags() {
        if tm.name(tid).starts_with(FIELD_TAG_PREFIX) || tm.count(tid) == 0 {
            continue;
        }
        let mut rows_of_tag = Vec::new();
        for d in 0..=elem_dim {
            for e in rows(part, dirty, Dim::from_usize(d)) {
                if let Some(data) = tm.get(tid, e) {
                    rows_of_tag.push((d as u8, part.gid_of(e), data));
                }
            }
        }
        if !rows_of_tag.is_empty() {
            per_tag.push((tid, rows_of_tag));
        }
    }
    w.put_u32(per_tag.len() as u32);
    let mut buf = Vec::new();
    for (tid, rows_of_tag) in per_tag {
        w.put_bytes(tm.name(tid).as_bytes());
        w.put_u8(match tm.kind(tid) {
            TagKind::Int => 0,
            TagKind::Double => 1,
            TagKind::Bytes => 2,
        });
        w.put_u32(tm.len_of(tid) as u32);
        w.put_u32(rows_of_tag.len() as u32);
        for (d, gid, data) in rows_of_tag {
            w.put_u8(d);
            w.put_u64(gid);
            buf.clear();
            data.encode(&mut buf);
            w.put_bytes(&buf);
        }
    }
}

fn encode_fields(
    part: &Part,
    fields: &[&Field],
    dirty: Option<&DirtyLog>,
    w: &mut dyn SectionSink,
) {
    let elem_dim = part.mesh.elem_dim();
    w.put_u32(fields.len() as u32);
    for f in fields {
        w.put_bytes(f.name.as_bytes());
        w.put_u8(crate::format::shape_to_u8(f.shape));
        w.put_u32(f.ncomp as u32);
        let mut values = Vec::new();
        for d in f.shape.node_dims(elem_dim) {
            for e in rows(part, dirty, d) {
                if let Some(v) = f.get(e) {
                    values.push((d.as_usize() as u8, part.gid_of(e), v));
                }
            }
        }
        w.put_u32(values.len() as u32);
        for (d, gid, v) in values {
            w.put_u8(d);
            w.put_u64(gid);
            w.put_f64_slice(v);
        }
    }
}

/// Stream one part file to `path`: a full snapshot of `part` when `dirty`
/// is `None`, else a delta of the logged entities ([`FLAG_DELTA`] set, a
/// Deleted section appended). Writes a placeholder header, the chunked
/// sections (each encoder runs once, its output compressed and flushed
/// chunk by chunk), the table, then rewrites the header with the table's
/// landing spot. Returns total file bytes.
fn write_part_file(
    path: &Path,
    part: &Part,
    fields: &[&Field],
    dirty: Option<&DirtyLog>,
    chunk_len: usize,
) -> Result<u64, IoError> {
    type Encoder<'a> = Box<dyn Fn(&mut dyn SectionSink) + 'a>;
    let mut sections: Vec<(Section, Encoder<'_>)> = vec![
        (
            Section::Entities,
            Box::new(|w: &mut dyn SectionSink| encode_entities(part, dirty, w)),
        ),
        (
            Section::Remotes,
            Box::new(|w: &mut dyn SectionSink| encode_remotes(part, w)),
        ),
        (
            Section::Tags,
            Box::new(|w: &mut dyn SectionSink| encode_tags(part, dirty, w)),
        ),
        (
            Section::Fields,
            Box::new(|w: &mut dyn SectionSink| encode_fields(part, fields, dirty, w)),
        ),
    ];
    if let Some(log) = dirty {
        sections.push((
            Section::Deleted,
            Box::new(move |w: &mut dyn SectionSink| encode_deleted(log, w)),
        ));
    }

    let io_err = |source: std::io::Error| IoError::Io {
        path: path.to_path_buf(),
        source,
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut out = BufWriter::new(file);
    out.write_all(&[0u8; HEADER_V2_LEN]).map_err(io_err)?;
    let mut offset = HEADER_V2_LEN as u64;
    let mut entries = Vec::with_capacity(sections.len());
    for (section, enc) in &sections {
        let mut cw = ChunkWriter::new(&mut out, chunk_len);
        enc(&mut cw);
        let st = cw.finish_section().map_err(io_err)?;
        entries.push(SectionEntryV2 {
            section: *section,
            offset,
            disk_len: st.disk_len,
            raw_len: st.raw_len,
            nchunks: st.nchunks,
        });
        offset += st.disk_len;
    }
    let table = encode_table_v2(&entries);
    out.write_all(&table).map_err(io_err)?;
    let hdr = encode_header_v2(
        part.id,
        part.mesh.elem_dim() as u32,
        part.gid_counter(),
        if dirty.is_some() { FLAG_DELTA } else { 0 },
        offset,
        table.len() as u32,
    );
    out.seek(SeekFrom::Start(0)).map_err(io_err)?;
    out.write_all(&hdr).map_err(io_err)?;
    out.flush().map_err(io_err)?;
    Ok(offset + table.len() as u64)
}

/// Write a part file for every local part of `dm` into `dir` — full
/// snapshots, or with `delta` each part's current dirty log — and agree on
/// failures across ranks. The logs are read, not drained: the caller
/// rotates them only once the round is committed. `bytes_global` is left
/// for [`commit_manifest`] to fill in.
pub(crate) fn write_parts(
    comm: &Comm,
    dm: &DistMesh,
    fields: &[&DistField],
    dir: &Path,
    delta: bool,
    chunk_len: usize,
) -> Result<WriteStats, IoError> {
    for df in fields {
        assert_eq!(df.len(), dm.parts.len(), "field not aligned with dm.parts");
    }
    let mut stats = WriteStats::default();
    let mut local_err = std::fs::create_dir_all(dir)
        .err()
        .map(|source| IoError::Io {
            path: dir.to_path_buf(),
            source,
        });
    if local_err.is_none() {
        for (slot, part) in dm.parts.iter().enumerate() {
            let pfields: Vec<&Field> = fields.iter().map(|df| &df[slot]).collect();
            let dirty = delta.then(|| {
                part.dirty_log()
                    .expect("delta write without dirty tracking")
            });
            let path = part_file_path(dir, part.id);
            match write_part_file(&path, part, &pfields, dirty, chunk_len) {
                Ok(n) => {
                    stats.bytes_local += n;
                    stats.parts_written += 1;
                }
                Err(e) => {
                    local_err = Some(e);
                    break;
                }
            }
        }
    }
    pumi_obs::metrics::counter_add("io.write.bytes", stats.bytes_local);
    agree(comm, local_err)?;
    Ok(stats)
}

/// The commit point of a write, once every part file is down: rank 0
/// writes `manifest` (`Some` there only), every rank agrees on the outcome
/// and the world's bytes are totalled into `stats`.
pub(crate) fn commit_manifest(
    comm: &Comm,
    dir: &Path,
    manifest: Option<Manifest>,
    mut stats: WriteStats,
) -> Result<WriteStats, IoError> {
    let mut local_err = None;
    let mut manifest_bytes = 0u64;
    if let Some(m) = manifest {
        let data = encode_manifest(&m);
        let path = dir.join(MANIFEST_FILE);
        match std::fs::write(&path, &data) {
            Ok(()) => manifest_bytes = data.len() as u64,
            Err(source) => local_err = Some(IoError::Io { path, source }),
        }
    }
    agree(comm, local_err)?;
    stats.bytes_global = comm.allreduce_sum_u64(stats.bytes_local + manifest_bytes);
    Ok(stats)
}

/// Write a checkpoint of `dm` (and the given fields, each aligned with
/// `dm.parts`) into directory `dir`. Collective; every rank must call with
/// the same `dir` and field list. Returns per-rank statistics.
///
/// On failure every rank returns an error: ranks with a local failure get
/// the specific [`IoError`], the rest get [`IoError::PeerFailed`].
///
/// # Examples
///
/// A write → read roundtrip preserves the mesh bit-for-bit:
///
/// ```
/// use pumi_core::{distribute, PartMap};
/// use pumi_io::{read_checkpoint, struct_hash, write_checkpoint};
/// use pumi_util::PartId;
///
/// let dir = std::env::temp_dir().join(format!("pumi-io-doc-{}", std::process::id()));
/// pumi_pcu::execute(2, |c| {
///     let serial = pumi_meshgen::tri_rect(4, 4, 1.0, 1.0);
///     let labels = vec![0 as PartId; serial.index_space(serial.elem_dim_t())];
///     let dm = distribute(c, PartMap::contiguous(1, 2), &serial, &labels);
///     write_checkpoint(c, &dm, &[], &dir).expect("write");
///     let restored = read_checkpoint(c, &dir).expect("read");
///     assert_eq!(struct_hash(c, &dm), struct_hash(c, &restored.dm));
/// });
/// std::fs::remove_dir_all(&dir).ok();
/// ```
pub fn write_checkpoint(
    comm: &Comm,
    dm: &DistMesh,
    fields: &[&DistField],
    dir: &Path,
) -> Result<WriteStats, IoError> {
    write_checkpoint_with(comm, dm, fields, dir, &WriteOpts::default())
}

/// [`write_checkpoint`] with explicit container options (chunk size).
/// `opts` must agree across ranks.
pub fn write_checkpoint_with(
    comm: &Comm,
    dm: &DistMesh,
    fields: &[&DistField],
    dir: &Path,
    opts: &WriteOpts,
) -> Result<WriteStats, IoError> {
    let _span = pumi_obs::span!("io.write");
    let stats = write_parts(comm, dm, fields, dir, false, opts.chunk_len)?;

    // Manifest inputs: global owned counts, ghost presence, field
    // descriptors (identical on every rank by the SPMD contract).
    let mut owned = [0u64; 4];
    for p in &dm.parts {
        for (d, o) in owned.iter_mut().enumerate() {
            let dim = Dim::from_usize(d);
            *o += p
                .mesh
                .iter(dim)
                .filter(|&e| !p.is_ghost(e) && p.is_owned(e))
                .count() as u64;
        }
    }
    let owned_counts: Vec<u64> = comm.allreduce_sum_u64_vec(&owned);
    let any_ghosts = comm.allreduce_max_u64(dm.parts.iter().any(|p| p.num_ghosts() > 0) as u64) > 0;
    let elem_dim = dm.parts.first().map(|p| p.mesh.elem_dim()).unwrap_or(2);
    let elem_dim = comm.allreduce_max_u64(elem_dim as u64) as u32;

    // Gather field descriptors to rank 0: a rank may host zero parts, so
    // rank 0 takes the first non-empty descriptor list it receives.
    let mut dw = MsgWriter::new();
    let local_descs: Vec<FieldDesc> = fields
        .iter()
        .filter_map(|df| df.first())
        .map(|f| FieldDesc {
            name: f.name.clone(),
            shape: f.shape,
            ncomp: f.ncomp as u32,
        })
        .collect();
    dw.put_u32(local_descs.len() as u32);
    for d in &local_descs {
        dw.put_bytes(d.name.as_bytes());
        dw.put_u8(crate::format::shape_to_u8(d.shape));
        dw.put_u32(d.ncomp);
    }
    let gathered = comm.gather_bytes(0, dw.finish());

    let manifest = (comm.rank() == 0).then(|| {
        let mut descs = local_descs;
        if descs.is_empty() {
            for blob in gathered.unwrap_or_default() {
                let mut r = pumi_pcu::MsgReader::from_vec(blob.to_vec());
                let n = r.try_get_u32().unwrap_or(0);
                if n == 0 {
                    continue;
                }
                for _ in 0..n {
                    let (name, code, ncomp) =
                        match (r.try_get_bytes(), r.try_get_u8(), r.try_get_u32()) {
                            (Ok(n), Ok(c), Ok(k)) => (n, c, k),
                            _ => break,
                        };
                    if let (Ok(name), Some(shape)) =
                        (String::from_utf8(name), crate::format::shape_from_u8(code))
                    {
                        descs.push(FieldDesc { name, shape, ncomp });
                    }
                }
                break;
            }
        }
        Manifest {
            nparts: dm.map.nparts() as u32,
            elem_dim,
            nranks_at_write: comm.nranks() as u32,
            owned_counts: [
                owned_counts[0],
                owned_counts[1],
                owned_counts[2],
                owned_counts[3],
            ],
            has_ghosts: any_ghosts,
            fields: descs,
            delta_count: 0,
        }
    });
    commit_manifest(comm, dir, manifest, stats)
}
