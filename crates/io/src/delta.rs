//! Delta checkpoints: persist only what changed since the last snapshot.
//!
//! After a full checkpoint, each part can keep a [`pumi_core::DirtyLog`]
//! of mutations (adapt rounds, migrations, field updates).
//! [`write_delta_checkpoint`] writes the current logs into
//! `delta_<k:04>/part_*.pmb` with the same codec and write driver as a
//! full snapshot ([`crate::write`]): the section encoders keep only the
//! logged entities, the header sets
//! [`FLAG_DELTA`](crate::format::FLAG_DELTA), and a Deleted section
//! of per-dimension gid lists is appended. The Remotes section stays full
//! (boundary links are global state and cheap relative to entities).
//!
//! The manifest's `delta_count` is bumped last — it is the commit point —
//! and the logs are rotated only once that write has succeeded on every
//! rank. A failed round therefore leaves the previous restore point on
//! disk *and* the round's changes in the logs, so a retry writes them.
//!
//! Restore runs the one part loader ([`crate::read`]) over the base and
//! then each round in order, per part, before the N→M stitching: the
//! round's deletions first (high dimension to low), then the same entity,
//! tag and field decoders as the base, which update existing gids in
//! place because the file is flagged as a delta. A checkpoint with deltas
//! thus restores onto any rank count exactly like a fresh full snapshot.

use crate::chunk::SectionSink;
use crate::error::{IoError, Section};
use crate::format::{delta_dir, MANIFEST_FILE};
use crate::read::{derr, manifest_bcast};
use crate::write::{commit_manifest, write_parts, WriteStats};
use pumi_core::{DirtyLog, DistMesh, Part};
use pumi_field::DistField;
use pumi_pcu::{Comm, MsgReader};
use pumi_util::{Dim, FxHashMap, GlobalId, PartId};
use std::path::Path;

/// The Deleted section: one sorted gid list per dimension.
pub(crate) fn encode_deleted(log: &DirtyLog, w: &mut dyn SectionSink) {
    for d in 0..4 {
        let mut gids: Vec<GlobalId> = log.deleted[d].iter().copied().collect();
        gids.sort_unstable();
        w.put_u64_slice(&gids);
    }
}

/// Apply a Deleted section, elements down to vertices. Deleted entities
/// also lose their ghost provenance in `ghosts`.
pub(crate) fn apply_deletions(
    fpart: PartId,
    part: &mut Part,
    payload: Vec<u8>,
    ghosts: &mut FxHashMap<(Dim, GlobalId), PartId>,
) -> Result<(), IoError> {
    let e = derr(fpart, Section::Deleted);
    let mut r = MsgReader::from_vec(payload);
    let mut deleted: [Vec<GlobalId>; 4] = Default::default();
    for slot in &mut deleted {
        *slot = r.try_get_u64_slice().map_err(&e)?;
    }
    for d in (0..4).rev() {
        let dim = Dim::from_usize(d);
        for &gid in &deleted[d] {
            ghosts.remove(&(dim, gid));
            if let Some(ent) = part.find_gid(dim, gid) {
                part.delete_entity(ent);
            }
        }
    }
    Ok(())
}

/// Append one delta round to the checkpoint at `dir` from every local
/// part's [`DirtyLog`], then start each part on a fresh log. Collective;
/// the partition must match the base snapshot (same part ids), and
/// `dm.start_dirty_tracking()` must have been called after the base write.
/// On failure every rank returns an error together, the manifest's delta
/// count is left unchanged (the checkpoint still restores to the previous
/// round), and the logs keep the round's changes for a retry.
pub fn write_delta_checkpoint(
    comm: &Comm,
    dm: &mut DistMesh,
    fields: &[&DistField],
    dir: &Path,
) -> Result<WriteStats, IoError> {
    let _span = pumi_obs::span!("io.write_delta");
    for p in &dm.parts {
        assert!(
            p.is_tracking_dirty(),
            "part {}: delta checkpoint without dirty tracking (call start_dirty_tracking after the base write)",
            p.id
        );
    }
    let mut manifest = manifest_bcast(comm, dir)?;
    // Every rank holds the same manifest and part map, so all refuse
    // together without another collective.
    if manifest.nparts as usize != dm.map.nparts() {
        return Err(IoError::Manifest {
            path: dir.join(MANIFEST_FILE),
            detail: format!(
                "partition changed since the base snapshot ({} parts now, {} in the file); write a fresh full checkpoint",
                dm.map.nparts(),
                manifest.nparts
            ),
        });
    }
    manifest.delta_count += 1;
    let ddir = delta_dir(dir, manifest.delta_count);
    let stats = write_parts(
        comm,
        dm,
        fields,
        &ddir,
        true,
        crate::chunk::DEFAULT_CHUNK_LEN,
    )?;
    let stats = commit_manifest(comm, dir, (comm.rank() == 0).then_some(manifest), stats)?;
    for p in &mut dm.parts {
        p.rotate_dirty_log();
    }
    Ok(stats)
}
