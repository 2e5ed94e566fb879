//! Corruption drills: every damaged checkpoint must surface as a typed
//! [`IoError`] naming the damaged part (and section where applicable) —
//! never a panic, and never a deadlock (peers exit with `PeerFailed`).

use pumi_core::{distribute, PartMap};
use pumi_io::chunk::{
    decode_chunk, section_raw_bytes, ChunkWriter, SectionSink, DEFAULT_CHUNK_LEN,
};
use pumi_io::format::{
    encode_header_v2, encode_table_v2, parse_part_header_v2, part_file_path, SectionEntryV2,
    HEADER_V2_LEN,
};
use pumi_io::{
    read_checkpoint, struct_hash, write_checkpoint, write_delta_checkpoint, IoError, Section,
};
use pumi_meshgen::tri_rect;
use pumi_partition::partition_mesh;
use pumi_pcu::execute;
use pumi_util::Dim;
use std::path::PathBuf;

fn write_small(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pumi_io_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serial = tri_rect(8, 6, 1.0, 1.0);
    execute(2, |c| {
        let labels = partition_mesh(&serial, 2);
        let dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        write_checkpoint(c, &dm, &[], &dir).expect("write");
    });
    dir
}

/// Read the checkpoint on 2 ranks; every rank must get an `Err`.
fn read_errors(dir: &std::path::Path) -> Vec<IoError> {
    execute(2, |c| {
        read_checkpoint(c, dir)
            .map(|_| ())
            .expect_err("corrupt checkpoint must not restore")
    })
}

/// Re-encode a part file with `edit` applied to the raw (decompressed)
/// stream of `section`: every section is recompressed into fresh,
/// correctly checksummed chunks and the table and header are resealed, so
/// only the decoders can notice the edit.
fn reseal_with(data: &[u8], part: u32, section: Section, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let h = parse_part_header_v2(part, data).expect("intact v2 header");
    let mut out = vec![0u8; HEADER_V2_LEN];
    let mut entries = Vec::new();
    for e in &h.sections {
        let mut raw = section_raw_bytes(part, data, e, |idx, hdr, p| {
            decode_chunk(part, e.section, idx, hdr, p)
        })
        .expect("intact section");
        if e.section == section {
            edit(&mut raw);
        }
        let offset = out.len() as u64;
        let mut cw = ChunkWriter::new(&mut out, DEFAULT_CHUNK_LEN);
        cw.put_raw(&raw);
        let st = cw.finish_section().expect("in-memory write");
        entries.push(SectionEntryV2 {
            section: e.section,
            offset,
            disk_len: st.disk_len,
            raw_len: st.raw_len,
            nchunks: st.nchunks,
        });
    }
    let table = encode_table_v2(&entries);
    let table_offset = out.len() as u64;
    out.extend_from_slice(&table);
    let hdr = encode_header_v2(
        part,
        h.elem_dim,
        h.gid_counter,
        h.flags,
        table_offset,
        table.len() as u32,
    );
    out[..HEADER_V2_LEN].copy_from_slice(&hdr);
    out
}

/// A byte that survives every CRC but decodes to an out-of-range enum (here
/// a topology code) must surface as a typed `Decode` error, not a panic:
/// the file is resealed after the flip so only the enum guard can catch it.
#[test]
fn flipped_enum_byte_is_typed_decode_error() {
    let dir = write_small("enum");
    let path = part_file_path(&dir, 1);
    let data = std::fs::read(&path).expect("read part file");
    // First vertex record: [n u32][gid u64][topo u8]... — set the topology
    // code to an undefined value.
    let data = reseal_with(&data, 1, Section::Entities, |raw| raw[12] = 0xFF);
    std::fs::write(&path, &data).expect("write corrupted file");

    let errs = read_errors(&dir);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::Decode {
                part: 1,
                section: Section::Entities,
                detail,
            } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected Decode(part 1, entities), got: {errs:?}"));
    assert!(
        detail.contains("topology"),
        "detail names the enum: {detail}"
    );
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Format version 1 is no longer readable: a part file that claims it is
/// a typed header error, and every rank fails the restore together.
#[test]
fn version_1_part_file_is_typed_error_on_every_rank() {
    let dir = write_small("v1");
    let path = part_file_path(&dir, 0);
    let mut data = std::fs::read(&path).expect("read part file");
    data[4..8].copy_from_slice(&1u32.to_le_bytes());
    let crc = pumi_io::crc::crc32(&data[..40]);
    data[40..44].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &data).expect("write v1-claiming file");

    let errs = read_errors(&dir);
    assert_eq!(errs.len(), 2);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::Header { part: 0, detail } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected Header(part 0), got: {errs:?}"));
    assert!(detail.contains("unsupported format version 1"), "{detail}");
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cutting the tail off a v2 part file destroys the end-of-file section
/// table; the reader must refuse at the header stage, not chase offsets.
#[test]
fn truncated_v2_tail_is_typed_header_error() {
    let dir = write_small("v2trunc");
    let path = part_file_path(&dir, 0);
    let data = std::fs::read(&path).expect("read part file");
    std::fs::write(&path, &data[..data.len() - 9]).expect("truncate");

    let errs = read_errors(&dir);
    assert!(
        errs.iter()
            .any(|e| matches!(e, IoError::Header { part: 0, .. })),
        "expected Header(part 0) for the lost table, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Locate the first chunk of a section in a v2 part file: returns the
/// absolute offset of its 12-byte chunk header.
fn first_chunk_at(data: &[u8], part: u32, section: Section) -> usize {
    let h = parse_part_header_v2(part, data).expect("intact v2 header");
    h.find(section).expect("section present").offset as usize
}

/// Flipping one bit inside a compressed chunk payload must surface as
/// `BadChunk` naming part, section, and chunk — before the decompressor
/// ever sees the damage.
#[test]
fn flipped_compressed_chunk_payload_is_bad_chunk() {
    let dir = write_small("v2flip");
    let path = part_file_path(&dir, 1);
    let mut data = std::fs::read(&path).expect("read part file");
    let at = first_chunk_at(&data, 1, Section::Entities);
    data[at + 12 + 7] ^= 0x20; // inside the stored payload
    std::fs::write(&path, &data).expect("write corrupted file");

    let errs = read_errors(&dir);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::BadChunk {
                part: 1,
                section: Section::Entities,
                chunk: 0,
                detail,
            } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected BadChunk(part 1, entities, chunk 0), got: {errs:?}"));
    assert!(detail.contains("CRC"), "detail names the check: {detail}");
    let msg = errs
        .iter()
        .find(|e| matches!(e, IoError::BadChunk { .. }))
        .expect("typed chunk error")
        .to_string();
    assert!(
        msg.contains("part 1") && msg.contains("entities") && msg.contains("chunk 0"),
        "{msg}"
    );
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged decompressed-length header passes the payload CRC (which
/// deliberately does not cover it) and must be caught by the
/// decompressed-length comparison instead.
#[test]
fn wrong_chunk_raw_len_is_bad_chunk() {
    let dir = write_small("v2rawlen");
    let path = part_file_path(&dir, 0);
    let mut data = std::fs::read(&path).expect("read part file");
    let at = first_chunk_at(&data, 0, Section::Entities);
    let raw_len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
    data[at..at + 4].copy_from_slice(&(raw_len - 3).to_le_bytes());
    std::fs::write(&path, &data).expect("write corrupted file");

    let errs = read_errors(&dir);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            IoError::BadChunk {
                part: 0,
                section: Section::Entities,
                chunk: 0,
                ..
            }
        )),
        "expected BadChunk(part 0, entities, chunk 0), got: {errs:?}"
    );
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chunk whose stored length reaches past its section's disk extent is a
/// truncated chunk; the reader must stop at the section bound with a typed
/// error instead of reading into the next section.
#[test]
fn truncated_chunk_is_bad_chunk() {
    let dir = write_small("v2chunktrunc");
    let path = part_file_path(&dir, 1);
    let mut data = std::fs::read(&path).expect("read part file");
    let at = first_chunk_at(&data, 1, Section::Tags);
    data[at + 4..at + 8].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes()); // comp_len
    std::fs::write(&path, &data).expect("write corrupted file");

    let errs = read_errors(&dir);
    let detail = errs
        .iter()
        .find_map(|e| match e {
            IoError::BadChunk {
                part: 1,
                section: Section::Tags,
                chunk: 0,
                detail,
            } => Some(detail.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("expected BadChunk(part 1, tags, chunk 0), got: {errs:?}"));
    assert!(detail.contains("truncated"), "{detail}");
    assert!(
        errs.iter().any(|e| matches!(e, IoError::PeerFailed { .. })),
        "peer should report PeerFailed, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_header_is_typed() {
    let dir = write_small("header");
    let path = part_file_path(&dir, 1);
    let mut data = std::fs::read(&path).expect("read part file");
    data[0] = b'X'; // break the magic
    std::fs::write(&path, &data).expect("write");

    let errs = read_errors(&dir);
    assert!(
        errs.iter()
            .any(|e| matches!(e, IoError::Header { part: 1, .. })),
        "expected Header(part 1), got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_header_field_is_typed() {
    let dir = write_small("hcrc");
    let path = part_file_path(&dir, 0);
    let mut data = std::fs::read(&path).expect("read part file");
    data[16] ^= 0x01; // gid counter, covered by the header CRC
    std::fs::write(&path, &data).expect("write");

    let errs = read_errors(&dir);
    assert!(
        errs.iter()
            .any(|e| matches!(e, IoError::Header { part: 0, .. })),
        "expected Header(part 0), got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_part_file_is_typed() {
    let dir = write_small("missing");
    std::fs::remove_file(part_file_path(&dir, 1)).expect("remove part file");
    let errs = read_errors(&dir);
    assert!(
        errs.iter().any(|e| matches!(e, IoError::Io { .. })),
        "expected Io for the missing file, got: {errs:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_manifest_fails_on_every_rank() {
    let dir = write_small("manifest");
    std::fs::remove_file(dir.join(pumi_io::MANIFEST_FILE)).expect("remove manifest");
    let errs = read_errors(&dir);
    assert_eq!(errs.len(), 2);
    for e in &errs {
        assert!(
            matches!(e, IoError::Manifest { .. }),
            "every rank reports Manifest, got: {e:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_manifest_body_fails_cleanly() {
    let dir = write_small("mbody");
    let path = dir.join(pumi_io::MANIFEST_FILE);
    let mut data = std::fs::read(&path).expect("read manifest");
    let n = data.len();
    data[n - 6] ^= 0x80; // inside the body, breaks the body CRC
    std::fs::write(&path, &data).expect("write");
    let errs = read_errors(&dir);
    for e in &errs {
        assert!(
            matches!(e, IoError::Manifest { .. }),
            "expected Manifest, got: {e:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delta round that fails (here: one rank cannot create its part file)
/// must keep the round's changes in the dirty logs, so the retry writes
/// them and the restore matches the live mesh.
#[test]
fn failed_delta_write_keeps_the_round_for_a_retry() {
    let dir = std::env::temp_dir().join(format!("pumi_io_fault_{}_retry", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obstruction = part_file_path(&pumi_io::format::delta_dir(&dir, 1), 1);
    let serial = tri_rect(8, 8, 1.0, 1.0);
    let live = execute(2, |c| {
        let labels = partition_mesh(&serial, 2);
        let mut dm = distribute(c, PartMap::contiguous(2, 2), &serial, &labels);
        write_checkpoint(c, &dm, &[], &dir).expect("base write");
        dm.start_dirty_tracking();
        // Every copy of a vertex moves the same way, so shared copies agree.
        for part in &mut dm.parts {
            let vs: Vec<_> = part.mesh.iter(Dim::Vertex).collect();
            for v in vs {
                let mut x = part.mesh.coords(v);
                x[2] += 0.5 * x[0] + 0.25;
                part.mesh.set_coords(v, x);
                part.mark_dirty(v);
            }
        }
        // A directory where rank 1's delta part file belongs.
        if c.rank() == 0 {
            std::fs::create_dir_all(&obstruction).expect("plant obstruction");
        }
        c.barrier();
        let err = write_delta_checkpoint(c, &mut dm, &[], &dir).expect_err("obstructed write");
        assert!(
            matches!(err, IoError::Io { .. } | IoError::PeerFailed { .. }),
            "typed failure, got {err:?}"
        );
        c.barrier();
        if c.rank() == 0 {
            std::fs::remove_dir(&obstruction).expect("remove obstruction");
        }
        c.barrier();
        write_delta_checkpoint(c, &mut dm, &[], &dir).expect("retry");
        struct_hash(c, &dm)
    });
    let restored = execute(2, |c| {
        let r = read_checkpoint(c, &dir).expect("restore");
        struct_hash(c, &r.dm)
    });
    assert_eq!(restored, live, "the retried round must carry the changes");
    let _ = std::fs::remove_dir_all(&dir);
}
