//! `checkpoint_restart`: the §II checkpoint/restart path and the
//! many-reader restore service.
//!
//! A jittered 2-D mesh on 4 parts and 4 ranks carries a 3-component vertex
//! field. The run writes a v2 base checkpoint, then K rounds that each
//! touch about 1% of the vertices and write a delta; restarts collectively
//! 4→2 with `read_checkpoint_with`, replaying the base and every delta; and
//! opens a cold `CheckpointServer` that restores M = 8 slices to a closed
//! loop of `nproc` clients. io writes (compression, CRC) sit beside io
//! reads (decompression, N→M redistribution) and the serve path (per-slice
//! part rebuild and re-partition). Restart merges parts while serve splits
//! them: `core` migration and `partition` run the opposite way from
//! `adapt_shock`. No adapt, ParMA or halo sync.
//!
//! The server is opened cold on purpose: every restart in production pays
//! a cold cache, so a warm one would measure a case users never see.

use crate::common::{cpu_now, nproc, offnode_fenced, secs, world, Iter, IterTrace, Rng, Tally};
use crate::trace;
use pumi_core::{distribute, DistMesh, PartMap};
use pumi_field::{DistField, Field, FieldShape};
use pumi_io::{
    read_checkpoint_with, struct_hash, write_checkpoint_with, write_delta_checkpoint, ReadOpts,
    WriteOpts,
};
use pumi_meshgen::{jitter, tri_rect};
use pumi_partition::{partition_mesh, PartitionQuality};
use pumi_pcu::MachineModel;
use pumi_serve::CheckpointServer;
use pumi_util::Dim;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const NPARTS: usize = 4;
const RESTART_RANKS: usize = 2;
const SLICES: usize = 8;
/// One vertex in `TOUCH_STRIDE` changes per delta round.
const TOUCH_STRIDE: u64 = 100;

pub struct CheckpointRestart {
    /// `tri_rect` cells per side.
    nx: usize,
    deltas: usize,
    jitter_seed: u64,
    /// Where the iteration's checkpoints live (removed afterwards).
    dir: PathBuf,
    /// Also restore from a copy with one flipped chunk byte, whose failed
    /// operations must be counted, not abort the run.
    inject_fault: bool,
}

fn field_value(x: [f64; 3]) -> [f64; 3] {
    [x[0] + x[1], x[1] * x[2], x[2] - x[0]]
}

fn make_fields(dm: &DistMesh) -> DistField {
    dm.parts
        .iter()
        .map(|part| {
            let mut f = Field::new("state", FieldShape::Linear, 3);
            for v in part.mesh.iter(Dim::Vertex) {
                f.set(v, &field_value(part.mesh.coords(v)));
            }
            f
        })
        .collect()
}

/// Delta round `k`'s sparse update. Vertices are chosen by global id, so
/// every copy of a shared vertex changes identically.
fn touch(dm: &mut DistMesh, fields: &mut DistField, k: usize) {
    for (part, f) in dm.parts.iter_mut().zip(fields.iter_mut()) {
        let picked: Vec<_> = part
            .mesh
            .iter(Dim::Vertex)
            .filter(|&v| part.gid_of(v) % TOUCH_STRIDE == k as u64 % TOUCH_STRIDE)
            .collect();
        for v in picked {
            let mut x = part.mesh.coords(v);
            x[2] += 0.001;
            part.mesh.set_coords(v, x);
            f.set(v, &field_value(x));
            part.mark_dirty(v);
        }
    }
}

/// Bytes of every file under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy the checkpoint and flip one byte in the middle of part 0's file,
/// which lands inside a compressed chunk.
fn corrupt_copy(dir: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(dir)? {
        let e = e?;
        if e.file_type()?.is_dir() {
            corrupt_copy(&e.path(), &to.join(e.file_name()))?;
        } else {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    let part0 = pumi_io::format::part_file_path(to, 0);
    if part0.exists() {
        let mut data = std::fs::read(&part0)?;
        let mid = data.len() / 2;
        data[mid] ^= 0x5A;
        std::fs::write(&part0, data)?;
    }
    Ok(())
}

/// One slice as its client saw it: latency and its element gids.
struct Served {
    latency: f64,
    gids: Option<Vec<u64>>,
}

/// What one serve client did: `(slice, outcome, error)` per slice it
/// restored, and its spans.
type ClientOut = (Vec<(usize, Served, Option<String>)>, Vec<trace::Span>);

/// One serve client: restore the next unserved slice until none is left.
fn client(
    server: &CheckpointServer,
    next: &AtomicUsize,
    epoch: Instant,
    traced: bool,
) -> ClientOut {
    if traced {
        trace::start(epoch);
    }
    let mut done = Vec::new();
    loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= SLICES {
            break;
        }
        trace::unit("slice", k as u32 + 1, || {
            let t = Instant::now();
            let r = trace::layer(None, "serve.slice", || server.restore_slice(k, SLICES));
            let latency = secs(t);
            let (gids, err) = match r {
                Ok(slice) => {
                    let gids = trace::layer(None, "check.slice_gids", || {
                        slice
                            .parts
                            .iter()
                            .flat_map(|p| p.mesh.elems().map(|e| p.gid_of(e)))
                            .collect::<Vec<_>>()
                    });
                    (Some(gids), None)
                }
                Err(e) => (None, Some(format!("serve slice {k}: {e}"))),
            };
            done.push((k, Served { latency, gids }, err));
        });
    }
    (done, trace::finish())
}

/// Open a cold server on `dir` and restore every slice through a closed
/// loop of at most `nproc` clients: each restores the next unserved slice
/// until none is left.
fn serve(
    dir: &Path,
    epoch: Instant,
    traced: bool,
    tally: &mut Tally,
) -> Option<(Vec<Served>, pumi_serve::ServeStats)> {
    let server = trace::layer(None, "serve.open", || CheckpointServer::open(dir));
    let server = tally.op("serve open", server)?;
    let next = AtomicUsize::new(0);
    let clients = nproc().min(SLICES);
    let mut served: Vec<(usize, Served)> = Vec::with_capacity(SLICES);
    trace::layer(None, "serve.slices", || {
        let per_client: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|_| s.spawn(|| client(&server, &next, epoch, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve client panicked"))
                .collect()
        });
        for (lane, (done, spans)) in per_client.into_iter().enumerate() {
            trace::adopt(spans, lane as u32 + 1);
            for (k, s, err) in done {
                tally.op("serve slice", err.map_or(Ok(()), Err));
                served.push((k, s));
            }
        }
    });
    served.sort_by_key(|(k, _)| *k);
    Some((served.into_iter().map(|(_, s)| s).collect(), server.stats()))
}

impl CheckpointRestart {
    pub fn new(seed: u64, tiny: bool, work_dir: &Path, inject_fault: bool) -> CheckpointRestart {
        let (nx, deltas) = if tiny { (16, 2) } else { (250, 4) };
        CheckpointRestart {
            nx,
            deltas,
            jitter_seed: Rng::new(seed).next_u64(),
            dir: work_dir.join(format!("ckpt_{}", std::process::id())),
            inject_fault,
        }
    }

    pub fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("elements", (2 * self.nx * self.nx).to_string()),
            ("field", "vertex, 3 components".into()),
            ("parts", NPARTS.to_string()),
            ("write_machine", "2 nodes x 2 cores".into()),
            ("delta_rounds", self.deltas.to_string()),
            ("touched_per_round", format!("1/{TOUCH_STRIDE} of vertices")),
            (
                "restart",
                format!("{NPARTS} -> {RESTART_RANKS} ranks on 2 nodes"),
            ),
            ("slices", SLICES.to_string()),
            ("serve_clients", nproc().min(SLICES).to_string()),
        ]
    }

    pub fn iteration(&self, traced: bool) -> Iter {
        let epoch = Instant::now();
        let cpu0 = cpu_now();
        if traced {
            trace::start(epoch);
        }
        let dir = &self.dir;
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the checkpoint directory");
        let (serial, labels) = trace::unit("setup", 0, || {
            let serial = trace::layer(None, "meshgen.generate", || {
                let mut s = tri_rect(self.nx, self.nx, 1.0, 1.0);
                jitter(&mut s, 0.15, self.jitter_seed);
                s
            });
            let labels = trace::layer(None, "partition.partition", || {
                partition_mesh(&serial, NPARTS)
            });
            (serial, labels)
        });
        let elements = serial.num_elems();

        // ---- write: base + K deltas on 4 ranks ----
        let written = world(MachineModel::new(2, 2), epoch, traced, |c| {
            let (mut dm, mut fields) = trace::unit("setup", 0, || {
                let dm = trace::layer(Some(c), "core.distribute", || {
                    distribute(c, PartMap::contiguous(NPARTS, c.nranks()), &serial, &labels)
                });
                let fields = trace::layer(Some(c), "field.create", || make_fields(&dm));
                (dm, fields)
            });
            let off0 = offnode_fenced(c);
            let (setup_s, setup_cpu_s) = (secs(epoch), cpu_now() - cpu0);
            let (t_run, cpu_run) = (Instant::now(), cpu_now());
            let mut tally = Tally::default();
            let mut bytes = 0u64;
            let mut ckpt_s = 0.0;
            let hash = trace::unit("run", 0, || {
                let t = Instant::now();
                let base = trace::layer(Some(c), "io.write", || {
                    write_checkpoint_with(c, &dm, &[&fields], dir, &WriteOpts::default())
                });
                ckpt_s += secs(t);
                bytes += tally
                    .op("write_checkpoint", base)
                    .map_or(0, |s| s.bytes_global);
                trace::layer(Some(c), "core.dirty_tracking", || dm.start_dirty_tracking());
                for k in 0..self.deltas {
                    trace::unit("delta", k as u32 + 1, || {
                        trace::layer(Some(c), "core.touch", || touch(&mut dm, &mut fields, k));
                        let t = Instant::now();
                        let d = trace::layer(Some(c), "io.write_delta", || {
                            write_delta_checkpoint(c, &mut dm, &[&fields], dir)
                        });
                        ckpt_s += secs(t);
                        bytes += tally
                            .op("write_delta_checkpoint", d)
                            .map_or(0, |s| s.bytes_global);
                    });
                }
                trace::layer(Some(c), "io.struct_hash", || struct_hash(c, &dm))
            });
            let off1 = offnode_fenced(c);
            (
                (setup_s, setup_cpu_s),
                (secs(t_run), cpu_now() - cpu_run),
                ckpt_s,
                off1 - off0,
                bytes,
                hash,
                tally,
            )
        });
        let (
            (setup_s, setup_cpu_s),
            (write_s, write_cpu_s),
            ckpt_s,
            write_off,
            ckpt_bytes,
            want,
            mut tally,
        ) = written.ranks.into_iter().next().expect("rank 0");

        // ---- restart: 4 -> 2 ranks, replaying base and deltas ----
        let restart = |dir: &Path| {
            world(MachineModel::new(2, 1), epoch, traced, |c| {
                let off0 = offnode_fenced(c);
                let (t, cpu_t) = (Instant::now(), cpu_now());
                let mut tally = Tally::default();
                let (moved, hash) = trace::unit("run", 0, || {
                    let r = trace::layer(Some(c), "io.read", || {
                        read_checkpoint_with(c, dir, ReadOpts::default())
                    });
                    match tally.op("read_checkpoint", r) {
                        Some(restored) => {
                            let h = trace::layer(Some(c), "io.struct_hash", || {
                                struct_hash(c, &restored.dm)
                            });
                            (restored.stats.elements_moved, Some(h))
                        }
                        None => (0, None),
                    }
                });
                let off1 = offnode_fenced(c);
                (
                    (secs(t), cpu_now() - cpu_t),
                    off1 - off0,
                    moved,
                    hash,
                    tally,
                )
            })
        };
        let restarted = restart(dir);
        let ((restart_s, restart_cpu_s), restart_off, moved, got, t) =
            restarted.ranks.into_iter().next().expect("rank 0");
        tally.absorb(t);
        tally.check(got == Some(want), || {
            format!("restart struct_hash {got:x?} != written {want:x}")
        });

        // ---- serve: a cold server, M slices, closed loop ----
        let (t_serve, cpu_serve) = (Instant::now(), cpu_now());
        let served = trace::unit("run", 0, || serve(dir, epoch, traced, &mut tally));
        let serve_s = secs(t_serve);
        let serve_cpu_s = cpu_now() - cpu_serve;
        let mut it = Iter {
            setup_s,
            setup_cpu_s,
            wall_s: write_s + restart_s + serve_s,
            cpu_s: write_cpu_s + restart_cpu_s + serve_cpu_s,
            offnode_bytes: write_off + restart_off,
            ..Iter::default()
        };
        if let Some((slices, stats)) = &served {
            it.ops = slices.iter().map(|s| s.latency).collect();
            let mut gids: Vec<u64> = slices
                .iter()
                .flat_map(|s| s.gids.iter().flatten().copied())
                .collect();
            let total = gids.len();
            gids.sort_unstable();
            gids.dedup();
            tally.check(total == elements && gids.len() == elements, || {
                format!(
                    "slices hold {total} elements ({} distinct), mesh has {elements}",
                    gids.len()
                )
            });
            let on_disk = dir_bytes(dir);
            tally.check(stats.disk_bytes == on_disk, || {
                format!(
                    "server read {} bytes, checkpoint holds {on_disk}",
                    stats.disk_bytes
                )
            });
            let lookups = stats.chunk_hits + stats.chunk_misses;
            let hit_ratio = if lookups > 0 {
                stats.chunk_hits as f64 / lookups as f64
            } else {
                0.0
            };
            it.set("serve.chunk_hit_ratio", hit_ratio);
            it.set("serve.disk_mb", stats.disk_bytes as f64 / 1e6);
            it.set("serve.raw_mb", stats.raw_bytes as f64 / 1e6);
        }
        it.set("checkpoint_s", ckpt_s);
        it.set("checkpoint_mb", ckpt_bytes as f64 / 1e6);
        it.set("restart_s", restart_s);
        it.set("serve_s", serve_s);
        it.set("io.redistributed_elements", moved as f64);

        let mut spans = trace::finish();
        if self.inject_fault {
            // Outside the timed phases: the faulted copy must register as
            // failed operations, never abort the run.
            let bad = dir.with_extension("fault");
            let _ = std::fs::remove_dir_all(&bad);
            if tally
                .op("copy checkpoint", corrupt_copy(dir, &bad))
                .is_some()
            {
                let r = restart(&bad);
                tally.absorb(r.ranks.into_iter().next().expect("rank 0").4);
                serve(&bad, epoch, false, &mut tally);
            }
            let _ = std::fs::remove_dir_all(&bad);
        }
        let _ = std::fs::remove_dir_all(dir);
        it.tally = tally;
        if traced {
            let q = PartitionQuality::compute(&serial, &labels, NPARTS);
            it.set("partition.edge_cut", q.edge_cut as f64);
            trace::extend(&mut spans, written.spans);
            trace::extend(&mut spans, restarted.spans);
            it.trace = Some(IterTrace {
                spans,
                worlds: written.report.into_iter().chain(restarted.report).collect(),
            });
        }
        it
    }
}
