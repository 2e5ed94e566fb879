//! `halo_assembly`: the solver's steady state on the AAA-proxy vessel.
//!
//! The vessel mesh (`pumi_bench::aaa_mesh`'s generator, jittered with the
//! workload seed) is partitioned node-major into 8 parts over 4 ranks on a
//! 2-node × 2-core machine, so every rank holds two parts. The overlap is
//! grown once to depth 2 through vertex bridges. Each solver step is an
//! element loop that lumps 1.0 per owned element onto its closure vertices,
//! then `FieldSync::sync(Reduction::Add)` over the whole overlap. This is
//! the one workload made of many small PCU neighbour envelopes; it has no
//! adapt, ParMA or io.

use crate::common::{cpu_now, offnode_fenced, secs, world, Iter, IterTrace, Rng, Tally};
use crate::trace;
use pumi_check::check_field_sync;
use pumi_core::overlap::{Overlap, Reduction};
use pumi_core::{distribute, DistMesh, PartMap};
use pumi_field::{dist_field, DistField, Field, FieldShape, FieldSync};
use pumi_geom::builders::VesselSpec;
use pumi_meshgen::{jitter, vessel_tet};
use pumi_partition::{partition_mesh_hier, HierOpts, PartitionQuality};
use pumi_pcu::MachineModel;
use pumi_util::{Dim, MeshEnt};
use std::time::Instant;

const NPARTS: usize = 8;
const DEPTH: usize = 2;
/// Steps run before timing starts: the first syncs pay lazy set-up (the
/// old `halo_exchange/depth1` defect), so they are charged to `setup_s`.
const WARMUP: usize = 3;

pub struct HaloAssembly {
    /// Cross-section lattice resolution and axial layers of the vessel.
    nr: usize,
    nz: usize,
    /// Timed steps per iteration.
    steps: usize,
    jitter_seed: u64,
}

fn machine() -> MachineModel {
    MachineModel::new(2, 2)
}

/// The element loop: every part lumps 1.0 from each owned (non-ghost)
/// element onto its closure vertices.
fn assemble(dm: &DistMesh, fields: &mut DistField) {
    for (slot, part) in dm.parts.iter().enumerate() {
        let f = &mut fields[slot];
        f.fill(&part.mesh, &[0.0]);
        for e in part.mesh.elems() {
            if part.is_ghost(e) {
                continue;
            }
            for &v in part.mesh.verts_of(e) {
                let v = MeshEnt::vertex(v);
                let m = f.get_scalar(v).unwrap_or(0.0);
                f.set_scalar(v, m + 1.0);
            }
        }
    }
}

impl HaloAssembly {
    pub fn new(seed: u64, tiny: bool) -> HaloAssembly {
        let (nr, nz, steps) = if tiny { (3, 12, 8) } else { (8, 60, 60) };
        HaloAssembly {
            nr,
            nz,
            steps,
            jitter_seed: Rng::new(seed).next_u64(),
        }
    }

    pub fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("elements", (6 * self.nr * self.nr * self.nz).to_string()),
            ("nr", self.nr.to_string()),
            ("nz", self.nz.to_string()),
            ("parts", NPARTS.to_string()),
            ("ranks", "4".into()),
            ("machine", "2 nodes x 2 cores".into()),
            ("overlap_depth", DEPTH.to_string()),
            ("warmup_steps", WARMUP.to_string()),
            ("steps_per_iteration", self.steps.to_string()),
        ]
    }

    pub fn iteration(&self, traced: bool) -> Iter {
        let epoch = Instant::now();
        let cpu0 = cpu_now();
        if traced {
            trace::start(epoch);
        }
        let m = machine();
        let (serial, labels) = trace::unit("setup", 0, || {
            let serial = trace::layer(None, "meshgen.generate", || {
                let mut s = vessel_tet(VesselSpec::aaa(), self.nr, self.nz);
                jitter(&mut s, 0.25, self.jitter_seed);
                s
            });
            let labels = trace::layer(None, "partition.partition", || {
                partition_mesh_hier(&serial, NPARTS, &m, HierOpts::default())
            });
            (serial, labels)
        });
        // Every owned element lumps 1.0 onto each of its 4 vertices.
        let expected_mass = 4.0 * serial.num_elems() as f64;

        let out = world(m, epoch, traced, |c| {
            let (dm, ov, mut fields, ghosts) = trace::unit("setup", 0, || {
                let mut dm = trace::layer(Some(c), "core.distribute", || {
                    distribute(c, PartMap::contiguous(NPARTS, c.nranks()), &serial, &labels)
                });
                let (ov, ghosts) = trace::layer(Some(c), "core.overlap_grow", || {
                    let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
                    let ghosts = ov.grow(c, &mut dm, DEPTH);
                    (ov, ghosts)
                });
                let mut fields = trace::layer(Some(c), "field.create", || {
                    dist_field(&dm, &Field::new("mass", FieldShape::Linear, 1))
                });
                trace::layer(Some(c), "field.warmup", || {
                    for _ in 0..WARMUP {
                        assemble(&dm, &mut fields);
                        fields.sync(c, &dm, &ov, Reduction::Add);
                    }
                });
                (dm, ov, fields, ghosts)
            });
            let off0 = offnode_fenced(c);
            let (setup_s, setup_cpu_s) = (secs(epoch), cpu_now() - cpu0);
            let (t_run, cpu_run) = (Instant::now(), cpu_now());
            let mut tally = Tally::default();
            let mut step_s = Vec::with_capacity(self.steps);
            trace::unit("run", 0, || {
                for s in 0..self.steps {
                    let t = Instant::now();
                    trace::unit("step", s as u32 + 1, || {
                        trace::layer(Some(c), "field.assemble", || assemble(&dm, &mut fields));
                        trace::layer(Some(c), "field.sync", || {
                            fields.sync(c, &dm, &ov, Reduction::Add)
                        });
                    });
                    step_s.push(secs(t));
                }
                let coherent = trace::layer(Some(c), "check.field_sync", || {
                    check_field_sync(c, &dm, &fields)
                });
                tally.op("check_field_sync", coherent);
                let mass = trace::layer(Some(c), "field.mass", || {
                    let mut local = 0.0;
                    for (slot, part) in dm.parts.iter().enumerate() {
                        for v in part.mesh.iter(Dim::Vertex) {
                            if part.is_owned(v) {
                                local += fields[slot].get_scalar(v).unwrap_or(0.0);
                            }
                        }
                    }
                    c.allreduce_sum_f64(local)
                });
                tally.check(mass == expected_mass, || {
                    format!("assembled mass {mass} != element-closure total {expected_mass}")
                });
            });
            let off1 = offnode_fenced(c);
            let mut it = Iter {
                setup_s,
                setup_cpu_s,
                wall_s: secs(t_run),
                cpu_s: cpu_now() - cpu_run,
                ops: step_s,
                offnode_bytes: off1 - off0,
                tally,
                ..Iter::default()
            };
            it.set("core.ghosts", ghosts as f64);
            it
        });
        let mut ranks = out.ranks.into_iter();
        let mut it = ranks.next().expect("rank 0");
        // A step lasts as long as its slowest rank.
        for r in ranks {
            for (a, b) in it.ops.iter_mut().zip(&r.ops) {
                *a = a.max(*b);
            }
        }
        if traced {
            let q = PartitionQuality::compute(&serial, &labels, NPARTS);
            it.set("partition.edge_cut", q.edge_cut as f64);
            let mut spans = trace::finish();
            trace::extend(&mut spans, out.spans);
            it.trace = Some(IterTrace {
                spans,
                worlds: out.report.into_iter().collect(),
            });
        }
        it
    }
}
