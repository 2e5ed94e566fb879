//! `adapt_shock`: the calibrated predictive adapt loop (Fig. 13's remedy).
//!
//! A jittered 2-D `tri_rect`, 8 parts on a 2-node × 2-core machine, and a
//! moving oblique shock. Every cycle: stamp the calibrated predicted
//! weights, rebalance them with topology-aware ParMA, adapt (no internal
//! check), check every distributed invariant, feed the realized loads back
//! into the calibration, and touch up when the realized imbalance is still
//! above 10%. Adapt, check, ParMA, `core` migration and PCU collectives do
//! nearly all the work; io, serve and field sync do none.

use crate::common::{cpu_now, offnode_fenced, secs, world, Iter, IterTrace, Rng, Tally};
use crate::trace;
use parma::{improve_above, improve_weighted, EntityLoads, ImproveOpts, Priority, TopologyOpts};
use pumi_adapt::dist::{adapt_dist, gather_branch_loads, stamp_weights, AdaptOpts};
use pumi_adapt::{prediction_error_pct, Calibration, CoarsenOpts, Sample, SizeField, WEIGHT_TAG};
use pumi_check::{check_dist, CheckOpts};
use pumi_core::{distribute, PartMap};
use pumi_io::struct_hash;
use pumi_meshgen::{jitter, tri_rect};
use pumi_partition::{partition_mesh_hier, HierOpts, PartitionQuality};
use pumi_pcu::MachineModel;
use std::time::Instant;

const NPARTS: usize = 8;
/// ParMA's speculative tolerance and the touch-up threshold.
const TOL: f64 = 0.05;
const TOUCHUP_PCT: f64 = 10.0;
/// Vertex jitter (share of the cell size) and the span of shock start
/// positions the seed draws from.
const JITTER: f64 = 0.1;
const PHASE_SPAN: f64 = 0.02;
/// Inputs drawn per seed. ParMA's and adapt's paths are chaotic in their
/// input, so one input would make a run's figures a property of that
/// input; iterations cycle through several instead.
pub const INPUTS: usize = 8;

/// One input: the mesh jitter seed and where the shock starts.
struct Input {
    jitter_seed: u64,
    phase: f64,
}

pub struct AdaptShock {
    /// `tri_rect` cells per side.
    n: usize,
    cycles: usize,
    /// Mesh size inside the shock band.
    h_min: f64,
    inputs: Vec<Input>,
}

fn machine() -> MachineModel {
    MachineModel::new(2, 2)
}

impl AdaptShock {
    pub fn new(seed: u64, tiny: bool) -> AdaptShock {
        let mut rng = Rng::new(seed);
        let (n, cycles, h_min) = if tiny { (12, 2, 0.03) } else { (64, 3, 0.002) };
        let inputs = (0..INPUTS)
            .map(|_| Input {
                jitter_seed: rng.next_u64(),
                phase: PHASE_SPAN * rng.unit(),
            })
            .collect();
        AdaptShock {
            n,
            cycles,
            h_min,
            inputs,
        }
    }

    pub fn sizes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("initial_elements", (2 * self.n * self.n).to_string()),
            ("parts", NPARTS.to_string()),
            ("machine", "2 nodes x 2 cores".into()),
            ("cycles", self.cycles.to_string()),
            ("h_min", self.h_min.to_string()),
            ("inputs", INPUTS.to_string()),
            (
                "shock_phases",
                self.inputs
                    .iter()
                    .map(|i| format!("{:.6}", i.phase))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ]
    }

    /// The cycle's size field: an oblique shock front sweeping the unit
    /// square, fine inside the band and coarse elsewhere, so what one cycle
    /// refines the next one coarsens.
    fn size(&self, phase: f64, cycle: usize) -> SizeField {
        let c = 0.25 + phase + 0.18 * cycle as f64;
        SizeField::shock(move |p| p[0] + 0.4 * p[1] - c, self.h_min, 0.12, 0.03)
    }

    /// One iteration on input `input % INPUTS`.
    pub fn iteration(&self, input: usize, traced: bool) -> Iter {
        let input = &self.inputs[input % INPUTS];
        let epoch = Instant::now();
        let cpu0 = cpu_now();
        if traced {
            trace::start(epoch);
        }
        let m = machine();
        let (serial, labels) = trace::unit("setup", 0, || {
            let serial = trace::layer(None, "meshgen.generate", || {
                let mut s = tri_rect(self.n, self.n, 1.0, 1.0);
                jitter(&mut s, JITTER, input.jitter_seed);
                s
            });
            let labels = trace::layer(None, "partition.partition", || {
                partition_mesh_hier(&serial, NPARTS, &m, HierOpts::default())
            });
            (serial, labels)
        });
        let elem_d = serial.elem_dim_t();
        let pri: Priority = "Face".parse().expect("priority");
        let opts = |tol: f64| {
            ImproveOpts::new()
                .tol(tol)
                .max_iters(60)
                .topo(TopologyOpts::new(m).off_node_penalty(2.0))
        };

        let out = world(m, epoch, traced, |c| {
            let mut dm = trace::unit("setup", 0, || {
                trace::layer(Some(c), "core.distribute", || {
                    distribute(c, PartMap::contiguous(NPARTS, c.nranks()), &serial, &labels)
                })
            });
            let off0 = offnode_fenced(c);
            let (setup_s, setup_cpu_s) = (secs(epoch), cpu_now() - cpu0);
            let (t_run, cpu_run) = (Instant::now(), cpu_now());
            let mut it = Iter::default();
            let mut tally = Tally::default();
            let (mut iters, mut moved, mut gain, mut weighted_iters) = (0u64, 0u64, 0.0, 0u64);
            let (mut splits, mut collapses, mut vetoed, mut links) = (0u64, 0u64, 0u64, 0u64);
            let (mut elements, mut pred_err) = (0u64, 0.0);
            let mut cal = Calibration::new();
            let mut cycle_s = Vec::with_capacity(self.cycles);
            let (final_pct, hash) = trace::unit("run", 0, || {
                for k in 0..self.cycles {
                    let t = Instant::now();
                    trace::unit("cycle", k as u32 + 1, || {
                        let size = self.size(input.phase, k);
                        trace::layer(Some(c), "adapt.predict", || {
                            stamp_weights(&mut dm, &size, &cal)
                        });
                        let predicted = trace::layer(Some(c), "parma.loads", || {
                            EntityLoads::gather_weighted(c, &dm, WEIGHT_TAG).imbalance_pct(elem_d)
                        });
                        let report = trace::layer(Some(c), "parma.improve_weighted", || {
                            improve_weighted(c, &mut dm, &pri, opts(TOL), WEIGHT_TAG)
                        });
                        let balanced = trace::layer(Some(c), "parma.loads", || {
                            EntityLoads::gather_weighted(c, &dm, WEIGHT_TAG).imbalance_pct(elem_d)
                        });
                        tally.check(balanced <= predicted + 1e-9, || {
                            format!(
                                "cycle {}: ParMA raised the predicted imbalance \
                                 {predicted:.6}% -> {balanced:.6}%",
                                k + 1
                            )
                        });
                        let n_iter: u64 = report.types.iter().map(|t| t.iterations as u64).sum();
                        iters += n_iter;
                        weighted_iters += n_iter;
                        moved += report.elements_moved;
                        gain += predicted - balanced;
                        let branch_pred = trace::layer(Some(c), "adapt.branch_loads", || {
                            gather_branch_loads(c, &dm)
                        });
                        let stats = trace::layer(Some(c), "adapt.adapt_dist", || {
                            adapt_dist(
                                c,
                                &mut dm,
                                &size,
                                AdaptOpts::new().coarsen(CoarsenOpts::default()),
                            )
                        });
                        splits += stats.splits;
                        collapses += stats.collapses;
                        vetoed += stats.vetoed_collapses;
                        elements = stats.elements_after;
                        let checked = trace::layer(Some(c), "check.check_dist", || {
                            check_dist(c, &dm, CheckOpts::all())
                        });
                        if let Some(s) = tally.op("check_dist", checked) {
                            links += s.links;
                        }
                        let realized = trace::layer(Some(c), "parma.loads", || {
                            EntityLoads::gather(c, &dm).of(elem_d).to_vec()
                        });
                        pred_err = trace::layer(Some(c), "adapt.calibrate", || {
                            let samples: Vec<Sample> = branch_pred
                                .iter()
                                .zip(&realized)
                                .map(|(&predicted, &realized)| Sample {
                                    predicted,
                                    realized,
                                })
                                .collect();
                            cal.observe(&samples);
                            prediction_error_pct(&samples)
                        });
                        let touchup = trace::layer(Some(c), "parma.improve_above", || {
                            improve_above(c, &mut dm, &pri, opts(TOUCHUP_PCT / 100.0), TOUCHUP_PCT)
                        });
                        if let Some(r) = touchup {
                            iters += r.types.iter().map(|t| t.iterations as u64).sum::<u64>();
                            moved += r.elements_moved;
                        }
                    });
                    cycle_s.push(secs(t));
                }
                let final_pct = trace::layer(Some(c), "parma.loads", || {
                    EntityLoads::gather(c, &dm).imbalance_pct(elem_d)
                });
                let hash = trace::layer(Some(c), "io.struct_hash", || struct_hash(c, &dm));
                (final_pct, hash)
            });
            let off1 = offnode_fenced(c);
            it.wall_s = secs(t_run);
            it.cpu_s = cpu_now() - cpu_run;
            it.setup_s = setup_s;
            it.setup_cpu_s = setup_cpu_s;
            it.offnode_bytes = off1 - off0;
            it.ops = cycle_s;
            it.hash = Some(hash);
            it.tally = tally;
            it.set("final_imbalance_pct", final_pct);
            it.set("parma.iterations", iters as f64);
            it.set("parma.elements_moved", moved as f64);
            let per_iter = if weighted_iters > 0 {
                gain / weighted_iters as f64
            } else {
                0.0
            };
            it.set("parma.gain_per_iter", per_iter);
            it.set("adapt.splits", splits as f64);
            it.set("adapt.collapses", collapses as f64);
            let attempted = collapses + vetoed;
            let veto = if attempted > 0 {
                vetoed as f64 / attempted as f64
            } else {
                0.0
            };
            it.set("adapt.veto_ratio", veto);
            it.set("adapt.pred_err_pct", pred_err);
            it.set("adapt.elements", elements as f64);
            it.set("check.links", links as f64);
            it
        });
        let mut ranks = out.ranks.into_iter();
        let mut it = ranks.next().expect("rank 0");
        // A cycle lasts as long as its slowest rank.
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
