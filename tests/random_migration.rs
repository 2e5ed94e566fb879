//! Property-style stress test: arbitrary sequences of random migrations
//! must preserve every distributed invariant — the global entity counts,
//! remote-copy symmetry, owner agreement, serial validity, and gid
//! completeness. This is the migration algorithm's contract under §II-C.

use pumi_check::{check_dist, CheckOpts};
use pumi_core::{distribute, migrate, MigrationPlan, PartMap};
use pumi_meshgen::tri_rect;
use pumi_pcu::execute;
use pumi_util::{Dim, FxHashMap, PartId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_random_migrations(seed: u64, rounds: usize) {
    let serial = tri_rect(8, 8, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let nparts = 4;
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        let c = serial.centroid(e);
        let px = if c[0] < 0.5 { 0 } else { 1 };
        let py = if c[1] < 0.5 { 0 } else { 1 };
        labels[e.idx()] = (py * 2 + px) as PartId;
    }
    let counts = [
        serial.count(Dim::Vertex) as u64,
        serial.count(Dim::Edge) as u64,
        serial.count(Dim::Face) as u64,
    ];

    execute(2, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 2), &serial, &labels);
        // Each rank derives the same per-round seeds; plans are built from
        // each part's own elements, so this is deterministic but arbitrary.
        for round in 0..rounds {
            let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
            for part in &dm.parts {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (round as u64) << 8 ^ (part.id as u64) << 32);
                let mut plan = MigrationPlan::new();
                for e in part.mesh.elems() {
                    if rng.gen_bool(0.15) {
                        plan.send(e, rng.gen_range(0..nparts as PartId));
                    }
                }
                plans.insert(part.id, plan);
            }
            migrate(c, &mut dm, &plans);
            if let Err(f) = check_dist(c, &dm, CheckOpts::all()) {
                panic!("round {round}: {f}");
            }
            for p in &dm.parts {
                p.mesh.assert_valid();
            }
            for (di, &want) in counts.iter().enumerate() {
                let dd = Dim::from_usize(di);
                let owned = dm.global_sum(c, |p| {
                    p.mesh.iter(dd).filter(|&e| p.is_owned(e)).count() as u64
                });
                assert_eq!(owned, want, "round {round}: {dd} not conserved");
            }
            let elems = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
            assert_eq!(elems, counts[2], "round {round}: elements lost");
        }
    });
}

#[test]
fn random_migrations_seed_1() {
    run_random_migrations(0xDEAD_BEEF, 4);
}

#[test]
fn random_migrations_seed_2() {
    run_random_migrations(0x1234_5678, 4);
}

#[test]
fn random_migrations_seed_3() {
    run_random_migrations(42, 4);
}

/// Scatter-everything stress: every element is assigned a random part in one
/// plan — the hardest single migration (all boundaries change at once).
#[test]
fn full_scatter_migration() {
    let serial = tri_rect(6, 6, 1.0, 1.0);
    let d = serial.elem_dim_t();
    let nparts = 6;
    let mut labels = vec![0 as PartId; serial.index_space(d)];
    for e in serial.iter(d) {
        labels[e.idx()] = (e.idx() % 2) as PartId; // start on parts 0/1 only
    }
    let nelems = serial.num_elems() as u64;

    execute(3, |c| {
        let mut dm = distribute(c, PartMap::contiguous(nparts, 3), &serial, &labels);
        let mut plans: FxHashMap<PartId, MigrationPlan> = FxHashMap::default();
        for part in &dm.parts {
            let mut rng = StdRng::seed_from_u64(99 + part.id as u64);
            let mut plan = MigrationPlan::new();
            for e in part.mesh.elems() {
                plan.send(e, rng.gen_range(0..nparts as PartId));
            }
            plans.insert(part.id, plan);
        }
        migrate(c, &mut dm, &plans);
        check_dist(c, &dm, CheckOpts::all()).expect("valid distributed mesh");
        let elems = dm.global_sum(c, |p| p.mesh.num_elems() as u64);
        assert_eq!(elems, nelems);
        // All 6 parts now populated (overwhelmingly likely with 72 elements).
        let loads = dm.gather_loads(c, |p| p.mesh.num_elems() as f64);
        assert!(loads.iter().filter(|&&l| l > 0.0).count() >= 5, "{loads:?}");
    });
}
