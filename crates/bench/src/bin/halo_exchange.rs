//! Halo-exchange timing over the star-forest overlap: nodal Add-assembly
//! across stencil depths 1–3.
//!
//! Distributes a jittered tet mesh, grows the overlap to depth k through
//! vertex bridges, and times the assembly sync — every part contributes to
//! the closure vertices of its owned elements, then `Field::sync(Add)`
//! reduces the contributions leaf→root and broadcasts the totals root→leaf
//! across the whole overlap (boundary copies and all k ghost layers).
//! Traffic is split into on-node and off-node bytes by the machine model,
//! the cost a deeper stencil actually pays on a real network. Each depth
//! runs one untimed assembly sync first, so lazy set-up (buffer pools,
//! array growth) is not charged to the first timed rep.
//!
//! Usage: `halo_exchange [--nx N] [--parts P] [--nodes N] [--reps R]`
//! Emits `results/halo_exchange.json`; `scripts/bench_snapshot.sh` folds
//! the `halo_exchange/depth{1,2,3}` medians into `BENCH_pcu.json`.

use pumi_bench::report::{f, print_table, table_to_json, write_report, Table};
use pumi_core::overlap::{Overlap, Reduction};
use pumi_core::{distribute, DistMesh, PartMap};
use pumi_field::{dist_field, DistField, Field, FieldShape, FieldSync};
use pumi_meshgen::{jitter, tet_box};
use pumi_obs::json::Json;
use pumi_obs::report::Report;
use pumi_partition::partition_mesh;
use pumi_pcu::{execute_on, MachineModel};
use pumi_util::stats::Timer;
use pumi_util::{Dim, MeshEnt};

struct DepthRun {
    depth: usize,
    median_ns: u64,
    samples: u64,
    ghosts: u64,
    on_node_bytes: u64,
    off_node_bytes: u64,
    obs: Json,
}

/// Element loop: each part lumps 1.0 from every owned element onto its
/// closure vertices; the sync then assembles the totals.
fn assemble(dm: &DistMesh, fields: &mut DistField) {
    for (slot, part) in dm.parts.iter().enumerate() {
        fields[slot].fill(&part.mesh, &[0.0]);
        for e in part.mesh.elems() {
            if part.is_ghost(e) {
                continue;
            }
            for &v in part.mesh.verts_of(e) {
                let v = MeshEnt::vertex(v);
                let m = fields[slot].get_scalar(v).unwrap_or(0.0);
                fields[slot].set_scalar(v, m + 1.0);
            }
        }
    }
}

fn median_ns(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn parse_args() -> (usize, usize, usize, usize) {
    let (mut nx, mut parts, mut nodes, mut reps) = (10usize, 8usize, 2usize, 5usize);
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < args.len() {
        let v = &args[i + 1];
        match args[i].as_str() {
            "--nx" => nx = v.parse().expect("--nx"),
            "--parts" => parts = v.parse().expect("--parts"),
            "--nodes" => nodes = v.parse().expect("--nodes"),
            "--reps" => reps = v.parse().expect("--reps"),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }
    assert!(parts % nodes == 0, "--parts must be a multiple of --nodes");
    (nx, parts, nodes, reps)
}

fn main() {
    let (nx, parts, nodes, reps) = parse_args();
    let mut serial = tet_box(nx, nx, nx, 1.0, 1.0, 1.0);
    jitter(&mut serial, 0.15, 42);
    let elements = serial.count(Dim::Region);
    let machine = MachineModel::new(nodes, parts / nodes);
    eprintln!(
        "halo_exchange: {elements} tets, {parts} parts on {nodes}x{} machine, {reps} reps",
        parts / nodes
    );
    let labels = partition_mesh(&serial, parts);

    let mut runs: Vec<DepthRun> = Vec::new();
    for depth in 1..=3usize {
        let out = execute_on(machine, |c| {
            let mut dm = distribute(c, PartMap::contiguous(parts, parts), &serial, &labels);
            let mut ov = Overlap::from_dist(&dm).with_bridge(Dim::Vertex);
            ov.grow(c, &mut dm, depth);
            let ghosts = dm.global_sum(c, |p| p.num_ghosts() as u64);

            let template = Field::new("mass", FieldShape::Linear, 1);
            let mut fields = dist_field(&dm, &template);
            let mut rep_ns = Vec::with_capacity(reps);
            // Warm-up: one untimed sync, outside the traffic window.
            assemble(&dm, &mut fields);
            fields.sync(c, &dm, &ov, Reduction::Add);
            // The meters are world-wide: no rank may send until every
            // rank has reset them.
            c.barrier();
            c.reset_traffic();
            c.barrier();
            for _ in 0..reps {
                assemble(&dm, &mut fields);
                let t = Timer::start();
                fields.sync(c, &dm, &ov, Reduction::Add);
                rep_ns.push((t.seconds() * 1e9) as u64);
            }
            c.barrier();
            let traffic = c.traffic();
            // The report below sends; read the meters on every rank first.
            c.barrier();
            let obs = pumi_pcu::obs::world_report(c);
            (
                rep_ns,
                ghosts,
                traffic.on_node_bytes,
                traffic.off_node_bytes,
                obs,
            )
        });
        // Median over reps of the slowest rank per rep.
        let per_rank: Vec<Vec<u64>> = out.iter().map(|r| r.0.clone()).collect();
        let rep_max: Vec<u64> = (0..reps)
            .map(|i| per_rank.iter().map(|v| v[i]).max().unwrap())
            .collect();
        let (_, ghosts, on, off, obs) = out.into_iter().next().unwrap();
        runs.push(DepthRun {
            depth,
            median_ns: median_ns(rep_max),
            samples: reps as u64,
            ghosts,
            on_node_bytes: on,
            off_node_bytes: off,
            obs: obs.unwrap_or(Json::Null),
        });
    }

    let mut table = Table::new(
        &format!("Halo exchange (Add-assembly), {elements} tets, {parts} parts, {nodes} nodes"),
        &[
            "depth",
            "median (ms)",
            "samples",
            "ghost copies",
            "on-node bytes",
            "off-node bytes",
        ],
    );
    for r in &runs {
        table.row(vec![
            r.depth.to_string(),
            f(r.median_ns as f64 * 1e-6, 3),
            r.samples.to_string(),
            r.ghosts.to_string(),
            r.on_node_bytes.to_string(),
            r.off_node_bytes.to_string(),
        ]);
    }
    print_table(&table);

    let mut report = Report::new("halo_exchange");
    report.section(
        "config",
        Json::obj([
            ("elements", Json::U64(elements as u64)),
            ("parts", Json::U64(parts as u64)),
            ("nodes", Json::U64(nodes as u64)),
            ("cores_per_node", Json::U64((parts / nodes) as u64)),
            ("reps", Json::U64(reps as u64)),
        ]),
    );
    report.section(
        "medians",
        Json::arr(runs.iter().map(|r| {
            Json::obj([
                (
                    "bench",
                    Json::str(format!("halo_exchange/depth{}", r.depth)),
                ),
                ("median_ns", Json::U64(r.median_ns)),
                ("samples", Json::U64(r.samples)),
            ])
        })),
    );
    report.section(
        "traffic",
        Json::arr(runs.iter().map(|r| {
            Json::obj([
                ("depth", Json::U64(r.depth as u64)),
                ("ghost_copies", Json::U64(r.ghosts)),
                ("on_node_bytes", Json::U64(r.on_node_bytes)),
                ("off_node_bytes", Json::U64(r.off_node_bytes)),
                ("obs", r.obs.clone()),
            ])
        })),
    );
    report.section("table", table_to_json(&table));
    write_report(&report);
}
