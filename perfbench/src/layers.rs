//! Per-layer metrics and the "where the time goes" table, derived from the
//! traced iterations: the benchmark's own spans for times and traffic, the
//! program's world span tree for waiting.

use crate::common::{median, Iter};
use crate::trace::{self_times, Span};
use pumi_obs::json::Json;
use std::collections::BTreeMap;

/// The per-layer metrics, in report order, with their units. Layer names
/// are crate names.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("meshgen.generate_s", "s"),
    ("partition.partition_s", "s"),
    ("partition.edge_cut", "count"),
    ("core.distribute_s", "s"),
    ("core.overlap_grow_s", "s"),
    ("core.ghosts", "count"),
    ("pcu.msgs", "count"),
    ("pcu.mb", "MB"),
    ("pcu.wait_s", "s"),
    ("pcu.wait_share", "ratio"),
    ("pcu.us_per_msg", "us"),
    ("parma.improve_s", "s"),
    ("parma.iterations", "count"),
    ("parma.elements_moved", "count"),
    ("parma.offnode_mb", "MB"),
    ("parma.gain_per_iter", "pct"),
    ("adapt.predict_s", "s"),
    ("adapt.adapt_s", "s"),
    ("adapt.splits", "count"),
    ("adapt.collapses", "count"),
    ("adapt.veto_ratio", "ratio"),
    ("adapt.pred_err_pct", "pct"),
    ("adapt.elements", "count"),
    ("check.check_s", "s"),
    ("check.links", "count"),
    ("field.assemble_s", "s"),
    ("field.sync_s", "s"),
    ("field.sync_mb", "MB"),
    ("io.write_s", "s"),
    ("io.write_delta_s", "s"),
    ("io.write_mb_per_s", "MB/s"),
    ("io.read_s", "s"),
    ("io.redistributed_elements", "count"),
    ("serve.open_s", "s"),
    ("serve.slice_s", "s"),
    ("serve.slice_max_s", "s"),
    ("serve.chunk_hit_ratio", "ratio"),
    ("serve.disk_mb", "MB"),
    ("serve.raw_mb", "MB"),
    ("obs.trace_overhead_pct", "pct"),
];

/// Leaf span names the program records while a rank waits for the others.
const WAIT_SPANS: [&str; 2] = ["pcu.barrier", "pcu.node_barrier"];

/// A container span (`setup`, `run`, `cycle`, `step`, `delta`, `slice`)
/// groups calls; a layer call is named `<layer>.<call>`.
fn is_layer(name: &str) -> bool {
    name.contains('.')
}

fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(j: Option<&Json>) -> f64 {
    match j {
        Some(Json::F64(x)) => *x,
        Some(Json::U64(x)) => *x as f64,
        Some(Json::I64(x)) => *x as f64,
        _ => 0.0,
    }
}

/// Mean-rank inclusive and waiting seconds per top-level benchmark span,
/// read from the world span trees: a path `<call>/.../pcu.barrier` is time
/// the call spent waiting at a barrier.
pub fn world_wait(worlds: &[(usize, Json)]) -> BTreeMap<String, (f64, f64)> {
    let mut out: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for (nranks, report) in worlds {
        let Some(Json::Arr(spans)) = field(report, "spans") else {
            continue;
        };
        for s in spans {
            let Some(Json::Str(path)) = field(s, "path") else {
                continue;
            };
            let secs = num(field(s, "total_seconds")) / *nranks as f64;
            let parts: Vec<&str> = path.split('/').collect();
            let top = parts[0];
            if WAIT_SPANS.contains(&top) {
                // The tracer's own fences sit outside every call.
                continue;
            }
            let e = out.entry(top.to_string()).or_default();
            if parts.len() == 1 {
                e.0 += secs;
            } else if WAIT_SPANS.contains(parts.last().expect("non-empty path")) {
                e.1 += secs;
            }
        }
    }
    out
}

/// Which root (`setup` or `run`) each span sits under.
fn roots(spans: &[Span]) -> Vec<&'static str> {
    let mut r: Vec<&'static str> = Vec::with_capacity(spans.len());
    for s in spans {
        let root = match s.parent {
            Some(p) => r[p],
            None => s.name,
        };
        r.push(root);
    }
    r
}

struct View<'a> {
    spans: &'a [Span],
    roots: Vec<&'static str>,
}

impl View<'_> {
    fn slow(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.slow)
            .collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.slow(name).iter().sum()
    }

    fn max(&self, name: &str) -> f64 {
        self.slow(name).into_iter().fold(0.0, f64::max)
    }

    /// Per unit, the summed slowest-rank time of the named calls.
    fn per_unit(&self, names: &[&str]) -> Vec<f64> {
        let mut by_unit: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *by_unit.entry(s.unit).or_default() += s.slow;
        }
        by_unit.into_values().collect()
    }

    fn run_calls(&self) -> impl Iterator<Item = &Span> + '_ {
        self.spans
            .iter()
            .zip(&self.roots)
            .filter(|(s, r)| **r == "run" && is_layer(s.name))
            .map(|(s, _)| s)
    }
}

/// The per-layer metrics of one traced iteration (without the tracing
/// overhead, which needs the untraced iterations too).
pub fn per_layer(it: &Iter) -> BTreeMap<&'static str, f64> {
    let tr = it.trace.as_ref().expect("a traced iteration");
    let v = View {
        spans: &tr.spans,
        roots: roots(&tr.spans),
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    m.insert("meshgen.generate_s", v.total("meshgen.generate"));
    m.insert("partition.partition_s", v.total("partition.partition"));
    m.insert("core.distribute_s", v.total("core.distribute"));
    m.insert("core.overlap_grow_s", v.total("core.overlap_grow"));

    let (msgs, bytes) = v
        .run_calls()
        .fold((0u64, 0u64), |(m, b), s| (m + s.msgs, b + s.bytes));
    m.insert("pcu.msgs", msgs as f64);
    m.insert("pcu.mb", bytes as f64 / 1e6);
    let run_names: Vec<&str> = v.run_calls().map(|s| s.name).collect();
    let (incl, wait) = world_wait(&tr.worlds)
        .into_iter()
        .filter(|(name, _)| run_names.contains(&name.as_str()))
        .fold((0.0, 0.0), |(i, w), (_, (ci, cw))| (i + ci, w + cw));
    m.insert("pcu.wait_s", wait);
    m.insert("pcu.wait_share", ratio(wait, incl));
    let (comm_s, comm_msgs) = v
        .run_calls()
        .filter(|s| s.msgs > 0)
        .fold((0.0, 0u64), |(t, n), s| (t + s.slow, n + s.msgs));
    m.insert("pcu.us_per_msg", 1e6 * ratio(comm_s, comm_msgs as f64));

    m.insert(
        "parma.improve_s",
        median(&v.per_unit(&["parma.improve_weighted", "parma.improve_above"])),
    );
    let parma_off: u64 = v
        .run_calls()
        .filter(|s| s.name.starts_with("parma.improve"))
        .map(|s| s.off_bytes)
        .sum();
    m.insert("parma.offnode_mb", parma_off as f64 / 1e6);
    m.insert("adapt.predict_s", median(&v.slow("adapt.predict")));
    m.insert("adapt.adapt_s", median(&v.slow("adapt.adapt_dist")));
    m.insert("check.check_s", median(&v.slow("check.check_dist")));
    m.insert("field.assemble_s", median(&v.slow("field.assemble")));
    m.insert("field.sync_s", median(&v.slow("field.sync")));
    let sync_mb: Vec<f64> = v
        .spans
        .iter()
        .filter(|s| s.name == "field.sync")
        .map(|s| s.bytes as f64 / 1e6)
        .collect();
    m.insert("field.sync_mb", median(&sync_mb));
    let write_s = v.total("io.write");
    m.insert("io.write_s", write_s);
    m.insert("io.write_delta_s", median(&v.slow("io.write_delta")));
    m.insert(
        "io.write_mb_per_s",
        ratio(
            it.value("checkpoint_mb"),
            write_s + v.total("io.write_delta"),
        ),
    );
    m.insert("io.read_s", v.total("io.read"));
    m.insert("serve.open_s", v.total("serve.open"));
    m.insert("serve.slice_s", median(&v.slow("serve.slice")));
    m.insert("serve.slice_max_s", v.max("serve.slice"));

    for name in [
        "partition.edge_cut",
        "core.ghosts",
        "parma.iterations",
        "parma.elements_moved",
        "parma.gain_per_iter",
        "adapt.splits",
        "adapt.collapses",
        "adapt.veto_ratio",
        "adapt.pred_err_pct",
        "adapt.elements",
        "check.links",
        "io.redistributed_elements",
        "serve.chunk_hit_ratio",
        "serve.disk_mb",
        "serve.raw_mb",
    ] {
        m.insert(name, it.value(name));
    }
    m
}

/// One row of the "where the time goes" table, summed over iterations.
#[derive(Default, Clone)]
pub struct Row {
    pub calls: u64,
    pub inclusive: f64,
    pub self_s: f64,
    pub wait: f64,
    pub mb: f64,
}

/// Where the time goes, summed over traced iterations.
#[derive(Default)]
pub struct Breakdown {
    /// `(phase, span name) -> row`.
    pub rows: BTreeMap<(String, String), Row>,
    /// Summed duration of each phase's root spans.
    pub phase_total: BTreeMap<String, f64>,
    /// Per phase, the part of the roots' time that some layer call covers:
    /// the self times of the calls on the recording thread, where a call
    /// that fans out to concurrent client threads keeps its whole duration.
    pub attributed: BTreeMap<String, f64>,
}

pub fn where_time_goes(iters: &[&Iter]) -> Breakdown {
    let mut b = Breakdown::default();
    for it in iters {
        let tr = it.trace.as_ref().expect("a traced iteration");
        let rts = roots(&tr.spans);
        let selfs = self_times(&tr.spans, |_| true);
        let own = self_times(&tr.spans, |c| c.lane == 0);
        for (((s, root), self_s), own_s) in tr.spans.iter().zip(&rts).zip(selfs).zip(own) {
            if s.parent.is_none() {
                *b.phase_total.entry(root.to_string()).or_default() += s.dur();
            }
            if s.lane == 0 && is_layer(s.name) {
                *b.attributed.entry(root.to_string()).or_default() += own_s;
            }
            let r = b
                .rows
                .entry((root.to_string(), s.name.to_string()))
                .or_default();
            r.calls += 1;
            r.inclusive += s.dur();
            r.self_s += self_s;
            r.mb += s.bytes as f64 / 1e6;
        }
        for (name, (_, wait)) in world_wait(&tr.worlds) {
            // A call name belongs to one phase in every workload.
            if let Some(r) = b.rows.iter_mut().find(|((_, n), _)| *n == name) {
                r.1.wait += wait;
            }
        }
    }
    b
}
