//! perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <adapt_shock|halo_assembly|checkpoint_restart>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--inject-fault]
//! ```
//!
//! One process runs one workload: it repeats set-up and the measured phase
//! until `--seconds` are spent, checks every iteration's outputs with the
//! workload's oracles, and prints a report whose last line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` iterations
//! alternate untraced and traced, the metrics are the per-layer ones, and
//! the spans are written to `out/trace_<workload>_seed<n>.json` beside this
//! package's manifest. See README.md.

mod adapt_shock;
mod checkpoint_restart;
mod common;
mod halo_assembly;
mod layers;
mod trace;

use common::{median, nproc, quantile, Iter, Tally};
use layers::PER_LAYER;
use pumi_obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The end-to-end metrics every workload reports, with their units. The
/// two times are process CPU seconds (see [`common::cpu_now`]); the wall
/// times are printed beside them, ungated.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("offnode_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject_fault: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject_fault: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--inject-fault" {
            a.inject_fault = true;
            i += 1;
            continue;
        }
        let v = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--size" => {
                a.tiny = match v.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(format!("--size takes full or tiny, not {v:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

enum Workload {
    Adapt(adapt_shock::AdaptShock),
    Halo(halo_assembly::HaloAssembly),
    Ckpt(checkpoint_restart::CheckpointRestart),
}

impl Workload {
    fn new(a: &Args, work_dir: &Path) -> Result<Workload, String> {
        Ok(match a.workload.as_str() {
            "adapt_shock" => Workload::Adapt(adapt_shock::AdaptShock::new(a.seed, a.tiny)),
            "halo_assembly" => Workload::Halo(halo_assembly::HaloAssembly::new(a.seed, a.tiny)),
            "checkpoint_restart" => Workload::Ckpt(checkpoint_restart::CheckpointRestart::new(
                a.seed,
                a.tiny,
                work_dir,
                a.inject_fault,
            )),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Iteration on input `input`; inputs repeat with period [`Self::inputs`].
    fn iteration(&self, input: usize, traced: bool) -> Iter {
        match self {
            Workload::Adapt(w) => w.iteration(input, traced),
            Workload::Halo(w) => w.iteration(traced),
            Workload::Ckpt(w) => w.iteration(traced),
        }
    }

    /// Distinct inputs the seed draws; iterations cycle through them.
    fn inputs(&self) -> usize {
        match self {
            Workload::Adapt(_) => adapt_shock::INPUTS,
            _ => 1,
        }
    }

    fn sizes(&self) -> Vec<(&'static str, String)> {
        match self {
            Workload::Adapt(w) => w.sizes(),
            Workload::Halo(w) => w.sizes(),
            Workload::Ckpt(w) => w.sizes(),
        }
    }
}

/// The host fingerprint: two reports compare only when these agree.
fn fingerprint() -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let line_of = |text: &str, key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".to_string(), |v| v.trim().to_string())
    };
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", line_of(&read("/proc/cpuinfo"), "model name")),
        ("memory", line_of(&read("/proc/meminfo"), "MemTotal")),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("git_rev", env!("PERFBENCH_GIT_REV").to_string()),
        ("features", "obs".to_string()),
        ("worker_cap", "1".to_string()),
        ("sched", "deterministic".to_string()),
    ]
}

/// The process's peak resident set so far (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// A metric value with all its digits, as JSON.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <adapt_shock|halo_assembly|checkpoint_restart> \
                 --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--inject-fault]"
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    let workload = match Workload::new(&args, &out_dir) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    // Repeat set-up + measured phase until the budget is spent. Iterations
    // cycle through the seed's inputs; with tracing, each input runs once
    // untraced and then once traced, the untraced run being the baseline
    // for the tracing overhead.
    let start = Instant::now();
    let min_iters = if args.trace { 2 } else { 1 };
    let per_input = if args.trace { 2 } else { 1 };
    let mut iters: Vec<(usize, bool, Iter)> = Vec::new();
    let mut first_peak_rss_mb = 0.0;
    loop {
        let k = iters.len();
        let input = (k / per_input) % workload.inputs();
        let traced = args.trace && k % 2 == 1;
        let t = Instant::now();
        let steal0 = common::host_steal_s();
        let mut it = workload.iteration(input, traced);
        it.steal_s = common::host_steal_s() - steal0;
        iters.push((input, traced, it));
        if iters.len() == 1 {
            // Every later iteration builds fresh worlds whose threads leave
            // allocator arenas behind, so the process peak keeps creeping
            // up with the iteration count; the peak after one iteration is
            // the memory one run of the workload needs.
            first_peak_rss_mb = peak_rss_mb();
        }
        let last = common::secs(t);
        let spent = common::secs(start);
        if iters.len() >= min_iters && spent + last > args.seconds {
            break;
        }
    }

    // Oracle tally; the structural hash must repeat whenever an input does.
    let mut tally = Tally::default();
    let mut hashes: BTreeMap<usize, u64> = BTreeMap::new();
    for (k, (input, _, it)) in iters.iter().enumerate() {
        tally.absorb(it.tally.clone());
        let Some(h) = it.hash else { continue };
        let first = *hashes.entry(*input).or_insert(h);
        tally.check(h == first, || {
            format!("iteration {k}: struct_hash {h:016x} != {first:016x} of an earlier run of input {input}")
        });
    }

    let plain: Vec<&Iter> = iters
        .iter()
        .filter(|(_, t, _)| !t)
        .map(|(_, _, it)| it)
        .collect();
    let mut by_input: BTreeMap<(bool, usize), Vec<&Iter>> = BTreeMap::new();
    for (input, t, it) in &iters {
        by_input.entry((*t, *input)).or_default().push(it);
    }
    let traced: Vec<&Iter> = iters
        .iter()
        .filter(|(_, t, _)| *t)
        .map(|(_, _, it)| it)
        .collect();
    // The median over each input's iterations, then the mean over the
    // seed's inputs: inputs differ in cost, so a median pooled over them
    // would jump from one input to another as the iteration count changes.
    let over_inputs = |traced: bool, f: &dyn Fn(&Iter) -> f64| {
        let per: Vec<f64> = by_input
            .iter()
            .filter(|((t, _), _)| *t == traced)
            .map(|(_, its)| median(&its.iter().map(|it| f(it)).collect::<Vec<_>>()))
            .collect();
        per.iter().sum::<f64>() / per.len().max(1) as f64
    };
    let med = |f: &dyn Fn(&Iter) -> f64| over_inputs(false, f);
    let ops: Vec<f64> = plain.iter().flat_map(|it| it.ops.iter().copied()).collect();
    let cpu_s = med(&|it| it.cpu_s);
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;

    let mut e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", med(&|it| it.setup_cpu_s), "s"),
        ("cpu_s", cpu_s, "s"),
        ("offnode_mb", med(&|it| it.offnode_bytes as f64) / 1e6, "MB"),
        ("peak_rss_mb", first_peak_rss_mb, "MB"),
        ("setup_wall_s", med(&|it| it.setup_s), "s"),
        ("wall_s", med(&|it| it.wall_s), "s"),
    ];
    // The workload's own end-to-end figures, reported beside the gated ones.
    match &workload {
        Workload::Adapt(_) => {
            e2e.push(("cycle_s", median(&ops), "s"));
            e2e.push((
                "final_imbalance_pct",
                med(&|it| it.value("final_imbalance_pct")),
                "pct",
            ));
        }
        Workload::Halo(_) => {
            e2e.push(("step_s", median(&ops), "s"));
            e2e.push(("step_p95_s", quantile(&ops, 0.95), "s"));
        }
        Workload::Ckpt(_) => {
            for (name, unit) in [
                ("checkpoint_s", "s"),
                ("checkpoint_mb", "MB"),
                ("restart_s", "s"),
                ("serve_s", "s"),
            ] {
                e2e.push((name, med(&|it| it.value(name)), unit));
            }
        }
    }
    e2e.push(("failed_ratio", failed_ratio, "ratio"));

    // ---- report ----
    println!(
        "perfbench {} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.tiny { " size=tiny" } else { "" }
    );
    println!("host:");
    for (k, v) in fingerprint() {
        println!("  {k:<11} {v}");
    }
    println!("workload:");
    println!("  {:<20} {}", "seed", args.seed);
    for (k, v) in workload.sizes() {
        println!("  {k:<20} {v}");
    }
    println!(
        "iterations: {} untraced, {} traced; {} timed operations",
        plain.len(),
        traced.len(),
        ops.len()
    );
    let list = |f: &dyn Fn(&Iter) -> f64| {
        let v: Vec<String> = plain.iter().map(|it| format!("{:.4}", f(it))).collect();
        v.join(" ")
    };
    println!(
        "  setup cpu s per iteration:  {}",
        list(&|it| it.setup_cpu_s)
    );
    println!("  setup wall s per iteration: {}", list(&|it| it.setup_s));
    println!("  run cpu s per iteration:    {}", list(&|it| it.cpu_s));
    println!("  run wall s per iteration:   {}", list(&|it| it.wall_s));
    println!("  host steal s per iteration: {}", list(&|it| it.steal_s));
    if !plain.is_empty() {
        println!("end-to-end (per input the median over its untraced iterations, then the mean over inputs):");
        for (name, v, unit) in &e2e {
            println!("  {name:<20} {v:>14.6} {unit}");
        }
    }
    println!(
        "oracles: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for note in tally.notes.iter().take(10) {
        println!("  FAILED {note}");
    }
    if let Some(h) = hashes.get(&0) {
        println!("struct_hash: {h:016x}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut per: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for it in &traced {
            for (k, v) in layers::per_layer(it) {
                per.entry(k).or_default().push(v);
            }
        }
        let traced_wall = median(&traced.iter().map(|it| it.wall_s).collect::<Vec<_>>());
        let traced_cpu = over_inputs(true, &|it| it.cpu_s);
        let overhead = 100.0 * (traced_cpu / cpu_s - 1.0);
        println!("per-layer (medians over traced iterations):");
        for (name, unit) in PER_LAYER {
            let v = if name == "obs.trace_overhead_pct" {
                overhead
            } else {
                median(per.get(name).map_or(&[][..], |v| v.as_slice()))
            };
            println!("  {name:<26} {v:>14.6} {unit}");
            metrics.push((name, v, unit));
        }
        print_where(&traced, traced_wall);
        let path = out_dir.join(format!("trace_{}_seed{}.json", args.workload, args.seed));
        write_trace(&path, &args, &workload, &traced, &metrics);
        println!("trace: {}", path.display());
    } else {
        for (name, unit) in END_TO_END {
            let v = e2e
                .iter()
                .find(|m| m.0 == name)
                .expect("end-to-end metric")
                .1;
            metrics.push((name, v, unit));
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Print the "where the time goes" table: per call, seconds per traced
/// iteration inclusive and self, self as a share of the phase, waiting at
/// barriers (mean rank), and megabytes sent.
fn print_where(traced: &[&Iter], traced_wall: f64) {
    let n = traced.len().max(1) as f64;
    let b = layers::where_time_goes(traced);
    for phase in ["setup", "run"] {
        let total = b.phase_total.get(phase).copied().unwrap_or(0.0) / n;
        println!("where the time goes: {phase} ({total:.4} s per traced iteration)");
        println!(
            "  {:<26} {:>7} {:>11} {:>11} {:>7} {:>7} {:>9}",
            "span", "calls", "incl s", "self s", "self %", "wait %", "MB"
        );
        let mut sorted: Vec<(&String, &layers::Row)> = b
            .rows
            .iter()
            .filter(|((p, _), _)| p == phase)
            .map(|((_, name), r)| (name, r))
            .collect();
        sorted.sort_by(|x, y| y.1.self_s.total_cmp(&x.1.self_s));
        let share = |x: f64| {
            if total > 0.0 {
                100.0 * x / n / total
            } else {
                0.0
            }
        };
        for (name, r) in sorted {
            println!(
                "  {:<26} {:>7} {:>11.5} {:>11.5} {:>7.2} {:>7.2} {:>9.3}",
                name,
                (r.calls as f64 / n).round(),
                r.inclusive / n,
                r.self_s / n,
                share(r.self_s),
                share(r.wait),
                r.mb / n
            );
        }
        let attributed = b.attributed.get(phase).copied().unwrap_or(0.0) / n;
        println!(
            "  layer calls account for {attributed:.4} s = {:.2}% of the phase",
            share(attributed * n)
        );
    }
    println!("traced wall_s {traced_wall:.4} s (median over traced iterations)");
}

/// Write every traced iteration's spans and world span trees.
fn write_trace(
    path: &Path,
    args: &Args,
    workload: &Workload,
    traced: &[&Iter],
    metrics: &[(&str, f64, &str)],
) {
    let pairs =
        |kv: Vec<(&'static str, String)>| Json::obj(kv.into_iter().map(|(k, v)| (k, Json::str(v))));
    let iterations = traced.iter().map(|it| {
        let tr = it.trace.as_ref().expect("traced");
        Json::obj([
            ("wall_s", Json::F64(it.wall_s)),
            ("setup_s", Json::F64(it.setup_s)),
            (
                "spans",
                Json::arr(tr.spans.iter().enumerate().map(|(i, s)| {
                    Json::obj([
                        ("id", Json::U64(i as u64)),
                        ("name", Json::str(s.name)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("unit", Json::U64(s.unit as u64)),
                        ("start_s", Json::F64(s.start)),
                        ("end_s", Json::F64(s.end)),
                        ("slowest_rank_s", Json::F64(s.slow)),
                        ("msgs", Json::U64(s.msgs)),
                        ("bytes", Json::U64(s.bytes)),
                        ("offnode_bytes", Json::U64(s.off_bytes)),
                    ])
                })),
            ),
            (
                "worlds",
                Json::arr(tr.worlds.iter().map(|(n, j)| {
                    Json::obj([("ranks", Json::U64(*n as u64)), ("report", j.clone())])
                })),
            ),
        ])
    });
    let doc = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::U64(args.seed)),
        ("host", pairs(fingerprint())),
        ("sizes", pairs(workload.sizes())),
        (
            "per_layer",
            Json::obj(metrics.iter().map(|(name, v, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::F64(*v)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
        ("iterations", Json::arr(iterations)),
    ]);
    if let Err(e) = std::fs::write(path, doc.render()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
