//! What every workload shares: the outcome of one iteration, the oracle
//! tally, simulated-world launch, and small statistics.

use crate::trace::{self, Span};
use pumi_obs::json::Json;
use pumi_pcu::{execute_opts, Comm, MachineModel, SchedMode, WorldOpts};
use std::fmt::Display;
use std::time::Instant;

/// Operations attempted and failed. An operation is a layer call that can
/// return `Err`, or one correctness oracle.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one oracle; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
        ok
    }

    /// Count one fallible layer call; `None` when it failed.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.notes.push(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// The traced part of one iteration.
#[derive(Default)]
pub struct IterTrace {
    /// Every span of the iteration, roots `setup` and `run`.
    pub spans: Vec<Span>,
    /// The program's own span tree of each traced world, with its width.
    pub worlds: Vec<(usize, Json)>,
}

/// What one iteration of a workload measured.
#[derive(Default)]
pub struct Iter {
    /// Generate, partition, distribute and the workload's other set-up,
    /// in wall seconds and in process CPU seconds ([`cpu_now`]).
    pub setup_s: f64,
    pub setup_cpu_s: f64,
    /// The measured phase after set-up, in wall and process CPU seconds.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Latency of each repeated operation (cycle, step or slice).
    pub ops: Vec<f64>,
    /// Bytes over simulated off-node links during the measured phase.
    pub offnode_bytes: u64,
    pub tally: Tally,
    /// Workload metrics and layer counts, by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// A structural hash that must repeat across iterations of one seed.
    pub hash: Option<u64>,
    pub trace: Option<IterTrace>,
    /// Host steal seconds over the whole iteration.
    pub steal_s: f64,
}

impl Iter {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Host parallelism: the executor's worker cap and the serve client count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The world options of every timed run: deterministic delivery, whatever
/// `PUMI_PCU_SCHED` says, and one runnable rank thread at a time. With two
/// or more runnable ranks `SenseBarrier::wait` can lose a waiter: the
/// releaser of one barrier drains the waiter list after bumping the
/// generation, and can drain a member that already registered for the next
/// barrier, which then parks forever. Under a single worker permit the
/// releaser drains before any other rank runs.
pub fn world_opts() -> WorldOpts {
    WorldOpts::default()
        .workers(1)
        .sched(SchedMode::Deterministic)
}

/// One traced world's output: rank 0's result first, then every rank's.
pub struct WorldOut<R> {
    pub ranks: Vec<R>,
    pub spans: Vec<Span>,
    pub report: Option<(usize, Json)>,
}

/// Run `f` on every rank of `machine`. When `traced`, every rank records
/// spans against `epoch`, and the world's span tree is reduced at the end.
pub fn world<R: Send>(
    machine: MachineModel,
    epoch: Instant,
    traced: bool,
    f: impl Fn(&Comm) -> R + Send + Sync,
) -> WorldOut<R> {
    let out = execute_opts(machine, world_opts(), |c| {
        if traced {
            trace::start(epoch);
        }
        let r = f(c);
        let spans = trace::finish();
        let report = if traced {
            pumi_pcu::obs::world_report(c)
        } else {
            None
        };
        (r, spans, report)
    });
    let mut ranks = Vec::with_capacity(out.len());
    let mut spans = Vec::with_capacity(out.len());
    let mut report = None;
    for (r, s, rep) in out {
        ranks.push(r);
        spans.push(s);
        report = report.or(rep);
    }
    WorldOut {
        ranks,
        spans: if traced {
            trace::merge_ranks(spans)
        } else {
            Vec::new()
        },
        report: report.map(|j| (machine.nranks(), j)),
    }
}

/// Read the world traffic meters' off-node bytes at a quiesced point.
pub fn offnode_fenced(c: &Comm) -> u64 {
    c.barrier();
    let b = c.traffic().off_node_bytes;
    c.barrier();
    b
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A seeded generator for workload inputs (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// CPU seconds this process has used so far, summed over its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
///
/// The timed metrics read this clock rather than the wall clock: on a
/// shared host the hypervisor can steal a third of a run's wall time, and
/// the scheduler does not charge stolen time to the process. With one
/// runnable rank thread at a time, a run's CPU seconds equal its wall
/// seconds on a quiet host.
pub fn cpu_now() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds the hypervisor ran something else while this host's CPUs
/// wanted to run (the `steal` column of `/proc/stat`, summed over CPUs);
/// 0 where that file is missing.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |t| t / 100.0)
}
