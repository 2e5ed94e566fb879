//! The benchmark's own tracer: one span around every call the benchmark
//! makes into a layer's public API, named `<layer>.<call>`.
//!
//! Spans live in a per-thread buffer that is off unless [`start`] armed it,
//! so an untraced run pays one thread-local check per call. A traced call
//! also enters a `pumi_obs` span of the same name, so the program's own
//! world span tree (`pumi_pcu::obs::world_report`) nests the library's
//! spans — `pcu.barrier` above all — under the benchmark's call. After the
//! call every rank of the world meets at a fence (barrier, read the traffic
//! meters, barrier): the span then lasts as long as the slowest rank took,
//! and the traffic delta belongs to this call alone.

use pumi_pcu::{Comm, TrafficReport};
use std::cell::RefCell;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or a container name (`setup`, `run`, `cycle`, ...).
    pub name: &'static str,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The cycle, step or slice this span belongs to (0 outside any unit).
    pub unit: u32,
    /// Seconds since the iteration's epoch.
    pub start: f64,
    /// Seconds since the iteration's epoch.
    pub end: f64,
    /// The slowest rank's duration of this call (set when ranks merge).
    pub slow: f64,
    /// Envelopes the world sent during the call (on- and off-node).
    pub msgs: u64,
    /// Bytes the world sent during the call.
    pub bytes: u64,
    /// Bytes the world sent over off-node links during the call.
    pub off_bytes: u64,
    /// 0 for the thread that owns the list; `k` for spans adopted from the
    /// k-th concurrent client thread.
    pub lane: u32,
}

impl Span {
    /// Duration on the recording thread's clock.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u32,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arm recording on this thread; times count from `epoch`.
pub fn start(epoch: Instant) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        })
    });
}

/// Disarm recording and return the spans recorded on this thread.
pub fn finish() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Whether this thread records.
pub fn on() -> bool {
    REC.with(|r| r.borrow().is_some())
}

fn push(name: &'static str, unit: Option<u32>) -> usize {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("recording armed");
        if let Some(u) = unit {
            r.unit = u;
        }
        let now = r.epoch.elapsed().as_secs_f64();
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            parent: r.stack.last().copied(),
            unit: r.unit,
            start: now,
            end: now,
            slow: 0.0,
            msgs: 0,
            bytes: 0,
            off_bytes: 0,
            lane: 0,
        });
        r.stack.push(idx);
        idx
    })
}

fn pop(idx: usize, before: Option<TrafficReport>, after: Option<TrafficReport>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("recording armed");
        assert_eq!(r.stack.pop(), Some(idx), "spans must close in LIFO order");
        let end = r.epoch.elapsed().as_secs_f64();
        let s = &mut r.spans[idx];
        s.end = end;
        s.slow = end - s.start;
        if let (Some(a), Some(b)) = (before, after) {
            s.msgs = b.total_msgs() - a.total_msgs();
            s.bytes = b.total_bytes() - a.total_bytes();
            s.off_bytes = b.off_node_bytes - a.off_node_bytes;
        }
    });
}

/// Read the world traffic meters at a quiesced point: the first barrier
/// waits for the slowest rank, the second keeps every rank from sending
/// before all have read.
fn fence(c: &Comm) -> TrafficReport {
    c.barrier();
    let t = c.traffic();
    c.barrier();
    t
}

/// Run `f`, one call into a layer. Collective calls pass their `Comm` and
/// every rank of the world must make the same sequence of calls.
pub fn layer<R>(c: Option<&Comm>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let before = c.map(|c| c.traffic());
    let idx = push(name, None);
    let out = {
        let _g = pumi_obs::span::enter(name);
        f()
    };
    let after = c.map(fence);
    pop(idx, before, after);
    out
}

/// Run `f` as unit `id` (a cycle, step or slice): every span inside carries
/// the id.
pub fn unit<R>(name: &'static str, id: u32, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    let prev = REC.with(|r| r.borrow().as_ref().map_or(0, |r| r.unit));
    let idx = push(name, Some(id));
    let out = f();
    pop(idx, None, None);
    REC.with(|r| {
        if let Some(r) = r.borrow_mut().as_mut() {
            r.unit = prev;
        }
    });
    out
}

/// Graft spans recorded on another thread (that shared this thread's
/// epoch) under the innermost open span, as concurrent lane `lane`.
pub fn adopt(spans: Vec<Span>, lane: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(r) = r.as_mut() else { return };
        let base = r.spans.len();
        let top = r.stack.last().copied();
        for mut s in spans {
            s.parent = s.parent.map(|p| p + base).or(top);
            s.lane = lane;
            r.spans.push(s);
        }
    });
}

/// Merge the per-rank span lists of one world. Every rank records the same
/// sequence of calls; rank 0's intervals stand for the world, and each
/// span's `slow` becomes the slowest rank's duration.
pub fn merge_ranks(mut per_rank: Vec<Vec<Span>>) -> Vec<Span> {
    let mut merged = per_rank.swap_remove(0);
    for other in &per_rank {
        assert_eq!(other.len(), merged.len(), "ranks recorded different calls");
        for (m, o) in merged.iter_mut().zip(other) {
            assert_eq!(m.name, o.name, "ranks recorded different calls");
            m.slow = m.slow.max(o.dur());
        }
    }
    merged
}

/// Append `more` (an independent list) to `all`, shifting its parent links.
pub fn extend(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of that interval
/// covered by its children that `counts` (children of a concurrent phase
/// may overlap, so the covered part is the union of their intervals).
pub fn self_times(spans: &[Span], counts: impl Fn(&Span) -> bool) -> Vec<f64> {
    let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|_| counts(s)) {
            kids[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut iv)| {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.dur() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64, lane: u32) -> Span {
        Span {
            name,
            parent,
            unit: 0,
            start,
            end,
            slow: end - start,
            msgs: 0,
            bytes: 0,
            off_bytes: 0,
            lane,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two concurrent client lanes overlap on [3, 4]; a third child
        // runs on the owning thread.
        let spans = vec![
            span("run", None, 0.0, 10.0, 0),
            span("serve.slice", Some(0), 1.0, 4.0, 1),
            span("serve.slice", Some(0), 3.0, 6.0, 2),
            span("io.read", Some(0), 8.0, 9.0, 0),
        ];
        assert_eq!(self_times(&spans, |_| true), vec![4.0, 3.0, 3.0, 1.0]);
        // Counting only the owning thread's children leaves the fan-out
        // inside the parent.
        assert_eq!(self_times(&spans, |c| c.lane == 0)[0], 9.0);
    }

    #[test]
    fn merged_spans_take_the_slowest_rank() {
        let r0 = vec![
            span("run", None, 0.0, 5.0, 0),
            span("adapt.adapt_dist", Some(0), 1.0, 2.0, 0),
        ];
        let r1 = vec![
            span("run", None, 0.0, 5.0, 0),
            span("adapt.adapt_dist", Some(0), 1.0, 4.0, 0),
        ];
        let merged = merge_ranks(vec![r0, r1]);
        assert_eq!(merged[1].slow, 3.0);
        assert_eq!(merged[1].dur(), 1.0);
    }
}
