//! The traced run's span recorder and the per-layer self-time ledger.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a public layer of the program (workload → pass → job → layer call) and
//! kept in memory; [`Tracer::write`] dumps them once the run ends. A
//! span's *self time* is its duration minus the part of it that its
//! children cover. Layer spans contribute their self time to their layer;
//! the self time of the benchmark's own glue spans is `unattributed`. On
//! a serial trace (every traced pass runs on one thread) the self times
//! partition the root spans exactly, so layers plus unattributed equal the
//! traced wall time.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    parent: Option<usize>,
    layer: bool,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Rec>>,
}

/// A traced pass's tracer and the span that new spans hang under; `None`
/// on an untraced pass.
pub type Trace<'a> = Option<(&'a Tracer, SpanId)>;

/// Runs `f` inside a new span under `tr` (directly when untraced), handing
/// it the trace its own calls hang under.
pub fn span<'a, R>(
    tr: Trace<'a>,
    name: &'static str,
    layer: bool,
    f: impl FnOnce(Trace<'a>) -> R,
) -> R {
    match tr {
        Some((t, parent)) => t.scope(Some(parent), name, layer, |id| f(Some((t, id)))),
        None => f(None),
    }
}

/// Self time per layer, plus what no layer span claims.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Σ root-span durations.
    pub wall_ns: u64,
    /// Self time per layer span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self time of the glue spans.
    pub unattributed_ns: u64,
}

impl Ledger {
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// `|Σ layer self + unattributed − wall|`, ns.
    #[cfg(test)]
    fn residual_ns(&self) -> u64 {
        let total: u64 = self.self_ns.values().sum::<u64>() + self.unattributed_ns;
        total.abs_diff(self.wall_ns)
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, rec: Rec) -> SpanId {
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(rec);
        SpanId(spans.len() - 1)
    }

    /// Runs `f` inside a new span. `layer` marks a call into a program
    /// layer (its self time is attributed to `name`); glue spans are the
    /// benchmark's own bookkeeping.
    pub fn scope<R>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: bool,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = self.push(Rec {
            name,
            parent: parent.map(|p| p.0),
            layer,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer lock poisoned")[id.0].end_ns = end_ns;
        out
    }

    /// Records a layer span measured inside a closed span `parent` by the
    /// program itself (e.g. the solver's own `time_total`): it is placed
    /// at the end of `parent`, clamped to `parent`'s interval.
    pub fn attribute(&self, parent: SpanId, name: &'static str, dur_ns: u64) {
        let (start, end) = {
            let spans = self.spans.lock().expect("tracer lock poisoned");
            let p = &spans[parent.0];
            (p.start_ns, p.end_ns)
        };
        self.record(
            Some(parent),
            name,
            true,
            end.saturating_sub(dur_ns).max(start),
            end,
        );
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        layer: bool,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.push(Rec {
            name,
            parent: parent.map(|p| p.0),
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
        })
    }

    pub fn ledger(&self) -> Ledger {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        let mut out = Ledger::default();
        for s in spans.iter() {
            match s.parent {
                Some(p) => children[p].push((s.start_ns, s.end_ns)),
                None => out.wall_ns += s.end_ns - s.start_ns,
            }
        }
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered(s.start_ns, s.end_ns, kids));
            if s.layer {
                *out.self_ns.entry(s.name).or_insert(0) += own;
            } else {
                out.unattributed_ns += own;
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"layer\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, start);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_plus_unattributed_equal_the_traced_wall() {
        let t = Tracer::new();
        // workload [0,100) → pass [5,95) → two jobs with layer calls, a
        // solver time attributed inside a layer call, and glue gaps.
        let root = t.record(None, "workload", false, 0, 100);
        let pass = t.record(Some(root), "pass", false, 5, 95);
        let j1 = t.record(Some(pass), "job", false, 10, 40);
        t.record(Some(j1), "topo.route", true, 12, 20);
        let solve = t.record(Some(j1), "colgen.solve", true, 20, 38);
        t.attribute(solve, "solver.lp", 11);
        let j2 = t.record(Some(pass), "job", false, 45, 90);
        t.record(Some(j2), "planning.plan", true, 46, 80);
        t.record(Some(j2), "planning.plan", true, 80, 89);
        let l = t.ledger();
        assert_eq!(l.wall_ns, 100);
        assert_eq!(l.self_ns["topo.route"], 8);
        assert_eq!(l.self_ns["colgen.solve"], 7);
        assert_eq!(l.self_ns["solver.lp"], 11);
        assert_eq!(l.self_ns["planning.plan"], 43);
        // Glue: workload 10 + pass 15 + job1 4 + job2 2.
        assert_eq!(l.unattributed_ns, 31);
        assert_eq!(l.residual_ns(), 0);
    }

    #[test]
    fn attributed_time_is_clamped_to_its_parent() {
        let t = Tracer::new();
        let root = t.record(None, "workload", false, 0, 10);
        let call = t.record(Some(root), "colgen.solve", true, 2, 6);
        t.attribute(call, "solver.lp", 50);
        let l = t.ledger();
        assert_eq!(l.self_ns["solver.lp"], 4);
        assert_eq!(l.self_ns["colgen.solve"], 0);
        assert_eq!(l.residual_ns(), 0);
    }

    #[test]
    fn scoped_spans_close_the_ledger() {
        let t = Tracer::new();
        t.scope(None, "workload", false, |root| {
            for _ in 0..3 {
                t.scope(Some(root), "job", false, |job| {
                    t.scope(Some(job), "planning.plan", true, |_| {
                        std::hint::black_box((0..10_000u64).sum::<u64>())
                    })
                });
            }
        });
        let l = t.ledger();
        assert!(l.wall_ns > 0);
        assert_eq!(l.residual_ns(), 0);
    }
}
