//! `churn_service`: the always-on churn service on the drill backbone,
//! fed the seeded mixed stream (drift, resizes, cuts, repairs) through the
//! faulty transport, open loop at 16 events/s, ticking every 250 ms on
//! whatever has arrived (see [`crate::openloop`]). Warm dual simplex and
//! branch and bound on a mutating standing model.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use flexwan_core::planning::PlannerConfig;
use flexwan_core::Scheme;
use flexwan_ctrl::faults::StreamFaults;
use flexwan_ctrl::service::{
    ChurnEvent, ChurnService, EventLog, SeqEvent, ServiceConfig, TickReport, LADDER_WARM,
};
use flexwan_ctrl::{FaultInjector, FaultPlan};
use flexwan_obs::{Obs, Registry, LATENCY_SECONDS_BUCKETS};
use flexwan_solver::{SolveOptions, SolverStats};
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;

use crate::instances::{churn_stream, drill_backbone};
use crate::ledger::{span, Trace, Tracer};
use crate::openloop::{arrivals_ns, ticks, VirtualClock};
use crate::report::Outcome;
use crate::stats::{Passes, Samples};
use crate::{another_pass, Args, SetupTimes};

/// Events per pass: 60 ticks of 4, enough for the tick-cost drift over a
/// pass to show in the per-quarter tick medians.
pub const EVENTS: usize = 240;
/// At least two passes a run, so that every tick is measured at least
/// twice.
const MIN_PASSES: usize = 2;
/// Events of the untimed warm-up pass (ten ticks, four of them re-plans).
const WARMUP_EVENTS: usize = 40;
/// The fixed latency limit of the service: a run whose `event_p95_ms` exceeds it
/// fails its check.
const EVENT_P95_LIMIT_MS: f64 = 1000.0;
pub const EVENTS_PER_S: f64 = 16.0;
pub const TICK_NS: u64 = 250_000_000;
/// Keeps the transport's fault sequence apart from the stream generator's.
const TRANSPORT_SALT: u64 = 0x7a11_5eed_0ffa_1700;

struct Inputs {
    optical: Graph,
    ip: IpTopology,
    cfg: PlannerConfig,
}

/// The service configuration: unlimited tick budget (the ladder never
/// degrades on time, so the work is deterministic) and branch and bound
/// on one thread.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        solve: SolveOptions {
            threads: 1,
            ..SolveOptions::default()
        },
        ..ServiceConfig::default()
    }
}

fn service(inp: &Inputs) -> ChurnService<'_> {
    ChurnService::new(
        &inp.optical,
        &inp.ip,
        Scheme::FlexWan,
        inp.cfg.clone(),
        service_config(),
    )
    .expect("the drill backbone is feasible")
}

fn transport(seed: u64) -> FaultInjector {
    FaultInjector::new(
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
        .with_stream(StreamFaults {
            drop_prob: 0.10,
            duplicate_prob: 0.10,
            reorder_prob: 0.10,
            stale_prob: 0.05,
        }),
    )
}

/// One service tick: when it was due, how long it kept the controller
/// busy, which events it applied and what it had to do.
#[derive(Debug, Clone, PartialEq)]
struct Tick {
    at_ns: u64,
    busy_ns: u64,
    applied: std::ops::Range<usize>,
    /// Whether the tick stayed on the warm rung of the ladder.
    warm: bool,
    /// Whether the tick re-planned (a demand changed).
    plan: bool,
    /// Whether the tick re-ran restoration (cuts active and changed, or
    /// new events under active cuts) without re-planning.
    restore: bool,
}

impl Tick {
    /// The tick with its measured time taken out, for comparing passes.
    fn work(&self) -> Tick {
        Tick {
            busy_ns: 0,
            ..self.clone()
        }
    }
}

struct Pass {
    /// Events in the pass's stream.
    events: usize,
    ticks: Vec<Tick>,
    log: EventLog,
    journal: Vec<flexwan_ctrl::service::TickRecord>,
    state: String,
    warm_mutations: u64,
    rebuilds: u64,
    added_columns: u64,
    affected_gbps: u64,
    restored_gbps: u64,
    /// Mean baseline transponder count over the ticks.
    transponders: f64,
    /// The observability bundle of a traced pass.
    obs: Option<Obs>,
}

impl Pass {
    fn busy_s(&self) -> f64 {
        self.ticks.iter().map(|t| t.busy_ns).sum::<u64>() as f64 / 1e9
    }

    fn unapplied(&self) -> usize {
        self.events - self.ticks.last().map_or(0, |t| t.applied.end)
    }
}

/// What the open-loop schedule makes of a pass's ticks.
#[derive(Default)]
struct Served {
    event: Samples,
    queue_ms: f64,
    failed: u64,
}

/// Replays the virtual-time schedule over `ticks`: each event's latency
/// runs from its due time to the end of the tick that applied it; an
/// event applied off the warm rung, or never, is a failure.
fn serve(ticks: &[Tick], due: &[u64]) -> Served {
    let mut s = Served::default();
    let mut clock = VirtualClock::default();
    for t in ticks {
        let end = clock.tick(t.at_ns, t.busy_ns);
        for &d in &due[t.applied.clone()] {
            if t.warm {
                s.event.push((end - d) as f64 / 1e6);
            } else {
                s.event.push_failed();
                s.failed += 1;
            }
        }
    }
    for _ in ticks.last().map_or(0, |t| t.applied.end)..due.len() {
        s.event.push_failed();
        s.failed += 1;
    }
    s.queue_ms = clock.queue_ns as f64 / 1e6;
    s
}

/// Σ solver wall time recorded in `reg`, ns.
fn solver_ns(reg: &Registry) -> u64 {
    let h = reg.histogram_with(
        "solver_phase_seconds",
        &[("phase", "total")],
        LATENCY_SECONDS_BUCKETS,
    );
    (h.sum() * 1e9) as u64
}

/// The solver counters the service published into `reg`.
fn registry_stats(reg: &Registry) -> SolverStats {
    let phase = |p: &str| {
        let h = reg.histogram_with(
            "solver_phase_seconds",
            &[("phase", p)],
            LATENCY_SECONDS_BUCKETS,
        );
        Duration::from_secs_f64(h.sum())
    };
    let pivots = |p: &str| {
        reg.counter_with("solver_pivots_total", &[("phase", p)])
            .get()
    };
    let solves = |s: &str| {
        reg.counter_with("solver_solves_total", &[("start", s)])
            .get()
    };
    SolverStats {
        phase1_pivots: pivots("phase1"),
        phase2_pivots: pivots("phase2"),
        dual_pivots: pivots("dual"),
        refactorizations: reg.counter("solver_refactorizations_total").get(),
        cold_solves: solves("cold"),
        warm_solves: solves("warm"),
        nodes: reg.counter("solver_nodes_total").get(),
        time_phase1: phase("phase1"),
        time_phase2: phase("phase2"),
        time_dual: phase("dual"),
        time_total: phase("total"),
        ..SolverStats::default()
    }
}

/// Demand and cut set the canonical stream implies after `events`.
#[derive(Clone, PartialEq)]
struct Shadow {
    demands: Vec<u64>,
    cuts: BTreeSet<u32>,
}

impl Shadow {
    fn apply(&mut self, ev: &ChurnEvent) {
        match ev {
            ChurnEvent::FiberCut(f) => {
                self.cuts.insert(f.0);
            }
            ChurnEvent::FiberRepair(f) => {
                self.cuts.remove(&f.0);
            }
            ChurnEvent::SimultaneousCuts(fs) => self.cuts.extend(fs.iter().map(|f| f.0)),
            ChurnEvent::DemandDelta { link, demand_gbps } => {
                self.demands[link.0 as usize] = *demand_gbps
            }
            ChurnEvent::TelemetryDrift { .. } => {}
        }
    }
}

/// Serves the first `events` events of the seed's stream on a fresh
/// service.
fn pass(inp: &Inputs, seed: u64, events: usize, tr: Trace) -> Pass {
    let mut svc = service(inp);
    let obs = tr.map(|_| Obs::new());
    if let Some(o) = &obs {
        svc.set_obs(o.clone());
    }
    let mut log = EventLog::new();
    let stamped: Vec<SeqEvent> = churn_stream(events, seed)
        .into_iter()
        .map(|e| log.append(e))
        .collect();
    let faults = transport(seed ^ TRANSPORT_SALT);
    let due = arrivals_ns(events, EVENTS_PER_S);
    let mut schedule = ticks(&due, TICK_NS);
    let flush_at = schedule.last().map_or(TICK_NS, |(at, _)| at + TICK_NS);
    schedule.push((flush_at, events..events));

    let mut out_ticks = Vec::with_capacity(schedule.len());
    let mut transponders = 0usize;
    let (mut affected_gbps, mut restored_gbps, mut added_columns) = (0u64, 0u64, 0u64);
    let mut shadow = Shadow {
        demands: inp.ip.links().iter().map(|l| l.demand_gbps).collect(),
        cuts: BTreeSet::new(),
    };
    let mut applied = 0usize;
    for (at, batch) in schedule {
        let flush = batch.is_empty();
        if flush && applied == events {
            break;
        }
        let delivered = faults.perturb_stream(&stamped[batch]);
        let tick = |svc: &mut ChurnService| -> TickReport {
            if flush {
                svc.flush(&log)
            } else {
                svc.deliver(&log, &delivered)
            }
        };
        let s0 = obs.as_ref().map_or(0, |o| solver_ns(o.registry()));
        let t0 = Instant::now();
        let (rep, id) = span(tr, "service.tick", true, |tr| (tick(&mut svc), tr));
        if let (Some(o), Some((tracer, id))) = (&obs, id) {
            tracer.attribute(id, "solver.lp", solver_ns(o.registry()) - s0);
        }
        let busy_ns = t0.elapsed().as_nanos() as u64;
        transponders += svc.baseline().wavelengths.len();
        affected_gbps += rep.affected_gbps;
        restored_gbps += rep.restored_gbps;
        added_columns += rep.added_columns as u64;

        let upto = svc.journal().last().map_or(0, |r| r.upto_seq as usize);
        let before = shadow.clone();
        for e in &stamped[applied..upto] {
            shadow.apply(&e.event);
        }
        out_ticks.push(Tick {
            at_ns: at,
            busy_ns,
            applied: applied..upto,
            warm: rep.demand_level == LADDER_WARM && rep.restore_level == LADDER_WARM,
            plan: shadow.demands != before.demands,
            restore: shadow.demands == before.demands
                && !shadow.cuts.is_empty()
                && (shadow.cuts != before.cuts || upto > applied),
        });
        applied = upto;
    }
    let stats = svc.stats();
    Pass {
        events,
        transponders: transponders as f64 / out_ticks.len().max(1) as f64,
        ticks: out_ticks,
        warm_mutations: stats.warm_mutations,
        rebuilds: stats.rebuilds,
        added_columns,
        affected_gbps,
        restored_gbps,
        journal: svc.journal().to_vec(),
        state: svc.state().canonical_json(),
        log,
        obs,
    }
}

/// Replaying the journal over the log must rebuild the live state byte
/// for byte, and every event must have been applied.
fn check_pass(out: &mut Outcome, inp: &Inputs, p: &Pass) {
    out.check(p.unapplied() == 0, || {
        format!("{} events never applied", p.unapplied())
    });
    let replayed = ChurnService::replay(
        &inp.optical,
        &inp.ip,
        Scheme::FlexWan,
        inp.cfg.clone(),
        service_config(),
        &p.log,
        &p.journal,
    )
    .map(|s| s.state().canonical_json());
    out.check(replayed.as_deref() == Some(p.state.as_str()), || {
        "journal replay does not reproduce the live state".into()
    });
}

/// Median busy time of the ticks in each quarter of a pass.
fn quarter_medians(ticks: &[Tick]) -> [f64; 4] {
    let mut q: [Samples; 4] = Default::default();
    for (i, t) in ticks.iter().enumerate() {
        q[(4 * i / ticks.len().max(1)).min(3)].push(t.busy_ns as f64 / 1e6);
    }
    q.map(|s| s.quantile(0.5))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (optical, ip, cfg) = drill_backbone();
    let inp = Inputs { optical, ip, cfg };
    let setup = || {
        let (g, ip, cfg) = drill_backbone();
        let svc = ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, service_config());
        (
            svc.map(|s| s.state().canonical_json()),
            churn_stream(EVENTS, args.seed).len(),
        )
    };
    let mut setups = SetupTimes::default();
    setups.batch(setup);
    let due = arrivals_ns(EVENTS, EVENTS_PER_S);
    if args.trace {
        let base = pass(&inp, args.seed, EVENTS, None);
        check_pass(&mut out, &inp, &base);
        let tracer = Tracer::new();
        let traced = tracer.scope(None, "workload", false, |root| {
            tracer.scope(Some(root), "pass", false, |p| {
                pass(&inp, args.seed, EVENTS, Some((&tracer, p)))
            })
        });
        check_pass(&mut out, &inp, &traced);
        out.check(traced.state == base.state, || {
            "traced pass ends in another state".into()
        });
        let served = serve(&traced.ticks, &due);
        let ledger = tracer.ledger();
        out.set(
            "service.tick_ms",
            ledger.layer_ms("service.tick") + ledger.layer_ms("solver.lp"),
        );
        out.set("service.self_ms", ledger.layer_ms("service.tick"));
        out.set("service.queue_ms", served.queue_ms);
        out.set("service.warm_mutations", traced.warm_mutations as f64);
        out.set("service.rebuilds", traced.rebuilds as f64);
        out.set("service.added_columns", traced.added_columns as f64);
        let names = [
            "service.tick_p50_ms.q1",
            "service.tick_p50_ms.q2",
            "service.tick_p50_ms.q3",
            "service.tick_p50_ms.q4",
        ];
        for (name, v) in names.into_iter().zip(quarter_medians(&traced.ticks)) {
            out.set(name, v);
        }
        out.set("restore.affected_gbps", traced.affected_gbps as f64);
        out.set(
            "restore.restored_frac",
            traced.restored_gbps as f64 / traced.affected_gbps.max(1) as f64,
        );
        if let Some(obs) = &traced.obs {
            out.set_solver(&registry_stats(obs.registry()));
        }
        out.set("solver.lp_ms", ledger.layer_ms("solver.lp"));
        out.set("unattributed_ms", ledger.unattributed_ns as f64 / 1e6);
        out.set("trace.wall_ms", ledger.wall_ns as f64 / 1e6);
        out.set("trace.overhead_frac", traced.busy_s() / base.busy_s() - 1.0);
        out.attempted = EVENTS as u64;
        out.failed = served.failed;
        let path = format!("benchmark/out/spans-churn_service-seed{}.jsonl", args.seed);
        if let Err(e) = tracer.write(Path::new(&path)) {
            eprintln!("warning: could not write {path}: {e}");
        }
        return out;
    }

    // Untimed warm-up on a short prefix of the stream, so that the first
    // timed pass does not run cold.
    std::hint::black_box(pass(&inp, args.seed, WARMUP_EVENTS, None));
    // Identical passes over the seed's stream: each tick is taken at its
    // mean busy time over the passes (see `crate::stats`), and the
    // schedule is replayed over those.
    let t0 = Instant::now();
    let mut first: Option<Pass> = None;
    let mut busy_ns = Passes::default();
    // Busy times of every re-planning and every restoring tick of every
    // pass, pooled: a pass has only 24–25 of each, so the quantiles rank
    // all the samples rather than a few per-tick values.
    let (mut plan_ms, mut restore_ms) = (Samples::default(), Samples::default());
    let mut passes = 0;
    let mut last_s = 0.0;
    while another_pass(t0, args.seconds, passes, MIN_PASSES, last_s) {
        let p = pass(&inp, args.seed, EVENTS, None);
        let same = first.as_ref().map_or(true, |f| {
            f.ticks.len() == p.ticks.len()
                && f.ticks
                    .iter()
                    .zip(&p.ticks)
                    .all(|(a, b)| a.work() == b.work())
        });
        out.check(same, || format!("pass {passes} applied events differently"));
        if same {
            let mut busy = Samples::default();
            for t in &p.ticks {
                busy.push(t.busy_ns as f64);
                let ms = t.busy_ns as f64 / 1e6;
                if t.plan {
                    plan_ms.push(ms);
                }
                if t.restore {
                    restore_ms.push(ms);
                }
            }
            busy_ns.push(&busy);
        }
        out.attempted += EVENTS as u64;
        first.get_or_insert(p);
        passes += 1;
        last_s = t0.elapsed().as_secs_f64() / passes as f64;
        setups.batch(setup);
    }
    let mut mean = first.expect("at least one pass");
    check_pass(&mut out, &inp, &mean);
    for (t, ns) in mean.ticks.iter_mut().zip(busy_ns.mean().values()) {
        t.busy_ns = *ns as u64;
    }
    let served = serve(&mean.ticks, &due);
    out.failed = served.failed * out.attempted / EVENTS as u64;
    out.set("setup_s", setups.setup_s());
    out.set("wall_s", mean.busy_s());
    out.set("plan_p50_ms", plan_ms.quantile(0.5));
    out.set("plan_p90_ms", plan_ms.quantile(0.9));
    out.set("restore_p50_ms", restore_ms.quantile(0.5));
    out.set("restore_p90_ms", restore_ms.quantile(0.9));
    out.set("event_p50_ms", served.event.quantile(0.5));
    let p95 = served.event.quantile(0.95);
    out.check(p95 <= EVENT_P95_LIMIT_MS, || {
        format!("event_p95_ms {p95:.3} exceeds the {EVENT_P95_LIMIT_MS} ms limit")
    });
    out.set("event_p95_ms", p95);
    out.set("transponders", mean.transponders);
    let q = quarter_medians(&mean.ticks);
    eprintln!(
        "tick p50 by quarter (ms): {:.3} {:.3} {:.3} {:.3}",
        q[0], q[1], q[2], q[3]
    );
    out
}
