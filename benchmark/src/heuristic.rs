//! `heuristic_sweep`: the Fig. 12/13 planning sweep and the Fig. 15/16
//! conduit-cut restoration sweep on both paper topologies, then the
//! continental instance planned sharded and monolithic. Route enumeration,
//! format DP, spectrum assignment and heuristic restoration on the worker
//! pool; the solver never runs.

use std::collections::{BTreeSet, HashSet};
use std::path::Path;
use std::time::Instant;

use flexwan_core::planning::{plan_cached, solve_sharded, Plan, PlannerConfig, ShardConfig};
use flexwan_core::restore::{conduit_cut_scenarios, restore_cached, FailureScenario};
use flexwan_core::Scheme;
use flexwan_topo::cache::RouteCache;
use flexwan_topo::continental::Continental;
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::tbackbone::Backbone;
use flexwan_util::pool;

use crate::instances::{cernet, continental_config, continental_instance, paper_config, tbackbone};
use crate::ledger::{span, Trace, Tracer};
use crate::report::Outcome;
use crate::stats::{Passes, Samples};
use crate::{another_pass, nproc, Args, SetupTimes};

const MAX_SCALE: u64 = 6;
const RESTORE_SCALES: [u64; 2] = [1, 5];
/// At least three passes, so that each of a pass's 38 planning operations
/// is reported at its median of three or more.
const MIN_PASSES: usize = 3;

struct Topology {
    backbone: Backbone,
    scenarios: Vec<FailureScenario>,
    /// Demand set at scale `s`, at index `s − 1`.
    scaled: Vec<IpTopology>,
}

struct Inputs {
    topologies: Vec<Topology>,
    continental: Continental,
    cfg: PlannerConfig,
    continental_cfg: PlannerConfig,
}

fn setup(seed: u64) -> Inputs {
    let topologies = [tbackbone(), cernet()]
        .into_iter()
        .map(|backbone| Topology {
            scenarios: conduit_cut_scenarios(&backbone.optical),
            scaled: (1..=MAX_SCALE).map(|s| backbone.ip.scaled(s)).collect(),
            backbone,
        })
        .collect();
    Inputs {
        topologies,
        continental: continental_instance(seed),
        cfg: paper_config(),
        continental_cfg: continental_config(),
    }
}

/// Everything a pass computed; equal across passes and thread counts.
#[derive(Debug, Clone, PartialEq)]
struct Results {
    signature: Vec<u64>,
    transponders: u64,
    spectrum_ghz: f64,
    unmet_gbps: u64,
    affected_gbps: u64,
    restored_gbps: u64,
    boundary_demands: u64,
    coordination_rounds: u64,
}

#[derive(Default)]
struct Timings {
    wall_s: f64,
    plan: Samples,
    restore: Samples,
    /// Completion time of each op since the pass started.
    event: Samples,
    /// Σ job time and Σ stage wall of the pooled stages, ms.
    job_ms: f64,
    stage_ms: f64,
    cache_entries: u64,
    cache_misses: u64,
    /// Route-cache misses inside timed planner calls of a traced pass.
    timed_misses: u64,
}

/// Looks up exactly the keys `plan_cached` will ask for.
fn prefill_plan(cache: &RouteCache, optical: &Graph, ip: &IpTopology, k: usize) {
    let none = HashSet::new();
    for l in ip.links() {
        cache.routes(optical, l.src, l.dst, k, &none);
    }
}

/// Looks up exactly the keys `restore_cached` will ask for: one per link
/// that loses a wavelength to the cut.
fn prefill_restore(
    cache: &RouteCache,
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    k: usize,
    banned: &HashSet<EdgeId>,
) {
    let hit: BTreeSet<IpLinkId> = plan
        .wavelengths
        .iter()
        .filter(|w| w.path.edges.iter().any(|e| banned.contains(e)))
        .map(|w| w.link)
        .collect();
    for id in hit {
        let l = ip.link(id);
        cache.routes(optical, l.src, l.dst, k, banned);
    }
}

struct Timed<T> {
    value: T,
    ms: f64,
    done_ms: f64,
    misses: u64,
}

/// Times one planner call, and its completion since the pass started;
/// counts the cache misses it made (meaningful only on a serial pass).
fn timed<T>(start: Instant, cache: &RouteCache, f: impl FnOnce() -> T) -> Timed<T> {
    let m0 = cache.misses();
    let t0 = Instant::now();
    let value = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Timed {
        value,
        ms,
        done_ms: start.elapsed().as_secs_f64() * 1e3,
        misses: cache.misses() - m0,
    }
}

fn pass(inp: &Inputs, threads: usize, tr: Trace) -> (Results, Timings) {
    let t_pass = Instant::now();
    let mut r = Results {
        signature: Vec::new(),
        transponders: 0,
        spectrum_ghz: 0.0,
        unmet_gbps: 0,
        affected_gbps: 0,
        restored_gbps: 0,
        boundary_demands: 0,
        coordination_rounds: 0,
    };
    let mut t = Timings::default();
    let tracing = tr.is_some();
    let k = inp.cfg.k_paths;

    // Stage 1: every scheme at every scale, one cold cache per topology,
    // the scales fanned out over the pool.
    let caches: Vec<RouteCache> = inp.topologies.iter().map(|_| RouteCache::new()).collect();
    let jobs: Vec<(usize, u64)> = (0..inp.topologies.len())
        .flat_map(|ti| (1..=MAX_SCALE).map(move |s| (ti, s)))
        .collect();
    let stage = Instant::now();
    let planned = pool::par_map(&jobs, threads, |&(ti, s)| {
        let t_job = Instant::now();
        let topo = &inp.topologies[ti];
        let (optical, ip, cache) = (
            &topo.backbone.optical,
            &topo.scaled[s as usize - 1],
            &caches[ti],
        );
        let plans: Vec<Timed<Plan>> = span(tr, "job", false, |tr| {
            if tracing {
                span(tr, "topo.route", true, |_| {
                    prefill_plan(cache, optical, ip, k)
                });
            }
            Scheme::ALL
                .iter()
                .map(|&scheme| {
                    timed(t_pass, cache, || {
                        span(tr, "planning.plan", true, |_| {
                            plan_cached(scheme, optical, ip, &inp.cfg, cache)
                        })
                    })
                })
                .collect()
        });
        (plans, t_job.elapsed().as_secs_f64() * 1e3)
    });
    t.stage_ms += stage.elapsed().as_secs_f64() * 1e3;
    for (plans, job_ms) in &planned {
        t.job_ms += job_ms;
        for p in plans {
            t.plan.push(p.ms);
            t.event.push(p.done_ms);
            t.timed_misses += p.misses;
            let plan = &p.value;
            r.transponders += plan.transponder_count() as u64;
            r.spectrum_ghz += plan.spectrum_usage_ghz();
            r.unmet_gbps += plan.unmet_gbps();
            r.signature.extend([
                plan.transponder_count() as u64,
                plan.spectrum_usage_ghz().to_bits(),
                plan.unmet_gbps(),
            ]);
        }
    }

    // Stage 2: every conduit cut against every scheme's plan at scales 1
    // and 5, sharing the topology's cache.
    let rjobs: Vec<(usize, usize, u64, usize)> = (0..inp.topologies.len())
        .flat_map(|ti| {
            let n = inp.topologies[ti].scenarios.len();
            (0..Scheme::ALL.len()).flat_map(move |si| {
                RESTORE_SCALES
                    .into_iter()
                    .flat_map(move |s| (0..n).map(move |ci| (ti, si, s, ci)))
            })
        })
        .collect();
    let stage = Instant::now();
    let restored = pool::par_map(&rjobs, threads, |&(ti, si, s, ci)| {
        let t_job = Instant::now();
        let topo = &inp.topologies[ti];
        let (optical, ip, cache) = (
            &topo.backbone.optical,
            &topo.scaled[s as usize - 1],
            &caches[ti],
        );
        let plan = &planned[ti * MAX_SCALE as usize + s as usize - 1].0[si].value;
        let scenario = &topo.scenarios[ci];
        let out = span(tr, "job", false, |tr| {
            if tracing {
                let banned = scenario.banned();
                span(tr, "topo.route", true, |_| {
                    prefill_restore(cache, plan, optical, ip, k, &banned)
                });
            }
            timed(t_pass, cache, || {
                span(tr, "restore.heuristic", true, |_| {
                    restore_cached(plan, optical, ip, scenario, &[], &inp.cfg, cache)
                })
            })
        });
        (out, t_job.elapsed().as_secs_f64() * 1e3)
    });
    t.stage_ms += stage.elapsed().as_secs_f64() * 1e3;
    for (res, job_ms) in &restored {
        t.job_ms += job_ms;
        t.restore.push(res.ms);
        t.event.push(res.done_ms);
        t.timed_misses += res.misses;
        r.affected_gbps += res.value.affected_gbps;
        r.restored_gbps += res.value.restored_gbps;
        r.signature
            .extend([res.value.affected_gbps, res.value.restored_gbps]);
    }
    for c in &caches {
        t.cache_entries += c.len() as u64;
        t.cache_misses += c.misses();
    }

    // Stage 3: the continental instance, region-sharded and monolithic.
    let cont = &inp.continental;
    let (optical, ip) = (&cont.backbone.optical, &cont.backbone.ip);
    let shard_cfg = ShardConfig {
        threads,
        ..ShardConfig::default()
    };
    let sharded_cache = RouteCache::new();
    let sharded = timed(t_pass, &sharded_cache, || {
        span(tr, "job", false, |tr| {
            span(tr, "shard.sharded", true, |_| {
                solve_sharded(
                    Scheme::FlexWan,
                    optical,
                    ip,
                    &inp.continental_cfg,
                    &cont.region_of,
                    &cont.hubs,
                    &shard_cfg,
                    &sharded_cache,
                )
            })
        })
    });
    if sharded.value.stats.converged {
        t.plan.push(sharded.ms);
        t.event.push(sharded.done_ms);
    } else {
        t.plan.push_failed();
        t.event.push_failed();
    }
    let sp = &sharded.value;
    r.transponders += sp.transponder_count() as u64;
    r.unmet_gbps += sp.unmet_gbps;
    r.boundary_demands += sp.stats.boundary_demands as u64;
    r.coordination_rounds += sp.stats.coordination_rounds as u64;
    r.signature.extend([
        sp.objective.to_bits(),
        sp.transponder_count() as u64,
        sp.unmet_gbps,
        sp.stats.boundary_demands as u64,
        sp.stats.coordination_rounds as u64,
        u64::from(sp.stats.converged),
    ]);
    let mono_cache = RouteCache::new();
    let mono = span(tr, "job", false, |tr| {
        if tracing {
            span(tr, "topo.route", true, |_| {
                prefill_plan(&mono_cache, optical, ip, inp.continental_cfg.k_paths)
            });
        }
        timed(t_pass, &mono_cache, || {
            span(tr, "planning.plan", true, |_| {
                plan_cached(
                    Scheme::FlexWan,
                    optical,
                    ip,
                    &inp.continental_cfg,
                    &mono_cache,
                )
            })
        })
    });
    t.plan.push(mono.ms);
    t.event.push(mono.done_ms);
    t.timed_misses += mono.misses;
    let mp = &mono.value;
    r.transponders += mp.transponder_count() as u64;
    r.spectrum_ghz += mp.spectrum_usage_ghz();
    r.unmet_gbps += mp.unmet_gbps();
    r.signature.extend([
        mp.transponder_count() as u64,
        mp.spectrum_usage_ghz().to_bits(),
        mp.unmet_gbps(),
    ]);

    t.wall_s = t_pass.elapsed().as_secs_f64();
    (r, t)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let inp = setups.batch(|| setup(args.seed));
    let threads = nproc();
    // Untimed reference on one thread: the warm-up pass, and what every
    // later pass must reproduce at any thread count.
    let (reference, _) = pass(&inp, 1, None);
    let same = |out: &mut Outcome, what: &str, r: &Results| {
        out.check(*r == reference, || {
            format!("{what} differs from the 1-thread reference pass")
        })
    };
    if args.trace {
        let (par, par_t) = pass(&inp, threads, None);
        same(&mut out, &format!("untraced {threads}-thread pass"), &par);
        let (ser, ser_t) = pass(&inp, 1, None);
        same(&mut out, "untraced 1-thread pass", &ser);
        let tracer = Tracer::new();
        let (traced, traced_t) = tracer.scope(None, "workload", false, |root| {
            tracer.scope(Some(root), "pass", false, |p| {
                pass(&inp, 1, Some((&tracer, p)))
            })
        });
        same(&mut out, "traced pass", &traced);
        let ledger = tracer.ledger();
        out.check(traced_t.timed_misses == 0, || {
            format!(
                "timed planner calls missed the pre-filled route cache {} times",
                traced_t.timed_misses
            )
        });
        out.set("topo.route_ms", ledger.layer_ms("topo.route"));
        out.set("planning.plan_ms", ledger.layer_ms("planning.plan"));
        out.set("restore.heuristic_ms", ledger.layer_ms("restore.heuristic"));
        out.set("shard.sharded_ms", ledger.layer_ms("shard.sharded"));
        out.set("unattributed_ms", ledger.unattributed_ns as f64 / 1e6);
        out.set("trace.wall_ms", ledger.wall_ns as f64 / 1e6);
        out.set(
            "trace.overhead_frac",
            ledger.wall_ns as f64 / 1e9 / ser_t.wall_s - 1.0,
        );
        out.set("topo.cache_entries", par_t.cache_entries as f64);
        out.set(
            "topo.cache_useful_frac",
            par_t.cache_entries as f64 / par_t.cache_misses.max(1) as f64,
        );
        out.set(
            "pool.busy_frac",
            par_t.job_ms / (par_t.stage_ms * threads as f64),
        );
        out.set("planning.spectrum_ghz", traced.spectrum_ghz);
        out.set("planning.unmet_gbps", traced.unmet_gbps as f64);
        out.set("shard.boundary_demands", traced.boundary_demands as f64);
        out.set(
            "shard.coordination_rounds",
            traced.coordination_rounds as f64,
        );
        out.set("restore.affected_gbps", traced.affected_gbps as f64);
        out.set(
            "restore.restored_frac",
            traced.restored_gbps as f64 / traced.affected_gbps.max(1) as f64,
        );
        out.attempted = (traced_t.plan.len() + traced_t.restore.len()) as u64;
        let path = format!(
            "benchmark/out/spans-heuristic_sweep-seed{}.jsonl",
            args.seed
        );
        if let Err(e) = tracer.write(Path::new(&path)) {
            eprintln!("warning: could not write {path}: {e}");
        }
        return out;
    }

    let t0 = Instant::now();
    let mut walls = Samples::default();
    let (mut plan, mut restore, mut event) =
        (Passes::default(), Passes::default(), Passes::default());
    let mut last_s = 0.0;
    while another_pass(t0, args.seconds, walls.len(), MIN_PASSES, last_s) {
        let (r, t) = pass(&inp, threads, None);
        same(
            &mut out,
            &format!("{threads}-thread pass {}", walls.len()),
            &r,
        );
        walls.push(t.wall_s);
        plan.push(&t.plan);
        restore.push(&t.restore);
        event.push(&t.event);
        out.failed += (t.plan.count_failed() + t.restore.count_failed()) as u64;
        out.attempted += (t.plan.len() + t.restore.len()) as u64;
        last_s = t.wall_s;
        setups.batch(|| setup(args.seed));
    }
    let (plan, restore, event) = (plan.median(), restore.median(), event.median());
    out.set("setup_s", setups.setup_s());
    out.set("wall_s", walls.quantile(0.5));
    out.set("plan_p50_ms", plan.quantile(0.5));
    out.set("plan_p90_ms", plan.quantile(0.9));
    out.set("restore_p50_ms", restore.quantile(0.5));
    out.set("restore_p90_ms", restore.quantile(0.9));
    out.set("event_p50_ms", event.quantile(0.5));
    out.set("event_p95_ms", event.quantile(0.95));
    out.set("transponders", reference.transponders as f64);
    out
}
