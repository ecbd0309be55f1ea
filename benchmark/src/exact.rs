//! `exact_colgen`: the certified-optimal path on one thread. Column
//! generation solves the full T-backbone and the CERNET envelopes ×0.5,
//! ×0.6 and ×0.7; then the FlexWAN+ restoration-master LPs run over the
//! kept T-backbone conduit scenarios. The cold LP dominates.

use std::path::Path;
use std::time::Instant;

use flexwan_core::planning::{plan, solve_exact, solve_exact_colgen, Plan, PlannerConfig};
use flexwan_core::protect::plan_protected;
use flexwan_core::restore::{conduit_cut_scenarios, restoration_count_duals, FailureScenario};
use flexwan_core::Scheme;
use flexwan_solver::{SolveOptions, SolverStats};
use flexwan_topo::tbackbone::Backbone;
use flexwan_util::json;

use crate::instances::{cernet, cernet_envelope, paper_config, suite_instance, tbackbone};
use crate::ledger::{span, Trace, Tracer};
use crate::report::Outcome;
use crate::stats::{Passes, Samples};
use crate::{another_pass, Args, SetupTimes};

/// The T-backbone conduit scenarios whose restoration-master LPs run:
/// ids ≡ 0 (mod 3), 22 of the 66. The full suite takes ≈ 35 s a pass,
/// scenario 5 alone ≈ 20 s; scenario 0 (≈ 7 s) is kept.
pub fn kept_scenario(id: usize) -> bool {
    id.is_multiple_of(3)
}

/// Scenario 0 costs three times everything else in a pass together, so
/// it runs last in two passes of a run only, and the other operations get
/// more repetitions: in the first pass, and in the first pass from the
/// third on that starts past half the run's time. Timed once, its 6–8 s
/// fell wholly in the host's fast or slow state and moved `wall_s` by
/// 0.19 of its median over ten seeds.
const HEAVY: usize = 0;
/// The first pass with scenario 0, and at least one without.
const MIN_PASSES: usize = 2;

const ENVELOPES: [f64; 3] = [0.5, 0.6, 0.7];
/// Where the pinned objective bit patterns live, relative to the
/// repository root.
const PINNED: &str = "results/BENCH_eval.json";

struct Inputs {
    /// T-backbone, then CERNET ×0.5, ×0.6, ×0.7.
    instances: Vec<Backbone>,
    /// The FlexWAN heuristic plan of the T-backbone the LPs restore.
    plan: Plan,
    /// The kept scenarios, scenario 0 last.
    scenarios: Vec<FailureScenario>,
    /// Whether each kept scenario cuts a planned wavelength.
    affected: Vec<bool>,
    cfg: PlannerConfig,
}

fn setup() -> Inputs {
    let cfg = paper_config();
    let tb = tbackbone();
    let ce = cernet();
    let plan = plan(Scheme::FlexWan, &tb.optical, &tb.ip, &cfg);
    // Scenario 0 last: the others' completion times do not include it.
    let mut scenarios: Vec<FailureScenario> = conduit_cut_scenarios(&tb.optical)
        .into_iter()
        .filter(|s| kept_scenario(s.id))
        .collect();
    scenarios.rotate_left(1);
    assert_eq!(scenarios.last().map(|s| s.id), Some(HEAVY));
    let affected = scenarios
        .iter()
        .map(|s| {
            let banned = s.banned();
            plan.wavelengths
                .iter()
                .any(|w| w.path.edges.iter().any(|e| banned.contains(e)))
        })
        .collect();
    let mut instances = vec![tb];
    instances.extend(ENVELOPES.map(|s| cernet_envelope(&ce, s)));
    Inputs {
        instances,
        plan,
        scenarios,
        affected,
        cfg,
    }
}

/// Branch and bound on one thread.
fn cg_options() -> SolveOptions {
    SolveOptions {
        max_nodes: 200_000,
        threads: 1,
        ..Default::default()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Results {
    /// Per instance: objective bits, columns in master, pricing rounds.
    solves: Vec<[u64; 3]>,
    /// Per scenario run: the count duals, bitwise.
    duals: Vec<Vec<(usize, u64)>>,
    transponders: u64,
}

/// Per-operation times of a pass. Scenario 0's LP and its completion time
/// are kept apart, as not every pass runs it.
#[derive(Default)]
struct Timings {
    wall_s: f64,
    solve: Samples,
    duals: Samples,
    event: Samples,
    heavy: Samples,
    heavy_event: Samples,
    failed: u64,
    solver: SolverStats,
    pricing_rounds: u64,
    gap_rounds: u64,
    columns_priced_in: u64,
    columns_in_master: u64,
    conflict_rows: u64,
}

fn pass(inp: &Inputs, heavy: bool, tr: Trace) -> (Results, Timings) {
    let t_pass = Instant::now();
    let mut t = Timings::default();
    let mut r = Results {
        solves: Vec::new(),
        duals: Vec::new(),
        transponders: 0,
    };
    let opts = cg_options();
    for b in &inp.instances {
        let solve = || solve_exact_colgen(Scheme::FlexWan, &b.optical, &b.ip, &inp.cfg, &opts);
        let t0 = Instant::now();
        let cg = span(tr, "job", false, |tr| {
            let (cg, id) = span(tr, "colgen.solve", true, |tr| (solve(), tr));
            if let (Some(cg), Some((tracer, id))) = (&cg, id) {
                tracer.attribute(id, "solver.lp", cg.plan.stats.time_total.as_nanos() as u64);
            }
            cg
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match cg {
            Some(cg) if !cg.colgen.fell_back => {
                t.solve.push(ms);
                t.event.push(t_pass.elapsed().as_secs_f64() * 1e3);
                t.solver.merge(&cg.plan.stats);
                let s = &cg.colgen;
                t.pricing_rounds += s.pricing_rounds;
                t.gap_rounds += s.gap_rounds;
                t.columns_priced_in += s.columns_priced_in as u64;
                t.columns_in_master += s.columns_in_master as u64;
                t.conflict_rows += s.conflict_rows as u64;
                r.transponders += cg.plan.wavelengths.len() as u64;
                r.solves.push([
                    cg.plan.objective.to_bits(),
                    s.columns_in_master as u64,
                    s.pricing_rounds,
                ]);
            }
            _ => {
                t.failed += 1;
                t.solve.push_failed();
                t.event.push_failed();
                r.solves.push([0; 3]);
            }
        }
    }
    let dual_opts = SolveOptions {
        threads: 1,
        ..SolveOptions::default()
    };
    let tb = &inp.instances[0];
    for (sc, &affected) in inp.scenarios.iter().zip(&inp.affected) {
        if sc.id == HEAVY && !heavy {
            continue;
        }
        let (duals_ms, event_ms) = if sc.id == HEAVY {
            (&mut t.heavy, &mut t.heavy_event)
        } else {
            (&mut t.duals, &mut t.event)
        };
        let lp =
            || restoration_count_duals(&inp.plan, &tb.optical, &tb.ip, sc, &inp.cfg, &dual_opts);
        let t0 = Instant::now();
        let duals = span(tr, "job", false, |tr| {
            span(tr, "restore.duals", true, |_| lp())
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if affected && duals.is_empty() {
            t.failed += 1;
            duals_ms.push_failed();
            event_ms.push_failed();
        } else {
            duals_ms.push(ms);
            event_ms.push(t_pass.elapsed().as_secs_f64() * 1e3);
        }
        r.duals
            .push(duals.into_iter().map(|(l, k)| (l, k.to_bits())).collect());
    }
    t.wall_s = t_pass.elapsed().as_secs_f64();
    (r, t)
}

/// Objective bit patterns pinned by the repository's evaluation record.
fn pinned_bits() -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(PINNED).map_err(|e| format!("{PINNED}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{PINNED}: {e:?}"))?;
    let bits = |key: &str| {
        doc.get("colgen")
            .and_then(|c| c.get(key))
            .and_then(|v| v.as_u64())
            .ok_or(format!("{PINNED}: colgen.{key} missing"))
    };
    Ok((
        bits("tbackbone_objective_bits")?,
        bits("cernet_objective_bits")?,
    ))
}

fn check_outputs(out: &mut Outcome, r: &Results) {
    match pinned_bits() {
        Ok((tb, ce)) => {
            out.check(r.solves[0][0] == tb, || {
                format!(
                    "T-backbone objective bits {} != pinned {tb}",
                    r.solves[0][0]
                )
            });
            out.check(r.solves[3][0] == ce, || {
                format!(
                    "CERNET x0.7 objective bits {} != pinned {ce}",
                    r.solves[3][0]
                )
            });
        }
        Err(e) => out.failures.push(e),
    }
}

/// Column generation must match the enumerated MIP bit for bit on the
/// 4-node suite instance.
fn check_suite(out: &mut Outcome) {
    let (g, ip, cfg) = suite_instance();
    let opts = cg_options();
    let enumerated =
        solve_exact(Scheme::FlexWan, &g, &ip, &cfg, &opts).map(|p| p.objective.to_bits());
    let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg, &opts)
        .map(|p| p.plan.objective.to_bits());
    out.check(enumerated.is_some() && enumerated == cg, || {
        format!("suite instance: enumeration {enumerated:?} != column generation {cg:?}")
    });
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let inp = setups.batch(setup);
    check_suite(&mut out);
    if args.trace {
        let (base, base_t) = pass(&inp, true, None);
        check_outputs(&mut out, &base);
        let tracer = Tracer::new();
        let (traced, t) = tracer.scope(None, "workload", false, |root| {
            tracer.scope(Some(root), "pass", false, |p| {
                pass(&inp, true, Some((&tracer, p)))
            })
        });
        out.check(traced == base, || {
            "traced pass differs from the untraced pass".into()
        });
        // The CG seed (heuristic plan + 1+1 protection) is not a public
        // call of its own, so its share of the solves is an estimate: the
        // fastest of three re-runs on their own, capped at the solves'
        // non-solver time so that `colgen.other_ms` stays a time.
        let seed_ms = (0..3)
            .map(|_| {
                let t = Instant::now();
                for b in &inp.instances {
                    std::hint::black_box(plan(Scheme::FlexWan, &b.optical, &b.ip, &inp.cfg));
                    std::hint::black_box(plan_protected(
                        Scheme::FlexWan,
                        &b.optical,
                        &b.ip,
                        &inp.cfg,
                    ));
                }
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        let ledger = tracer.ledger();
        let lp_ms = ledger.layer_ms("solver.lp");
        let nonsolver_ms = ledger.layer_ms("colgen.solve");
        if seed_ms > nonsolver_ms {
            eprintln!(
                "warning: seed re-run {seed_ms:.3} ms exceeds the solves' non-solver time \
                 {nonsolver_ms:.3} ms; planning.seed_ms capped"
            );
        }
        let seed_ms = seed_ms.min(nonsolver_ms);
        out.set("colgen.solve_ms", nonsolver_ms + lp_ms);
        out.set("planning.seed_ms", seed_ms);
        out.set("colgen.other_ms", nonsolver_ms - seed_ms);
        out.set("restore.duals_ms", ledger.layer_ms("restore.duals"));
        out.set_solver(&t.solver);
        out.set("solver.lp_ms", lp_ms);
        out.set("colgen.pricing_rounds", t.pricing_rounds as f64);
        out.set("colgen.gap_rounds", t.gap_rounds as f64);
        out.set("colgen.columns_priced_in", t.columns_priced_in as f64);
        out.set("colgen.columns_in_master", t.columns_in_master as f64);
        out.set("colgen.conflict_rows", t.conflict_rows as f64);
        out.set("unattributed_ms", ledger.unattributed_ns as f64 / 1e6);
        out.set("trace.wall_ms", ledger.wall_ns as f64 / 1e6);
        out.set(
            "trace.overhead_frac",
            ledger.wall_ns as f64 / 1e9 / base_t.wall_s - 1.0,
        );
        out.attempted = (t.solve.len() + t.duals.len() + t.heavy.len()) as u64;
        out.failed = t.failed;
        let path = format!("benchmark/out/spans-exact_colgen-seed{}.jsonl", args.seed);
        if let Err(e) = tracer.write(Path::new(&path)) {
            eprintln!("warning: could not write {path}: {e}");
        }
        return out;
    }

    // Untimed warm-up: one pass without scenario 0, so that the first
    // timed pass, which runs scenario 0, does not run cold.
    std::hint::black_box(pass(&inp, false, None));
    let t0 = Instant::now();
    let (mut solve, mut duals, mut event) =
        (Passes::default(), Passes::default(), Passes::default());
    let (mut heavy_duals, mut heavy_event) = (Passes::default(), Passes::default());
    let (mut first, mut first_heavy): (Option<Results>, Option<Results>) = (None, None);
    let mut passes = 0;
    let mut last_s = 0.0;
    let mut heavy_passes = 0;
    while another_pass(t0, args.seconds, passes, MIN_PASSES, last_s) {
        let heavy = heavy_passes == 0
            || (heavy_passes == 1 && passes >= 2 && t0.elapsed() >= args.seconds / 2);
        heavy_passes += usize::from(heavy);
        let (r, t) = pass(&inp, heavy, None);
        let reference = if heavy { &mut first_heavy } else { &mut first };
        match reference {
            None => check_outputs(&mut out, &r),
            Some(f) => out.check(*f == r, || "outputs differ between passes".into()),
        }
        reference.get_or_insert(r);
        solve.push(&t.solve);
        duals.push(&t.duals);
        event.push(&t.event);
        if heavy {
            heavy_duals.push(&t.heavy);
            heavy_event.push(&t.heavy_event);
        }
        out.failed += t.failed;
        out.attempted += (t.solve.len() + t.duals.len() + t.heavy.len()) as u64;
        if !heavy {
            // What the next pass takes, unless it is the second heavy one.
            last_s = t.wall_s;
        }
        eprintln!("pass {passes}: {:.3} s", t.wall_s);
        passes += 1;
        setups.batch(setup);
    }
    // Every operation at its mean over all passes that ran it (see
    // `crate::stats`).
    let (solve, mut duals, mut event) = (solve.mean(), duals.mean(), event.mean());
    duals.append(&heavy_duals.mean());
    event.append(&heavy_event.mean());
    out.set("setup_s", setups.setup_s());
    out.set("wall_s", (solve.sum() + duals.sum()) / 1e3);
    out.set("plan_p50_ms", solve.quantile(0.5));
    out.set("plan_p90_ms", solve.quantile(0.9));
    out.set("restore_p50_ms", duals.quantile(0.5));
    out.set("restore_p90_ms", duals.quantile(0.9));
    out.set("event_p50_ms", event.quantile(0.5));
    out.set("event_p95_ms", event.quantile(0.95));
    out.set(
        "transponders",
        first_heavy.map_or(0, |r| r.transponders) as f64,
    );
    out
}
