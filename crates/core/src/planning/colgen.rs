//! Column generation with dual-based pricing for Algorithm 1.
//!
//! [`super::mip`] enumerates the full γ universe up front — per link,
//! every candidate path × reachable format × aligned start — which is
//! millions of binaries on the full T-backbone and CERNET topologies.
//! This module solves the *same* integer program exactly without ever
//! materializing that universe: a **restricted master problem** (RMP)
//! holds only the columns proven useful so far, and a **pricing oracle**
//! ([`LazyWavelengthVarSpace::price`]) walks the implicit universe under
//! the restricted master's LP duals, admitting only columns with
//! negative reduced cost.
//!
//! The loop (DESIGN.md §12):
//!
//! 1. **Seed.** The heuristic plan's wavelengths plus the 1+1 protection
//!    wavelengths that live on the master's K candidate paths enter as
//!    the initial columns — an integer-feasible start, so the RMP LP is
//!    feasible from round one.
//! 2. **Price.** Solve the RMP LP relaxation warm
//!    ([`IncrementalSolver::solve_relaxation_with_duals`]), read the
//!    `capacity` duals `μ_e ≥ 0`, the valid-cut duals `κ_e, σ_e ≥ 0`
//!    and the spectrum-`conflict` duals `ν ≤ 0`
//!    ([`flexwan_solver::Model::group_duals`]), and scan the
//!    not-yet-admitted universe for columns with reduced cost
//!    `(1+εY)(1−σ_e) − μ_e·d_j − κ_e + Σ_cells(−ν) < 0`. Admit the best
//!    per slot, re-solve warm off the stored basis, repeat until no
//!    column prices in — the RMP LP value now equals the full LP bound.
//! 3. **Branch.** Solve the RMP as a MIP.
//! 4. **Close the gap.** If the integer value `Z_IP` exceeds the LP
//!    bound `Z_LP`, any excluded column that could participate in a
//!    better integer solution must have reduced cost ≤ `Z_IP − Z_LP`;
//!    admit all such columns (capped per round) and go back to 2. When
//!    none remain, the RMP optimum *is* the full-model optimum.
//!
//! Two families of valid inequalities keep branch & bound shallow on
//! full-topology instances without changing the integer optimum: per
//! link, a transponder-count cut `Σγ ≥ ⌈c_e / d_max⌉` and a cost cut
//! `Σ(1+εY)γ ≥ LB_e` with `LB_e` the exact min-cost demand cover over
//! the link's union format menu (small unbounded-knapsack DP). Spectrum
//! `conflict` rows are created lazily, only when a second admitted
//! column covers a `(fiber, pixel)` cell — a single-term `γ ≤ 1` row is
//! vacuous for a binary.
//!
//! Everything is deterministic at any thread count: the pricing scan
//! ties-breaks by universe order, admissions are sequential, and the
//! branch & bound is the repo's deterministic solver.

use std::collections::{BTreeMap, HashMap, HashSet};

use flexwan_optical::format::TransponderFormat;
use flexwan_solver::{
    Cmp, GroupId, IncrementalSolver, LinExpr, Model, RowId, Sense, Solution, SolveOptions,
    SolverStats, Status, Var, VarKind,
};
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::IpTopology;
use flexwan_topo::ksp::k_shortest_paths;
use flexwan_topo::path::Path;

use crate::opt::LazyWavelengthVarSpace;
use crate::planning::format_dp::{reachable_formats, select_formats};
use crate::planning::heuristic::{plan, PlannerConfig};
use crate::planning::mip::{solve_exact, ExactPlan};
use crate::protect::plan_protected;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// Columns admitted per slot per pricing round. Small batches keep the
/// warm LP re-solves cheap; the loop runs until nothing prices in, so
/// the cap trades rounds for columns, never correctness.
const PRICE_CAP: usize = 8;
/// Columns admitted per *round* across all slots (most negative reduced
/// cost first). The master's LP grows conflict rows as admitted columns
/// overlap, and simplex time grows superlinearly in rows — a global cap
/// keeps each warm re-solve a small delta while the loop still runs to
/// exhaustion.
const GLOBAL_CAP: usize = 96;
/// Per-slot cap during gap-closing rounds (threshold > 0 can match many
/// equal-reduced-cost starts; the outer loop re-prices after each batch).
const GAP_CAP: usize = 64;
/// Global per-round cap for gap-closing admissions.
const GAP_GLOBAL_CAP: usize = 256;
/// A column must beat the threshold by this much to be admitted — floats
/// hovering at zero reduced cost must not spin the loop.
const TOL: f64 = 1e-9;
/// Consecutive pricing rounds without LP improvement before the loop
/// declares a degenerate stall. On spectrum-saturated instances the
/// oracle's optimistic reduced costs (`ν = 0` on latent rows) can admit
/// columns forever while separation pins the LP in place; past this cap
/// the run returns the restricted master's integer optimum flagged
/// `fell_back` instead of looping.
const STALL_CAP: u64 = 48;

/// One pricing round of the convergence trace.
#[derive(Debug, Clone)]
pub struct PricingRound {
    /// Restricted-master LP value the round priced against.
    pub lp_objective: f64,
    /// Columns admitted this round (0 on the converged round).
    pub admitted: usize,
    /// Most negative reduced cost seen by the scan (`+∞` when none beat
    /// the threshold).
    pub reduced_min: f64,
}

/// Column-generation counters for one [`solve_exact_colgen`] run.
#[derive(Debug, Clone)]
pub struct ColGenStats {
    /// Columns seeded from the heuristic plan + 1+1 protection.
    pub columns_seeded: usize,
    /// Columns the pricing oracle admitted (all rounds, incl. gap).
    pub columns_priced_in: usize,
    /// LP pricing rounds until convergence (incl. re-convergence after
    /// gap admissions).
    pub pricing_rounds: u64,
    /// Gap-closing rounds after integer solves.
    pub gap_rounds: u64,
    /// Most negative reduced cost observed across every scan.
    pub reduced_cost_min: f64,
    /// Converged restricted-master LP value (the full-model LP bound).
    pub lp_objective: f64,
    /// Size of the implicit column universe the oracle priced over.
    pub universe_size: usize,
    /// Columns in the restricted master at termination.
    pub columns_in_master: usize,
    /// Spectrum-conflict rows materialized (vs one per occupied cell in
    /// the enumerated model).
    pub conflict_rows: usize,
    /// Per-round convergence trace, in order.
    pub rounds: Vec<PricingRound>,
    /// Whether the run could **not** certify optimality: the seed failed
    /// and the enumerated reference solved the instance instead, or
    /// pricing stalled on a degenerate spectrum-saturated master and the
    /// objective is only the restricted master's upper bound.
    pub fell_back: bool,
}

/// An exact optimum produced by column generation: the plan (objective
/// in canonical form, see [`canonical_objective`]) plus the CG counters.
#[derive(Debug, Clone)]
pub struct ColGenPlan {
    /// The optimum, interchangeable with [`solve_exact`]'s.
    pub plan: ExactPlan,
    /// Column-generation counters.
    pub colgen: ColGenStats,
}

/// The canonical Algorithm 1 objective of a wavelength set:
/// `N + ε·Σ Y` with the GHz sum taken over the set. Every spacing is a
/// multiple of 12.5 GHz — exactly representable, so the sum (and the
/// whole value) is bit-identical regardless of summation order. Both the
/// CG planner and the parity tests recompute objectives through this
/// helper, making "same optimum" a bitwise comparison.
pub fn canonical_objective(wavelengths: &[Wavelength], epsilon: f64) -> f64 {
    let ghz: f64 = wavelengths.iter().map(|w| w.format.spacing.ghz()).sum();
    wavelengths.len() as f64 + epsilon * ghz
}

/// The objective-value quantum under `epsilon`: distinct canonical
/// objectives differ by at least this much. Spacings are multiples of
/// 12.5 GHz, so values live on the grid `a + ε·12.5·b` (integers `a`,
/// `b`); when `1/(ε·12.5)` is integral that grid has pitch `ε·12.5`.
/// For an `epsilon` where it is not, returns 0 (the gap loop then never
/// takes the early exit and relies on pricing alone).
fn objective_quantum(epsilon: f64) -> f64 {
    let g = epsilon * 12.5;
    if g > 0.0 && (1.0 / g - (1.0 / g).round()).abs() < 1e-9 {
        g
    } else {
        0.0
    }
}

/// Keeps the `cap` most negative candidates of a scan across all slots.
/// The input arrives slot-ordered with per-slot reduced-cost order, so a
/// stable sort on reduced cost alone leaves ties in universe order —
/// the admission sequence stays deterministic.
fn truncate_global(candidates: &mut Vec<crate::opt::PricedColumn>, cap: usize) {
    if candidates.len() > cap {
        candidates.sort_by(|a, b| a.reduced.partial_cmp(&b.reduced).unwrap());
        candidates.truncate(cap);
    }
}

/// The restricted master: admitted columns + their rows, kept standing
/// across pricing rounds so every re-solve is warm.
struct Master {
    inc: IncrementalSolver,
    lazy: LazyWavelengthVarSpace,
    epsilon: f64,
    pixels: u32,
    num_fibers: usize,
    capacity_rows: Vec<RowId>,
    count_rows: Vec<RowId>,
    costlb_rows: Vec<RowId>,
    capacity_gid: GroupId,
    count_gid: GroupId,
    costlb_gid: GroupId,
    conflict_gid: GroupId,
    /// `(fiber, pixel)` cells with a materialized conflict row.
    cell_row: HashMap<(EdgeId, u32), RowId>,
    /// Every admitted column covering each cell, in admission order —
    /// the separation oracle's input (BTreeMap: deterministic cut order).
    cell_cover: BTreeMap<(EdgeId, u32), Vec<Var>>,
    /// Objective terms `(γ, 1+εY)`, in admission order.
    obj_terms: Vec<(Var, f64)>,
}

impl Master {
    /// Admits one column of the universe: the variable enters every
    /// *materialized* row it covers plus the slot rows, and the objective
    /// gains its `1 + εY` term (pushed; the caller re-sets the objective
    /// once per admission batch). Conflict rows for its other cells stay
    /// latent until [`Master::separate`] catches a solution double-booking
    /// one — eager rows would block the column the moment it enters,
    /// stalling the LP, and most pairwise overlaps never bind anyway.
    fn admit(&mut self, slot: usize, ki: usize, format: TransponderFormat, start: u32) -> Var {
        let cost = 1.0 + self.epsilon * format.spacing.ghz();
        let rate = f64::from(format.data_rate_gbps);
        let w = u32::from(format.spacing.pixels());
        let edges = self.lazy.space().paths(slot)[ki].edges.clone();

        let mut entries = vec![
            (self.capacity_rows[slot], rate),
            (self.count_rows[slot], 1.0),
            (self.costlb_rows[slot], cost),
        ];
        for &e in &edges {
            for px in start..start + w {
                if let Some(&row) = self.cell_row.get(&(e, px)) {
                    entries.push((row, 1.0));
                }
            }
        }
        let name = format!(
            "cg_e{slot}_k{ki}_d{}_y{}_q{start}",
            format.data_rate_gbps,
            format.spacing.pixels()
        );
        let var = self
            .inc
            .add_column(name, VarKind::Binary, 0.0, 1.0, &entries);
        self.lazy.admit(slot, ki, format, start, var);
        for &e in &edges {
            for px in start..start + w {
                self.cell_cover.entry((e, px)).or_default().push(var);
            }
        }
        self.obj_terms.push((var, cost));
        var
    }

    /// Separation oracle over the latent conflict rows: materializes
    /// `Σ γ ≤ 1` for every cell the solution books beyond `1 + tol`,
    /// with **all** covering columns as terms. Returns the number of
    /// rows cut; the caller re-solves until clean. Row-and-column
    /// generation needs separation rather than eager rows so a freshly
    /// priced column can actually improve the LP before the spectrum
    /// clash it might cause ever binds.
    fn separate(&mut self, sol: &Solution, tol: f64) -> usize {
        let mut cuts: Vec<((EdgeId, u32), LinExpr)> = Vec::new();
        for (&cell, vars) in &self.cell_cover {
            if vars.len() < 2 || self.cell_row.contains_key(&cell) {
                continue;
            }
            let booked: f64 = vars.iter().map(|&v| sol.value(v)).sum();
            if booked > 1.0 + tol {
                cuts.push((cell, LinExpr::sum(vars.iter().map(|&v| 1.0 * v))));
            }
        }
        let n = cuts.len();
        if n > 0 {
            self.inc.model_mut().group("conflict");
            for (cell, expr) in cuts {
                let row = self.inc.add_constraint(expr, Cmp::Le, 1.0);
                self.cell_row.insert(cell, row);
            }
            self.inc.model_mut().end_group();
        }
        n
    }

    /// Re-asserts the minimization objective over every admitted column.
    fn set_objective(&mut self) {
        let expr = LinExpr::sum(self.obj_terms.iter().map(|&(v, c)| c * v));
        self.inc.set_objective(Sense::Minimize, expr);
    }

    /// One pricing scan under `duals` (indexed by `RowId`, straight from
    /// [`IncrementalSolver::solve_relaxation_with_duals`]): reads the
    /// slot-row duals and the conflict duals through the model's named
    /// groups, then walks the implicit universe.
    fn price_round(
        &self,
        duals: &[f64],
        threshold: f64,
        per_slot_cap: usize,
    ) -> crate::opt::PricingScan {
        let model = self.inc.model();
        let slot_duals = |gid: GroupId, rows: &[RowId]| -> Vec<f64> {
            let by_row: HashMap<RowId, f64> = model.group_duals(gid, duals).into_iter().collect();
            rows.iter().map(|r| by_row[r]).collect()
        };
        let mu = slot_duals(self.capacity_gid, &self.capacity_rows);
        let kappa = slot_duals(self.count_gid, &self.count_rows);
        let sigma = slot_duals(self.costlb_gid, &self.costlb_rows);
        // Dense per-(fiber, pixel) conflict contribution, oriented for a
        // minimization master: `ν ≤ 0` on its `≤ 1` rows, the oracle
        // adds `−ν ≥ 0` per covered cell.
        let pixels = self.pixels as usize;
        let mut cell_duals = vec![0.0f64; self.num_fibers * pixels];
        let nu: HashMap<RowId, f64> = model
            .group_duals(self.conflict_gid, duals)
            .into_iter()
            .collect();
        for (&(e, px), row) in &self.cell_row {
            cell_duals[e.0 as usize * pixels + px as usize] = -nu[row];
        }
        let epsilon = self.epsilon;
        self.lazy.price(
            |slot, _ki, f| {
                let cost = 1.0 + epsilon * f.spacing.ghz();
                cost * (1.0 - sigma[slot]) - mu[slot] * f64::from(f.data_rate_gbps) - kappa[slot]
            },
            &cell_duals,
            |_, _| true,
            threshold,
            per_slot_cap,
        )
    }
}

/// Exact min-cost cover of `demand_gbps` from `menu` with unlimited
/// multiplicity — the rhs of the per-link cost cut. Unbounded-knapsack
/// DP over 100 Gbps units (every format rate is a multiple of 100).
fn cover_lower_bound(menu: &[TransponderFormat], demand_gbps: u64, epsilon: f64) -> f64 {
    let units = demand_gbps.div_ceil(100) as usize;
    let mut dp = vec![f64::INFINITY; units + 1];
    dp[0] = 0.0;
    for u in 1..=units {
        for f in menu {
            let r = (f.data_rate_gbps / 100) as usize;
            let cost = 1.0 + epsilon * f.spacing.ghz();
            let c = dp[u.saturating_sub(r)] + cost;
            if c < dp[u] {
                dp[u] = c;
            }
        }
    }
    dp[units]
}

/// Solves Algorithm 1 exactly by column generation — same optimum as
/// [`solve_exact`] (the enumerated parity reference), reached without
/// materializing the γ universe. Returns `None` when the instance is
/// infeasible. The returned objective is the canonical
/// `N + ε·ΣY` recomputation ([`canonical_objective`]) — bit-identical
/// across warm/cold paths and thread counts.
///
/// Falls back to the enumerated model when the heuristic seed leaves the
/// restricted master infeasible (a sized-down pathological instance);
/// `colgen.fell_back` records it.
pub fn solve_exact_colgen(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Option<ColGenPlan> {
    let pixels = cfg.grid.pixels();
    let none = HashSet::new();
    let paths_per_link: Vec<Vec<Path>> = ip
        .links()
        .iter()
        .map(|link| k_shortest_paths(optical, link.src, link.dst, cfg.k_paths, &none))
        .collect();
    let model_t = scheme.transponder();
    let menus: Vec<Vec<Vec<TransponderFormat>>> = paths_per_link
        .iter()
        .map(|paths| {
            paths
                .iter()
                .map(|p| reachable_formats(model_t, p.length_km))
                .collect()
        })
        .collect();

    // Master skeleton: capacity rows plus the two valid-cut rows per
    // link, over the union format menu of the link's candidate paths.
    let mut m = Model::new();
    let capacity_gid = m.group("capacity");
    let capacity_rows: Vec<RowId> = ip
        .links()
        .iter()
        .map(|link| m.ge(LinExpr::zero(), link.demand_gbps as f64))
        .collect();
    let mut count_rhs = Vec::with_capacity(ip.links().len());
    let mut costlb_rhs = Vec::with_capacity(ip.links().len());
    for (li, link) in ip.links().iter().enumerate() {
        let mut union: Vec<TransponderFormat> = Vec::new();
        for path_menu in &menus[li] {
            for f in path_menu {
                if !union.contains(f) {
                    union.push(*f);
                }
            }
        }
        if link.demand_gbps == 0 {
            count_rhs.push(0.0);
            costlb_rhs.push(0.0);
            continue;
        }
        if union.is_empty() {
            // Demand with no reachable format on any candidate path: the
            // enumerated model is just as infeasible.
            return None;
        }
        let d_max = union.iter().map(|f| u64::from(f.data_rate_gbps)).max()?;
        count_rhs.push(link.demand_gbps.div_ceil(d_max) as f64);
        costlb_rhs.push(cover_lower_bound(&union, link.demand_gbps, cfg.epsilon));
    }
    let count_gid = m.group("count_lb");
    let count_rows: Vec<RowId> = count_rhs
        .iter()
        .map(|&rhs| m.ge(LinExpr::zero(), rhs))
        .collect();
    let costlb_gid = m.group("cost_lb");
    let costlb_rows: Vec<RowId> = costlb_rhs
        .iter()
        .map(|&rhs| m.ge(LinExpr::zero(), rhs))
        .collect();
    let conflict_gid = m.group("conflict");
    m.end_group();
    m.set_objective(Sense::Minimize, LinExpr::zero());

    let mut master = Master {
        inc: IncrementalSolver::new(m),
        lazy: LazyWavelengthVarSpace::new(scheme, pixels, optical.num_edges(), paths_per_link),
        epsilon: cfg.epsilon,
        pixels,
        num_fibers: optical.num_edges(),
        capacity_rows,
        count_rows,
        costlb_rows,
        capacity_gid,
        count_gid,
        costlb_gid,
        conflict_gid,
        cell_row: HashMap::new(),
        cell_cover: BTreeMap::new(),
        obj_terms: Vec::new(),
    };
    let universe_size = master.lazy.universe_size();

    // Seed phase. Three passes build an integer-feasible restricted
    // master so the very first RMP LP is feasible:
    //
    // 1. every heuristic-plan wavelength that lives in the master's
    //    universe (same candidate path by edge identity, aligned start,
    //    menu format) enters as-is;
    // 2. demand the matching lost — the heuristic plans over *routes*
    //    whose parallel-fiber realizations need not coincide with the
    //    master's K shortest *paths* — is repaired greedily: per
    //    under-covered link, DP-optimal format multisets placed
    //    first-fit on spectrum no admitted column occupies, so the
    //    repair never conflicts with pass 1;
    // 3. the 1+1 protection wavelengths that live in the universe join
    //    as optional extra columns (they may overlap working spectrum —
    //    the lazy conflict rows let the LP zero them).
    let heuristic = plan(scheme, optical, ip, cfg);
    let protected = plan_protected(scheme, optical, ip, cfg);
    let slot_of: HashMap<_, _> = ip
        .links()
        .iter()
        .enumerate()
        .map(|(i, l)| (l.id, i))
        .collect();
    let align = scheme.alignment_pixels();
    let words = (pixels as usize).div_ceil(64);
    // Occupancy of cells covered by pass-1/2 columns, per (fiber, px).
    let mut occ = vec![0u64; optical.num_edges() * words];
    let free = |occ: &[u64], edges: &[EdgeId], start: u32, w: u32| {
        edges.iter().all(|e| {
            (start..start + w)
                .all(|px| occ[e.0 as usize * words + px as usize / 64] >> (px % 64) & 1 == 0)
        })
    };
    let mark = |occ: &mut [u64], edges: &[EdgeId], start: u32, w: u32| {
        for e in edges {
            for px in start..start + w {
                occ[e.0 as usize * words + px as usize / 64] |= 1 << (px % 64);
            }
        }
    };
    let member = |master: &Master, w: &Wavelength, slot: usize| -> Option<usize> {
        let ki = master
            .lazy
            .space()
            .paths(slot)
            .iter()
            .position(|p| p.edges == w.path.edges)?;
        let start = w.channel.start;
        let width = u32::from(w.format.spacing.pixels());
        (start.is_multiple_of(align)
            && start + width <= pixels
            && menus[slot][ki].contains(&w.format))
        .then_some(ki)
    };
    let mut seen: HashSet<(usize, usize, u32, u16, u32)> = HashSet::new();
    let mut covered = vec![0u64; ip.links().len()];
    let mut columns_seeded = 0usize;

    // Pass 1: matched heuristic wavelengths.
    for w in &heuristic.wavelengths {
        let Some(&slot) = slot_of.get(&w.link) else {
            continue;
        };
        let Some(ki) = member(&master, w, slot) else {
            continue;
        };
        let key = (
            slot,
            ki,
            w.format.data_rate_gbps,
            w.format.spacing.pixels(),
            w.channel.start,
        );
        if !seen.insert(key) {
            continue;
        }
        let width = u32::from(w.format.spacing.pixels());
        let edges = master.lazy.space().paths(slot)[ki].edges.clone();
        master.admit(slot, ki, w.format, w.channel.start);
        mark(&mut occ, &edges, w.channel.start, width);
        covered[slot] += u64::from(w.format.data_rate_gbps);
        columns_seeded += 1;
    }

    // Pass 2: greedy first-fit repair of under-covered links.
    let mut seed_feasible = true;
    // `covered[slot]` is mutated mid-iteration — an enumerate() borrow
    // would fight the admit/mark updates below.
    #[allow(clippy::needless_range_loop)]
    'slots: for slot in 0..ip.links().len() {
        let demand = ip.links()[slot].demand_gbps;
        'cover: while covered[slot] < demand {
            let need = (demand - covered[slot]).div_ceil(100) * 100;
            let num_paths = master.lazy.space().paths(slot).len();
            for ki in 0..num_paths {
                let path = &master.lazy.space().paths(slot)[ki];
                let Some(formats) = select_formats(model_t, need, path.length_km, cfg.epsilon)
                else {
                    continue;
                };
                let edges = path.edges.clone();
                for f in &formats {
                    let w = u32::from(f.spacing.pixels());
                    if w > pixels {
                        continue;
                    }
                    let mut q = 0u32;
                    while q + w <= pixels {
                        let key = (slot, ki, f.data_rate_gbps, f.spacing.pixels(), q);
                        if free(&occ, &edges, q, w) && !seen.contains(&key) {
                            seen.insert(key);
                            master.admit(slot, ki, *f, q);
                            mark(&mut occ, &edges, q, w);
                            covered[slot] += u64::from(f.data_rate_gbps);
                            columns_seeded += 1;
                            continue 'cover;
                        }
                        q += align;
                    }
                }
            }
            // No format of any candidate path fits the residual
            // spectrum: the seed cannot certify feasibility.
            seed_feasible = false;
            break 'slots;
        }
    }

    // Pass 3: matched protection wavelengths (optional extras). Only
    // those conflict-free against every column already admitted enter —
    // `plan_protected` places its copies in its *own* spectrum state, so
    // an unfiltered import would overlap pass 1/2 on congested
    // instances, materializing thousands of conflict rows that bloat the
    // very first RMP LP for columns the LP would zero anyway.
    for w in &protected.protection {
        let Some(&slot) = slot_of.get(&w.link) else {
            continue;
        };
        let Some(ki) = member(&master, w, slot) else {
            continue;
        };
        let key = (
            slot,
            ki,
            w.format.data_rate_gbps,
            w.format.spacing.pixels(),
            w.channel.start,
        );
        let width = u32::from(w.format.spacing.pixels());
        let edges = master.lazy.space().paths(slot)[ki].edges.clone();
        if !free(&occ, &edges, w.channel.start, width) || !seen.insert(key) {
            continue;
        }
        master.admit(slot, ki, w.format, w.channel.start);
        mark(&mut occ, &edges, w.channel.start, width);
        columns_seeded += 1;
    }
    master.set_objective();

    let fallback = |stats_base: ColGenStats| -> Option<ColGenPlan> {
        let plan = solve_exact(scheme, optical, ip, cfg, opts)?;
        let objective = canonical_objective(&plan.wavelengths, cfg.epsilon);
        Some(ColGenPlan {
            plan: ExactPlan { objective, ..plan },
            colgen: ColGenStats {
                fell_back: true,
                ..stats_base
            },
        })
    };
    let base_stats = |master: &Master| ColGenStats {
        columns_seeded,
        columns_priced_in: 0,
        pricing_rounds: 0,
        gap_rounds: 0,
        reduced_cost_min: f64::INFINITY,
        lp_objective: f64::NAN,
        universe_size,
        columns_in_master: master.lazy.num_admitted(),
        conflict_rows: master.cell_row.len(),
        rounds: Vec::new(),
        fell_back: false,
    };
    if !seed_feasible {
        // The repair could not certify coverage — hand the instance to
        // the enumerated reference (small instances only; full-topology
        // heuristics always seed).
        return fallback(base_stats(&master));
    }

    let mut agg = SolverStats::default();
    let mut pricing_rounds = 0u64;
    let mut gap_rounds = 0u64;
    let mut columns_priced_in = 0usize;
    let mut reduced_cost_min = f64::INFINITY;
    let mut rounds: Vec<PricingRound> = Vec::new();
    let gap_break = (objective_quantum(cfg.epsilon) * 0.4).max(1e-6);
    let mut best_lp = f64::INFINITY;
    let mut stalled = 0u64;
    let mut proved_optimal = true;

    let (ip_sol, z_lp) = 'outer: loop {
        // Price to LP optimality.
        let (z_lp, lp_duals) = loop {
            let (sol, duals, st) = master.inc.solve_relaxation_with_duals();
            agg.merge(&st);
            if sol.status != Status::Optimal {
                // Seed left the restricted master infeasible.
                return fallback(base_stats(&master));
            }
            // Materialize any conflict row this LP point violates and
            // re-solve: pricing duals must reflect the rows that bind.
            let cuts = master.separate(&sol, 1e-9);
            if cuts > 0 {
                continue;
            }
            let duals = duals.expect("optimal relaxation yields duals");
            pricing_rounds += 1;
            let mut scan = master.price_round(&duals, -TOL, PRICE_CAP);
            truncate_global(&mut scan.candidates, GLOBAL_CAP);
            reduced_cost_min = reduced_cost_min.min(scan.reduced_min);
            rounds.push(PricingRound {
                lp_objective: sol.objective,
                admitted: scan.candidates.len(),
                reduced_min: scan.reduced_min,
            });
            if scan.candidates.is_empty() {
                break (sol.objective, duals);
            }
            if sol.objective < best_lp - 1e-7 {
                best_lp = sol.objective;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= STALL_CAP {
                    proved_optimal = false;
                    break (sol.objective, duals);
                }
            }
            for c in &scan.candidates {
                master.admit(c.slot, c.path_index, c.format, c.start);
            }
            columns_priced_in += scan.candidates.len();
            master.set_objective();
        };

        // Integer solve of the restricted master, warm off the converged
        // LP basis. An integer point may still double-book cells whose
        // rows stayed latent — separate and re-solve until clean, so the
        // incumbent is a genuine wavelength assignment.
        let sol = loop {
            let (sol, st) = master.inc.solve(opts);
            agg.merge(&st);
            match sol.status {
                Status::Optimal => {}
                Status::NodeLimit if !sol.objective.is_nan() => {}
                _ => return fallback(base_stats(&master)),
            }
            let cuts = master.separate(&sol, 0.5);
            if cuts == 0 {
                break sol;
            }
        };

        // A stalled LP never certified `z_lp` as the full-model bound —
        // return the restricted optimum as a flagged upper bound.
        if !proved_optimal {
            break 'outer (sol, z_lp);
        }

        // Exactness: any integer solution using an excluded column costs
        // at least `Z_LP + reduced`, so only columns with reduced cost
        // within the integrality gap can improve on the incumbent. Admit
        // them all (capped per round — the loop re-prices) and repeat;
        // when none remain, the RMP optimum is the full-model optimum.
        // Gaps below one objective quantum cannot hide a better integer
        // point at all.
        let gap = sol.objective - z_lp;
        if gap <= gap_break {
            break 'outer (sol, z_lp);
        }
        // Rows separated during the integer phase postdate `lp_duals`;
        // padding with zeros is exactly the `ν = 0` dual extension the
        // bound argument already relies on.
        let mut lp_duals = lp_duals;
        lp_duals.resize(master.inc.model().num_constraints(), 0.0);
        let mut scan = master.price_round(&lp_duals, gap + TOL, GAP_CAP);
        truncate_global(&mut scan.candidates, GAP_GLOBAL_CAP);
        if scan.candidates.is_empty() {
            break 'outer (sol, z_lp);
        }
        for c in &scan.candidates {
            master.admit(c.slot, c.path_index, c.format, c.start);
        }
        columns_priced_in += scan.candidates.len();
        gap_rounds += 1;
        master.set_objective();
    };

    let link_ids: Vec<_> = ip.links().iter().map(|l| l.id).collect();
    let wavelengths = master.lazy.space().extract(&ip_sol, |slot| link_ids[slot]);
    let objective = canonical_objective(&wavelengths, cfg.epsilon);
    agg.pricing_rounds = pricing_rounds + gap_rounds;
    Some(ColGenPlan {
        plan: ExactPlan {
            objective,
            wavelengths,
            stats: agg,
        },
        colgen: ColGenStats {
            columns_seeded,
            columns_priced_in,
            pricing_rounds,
            gap_rounds,
            reduced_cost_min,
            lp_objective: z_lp,
            universe_size,
            columns_in_master: master.lazy.num_admitted(),
            conflict_rows: master.cell_row.len(),
            rounds,
            fell_back: !proved_optimal,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::SpectrumGrid;

    fn cfg(pixels: u32) -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(pixels),
            k_paths: 2,
            ..Default::default()
        }
    }

    fn opts() -> SolveOptions {
        SolveOptions {
            max_nodes: 20_000,
            ..Default::default()
        }
    }

    #[test]
    fn single_link_matches_enumerated_optimum() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg(16), &opts()).unwrap();
        let full = solve_exact(Scheme::FlexWan, &g, &ip, &cfg(16), &opts()).unwrap();
        assert!(!cg.colgen.fell_back);
        assert_eq!(
            cg.plan.objective.to_bits(),
            canonical_objective(&full.wavelengths, 1e-3).to_bits()
        );
        assert!(cg.colgen.columns_in_master < cg.colgen.universe_size);
    }

    #[test]
    fn infeasible_instance_returns_none() {
        // Two 800 G links over one 10-px fiber: each needs 10 px.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        ip.add_link(a, b, 800);
        assert!(solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg(10), &opts()).is_none());
    }

    #[test]
    fn tight_spectrum_matches_enumerated_optimum() {
        // Feasible but conflict-bound: the gap loop has to work.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        g.add_edge(a, b, 240);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        ip.add_link(a, b, 800);
        let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg(11), &opts()).unwrap();
        let full = solve_exact(Scheme::FlexWan, &g, &ip, &cfg(11), &opts()).unwrap();
        assert_eq!(
            cg.plan.objective.to_bits(),
            canonical_objective(&full.wavelengths, 1e-3).to_bits()
        );
    }

    #[test]
    fn cover_lower_bound_is_exact_min_cost() {
        // 800 G @ 75 GHz vs 400 G @ 50 GHz, demand 1200 G: one of each
        // (2 + ε·125) beats three 400s (3 + ε·150) and two 800s
        // (2 + ε·150).
        let menu = reachable_formats(Scheme::FlexWan.transponder(), 100);
        let lb = cover_lower_bound(&menu, 100, 1e-3);
        let best = menu
            .iter()
            .filter(|f| f.data_rate_gbps >= 100)
            .map(|f| 1.0 + 1e-3 * f.spacing.ghz())
            .fold(f64::INFINITY, f64::min);
        assert!((lb - best).abs() < 1e-12, "lb {lb} best {best}");
    }
}
