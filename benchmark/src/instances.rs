//! Workload inputs. The two paper topologies (T-backbone, CERNET) are the
//! fixed, paper-calibrated instances; everything the workload seed moves
//! (the continental generator, the churn stream and its transport faults)
//! is derived from the seed in this module.

use std::collections::HashSet;

use flexwan_core::planning::{plan, PlannerConfig};
use flexwan_core::Scheme;
use flexwan_ctrl::service::ChurnEvent;
use flexwan_optical::spectrum::SpectrumGrid;
use flexwan_topo::continental::{continental, Continental, Family, ScaleParams};
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::tbackbone::Backbone;
use flexwan_util::rng::ChaCha8Rng;

/// The §7–§8 planner configuration: K = 5 candidate routes, full C-band.
pub fn paper_config() -> PlannerConfig {
    PlannerConfig {
        k_paths: 5,
        ..PlannerConfig::default()
    }
}

/// The paper's 8×5 T-backbone.
pub fn tbackbone() -> Backbone {
    ScaleParams::tbackbone().build(Family::TBackbone)
}

/// CERNET with ARROW-style demands.
pub fn cernet() -> Backbone {
    ScaleParams::cernet().build(Family::Cernet)
}

/// CERNET at an exactly solvable demand envelope: every demand scaled by
/// `scale` (floored to the 100 G quantum, at least 100 G) and the links
/// the heuristic cannot serve at all dropped.
pub fn cernet_envelope(base: &Backbone, scale: f64) -> Backbone {
    let cfg = paper_config();
    let mut scaled = IpTopology::new();
    for l in base.ip.links() {
        let d = ((l.demand_gbps as f64 * scale / 100.0).floor() as u64 * 100).max(100);
        scaled.add_link(l.src, l.dst, d);
    }
    let unserved: HashSet<IpLinkId> = plan(Scheme::FlexWan, &base.optical, &scaled, &cfg)
        .unmet
        .iter()
        .map(|&(link, _)| link)
        .collect();
    let mut ip = IpTopology::new();
    for l in scaled.links() {
        if !unserved.contains(&l.id) {
            ip.add_link(l.src, l.dst, l.demand_gbps);
        }
    }
    Backbone {
        optical: base.optical.clone(),
        ip,
    }
}

/// The 6-region × 7-metro continental instance, generated from `seed`.
pub fn continental_instance(seed: u64) -> Continental {
    continental(&ScaleParams {
        seed,
        ..ScaleParams::continental()
    })
}

/// Planner configuration of the continental plans (K = 3, as the sharded
/// planner's reports use).
pub fn continental_config() -> PlannerConfig {
    PlannerConfig {
        k_paths: 3,
        ..PlannerConfig::default()
    }
}

/// The 4-node ring-plus-chord suite instance on which column generation is
/// checked bit for bit against the enumerated MIP.
pub fn suite_instance() -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| g.add_node(n));
    g.add_edge(a, b, 420);
    g.add_edge(b, c, 360);
    g.add_edge(c, d, 510);
    g.add_edge(d, a, 280);
    g.add_edge(a, c, 760);
    let mut ip = IpTopology::new();
    ip.add_link(a, b, 300);
    ip.add_link(a, c, 200);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(12),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// The churn drill backbone: 4 nodes with detour diversity, so every cut
/// the stream issues (fibers 0 and 1, also both at once) leaves an
/// alternate route; a 12-pixel grid keeps exact B&B small.
pub fn drill_backbone() -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| g.add_node(n));
    g.add_edge(a, b, 400);
    g.add_edge(b, c, 400);
    g.add_edge(a, c, 900);
    g.add_edge(c, d, 400);
    g.add_edge(a, d, 900);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 300);
    ip.add_link(a, d, 200);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(12),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// Draws the drift walk of [`churn_stream`]: the same for every workload
/// seed.
const DRIFT_WALK_SEED: u64 = 0xd81f_7a1c;

/// The seeded mixed churn stream on the drill backbone, exactly `n`
/// events. It runs in blocks of ten: one resize first (IP link `b mod 2`
/// of block `b` toggles between 200 and 300 Gbps), then eight telemetry
/// drifts, then one cut or repair, cycling over four blocks as: cut fiber
/// 0, cut fiber 1, repair fiber 0, repair fiber 1. The drifts (fiber and
/// sign) follow one fixed random walk; the seed shuffles the order of each
/// block's eight drifts, and so which of them share a tick with the
/// resize or the cut. So every seed re-plans at the same cut states and
/// at the same drift state after each block: a pass measures the service,
/// not the luck of the draw (drawn freely, the drifts moved the 90th
/// percentile of the re-planning ticks by 20 % from seed to seed).
/// Per-fiber drift stays within ±9.5 dB at block ends and ±13 dB inside a
/// block, below the service's 20 dB cut-escalation threshold.
pub fn churn_stream(n: usize, seed: u64) -> Vec<ChurnEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut walk = ChaCha8Rng::seed_from_u64(DRIFT_WALK_SEED);
    let mut demand = [300u64, 200];
    let mut drift = [0.0f64; 5];
    let mut events = Vec::with_capacity(n + 10);
    for b in 0usize.. {
        if events.len() >= n {
            break;
        }
        let link = b % 2;
        demand[link] = 500 - demand[link];
        let fiber = EdgeId(link as u32);
        events.push(ChurnEvent::DemandDelta {
            link: IpLinkId(link as u32),
            demand_gbps: demand[link],
        });
        let mut drifts: Vec<ChurnEvent> = (0..8)
            .map(|_| {
                let f = walk.gen_range(0..5usize);
                let mut delta = if walk.gen_bool(0.5) { -0.5 } else { 0.4 };
                if (drift[f] + delta).abs() >= 9.5 {
                    delta = if delta < 0.0 { 0.4 } else { -0.5 };
                }
                drift[f] += delta;
                ChurnEvent::TelemetryDrift {
                    fiber: EdgeId(f as u32),
                    delta_db: delta,
                }
            })
            .collect();
        rng.shuffle(&mut drifts);
        events.extend(drifts);
        events.push(if b % 4 < 2 {
            ChurnEvent::FiberCut(fiber)
        } else {
            ChurnEvent::FiberRepair(fiber)
        });
    }
    events.truncate(n);
    events
}
