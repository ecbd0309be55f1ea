//! Incremental planning: grow capacity without touching live traffic.
//!
//! Production backbones do not get re-planned from scratch (§4.4: the
//! planning module "serves as a long-term strategy and is operated
//! infrequently"; §9: evolution must be smooth). When demands grow or new
//! IP links appear, the operator wants *additional* wavelengths placed
//! around the live ones — zero retunes, zero traffic hits (or, with a
//! defrag budget, bounded hitless retunes).
//!
//! [`plan_incremental`] does exactly that: it replays the base plan's
//! spectrum occupation, computes each link's provisioning deficit against
//! the new demand set, and runs the normal format-selection + spectrum
//! assignment machinery for the deficits only. The `ablation_incremental`
//! experiment quantifies the cost of never moving anything, against
//! clairvoyant from-scratch re-planning.

use std::sync::Arc;

use flexwan_topo::cache::RouteCache;
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;
use flexwan_topo::ksp::DijkstraScratch;
use flexwan_topo::route::{k_shortest_routes_scratch, Route};

use crate::planning::format_dp::select_formats;
use crate::planning::heuristic::{Plan, PlannerConfig};
use crate::planning::spectrum::SpectrumState;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// Extends `base` to cover `ip` (the *full* demand set: existing links,
/// possibly with grown demands, plus any new links appended). Existing
/// wavelengths keep their channels; only deficits are provisioned.
///
/// The returned plan contains the base wavelengths (verbatim, possibly
/// retuned when `cfg.defrag_moves > 0`) plus the newly added ones.
pub fn plan_incremental(
    base: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
) -> Plan {
    let none = std::collections::HashSet::new();
    let mut scratch = DijkstraScratch::new();
    let candidate_routes: Vec<Arc<Vec<Route>>> = ip
        .links()
        .iter()
        .map(|l| {
            Arc::new(k_shortest_routes_scratch(
                optical,
                l.src,
                l.dst,
                cfg.k_paths,
                &none,
                &mut scratch,
            ))
        })
        .collect();
    plan_incremental_with_routes(base, optical, ip, cfg, candidate_routes)
}

/// [`plan_incremental`] with candidate routes served by `cache` (shared
/// with any other planner working the same backbone). Output is
/// bit-identical to [`plan_incremental`].
pub fn plan_incremental_cached(
    base: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    cache: &RouteCache,
) -> Plan {
    let none = std::collections::HashSet::new();
    let candidate_routes: Vec<Arc<Vec<Route>>> = ip
        .links()
        .iter()
        .map(|l| cache.routes(optical, l.src, l.dst, cfg.k_paths, &none))
        .collect();
    plan_incremental_with_routes(base, optical, ip, cfg, candidate_routes)
}

fn plan_incremental_with_routes(
    base: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    candidate_routes: Vec<Arc<Vec<Route>>>,
) -> Plan {
    let scheme: Scheme = base.scheme;
    let model = scheme.transponder();
    let align = scheme.alignment_pixels().max(cfg.min_alignment);

    // Replay the live spectrum.
    let mut spectrum = SpectrumState::new(cfg.grid, optical.num_edges());
    let mut wavelengths = base.wavelengths.clone();
    for w in &wavelengths {
        spectrum
            .occupy_exact(&w.path, &w.channel)
            .expect("base plan is conflict-free");
    }

    // Deficits, most-constrained first (same discipline as fresh planning).
    let mut order: Vec<usize> = (0..ip.num_links()).collect();
    order.sort_by_key(|&i| {
        let len = candidate_routes[i]
            .first()
            .map_or(u32::MAX, |r| r.length_km);
        (
            std::cmp::Reverse(len),
            std::cmp::Reverse(ip.links()[i].demand_gbps),
            i,
        )
    });

    let mut unmet = Vec::new();
    for &i in &order {
        let link = &ip.links()[i];
        let provisioned: u64 = wavelengths
            .iter()
            .filter(|w| w.link == link.id)
            .map(|w| u64::from(w.format.data_rate_gbps))
            .sum();
        let mut remaining = link.demand_gbps.saturating_sub(provisioned);
        if remaining == 0 {
            continue;
        }
        for (k, route) in candidate_routes[i].iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let Some(formats) = select_formats(model, remaining, route.length_km, cfg.epsilon)
            else {
                continue;
            };
            for format in formats {
                if remaining == 0 {
                    break;
                }
                let placed = spectrum
                    .allocate_route(route, format.spacing, align)
                    .or_else(|| {
                        if cfg.defrag_moves == 0 {
                            return None;
                        }
                        crate::defrag::make_room(
                            &mut spectrum,
                            &mut wavelengths,
                            route,
                            format.spacing,
                            align,
                            cfg.defrag_moves,
                            optical,
                        )
                        .map(|out| (out.channel, out.chosen_fibers))
                    });
                if let Some((channel, chosen)) = placed {
                    remaining = remaining.saturating_sub(u64::from(format.data_rate_gbps));
                    wavelengths.push(Wavelength {
                        link: link.id,
                        path_index: k,
                        path: route.realize(optical, &chosen),
                        format,
                        channel,
                    });
                }
            }
        }
        if remaining > 0 {
            unmet.push((link.id, remaining));
        }
    }

    Plan {
        scheme,
        wavelengths,
        unmet,
        spectrum,
        candidate_routes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::heuristic::plan;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::graph::NodeId;

    fn backbone() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 150);
        g.add_edge(b, c, 200);
        g.add_edge(a, c, 500);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 400);
        ip.add_link(b, c, 300);
        (g, ip)
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        }
    }

    #[test]
    fn growth_adds_without_disturbing() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &cfg());
        assert!(base.is_feasible());
        let before: Vec<_> = base.wavelengths.clone();

        // Demands double and a new link appears.
        let mut grown = ip.scaled(2);
        grown.add_link(NodeId(0), NodeId(2), 600);
        let inc = plan_incremental(&base, &g, &grown, &cfg());
        assert!(inc.is_feasible(), "unmet {:?}", inc.unmet);
        // Every original wavelength survives untouched.
        for (i, w) in before.iter().enumerate() {
            assert_eq!(&inc.wavelengths[i], w, "wavelength {i} disturbed");
        }
        // And the new demands are fully covered.
        for l in grown.links() {
            assert!(
                inc.provisioned_gbps(l.id) >= l.demand_gbps,
                "link {:?} under-provisioned",
                l.id
            );
        }
    }

    #[test]
    fn cached_incremental_matches_plain() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &cfg());
        let grown = ip.scaled(2);
        let cache = RouteCache::new();
        let plain = plan_incremental(&base, &g, &grown, &cfg());
        let cached = plan_incremental_cached(&base, &g, &grown, &cfg(), &cache);
        assert_eq!(plain.wavelengths, cached.wavelengths);
        assert_eq!(plain.unmet, cached.unmet);
        assert_eq!(cache.misses() as usize, grown.num_links());
    }

    #[test]
    fn no_deficit_is_a_noop() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &cfg());
        let inc = plan_incremental(&base, &g, &ip, &cfg());
        assert_eq!(inc.wavelengths, base.wavelengths);
        assert!(inc.is_feasible());
    }

    #[test]
    fn incremental_reports_unmet_when_full() {
        let (g, ip) = backbone();
        let tight = PlannerConfig {
            grid: SpectrumGrid::new(8),
            ..Default::default()
        };
        let base = plan(Scheme::FlexWan, &g, &ip, &tight);
        // Base fits (one 75 GHz channel per fiber); doubling cannot.
        assert!(base.is_feasible());
        let inc = plan_incremental(&base, &g, &ip.scaled(3), &tight);
        assert!(!inc.is_feasible());
        // Base wavelengths still untouched even in failure.
        for (i, w) in base.wavelengths.iter().enumerate() {
            assert_eq!(&inc.wavelengths[i], w);
        }
    }

    #[test]
    fn defrag_budget_enables_growth_with_bounded_retunes() {
        // Fragment a single fiber via incremental arrivals, then grow a
        // demand that only fits after a retune.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 100);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 100); // 100 G → 50 GHz = 4 px
        let tight = PlannerConfig {
            grid: SpectrumGrid::new(20),
            ..Default::default()
        };
        let base = plan(Scheme::FlexWan, &g, &ip, &tight);
        // Manually fragment: the base wavelength sits at [0,4); occupy a
        // decoy in the middle by planning a second link, then remove it…
        // simpler: grow to a demand that needs 16 contiguous px while a
        // 4-px wavelength sits at the band start — fits without moves
        // (free [4,20)), so shrink the grid story: grow twice so the
        // second growth needs defrag.
        let mut grown = IpTopology::new();
        grown.add_link(a, b, 100);
        let inc1 = plan_incremental(&base, &g, &grown, &tight);
        assert!(inc1.is_feasible());
        let _ = inc1;
        let without = PlannerConfig {
            defrag_moves: 0,
            ..tight.clone()
        };
        let with = PlannerConfig {
            defrag_moves: 2,
            ..tight
        };
        // Fragmented layout: place wavelengths at [0,4) and force the next
        // allocation to need a 16-px run.
        let mut frag_ip = IpTopology::new();
        frag_ip.add_link(a, b, 100);
        let frag = plan(Scheme::FlexWan, &g, &frag_ip, &with);
        // Retune-free growth to 800 G (112.5 GHz = 9 px at 100 km…
        // actually 800 G @ 112.5 GHz reaches 150 km): free run after the
        // base 4-px channel is [4,20) = 16 px ≥ 9 px → fits without moves.
        // To force fragmentation, pin the base wavelength mid-band first.
        let mut pinned = frag.clone();
        let w0 = &mut pinned.wavelengths[0];
        pinned.spectrum.release(&w0.path, &w0.channel);
        let mid = flexwan_optical::PixelRange::new(8, w0.channel.width);
        pinned.spectrum.occupy_exact(&w0.path, &mid).unwrap();
        w0.channel = mid;
        // Now free runs are [0,8) and [12,20): a 9-px channel needs defrag.
        let mut grown2 = IpTopology::new();
        grown2.add_link(a, b, 900); // 100 existing + 800 new
        let stuck = plan_incremental(&pinned, &g, &grown2, &without);
        assert!(!stuck.is_feasible(), "9 px must not fit while fragmented");
        let freed = plan_incremental(&pinned, &g, &grown2, &with);
        assert!(freed.is_feasible(), "unmet {:?}", freed.unmet);
        // The pinned wavelength was retuned (defrag) — but traffic-wise
        // hitlessly, and only one move was needed.
        assert_ne!(freed.wavelengths[0].channel, mid);
    }
}
