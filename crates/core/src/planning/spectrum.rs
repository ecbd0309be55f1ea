//! Network-wide spectrum bookkeeping (phase 2 of the planning heuristic).
//!
//! One [`SpectrumMask`] per fiber; a wavelength is placed with a joint
//! first-fit across every fiber of its path, which enforces the paper's
//! constraints by construction:
//!
//! * **spectrum conflict (3)** — a pixel is occupied at most once per
//!   fiber, because allocation only succeeds on jointly free runs;
//! * **spectrum consistency (4)** — the same pixel range is occupied on
//!   every fiber of the path;
//! * **grid discipline** — fixed-grid schemes only start channels on grid
//!   boundaries (the `align` parameter).

use flexwan_optical::spectrum::{PixelRange, PixelWidth, SpectrumGrid, SpectrumMask};
use flexwan_topo::graph::EdgeId;
use flexwan_topo::path::Path;

/// Per-fiber spectrum occupancy for a whole optical topology.
#[derive(Debug, Clone)]
pub struct SpectrumState {
    grid: SpectrumGrid,
    masks: Vec<SpectrumMask>,
}

impl SpectrumState {
    /// All-free state for `num_fibers` fibers on `grid`.
    pub fn new(grid: SpectrumGrid, num_fibers: usize) -> Self {
        SpectrumState {
            grid,
            masks: vec![SpectrumMask::new(grid); num_fibers],
        }
    }

    /// The grid in use.
    pub fn grid(&self) -> SpectrumGrid {
        self.grid
    }

    /// The occupancy mask of fiber `e`.
    pub fn mask(&self, e: EdgeId) -> &SpectrumMask {
        &self.masks[e.0 as usize]
    }

    /// Finds the lowest `align`-aligned channel of `width` jointly free on
    /// every fiber of `path`, without allocating it; `None` for a path
    /// without fibers.
    pub fn find(&self, path: &Path, width: PixelWidth, align: u32) -> Option<PixelRange> {
        path.edges.first()?;
        SpectrumMask::first_fit_hops(
            self.grid.pixels(),
            &path.edges,
            |e| std::iter::once(self.mask(*e)),
            width,
            align,
        )
    }

    /// Finds and occupies a channel along `path`; `None` (state unchanged)
    /// when no aligned joint run exists.
    pub fn allocate(&mut self, path: &Path, width: PixelWidth, align: u32) -> Option<PixelRange> {
        let range = self.find(path, width, align)?;
        for e in &path.edges {
            self.masks[e.0 as usize]
                .occupy(&range)
                .expect("jointly free range must occupy cleanly");
        }
        Some(range)
    }

    /// Releases `range` on every fiber of `path` (e.g. when a failed
    /// wavelength's spectrum is reclaimed for restoration).
    pub fn release(&mut self, path: &Path, range: &PixelRange) {
        for e in &path.edges {
            self.masks[e.0 as usize]
                .release(range)
                .expect("release must match a prior allocation");
        }
    }

    /// Occupies an explicit `range` along `path` (used when replaying a
    /// plan into a fresh state); fails if any pixel is taken.
    pub fn occupy_exact(
        &mut self,
        path: &Path,
        range: &PixelRange,
    ) -> Result<(), flexwan_optical::OpticalError> {
        for (i, e) in path.edges.iter().enumerate() {
            if let Err(err) = self.masks[e.0 as usize].occupy(range) {
                // Roll back the fibers already occupied.
                for undone in &path.edges[..i] {
                    self.masks[undone.0 as usize]
                        .release(range)
                        .expect("rollback of fresh occupation");
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// Finds the lowest `align`-aligned channel of `width` placeable along
    /// `route`, choosing one free parallel fiber per hop; returns the
    /// channel and the chosen fibers without allocating.
    ///
    /// The spectrum-consistency constraint applies to the *chosen* fibers:
    /// the same pixel range must be free on one parallel of every hop.
    pub fn find_route(
        &self,
        route: &flexwan_topo::route::Route,
        width: PixelWidth,
        align: u32,
    ) -> Option<(PixelRange, Vec<EdgeId>)> {
        let range = SpectrumMask::first_fit_hops(
            self.grid.pixels(),
            &route.hops,
            |hop| hop.iter().map(|e| self.mask(*e)),
            width,
            align,
        )?;
        let chosen = route
            .hops
            .iter()
            .map(|hop| {
                *hop.iter()
                    .find(|e| self.mask(**e).is_free(&range))
                    .expect("the start map has a free parallel on every hop")
            })
            .collect();
        Some((range, chosen))
    }

    /// [`SpectrumState::find_route`] + allocation on the chosen fibers.
    pub fn allocate_route(
        &mut self,
        route: &flexwan_topo::route::Route,
        width: PixelWidth,
        align: u32,
    ) -> Option<(PixelRange, Vec<EdgeId>)> {
        let (range, chosen) = self.find_route(route, width, align)?;
        for e in &chosen {
            self.masks[e.0 as usize]
                .occupy(&range)
                .expect("found range is free");
        }
        Some((range, chosen))
    }

    /// Total occupied spectrum summed over fibers, GHz — the
    /// fiber-weighted spectrum-usage metric.
    pub fn total_occupied_ghz(&self) -> f64 {
        self.masks.iter().map(SpectrumMask::occupied_ghz).sum()
    }

    /// Highest per-fiber occupancy fraction (the bottleneck fiber).
    pub fn peak_utilization(&self) -> f64 {
        self.masks
            .iter()
            .map(|m| f64::from(m.occupied_pixels()) / f64::from(m.pixels()))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_topo::graph::Graph;

    fn chain() -> (Graph, Path) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let e1 = g.add_edge(a, b, 100);
        let e2 = g.add_edge(b, c, 100);
        let p = Path::new(&g, vec![a, b, c], vec![e1, e2]);
        (g, p)
    }

    fn w(px: u16) -> PixelWidth {
        PixelWidth::new(px)
    }

    #[test]
    fn allocate_is_consistent_across_fibers() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(32), g.num_edges());
        let r1 = s.allocate(&p, w(6), 1).unwrap();
        assert_eq!(r1.start, 0);
        // Both fibers show the same occupation.
        assert!(!s.mask(EdgeId(0)).is_free(&r1));
        assert!(!s.mask(EdgeId(1)).is_free(&r1));
        let r2 = s.allocate(&p, w(6), 1).unwrap();
        assert_eq!(r2.start, 6);
    }

    #[test]
    fn allocation_failure_leaves_state_untouched() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(8), g.num_edges());
        assert!(s.allocate(&p, w(6), 1).is_some());
        let before = s.total_occupied_ghz();
        assert!(s.allocate(&p, w(6), 1).is_none());
        assert_eq!(s.total_occupied_ghz(), before);
    }

    #[test]
    fn release_round_trip() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(16), g.num_edges());
        let r = s.allocate(&p, w(4), 1).unwrap();
        s.release(&p, &r);
        assert_eq!(s.total_occupied_ghz(), 0.0);
        // The freed run is reusable.
        assert_eq!(s.allocate(&p, w(4), 1), Some(r));
    }

    #[test]
    fn aligned_allocation_for_fixed_grid() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(24), g.num_edges());
        // A pixel-wise allocation of 3 px leaves the grid misaligned …
        let _ = s.allocate(&p, w(3), 1).unwrap();
        // … and a 6-aligned 6 px channel must start at 6, not 3.
        let r = s.allocate(&p, w(6), 6).unwrap();
        assert_eq!(r.start, 6);
    }

    #[test]
    fn occupy_exact_rolls_back_on_conflict() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(16), g.num_edges());
        // Occupy on the second fiber only, via a one-hop path.
        let p2 = Path::new(
            &g,
            vec![g.node_by_name("b").unwrap(), g.node_by_name("c").unwrap()],
            vec![EdgeId(1)],
        );
        let r = PixelRange::new(0, w(4));
        s.occupy_exact(&p2, &r).unwrap();
        // Whole-path exact occupation now conflicts on fiber 1 and must
        // leave fiber 0 untouched.
        assert!(s.occupy_exact(&p, &r).is_err());
        assert!(s.mask(EdgeId(0)).is_free(&r));
    }

    #[test]
    fn route_allocation_spills_to_parallel_fiber() {
        // Two parallel fibers a–b: second wavelength lands on the second
        // pair at the same pixels.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 100);
        g.add_edge(a, b, 102);
        let routes = flexwan_topo::route::k_shortest_routes(&g, a, b, 2, &Default::default());
        assert_eq!(routes.len(), 1, "one node-distinct route");
        let mut s = SpectrumState::new(SpectrumGrid::new(8), g.num_edges());
        let (r1, f1) = s.allocate_route(&routes[0], w(8), 1).unwrap();
        let (r2, f2) = s.allocate_route(&routes[0], w(8), 1).unwrap();
        assert_eq!(r1, r2, "same pixels, different pair");
        assert_ne!(f1, f2);
        assert!(
            s.allocate_route(&routes[0], w(8), 1).is_none(),
            "conduit full"
        );
    }

    #[test]
    fn route_allocation_mixes_pairs_per_hop() {
        // Hop 1 pair A full, hop 2 pair B full: the route still fits by
        // choosing (pair B, pair A).
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let e0 = g.add_edge(a, b, 50);
        let _e1 = g.add_edge(a, b, 52);
        let _e2 = g.add_edge(b, c, 60);
        let e3 = g.add_edge(b, c, 62);
        let mut s = SpectrumState::new(SpectrumGrid::new(8), g.num_edges());
        // Fill e0 and e3 fully.
        for e in [e0, e3] {
            let p = Path::new(&g, vec![g.edge(e).a, g.edge(e).b], vec![e]);
            s.occupy_exact(&p, &PixelRange::new(0, w(8))).unwrap();
        }
        let routes = flexwan_topo::route::k_shortest_routes(&g, a, c, 1, &Default::default());
        let (range, chosen) = s.find_route(&routes[0], w(8), 1).unwrap();
        assert_eq!(range.start, 0);
        assert_eq!(chosen, vec![EdgeId(1), EdgeId(2)]);
    }

    /// The per-pixel scans the word-parallel search replaced, kept as the
    /// reference it must match bit for bit.
    mod oracle {
        use super::*;
        use flexwan_topo::route::Route;

        pub fn is_free(m: &SpectrumMask, range: &PixelRange) -> bool {
            range.end() <= m.pixels() && range.pixels().all(|p| !m.is_occupied(p))
        }

        pub fn first_fit_joint_aligned(
            masks: &[&SpectrumMask],
            width: PixelWidth,
            align: u32,
        ) -> Option<PixelRange> {
            let pixels = masks.first()?.pixels();
            let need = u32::from(width.pixels());
            if need > pixels {
                return None;
            }
            let mut start = 0u32;
            while start + need <= pixels {
                match (start..start + need).find(|&p| masks.iter().any(|m| m.is_occupied(p))) {
                    Some(p) => start = (p + 1).div_ceil(align) * align,
                    None => return Some(PixelRange::new(start, width)),
                }
            }
            None
        }

        pub fn find_route(
            s: &SpectrumState,
            route: &Route,
            width: PixelWidth,
            align: u32,
        ) -> Option<(PixelRange, Vec<EdgeId>)> {
            let need = u32::from(width.pixels());
            let mut start = 0u32;
            while start + need <= s.grid.pixels() {
                let range = PixelRange::new(start, width);
                let chosen: Option<Vec<EdgeId>> = route
                    .hops
                    .iter()
                    .map(|hop| hop.iter().copied().find(|e| is_free(s.mask(*e), &range)))
                    .collect();
                if let Some(chosen) = chosen {
                    return Some((range, chosen));
                }
                start += align;
            }
            None
        }
    }

    #[test]
    fn word_parallel_search_matches_per_pixel_scan() {
        use flexwan_topo::route::Route;
        use flexwan_util::rng::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0f17);
        for case in 0..2400 {
            let pixels = [32u32, 96, 100, 130, 384][rng.gen_range(0..5usize)];
            let need = match rng.gen_range(0..10u32) {
                0 => rng.gen_range(65..=pixels.max(65)),
                1 => pixels,
                _ => rng.gen_range(1..=24u32),
            };
            let width = w(need as u16);
            let align = [1u32, 2, 3, 4, 6, 8][rng.gen_range(0..6usize)];
            let hops: Vec<Vec<EdgeId>> = {
                let mut next = 0u32;
                (0..rng.gen_range(0..=5usize))
                    .map(|_| {
                        (0..rng.gen_range(1..=3u32))
                            .map(|_| {
                                next += 1;
                                EdgeId(next - 1)
                            })
                            .collect()
                    })
                    .collect()
            };
            let fibers = hops.iter().map(Vec::len).sum::<usize>();

            // Occupancy 0–100 %, drawn per pixel or per block of up to
            // 12 pixels so both scattered and run-shaped gaps appear.
            let density = f64::from(rng.gen_range(0..=100u32)) / 100.0;
            let block = if rng.gen_bool(0.5) {
                1
            } else {
                rng.gen_range(2..=12u32)
            };
            let mut s = SpectrumState::new(SpectrumGrid::new(pixels), fibers);
            for mask in &mut s.masks {
                let mut p = 0;
                while p < pixels {
                    let len = block.min(pixels - p);
                    if rng.gen_bool(density) {
                        mask.occupy(&PixelRange::new(p, w(len as u16))).unwrap();
                    }
                    p += len;
                }
            }

            let route = Route {
                nodes: Vec::new(),
                hops,
                length_km: 0,
            };
            assert_eq!(
                s.find_route(&route, width, align),
                oracle::find_route(&s, &route, width, align),
                "case {case}: find_route, {pixels} px, width {need}, align {align}"
            );
            let firsts: Vec<&SpectrumMask> = route.hops.iter().map(|h| s.mask(h[0])).collect();
            assert_eq!(
                SpectrumMask::first_fit_joint_aligned(&firsts, width, align),
                oracle::first_fit_joint_aligned(&firsts, width, align),
                "case {case}: first_fit_joint_aligned, {pixels} px, width {need}, align {align}"
            );
            for mask in &s.masks {
                let range = PixelRange::new(rng.gen_range(0..pixels), width);
                assert_eq!(
                    mask.is_free(&range),
                    oracle::is_free(mask, &range),
                    "case {case}: is_free {range}"
                );
            }
        }
    }

    #[test]
    fn peak_utilization_tracks_bottleneck() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(16), g.num_edges());
        s.allocate(&p, w(8), 1).unwrap();
        assert!((s.peak_utilization() - 0.5).abs() < 1e-12);
    }
}
