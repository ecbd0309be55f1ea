//! Order statistics. Every quantile the benchmark reports is the
//! nearest-rank quantile of the samples; a failed operation enters as
//! `+∞`, so it counts as missing every latency limit.
//!
//! A run repeats identical, deterministic passes, and each operation is
//! reported at one value over the passes before quantiles are taken
//! across operations. The reference host's speed switches between a fast
//! state and one about 1.5× slower, each lasting seconds to minutes (other
//! tenants share the cores), while any slow-down of the code itself shows
//! in every pass. Which value steadies a run depends on the operations:
//!
//! - `heuristic_sweep` runs thousands of sub-millisecond to 100 ms jobs
//!   on the pool, and a pass now and then stalls; the median over passes
//!   ignores those stalls.
//! - `exact_colgen` and `churn_service` run long single-threaded
//!   operations, and within one run some passes fall in the fast state and
//!   some in the slow one. The median then jumps to whichever state held
//!   most passes, while the mean moves in proportion to the time spent in
//!   each: over eight runs of each the mean spread 0.06–0.23 against
//!   0.11–0.31 for the median.

/// Samples of one timing, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Records a failed operation.
    pub fn push_failed(&mut self) {
        self.0.push(f64::INFINITY);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn append(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Σ of the samples (`+∞` if any failed).
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn count_failed(&self) -> usize {
        self.0.iter().filter(|x| x.is_infinite()).count()
    }

    /// Nearest-rank quantile; `NaN` without samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, q)
    }
}

/// The same operations timed in several passes, in the same order.
#[derive(Debug, Clone, Default)]
pub struct Passes(Vec<Samples>);

impl Passes {
    pub fn push(&mut self, pass: &Samples) {
        if let Some(first) = self.0.first() {
            assert_eq!(first.len(), pass.len(), "passes ran different operations");
        }
        self.0.push(pass.clone());
    }

    /// Each operation at its mean over the passes; an operation that
    /// failed in any pass stays a failure.
    pub fn mean(&self) -> Samples {
        let n = self.0.first().map_or(0, Samples::len);
        let k = self.0.len() as f64;
        Samples(
            (0..n)
                .map(|i| self.0.iter().map(|p| p.0[i]).sum::<f64>() / k)
                .collect(),
        )
    }

    /// Each operation at its nearest-rank median over the passes; an
    /// operation that failed in any pass stays a failure.
    pub fn median(&self) -> Samples {
        let n = self.0.first().map_or(0, Samples::len);
        Samples(
            (0..n)
                .map(|i| {
                    let mut xs: Vec<f64> = self.0.iter().map(|p| p.0[i]).collect();
                    if xs.iter().any(|x| x.is_infinite()) {
                        return f64::INFINITY;
                    }
                    xs.sort_by(f64::total_cmp);
                    nearest_rank(&xs, 0.5)
                })
                .collect(),
        )
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted`: the smallest
/// sample `x` such that at least `q·n` samples are `≤ x`. `NaN` when
/// `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.50), 50.0);
        assert_eq!(nearest_rank(&xs, 0.90), 90.0);
        assert_eq!(nearest_rank(&xs, 0.95), 95.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&xs, 1.0), 100.0);
        // Rank ⌈q·n⌉: no interpolation between neighbours.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.51), 3.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
        assert!(nearest_rank(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_passes_keeps_failures() {
        let mut passes = Passes::default();
        for xs in [
            [5.0, 1.0, f64::INFINITY, 8.0],
            [4.0, 2.0, 3.0, 9.0],
            [6.0, f64::INFINITY, 1.0, 7.0],
        ] {
            passes.push(&Samples(xs.to_vec()));
        }
        let m = passes.median();
        assert_eq!(m.0, vec![5.0, f64::INFINITY, f64::INFINITY, 8.0]);
        assert_eq!(m.count_failed(), 2);
    }

    #[test]
    fn mean_of_passes_keeps_failures() {
        let mut passes = Passes::default();
        for xs in [[5.0, 1.0, f64::INFINITY], [4.0, 2.0, 3.0], [6.0, 6.0, 1.0]] {
            passes.push(&Samples(xs.to_vec()));
        }
        let m = passes.mean();
        assert_eq!(m.0, vec![5.0, 3.0, f64::INFINITY]);
        assert_eq!(m.count_failed(), 1);
    }

    #[test]
    fn failed_operations_count_as_infinite() {
        let mut s = Samples::default();
        for ms in [3.0, 1.0, 2.0] {
            s.push(ms);
        }
        s.push_failed();
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(0.75), 3.0);
        assert_eq!(s.quantile(0.9), f64::INFINITY);
    }
}
