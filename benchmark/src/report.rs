//! Metric names and units, and the result line.
//!
//! Every workload reports every metric: the end-to-end set on an untraced
//! run, the per-layer set on a traced one. A layer a workload never calls
//! reports 0 there (the solver on `heuristic_sweep`, say).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("plan_p50_ms", "ms"),
    ("plan_p90_ms", "ms"),
    ("restore_p50_ms", "ms"),
    ("restore_p90_ms", "ms"),
    ("event_p50_ms", "ms"),
    ("event_p95_ms", "ms"),
    ("transponders", "count"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topo.route_ms", "ms"),
    ("topo.cache_entries", "count"),
    ("topo.cache_useful_frac", "ratio"),
    ("planning.plan_ms", "ms"),
    ("planning.spectrum_ghz", "GHz"),
    ("planning.unmet_gbps", "Gbps"),
    ("planning.seed_ms", "ms"),
    ("shard.sharded_ms", "ms"),
    ("shard.boundary_demands", "count"),
    ("shard.coordination_rounds", "count"),
    ("restore.heuristic_ms", "ms"),
    ("restore.affected_gbps", "Gbps"),
    ("restore.restored_frac", "ratio"),
    ("restore.duals_ms", "ms"),
    ("pool.busy_frac", "ratio"),
    ("colgen.solve_ms", "ms"),
    ("colgen.other_ms", "ms"),
    ("colgen.pricing_rounds", "count"),
    ("colgen.gap_rounds", "count"),
    ("colgen.columns_priced_in", "count"),
    ("colgen.columns_in_master", "count"),
    ("colgen.conflict_rows", "count"),
    ("solver.lp_ms", "ms"),
    ("solver.phase1_ms", "ms"),
    ("solver.phase2_ms", "ms"),
    ("solver.dual_ms", "ms"),
    ("solver.unphased_ms", "ms"),
    ("solver.refactorizations", "count"),
    ("solver.pivots.phase1", "count"),
    ("solver.pivots.phase2", "count"),
    ("solver.pivots.dual", "count"),
    ("solver.cold_solves", "count"),
    ("solver.warm_solves", "count"),
    ("solver.nodes", "count"),
    ("service.tick_ms", "ms"),
    ("service.queue_ms", "ms"),
    ("service.self_ms", "ms"),
    ("service.warm_mutations", "count"),
    ("service.rebuilds", "count"),
    ("service.added_columns", "count"),
    ("service.tick_p50_ms.q1", "ms"),
    ("service.tick_p50_ms.q2", "ms"),
    ("service.tick_p50_ms.q3", "ms"),
    ("service.tick_p50_ms.q4", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-layer metrics whose sum, with `unattributed_ms`, is the traced
/// wall time `trace.wall_ms` (each workload sets its own; the rest are 0).
pub const LEDGER: &[&str] = &[
    "topo.route_ms",
    "planning.plan_ms",
    "restore.heuristic_ms",
    "shard.sharded_ms",
    "solver.lp_ms",
    "planning.seed_ms",
    "colgen.other_ms",
    "restore.duals_ms",
    "service.self_ms",
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness-check failures (empty = correct).
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The `solver.*` counters and phase times of `s`; `solver.lp_ms` is
    /// the caller's (it is a ledger layer).
    pub fn set_solver(&mut self, s: &flexwan_solver::SolverStats) {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        self.set("solver.phase1_ms", ms(s.time_phase1));
        self.set("solver.phase2_ms", ms(s.time_phase2));
        self.set("solver.dual_ms", ms(s.time_dual));
        self.set(
            "solver.unphased_ms",
            ms(s.time_total) - ms(s.time_phase1) - ms(s.time_phase2) - ms(s.time_dual),
        );
        self.set("solver.refactorizations", s.refactorizations as f64);
        self.set("solver.pivots.phase1", s.phase1_pivots as f64);
        self.set("solver.pivots.phase2", s.phase2_pivots as f64);
        self.set("solver.pivots.dual", s.dual_pivots as f64);
        self.set("solver.cold_solves", s.cold_solves as f64);
        self.set("solver.warm_solves", s.warm_solves as f64);
        self.set("solver.nodes", s.nodes as f64);
    }

    /// Whether the reported ledger layers plus `unattributed_ms` add up to
    /// `trace.wall_ms` (to a nanosecond per layer).
    pub fn ledger_closes(&self) -> bool {
        let get = |name: &str| self.metrics.get(name).copied().unwrap_or(0.0);
        let sum: f64 = LEDGER.iter().map(|n| get(n)).sum::<f64>() + get("unattributed_ms");
        (sum - get("trace.wall_ms")).abs() <= 1e-6 * (LEDGER.len() + 1) as f64
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The result line: the metric set of the run's mode, every metric
    /// present (a layer never called reports 0). JSON has no infinity, so
    /// a quantile that landed on a failed operation prints as `f64::MAX`.
    pub fn result_line(&self, trace: bool) -> String {
        let set = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { f64::MAX };
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_util::json::{parse, Value};

    /// Whether `name` matches `[A-Za-z0-9_.-]+` and starts with a letter or
    /// digit.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_match_the_pattern() {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for bad in ["", "a b", "p50/ms", "_x", ".x", "é", "q\"", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in [
            "setup_s",
            "solver.pivots.phase1",
            "service.tick_p50_ms.q4",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(good), "{good}");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn ledger_layers_and_unattributed_sum_to_the_traced_wall() {
        let mut o = Outcome::default();
        o.set("trace.wall_ms", 100.0);
        o.set("solver.lp_ms", 61.5);
        o.set("planning.seed_ms", 3.25);
        o.set("colgen.other_ms", 5.0);
        o.set("restore.duals_ms", 30.0);
        o.set("colgen.solve_ms", 69.75); // reported, not a ledger layer
        o.set("unattributed_ms", 0.25);
        assert!(o.ledger_closes());
        o.set("unattributed_ms", 0.5);
        assert!(!o.ledger_closes());
        for name in LEDGER {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == *name), "{name}");
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("wall_s", 1.25);
        o.set("plan_p90_ms", f64::INFINITY);
        let v = parse(&o.result_line(false)).expect("valid json");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let m = v.get("metrics").expect("metrics");
        for &(name, unit) in END_TO_END {
            let entry = m.get(name).expect(name);
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(unit));
        }
        let wall = m
            .get("wall_s")
            .and_then(|e| e.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(wall, Some(1.25));
        o.check(false, || "broken".into());
        let v = parse(&o.result_line(true)).expect("valid json");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert!(v
            .get("metrics")
            .and_then(|m| m.get("trace.wall_ms"))
            .is_some());
    }
}
