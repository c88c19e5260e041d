//! The metric names and units the benchmark prints. `BENCHMARK.json` at
//! the repository root declares the same lists; a unit test keeps them
//! equal.

use psens_microdata::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("anonymize_s", "s"),
    ("check_s", "s"),
    ("analyze_s", "s"),
    ("anonymize_p50_ms", "ms"),
    ("anonymize_cold_p50_ms", "ms"),
    ("check_p50_ms", "ms"),
    ("analyze_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("req_per_s", "1/s"),
    ("server_rss_mb", "MB"),
    ("update_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("microdata.csv.read_ms", "ms"),
    ("microdata.csv.parse_ms", "ms"),
    ("core.conditions.stats_ms", "ms"),
    ("algorithms.samarati.search_ms", "ms"),
    ("core.evaluator.check_ms", "ms"),
    ("core.evaluator.nodes_checked", "count"),
    ("core.evaluator.nodes_pruned", "count"),
    ("hierarchy.apply.tables_materialized", "count"),
    ("hierarchy.apply.materialize_ms", "ms"),
    ("core.suppress.suppressed_rows", "count"),
    ("core.model.verify_ms", "ms"),
    ("microdata.csv.write_ms", "ms"),
    ("core.psensitive.check_ms", "ms"),
    ("metrics.risk_ms", "ms"),
    ("cli.anonymize.unattributed_ms", "ms"),
    ("cli.check.unattributed_ms", "ms"),
    ("cli.analyze.unattributed_ms", "ms"),
    ("registry.store_warm_hits", "count"),
    ("registry.store_cold_misses", "count"),
    ("registry.pool_bytes", "bytes"),
    ("core.verdict.reuse_ratio", "ratio"),
    ("algorithms.samarati.search_warm_ms", "ms"),
    ("algorithms.samarati.search_cold_ms", "ms"),
    ("server.anonymize.overhead_ms", "ms"),
    ("server.anonymize_cold.overhead_ms", "ms"),
    ("server.anonymize.response_bytes", "bytes"),
    ("server.shed_total", "count"),
    ("sql.query_ms", "ms"),
    ("microdata.delta.apply_ms", "ms"),
    ("core.incremental.apply_ms", "ms"),
    ("core.verdict.invalidate_ms", "ms"),
    ("core.verdict.kept", "count"),
    ("core.verdict.invalidated", "count"),
    ("algorithms.samarati.reverify_ms", "ms"),
    ("server.update.overhead_ms", "ms"),
    ("server.watch.flips", "count"),
    ("trace.overhead_ms", "ms"),
];

/// For each per-layer metric: the end-to-end metrics it should move, and
/// those it should leave alone, on both workloads. A claim that a layer got
/// faster is checked against this before anyone looks at the numbers.
pub const EXPECTATIONS: &[(&str, &str, &str)] = &[
    (
        "microdata.csv.read_ms",
        "anonymize_s check_s analyze_s setup_s",
        "daemon latencies",
    ),
    (
        "microdata.csv.parse_ms",
        "anonymize_s check_s analyze_s setup_s",
        "daemon latencies",
    ),
    (
        "core.conditions.stats_ms",
        "anonymize_s analyze_s setup_s",
        "check_s query_p50_ms",
    ),
    (
        "algorithms.samarati.search_ms",
        "anonymize_s",
        "check_s analyze_s",
    ),
    (
        "core.evaluator.check_ms",
        "anonymize_s anonymize_cold_p50_ms",
        "check_s query_p50_ms",
    ),
    (
        "core.evaluator.nodes_checked",
        "anonymize_s anonymize_cold_p50_ms",
        "check_s query_p50_ms",
    ),
    (
        "core.evaluator.nodes_pruned",
        "anonymize_s anonymize_cold_p50_ms",
        "check_s query_p50_ms",
    ),
    (
        "hierarchy.apply.tables_materialized",
        "anonymize_s anonymize_p50_ms anonymize_cold_p50_ms",
        "check_s query_p50_ms",
    ),
    (
        "hierarchy.apply.materialize_ms",
        "anonymize_s anonymize_p50_ms anonymize_cold_p50_ms",
        "check_s query_p50_ms",
    ),
    ("core.suppress.suppressed_rows", "anonymize_s", "check_s"),
    (
        "core.model.verify_ms",
        "anonymize_s once a release is verified before it is written",
        "check_s",
    ),
    (
        "microdata.csv.write_ms",
        "anonymize_s",
        "check_s analyze_s daemon latencies",
    ),
    (
        "core.psensitive.check_ms",
        "check_s check_p50_ms",
        "anonymize_s",
    ),
    (
        "metrics.risk_ms",
        "analyze_s analyze_p50_ms",
        "anonymize_s check_s",
    ),
    (
        "cli.anonymize.unattributed_ms",
        "anonymize_s",
        "daemon latencies",
    ),
    ("cli.check.unattributed_ms", "check_s", "daemon latencies"),
    (
        "cli.analyze.unattributed_ms",
        "analyze_s",
        "daemon latencies",
    ),
    (
        "registry.store_warm_hits",
        "anonymize_p50_ms",
        "anonymize_s",
    ),
    (
        "registry.store_cold_misses",
        "anonymize_p50_ms",
        "anonymize_s",
    ),
    ("registry.pool_bytes", "server_rss_mb", "CLI metrics"),
    (
        "core.verdict.reuse_ratio",
        "anonymize_p50_ms",
        "anonymize_s anonymize_cold_p50_ms",
    ),
    (
        "algorithms.samarati.search_warm_ms",
        "anonymize_p50_ms",
        "anonymize_s",
    ),
    (
        "algorithms.samarati.search_cold_ms",
        "anonymize_cold_p50_ms anonymize_s",
        "check_s",
    ),
    (
        "server.anonymize.overhead_ms",
        "anonymize_p50_ms req_per_s",
        "CLI metrics",
    ),
    (
        "server.anonymize_cold.overhead_ms",
        "anonymize_cold_p50_ms req_per_s",
        "CLI metrics",
    ),
    (
        "server.anonymize.response_bytes",
        "anonymize_p50_ms",
        "CLI metrics",
    ),
    ("server.shed_total", "req_per_s", "CLI metrics"),
    (
        "sql.query_ms",
        "query_p50_ms",
        "anonymize_p50_ms CLI metrics",
    ),
    (
        "microdata.delta.apply_ms",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "core.incremental.apply_ms",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "core.verdict.invalidate_ms",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "core.verdict.kept",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "core.verdict.invalidated",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "algorithms.samarati.reverify_ms",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "server.update.overhead_ms",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "server.watch.flips",
        "update_p50_ms",
        "mixed-traffic and CLI metrics",
    ),
    (
        "trace.overhead_ms",
        "nothing: traced minus untraced anonymize_p50_ms",
        "every metric",
    ),
];

/// [`EXPECTATIONS`] as JSON, for the trace file.
pub fn expectations_json() -> JsonValue {
    let mut out = JsonValue::object();
    for &(layer, moves, holds) in EXPECTATIONS {
        let mut entry = JsonValue::object();
        entry.set("should_move", JsonValue::Str(moves.to_owned()));
        entry.set("should_not_move", JsonValue::Str(holds.to_owned()));
        out.set(layer, entry);
    }
    out
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object for `defs`, in declaration order. Errors when a
    /// declared metric was not measured or is not a finite number.
    pub fn render(&self, defs: &[(&'static str, &'static str)]) -> Result<JsonValue, String> {
        let mut out = JsonValue::object();
        for &(name, unit) in defs {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            let mut entry = JsonValue::object();
            entry.set("value", JsonValue::Float(value));
            entry.set("unit", JsonValue::Str(unit.to_owned()));
            out.set(name, entry);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        doc.require(list)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.require(k).and_then(JsonValue::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn printed_names_and_units_equal_benchmark_json() {
        assert_eq!(printed(END_TO_END), declared("end_to_end"));
        assert_eq!(printed(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn every_layer_names_what_it_should_move() {
        let layers: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        let expected: Vec<&str> = EXPECTATIONS.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(layers, expected);
    }

    #[test]
    fn render_refuses_missing_or_non_finite_values() {
        let mut v = Values::default();
        v.set("a", 1.5);
        assert!(v.render(&[("a", "ms")]).is_ok());
        assert!(v.render(&[("b", "ms")]).is_err());
        v.set("a", f64::NAN);
        assert!(v.render(&[("a", "ms")]).is_err());
    }
}
