//! The benchmark's own answers, computed in-process through the library on
//! the same CSV text the programs under test receive. Every timed output is
//! compared against these, so a speed-up cannot come from a wrong answer.

use crate::{K, P, TS};
use psens_algorithms::samarati::{pk_minimal_generalization_model, Pruning, SearchOutcome};
use psens_algorithms::Tuning;
use psens_core::{
    check_p_sensitivity, check_table_model, max_k, max_p_of_masked, ConfidentialStats, ModelSpec,
    NoopObserver, SearchBudget,
};
use psens_datasets::Spec;
use psens_hierarchy::QiSpace;
use psens_metrics::{attribute_risk, identity_risk};
use psens_microdata::{csv, JsonValue, Schema, Table};

/// The paper's Algorithm 1 statement, run by every `query`.
pub const QUERY_SQL: &str = "SELECT Age, MaritalStatus, Race, Sex, COUNT(*), COUNT(DISTINCT Pay) \
                             FROM data GROUP BY Age, MaritalStatus, Race, Sex";

/// The model every workload requests.
pub fn model() -> ModelSpec {
    ModelSpec::PSensitiveK { p: P }
}

/// A search result reduced to what the programs report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Winner {
    /// Levels of the minimal node, `None` when nothing satisfies.
    pub levels: Option<Vec<u8>>,
    /// Tuples suppressed at that node.
    pub suppressed: usize,
}

impl Winner {
    /// From an in-process search; `None` when the search did not complete.
    pub fn of(outcome: &SearchOutcome) -> Option<Winner> {
        outcome.termination.is_complete().then(|| Winner {
            levels: outcome.node.as_ref().map(|n| n.levels().to_vec()),
            suppressed: outcome.suppressed,
        })
    }

    /// From a server `verdict` object; `None` unless it is a completed
    /// psens-k verdict.
    pub fn of_verdict(verdict: &JsonValue) -> Option<Winner> {
        let completed = verdict.get("termination")?.as_str().ok()? == "completed";
        let model_ok = verdict.get("model")?.as_str().ok()? == model().name()
            && verdict.get("param")?.as_u64().ok()? == model().param();
        if !completed || !model_ok {
            return None;
        }
        let satisfied = verdict.get("satisfied")?.as_bool().ok()?;
        let levels = match verdict.get("node_levels")? {
            JsonValue::Null => None,
            v => Some(
                v.as_array()
                    .ok()?
                    .iter()
                    .map(|l| l.as_u64().ok().and_then(|l| u8::try_from(l).ok()))
                    .collect::<Option<Vec<u8>>>()?,
            ),
        };
        if satisfied != levels.is_some() {
            return None;
        }
        let suppressed = match verdict.get("suppressed")? {
            JsonValue::Null => 0,
            v => v.as_usize().ok()?,
        };
        Some(Winner { levels, suppressed })
    }
}

/// The `check` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckAnswer {
    pub satisfied: bool,
    pub n_groups: usize,
    pub max_k: usize,
    pub max_p: usize,
    pub violations: usize,
}

/// The `analyze` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeAnswer {
    pub max_p: usize,
    pub uniques: usize,
    pub disclosures: usize,
}

/// Everything the programs should answer for one generated table.
pub struct Expected {
    pub table: Table,
    pub qi: QiSpace,
    pub stats: ConfidentialStats,
    pub winner: Winner,
    /// The release at the winner (identifiers dropped, rows suppressed).
    pub masked: Table,
    pub check: CheckAnswer,
    pub analyze: AnalyzeAnswer,
    pub query_rows: usize,
    pub query_text: String,
}

/// A from-scratch search with no verdict store, as a fresh process runs it.
pub fn search(table: &Table, qi: &QiSpace) -> Result<SearchOutcome, String> {
    let tuning = Tuning {
        threads: 0,
        cache: None,
        chunk_rows: 0,
    };
    pk_minimal_generalization_model(
        table,
        qi,
        model(),
        K,
        TS,
        Pruning::NecessaryConditions,
        &SearchBudget::unlimited(),
        tuning,
        &NoopObserver,
    )
    .map_err(|e| format!("in-process search: {e}"))
}

/// The check answer for `table`.
pub fn check_answer(table: &Table) -> CheckAnswer {
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    let report = check_p_sensitivity(table, &keys, &conf, P, K);
    CheckAnswer {
        satisfied: report.satisfied(),
        n_groups: report.n_groups,
        max_k: max_k(table, &keys) as usize,
        max_p: max_p_of_masked(table, &keys, &conf) as usize,
        violations: report.violations.len(),
    }
}

/// The analyze answer for `table` with precomputed `stats`.
pub fn analyze_answer(table: &Table, stats: &ConfidentialStats) -> AnalyzeAnswer {
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    AnalyzeAnswer {
        max_p: stats.max_p(),
        uniques: identity_risk(table, &keys).uniques,
        disclosures: attribute_risk(table, &keys, &conf).disclosures,
    }
}

/// The query answer: (row count, text as the programs render it).
pub fn query_answer(table: &Table) -> Result<(usize, String), String> {
    let mut catalog = psens_sql::Catalog::new();
    catalog.register("data", table);
    let result = psens_sql::execute(&catalog, QUERY_SQL).map_err(|e| e.to_string())?;
    Ok((result.n_rows(), psens_microdata::render(&result, 100)))
}

/// True when `text`, a released CSV, parses against the release schema
/// and satisfies the requested model and k.
pub fn release_satisfies(text: &str, schema: &Schema) -> bool {
    let Ok(table) = csv::read_table_str(text, schema.clone(), true) else {
        return false;
    };
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    check_table_model(&table, &keys, &conf, model().instantiate().as_ref(), K).satisfied()
}

impl Expected {
    /// Parses `csv_text` against `spec` and computes every answer.
    pub fn compute(csv_text: &str, spec: &Spec) -> Result<Expected, String> {
        let schema = spec.schema().map_err(|e| e.to_string())?;
        let table = csv::read_table_str(csv_text, schema, true).map_err(|e| e.to_string())?;
        let qi = spec.qi_space()?;
        let stats = ConfidentialStats::compute(&table, &table.schema().confidential_indices());
        let outcome = search(&table, &qi)?;
        let winner = Winner::of(&outcome).ok_or("in-process search did not complete")?;
        let masked = outcome
            .masked
            .ok_or("the workload must be satisfiable: in-process search found no node")?;
        let (query_rows, query_text) = query_answer(&table)?;
        Ok(Expected {
            check: check_answer(&table),
            analyze: analyze_answer(&table, &stats),
            table,
            qi,
            stats,
            winner,
            masked,
            query_rows,
            query_text,
        })
    }
}
