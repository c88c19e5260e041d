//! Traced runs only: the layers behind each end-to-end operation, called
//! through their public functions with the workload's inputs and timed
//! from the benchmark's side, one span per call. CLI commands are replayed
//! in fresh child processes, as the CLI runs them; the daemon's
//! per-request layers in-process. Replays run after the timed phases, so
//! they never compete with the programs under test.

use crate::oracle::{self, Expected};
use crate::trace::{self, Span, Tracer};
use crate::{Ctx, K, TS};
use psens_algorithms::samarati::{
    pk_minimal_generalization_model_with_stats, Pruning, SearchOutcome,
};
use psens_algorithms::Tuning;
use psens_core::{
    check_p_sensitivity, check_table_model, invalidation_for, max_k, max_p_of_masked, CheckStage,
    ConfidentialStats, LiveTable, NoopObserver, RecordingObserver, SearchBudget, SearchObserver,
    VerdictStore,
};
use psens_datasets::Spec;
use psens_hierarchy::QiSpace;
use psens_metrics::{attribute_risk, identity_risk};
use psens_microdata::{csv, DeltaBatch, JsonValue, Table};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Samples per metric name; medians become the per-layer values.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn push_ms(&mut self, name: &'static str, took: Duration) {
        self.push(name, took.as_secs_f64() * 1e3);
    }

    /// The samples as a JSON object of arrays.
    pub fn to_json(&self) -> JsonValue {
        let mut out = JsonValue::object();
        for (name, values) in &self.0 {
            out.set(
                *name,
                JsonValue::Array(values.iter().map(|&v| JsonValue::Float(v)).collect()),
            );
        }
        out
    }

    /// Adds the samples of another process, read back from [`Self::to_json`].
    /// Names outside the per-layer list are refused.
    fn absorb(&mut self, doc: &JsonValue) -> Result<(), String> {
        for (name, values) in doc.as_object().map_err(|e| e.to_string())? {
            let known = crate::metrics::PER_LAYER
                .iter()
                .find(|(n, _)| n == name)
                .ok_or(format!("unknown sample `{name}`"))?
                .0;
            for v in values.as_array().map_err(|e| e.to_string())? {
                let v = match v {
                    JsonValue::Float(f) => *f,
                    JsonValue::Int(i) => *i as f64,
                    other => return Err(format!("sample `{name}` is not a number: {other:?}")),
                };
                self.push(known, v);
            }
        }
        Ok(())
    }

    /// Median of the samples under `name` (NaN when there are none, which
    /// the output refuses).
    pub fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .and_then(|v| crate::stats::median(v))
            .unwrap_or(f64::NAN)
    }
}

/// The search as the programs run it: the model, k and TS of the workload,
/// the paper's pruning, the default thread count.
fn search<O: SearchObserver>(
    table: &Table,
    qi: &QiSpace,
    stats: &ConfidentialStats,
    store: Option<&VerdictStore>,
    observer: &O,
) -> Result<SearchOutcome, String> {
    let tuning = Tuning {
        threads: 0,
        cache: store,
        chunk_rows: 0,
    };
    pk_minimal_generalization_model_with_stats(
        table,
        qi,
        oracle::model(),
        K,
        TS,
        Pruning::NecessaryConditions,
        &SearchBudget::unlimited(),
        tuning,
        observer,
        stats,
    )
    .map_err(|e| format!("in-process search: {e}"))
}

fn fresh_store(expect: &Expected) -> VerdictStore {
    VerdictStore::for_model(&expect.qi.lattice(), TS, oracle::model().is_monotone())
}

/// Child-process side of [`cli_layers`]: replays one `psens` command
/// (`anonymize`, `check` or `analyze`) on `csv` once, as a fresh process
/// runs it: read, parse, then the command's own layers. Returns the
/// samples and spans to hand back to the parent.
pub fn replay_command(
    command: &str,
    csv_path: &Path,
    spec_path: &Path,
    out_path: &Path,
) -> Result<(Samples, Vec<Span>), String> {
    let tracer = Tracer::new(true);
    let spec_text = std::fs::read_to_string(spec_path).map_err(|e| e.to_string())?;
    let spec = Spec::from_json(&spec_text)?;
    let schema = spec.schema().map_err(|e| e.to_string())?;
    let mut s = Samples::default();
    let root = tracer.start();
    let parent = Some(root.id());
    let (text, took) = tracer.time("microdata.csv.read", parent, 0, || {
        std::fs::read_to_string(csv_path)
    });
    let text = text.map_err(|e| e.to_string())?;
    s.push_ms("microdata.csv.read_ms", took);
    let (table, took) = tracer.time("microdata.csv.parse", parent, 0, || {
        csv::read_table_str(&text, schema, true)
    });
    let table = table.map_err(|e| e.to_string())?;
    s.push_ms("microdata.csv.parse_ms", took);
    let keys = table.schema().key_indices();
    let conf = table.schema().confidential_indices();
    match command {
        "anonymize" => {
            let qi = spec.qi_space()?;
            let (stats, took) = tracer.time("core.conditions.stats", parent, 0, || {
                ConfidentialStats::compute(&table, &conf)
            });
            s.push_ms("core.conditions.stats_ms", took);
            let observer = RecordingObserver::new();
            let store = VerdictStore::for_model(&qi.lattice(), TS, oracle::model().is_monotone());
            let (outcome, took) = tracer.time("algorithms.samarati.search", parent, 0, || {
                search(&table, &qi, &stats, Some(&store), &observer)
            });
            let outcome = outcome?;
            s.push_ms("algorithms.samarati.search_ms", took);
            let t = observer.telemetry();
            let pruned: u64 = t
                .stages
                .iter()
                .filter(|st| matches!(st.stage, CheckStage::Condition1 | CheckStage::Condition2))
                .map(|st| st.nodes)
                .sum();
            s.push("core.evaluator.check_ms", t.check_ns() as f64 / 1e6);
            s.push("core.evaluator.nodes_checked", t.nodes_checked() as f64);
            s.push("core.evaluator.nodes_pruned", pruned as f64);
            s.push(
                "hierarchy.apply.tables_materialized",
                t.tables_materialized as f64,
            );
            s.push("core.suppress.suppressed_rows", outcome.suppressed as f64);
            let node = outcome
                .node
                .as_ref()
                .ok_or("replayed search found no node")?;
            let masked = outcome.masked.as_ref().ok_or("no masked table")?;
            let (applied, took) =
                tracer.time("hierarchy.apply", parent, 0, || qi.apply(&table, node));
            applied.map_err(|e| e.to_string())?;
            s.push_ms("hierarchy.apply.materialize_ms", took);
            let (ok, took) = tracer.time("core.model.verify", parent, 0, || {
                let mk = masked.schema().key_indices();
                let mc = masked.schema().confidential_indices();
                let model = oracle::model().instantiate();
                check_table_model(masked, &mk, &mc, model.as_ref(), K).satisfied()
            });
            if !ok {
                return Err("replayed release does not satisfy the model".into());
            }
            s.push_ms("core.model.verify_ms", took);
            // Unbuffered, as `psens anonymize --out` writes.
            let (written, took) = tracer.time("microdata.csv.write", parent, 0, || {
                let mut file = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
                csv::write_table(&mut file, masked, true).map_err(|e| e.to_string())
            });
            written?;
            s.push_ms("microdata.csv.write_ms", took);
        }
        "check" => {
            let (_, took) = tracer.time("core.psensitive.check", parent, 0, || {
                (
                    check_p_sensitivity(&table, &keys, &conf, crate::P, K),
                    max_k(&table, &keys),
                    max_p_of_masked(&table, &keys, &conf),
                )
            });
            s.push_ms("core.psensitive.check_ms", took);
        }
        "analyze" => {
            let (stats, took) = tracer.time("core.conditions.stats", parent, 0, || {
                ConfidentialStats::compute(&table, &conf)
            });
            s.push_ms("core.conditions.stats_ms", took);
            let (_, took) = tracer.time("metrics.risk", parent, 0, || {
                (
                    psens_microdata::describe(&table),
                    identity_risk(&table, &keys),
                    attribute_risk(&table, &keys, &conf),
                    stats.max_p(),
                )
            });
            s.push_ms("metrics.risk_ms", took);
        }
        other => return Err(format!("unknown replay command `{other}`")),
    }
    tracer.finish(root, &format!("replay.{command}.process"), None, 0, true);
    Ok((s, tracer.spans()))
}

/// Replays `psens anonymize`, `check` and `analyze` `reps` times each, each
/// in a fresh child process (`perfbench replay ...`) like the CLI runs: a
/// long-lived process that holds other tables parses and allocates
/// measurably slower, which would misattribute the CLI's time.
pub fn cli_layers(ctx: &Ctx, reps: usize) -> Result<Samples, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = ctx.work.join("replay_release.csv");
    let mut s = Samples::default();
    let mut request = 1_000_000u64;
    for _ in 0..reps {
        for command in ["anonymize", "check", "analyze"] {
            request += 1;
            let root = ctx.tracer.start();
            let started = Instant::now();
            let output = Command::new(&exe)
                .arg("replay")
                .arg(command)
                .arg(&ctx.csv_path)
                .arg(&ctx.spec_path)
                .arg(&out)
                .stdin(Stdio::null())
                .output()
                .map_err(|e| format!("spawning the {command} replay: {e}"))?;
            let root_id = root.id();
            ctx.tracer
                .finish(root, "replay.command", None, request, true);
            let text = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "{command} replay failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let doc = JsonValue::parse(text.trim()).map_err(|e| e.to_string())?;
            s.absorb(doc.get("samples").ok_or("replay printed no samples")?)?;
            let spans = doc
                .get("spans")
                .and_then(trace::spans_from_json)
                .ok_or("replay printed no spans")?;
            ctx.tracer
                .import(spans, root_id, ctx.tracer.offset_ns(started));
        }
    }
    Ok(s)
}

/// The daemon's per-request work without the daemon: cold and warm
/// searches on the registered table, and the Algorithm 1 query.
pub fn server_layers(ctx: &Ctx, expect: &Expected, reps: usize) -> Result<Samples, String> {
    let tracer = &ctx.tracer;
    let mut s = Samples::default();
    let warm = fresh_store(expect);
    search(
        &expect.table,
        &expect.qi,
        &expect.stats,
        Some(&warm),
        &NoopObserver,
    )?;
    for i in 0..reps as u64 {
        let request = 2_000_000 + i;
        let (cold, took) = tracer.time("algorithms.samarati.search_cold", None, request, || {
            search(
                &expect.table,
                &expect.qi,
                &expect.stats,
                None,
                &NoopObserver,
            )
        });
        cold?;
        s.push_ms("algorithms.samarati.search_cold_ms", took);
        let (hot, took) = tracer.time("algorithms.samarati.search_warm", None, request, || {
            search(
                &expect.table,
                &expect.qi,
                &expect.stats,
                Some(&warm),
                &NoopObserver,
            )
        });
        hot?;
        s.push_ms("algorithms.samarati.search_warm_ms", took);
        let (answer, took) = tracer.time("sql.query", None, request, || {
            oracle::query_answer(&expect.table)
        });
        answer?;
        s.push_ms("sql.query_ms", took);
    }
    Ok(s)
}

/// Replays the first sent batches on a warm store, as the daemon's update
/// does: the batch itself, the incremental table, selective invalidation
/// and the watch's re-verification. Stops after `cap` of wall time.
pub fn update_layers(
    ctx: &Ctx,
    expect: &Expected,
    batches: &[DeltaBatch],
    cap: Duration,
) -> Result<Samples, String> {
    let tracer = &ctx.tracer;
    let mut s = Samples::default();
    let schema = expect.table.schema();
    let mut live = LiveTable::new(
        expect.table.clone(),
        schema.key_indices(),
        schema.confidential_indices(),
    )
    .map_err(|e| e.to_string())?;
    let mut store = fresh_store(expect);
    search(
        &expect.table,
        &expect.qi,
        &expect.stats,
        Some(&store),
        &NoopObserver,
    )?;
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        if start.elapsed() > cap {
            break;
        }
        let request = 3_000_000 + i as u64;
        let root = tracer.start();
        let parent = Some(root.id());
        let (next, took) = tracer.time("microdata.delta.apply", parent, request, || {
            batch.apply(live.table())
        });
        next.map_err(|e| e.to_string())?;
        s.push_ms("microdata.delta.apply_ms", took);
        let (effect, took) = tracer.time("core.incremental.apply", parent, request, || {
            live.apply(batch)
        });
        let effect = effect.map_err(|e| e.to_string())?;
        s.push_ms("core.incremental.apply_ms", took);
        let stats = live.stats();
        let ((successor, _), took) =
            tracer.time("core.verdict.invalidate", parent, request, || {
                let policy = invalidation_for(&effect, &stats, &oracle::model(), K as usize);
                store.invalidated_successor(policy)
            });
        store = successor;
        s.push_ms("core.verdict.invalidate_ms", took);
        let (outcome, took) = tracer.time("algorithms.samarati.reverify", parent, request, || {
            search(
                live.table(),
                &expect.qi,
                &stats,
                Some(&store),
                &NoopObserver,
            )
        });
        outcome?;
        s.push_ms("algorithms.samarati.reverify_ms", took);
        tracer.finish(root, "replay.update", None, request, true);
    }
    Ok(s)
}
