//! `perfbench` — the repository's benchmark. One run generates an Adult
//! table from `--seed`, then drives the built `psens` and `psens-server`
//! binaries as child processes through three phases, checking every
//! output against the library's own answer:
//!
//! 1. CLI: sequential `psens anonymize --out`, `check`, `analyze`.
//! 2. Daemon, mixed traffic: `min(2, nproc)` clients cycling pooled and
//!    cold anonymize, check, analyze and query against one registered
//!    table.
//! 3. Daemon, live updates: `--state-dir`, one `watch`, a writer streaming
//!    a seeded delta script, each update followed by a pooled anonymize.
//!
//! The phases take turns in rounds; each round also times one daemon
//! set-up (spawn to `register` acknowledgement).
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! also replays each layer in-process, prints the per-layer metrics and
//! writes every span to `<out-dir>/trace-<workload>-seed<seed>.json`.
//!
//! ```text
//! perfbench --workload adult_100k|adult_20k --seed N --seconds S --trace 0|1
//!           --bin-dir DIR [--out-dir DIR] [--smoke] [--rustc TEXT] [--commit TEXT]
//! ```

mod cli;
mod daemon;
mod deltas;
mod metrics;
mod oracle;
mod replay;
mod stats;
mod trace;

use metrics::Values;
use psens_datasets::{AdultGenerator, Spec};
use psens_microdata::{csv, JsonValue, Table};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Requested p (psens-k model).
pub const P: u32 = 2;
/// Requested k.
pub const K: u32 = 3;
/// Suppression threshold.
pub const TS: usize = 500;

/// Rows in the smoke mode's table.
const SMOKE_ROWS: usize = 2_000;
/// Rows the delta script draws fresh appends from.
const FRESH_ROWS: usize = 1_000;
/// Rounds of (set-up, CLI, mixed, live) per run; `setup_s` is the median
/// of the `ROUNDS + 1` set-ups.
const ROUNDS: usize = 5;
/// In-process repetitions of each replayed command in a traced run.
const REPLAYS: usize = 3;
/// Share of `--seconds` given to the CLI, mixed and live phases.
const PHASE_SHARE: [f64; 3] = [0.45, 0.25, 0.3];

/// Rows of each workload's table.
fn workload_rows(name: &str) -> Option<usize> {
    match name {
        "adult_100k" => Some(100_000),
        "adult_20k" => Some(20_000),
        _ => None,
    }
}

/// Operations attempted and failed across all threads.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    shown: Mutex<usize>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed or mismatched operation; the first few are shown
    /// on stderr.
    pub fn fail(&self, message: impl AsRef<str>) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut shown = self.shown.lock().expect("tally poisoned");
        if *shown < 10 {
            *shown += 1;
            eprintln!("perfbench: FAILED {}", message.as_ref());
        }
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }
}

/// Everything the phases share.
pub struct Ctx {
    pub rows: usize,
    pub clients: usize,
    bin_dir: PathBuf,
    pub work: PathBuf,
    pub csv_path: PathBuf,
    pub spec_path: PathBuf,
    pub csv_text: String,
    pub spec: Spec,
    pub tracer: Tracer,
    pub tally: Tally,
    _cleanup: RemoveOnDrop,
}

impl Ctx {
    /// Path of a built binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map = std::collections::BTreeMap::new();
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                map.insert(flag[2..].to_owned(), value);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let mut take = |k: &str| map.remove(k).ok_or(format!("missing --{k}"));
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        smoke,
        bin_dir: take("bin-dir")?.into(),
        out_dir: take("out-dir")
            .unwrap_or_else(|_| ".bench_out".into())
            .into(),
        rustc: take("rustc").unwrap_or_else(|_| "unknown".into()),
        commit: take("commit").unwrap_or_else(|_| "unknown".into()),
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown option --{extra}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

fn mean(values: &[f64]) -> f64 {
    stats::mean(values).unwrap_or(f64::NAN)
}

/// n, median, quartiles and the rule's tail percentile of one sample set.
fn summarize(values: &[f64]) -> JsonValue {
    let mut out = JsonValue::object();
    out.set("n", JsonValue::Int(values.len() as i64));
    out.set("p50", JsonValue::Float(med(values)));
    out.set("mean", JsonValue::Float(mean(values)));
    if let Some([q1, _, q3]) = stats::quartiles(values) {
        out.set("q1", JsonValue::Float(q1));
        out.set("q3", JsonValue::Float(q3));
    }
    if let Some(p) = stats::tail_percentile(values.len()) {
        out.set("tail_percentile", JsonValue::Float(p));
        out.set(
            "tail",
            JsonValue::Float(stats::percentile(values, p).unwrap_or(f64::NAN)),
        );
    }
    out
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One run; returns the lines to print (host, summary) and the metrics.
fn run(args: &Args) -> Result<(JsonValue, JsonValue, Values, Values, Ctx), String> {
    let rows =
        workload_rows(&args.workload).ok_or(format!("unknown workload `{}`", args.workload))?;
    let rows = if args.smoke { SMOKE_ROWS } else { rows };
    for bin in ["psens", "psens-server"] {
        if !args.bin_dir.join(bin).is_file() {
            return Err(format!("{bin} not found in {}", args.bin_dir.display()));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let work = args.out_dir.join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let table: Table = AdultGenerator::new(args.seed).generate(rows);
    let spec = Spec::adult();
    let ctx = Ctx {
        rows,
        clients: nproc.min(2),
        bin_dir: args.bin_dir.clone(),
        csv_path: work.join("data.csv"),
        spec_path: work.join("spec.json"),
        csv_text: csv::to_csv_string(&table, true),
        spec,
        tracer: Tracer::new(args.trace),
        tally: Tally::default(),
        _cleanup: RemoveOnDrop(work.clone()),
        work,
    };
    write_file(&ctx.csv_path, &ctx.csv_text)?;
    write_file(&ctx.spec_path, &ctx.spec.to_json().to_json_pretty())?;
    let expect = oracle::Expected::compute(&ctx.csv_text, &ctx.spec)?;
    let fresh = AdultGenerator::new(args.seed ^ 0x5eed_f00d).generate(FRESH_ROWS);
    let budget = Duration::from_secs_f64(args.seconds);

    // The phases take turns in short rounds, so each metric samples the
    // whole run rather than one stretch of it: the host's speed drifts over
    // seconds, and a metric measured in one block would carry that drift.
    let (mixed_server, first_setup) = daemon::set_up(&ctx, "mixed", None)?;
    let mut setups = vec![first_setup];
    let mixed = daemon::Mixed::new(mixed_server);
    let mut live = daemon::Live::start(&ctx, &expect)?;
    let mut cli = cli::CliPhase::new(&ctx);
    let slice = |share: f64| budget.mul_f64(share / ROUNDS as f64);
    let mut cli_rounds = Vec::new();
    let mut mixed_rounds = Vec::new();
    let mut live_rounds = Vec::new();
    for round in 0..ROUNDS {
        let (server, secs) = daemon::set_up(&ctx, &format!("setup{round}"), None)?;
        server.shutdown()?;
        setups.push(secs);
        cli_rounds.push(cli.slice(&ctx, &expect, Instant::now() + slice(PHASE_SHARE[0])));
        mixed_rounds.push(mixed.slice(&ctx, &expect, Instant::now() + slice(PHASE_SHARE[1])));
        live_rounds.push(live.slice(&ctx, &fresh, Instant::now() + slice(PHASE_SHARE[2])));
    }
    let (counters, rss) = mixed.finish()?;
    let live = live.finish(&expect)?;

    // Each metric is the operation's statistic within each round, then the
    // median over the rounds: a round that met a slow stretch of the host
    // does not move it. A CLI round holds only a few invocations, so those
    // use the mean within a round. A round holds only a few updates of
    // different batch kinds, so the update metric is the median over the
    // run, whose batch kinds are the same in every run.
    let per_round = |rounds: Vec<&Vec<f64>>, stat: fn(&[f64]) -> f64| {
        let values: Vec<f64> = rounds
            .into_iter()
            .filter(|r| !r.is_empty())
            .map(|r| stat(r))
            .collect();
        med(&values)
    };
    let cli_op = |f: fn(&cli::CliTimes) -> &Vec<f64>| cli_rounds.iter().map(f).collect();
    let mixed_op = |f: fn(&daemon::MixedLog) -> &Vec<f64>| {
        mixed_rounds.iter().map(|(log, _)| f(log)).collect()
    };
    let mut e2e = Values::default();
    e2e.set("setup_s", med(&setups));
    e2e.set("anonymize_s", per_round(cli_op(|t| &t.anonymize_s), mean));
    e2e.set("check_s", per_round(cli_op(|t| &t.check_s), mean));
    e2e.set("analyze_s", per_round(cli_op(|t| &t.analyze_s), mean));
    e2e.set(
        "anonymize_p50_ms",
        per_round(mixed_op(|l| &l.anonymize_ms), med),
    );
    e2e.set(
        "anonymize_cold_p50_ms",
        per_round(mixed_op(|l| &l.anonymize_cold_ms), med),
    );
    e2e.set("check_p50_ms", per_round(mixed_op(|l| &l.check_ms), med));
    e2e.set(
        "analyze_p50_ms",
        per_round(mixed_op(|l| &l.analyze_ms), med),
    );
    e2e.set("query_p50_ms", per_round(mixed_op(|l| &l.query_ms), med));
    let rates: Vec<f64> = mixed_rounds
        .iter()
        .map(|(log, busy)| log.completed as f64 / busy)
        .collect();
    e2e.set("req_per_s", med(&rates));
    e2e.set("server_rss_mb", rss);

    // Whole-run samples, for the summary and the per-layer arithmetic.
    let mut cli = cli::CliTimes::default();
    for t in cli_rounds {
        cli.anonymize_s.extend(t.anonymize_s);
        cli.check_s.extend(t.check_s);
        cli.analyze_s.extend(t.analyze_s);
    }
    let mut mixed = daemon::MixedLog::default();
    for (log, _) in mixed_rounds {
        mixed.absorb(log);
    }
    let (update_ms, live_anonymize_ms): (Vec<Vec<f64>>, Vec<Vec<f64>>) =
        live_rounds.into_iter().unzip();
    let update_ms: Vec<f64> = update_ms.concat();
    let live_anonymize_ms: Vec<f64> = live_anonymize_ms.concat();
    e2e.set("update_p50_ms", med(&update_ms));

    let mut layers = Values::default();
    if args.trace {
        let c = replay::cli_layers(&ctx, REPLAYS)?;
        let sv = replay::server_layers(&ctx, &expect, REPLAYS)?;
        let u = replay::update_layers(&ctx, &expect, &live.batches, budget.mul_f64(0.2))?;
        for name in [
            "microdata.csv.read_ms",
            "microdata.csv.parse_ms",
            "core.conditions.stats_ms",
            "algorithms.samarati.search_ms",
            "core.evaluator.check_ms",
            "core.evaluator.nodes_checked",
            "core.evaluator.nodes_pruned",
            "hierarchy.apply.tables_materialized",
            "hierarchy.apply.materialize_ms",
            "core.suppress.suppressed_rows",
            "core.model.verify_ms",
            "microdata.csv.write_ms",
            "core.psensitive.check_ms",
            "metrics.risk_ms",
        ] {
            layers.set(name, c.median(name));
        }
        let ms = |name: &str| c.median(name);
        let e = |name: &str| e2e.get(name).unwrap_or(f64::NAN);
        let ingest = ms("microdata.csv.read_ms") + ms("microdata.csv.parse_ms");
        layers.set(
            "cli.anonymize.unattributed_ms",
            e("anonymize_s") * 1e3
                - ingest
                - ms("core.conditions.stats_ms")
                - ms("algorithms.samarati.search_ms")
                - ms("microdata.csv.write_ms"),
        );
        layers.set(
            "cli.check.unattributed_ms",
            e("check_s") * 1e3 - ingest - ms("core.psensitive.check_ms"),
        );
        layers.set(
            "cli.analyze.unattributed_ms",
            e("analyze_s") * 1e3 - ingest - ms("core.conditions.stats_ms") - ms("metrics.risk_ms"),
        );
        layers.set("registry.store_warm_hits", counters.warm_hits);
        layers.set("registry.store_cold_misses", counters.cold_misses);
        layers.set("registry.pool_bytes", counters.pool_bytes);
        layers.set(
            "core.verdict.reuse_ratio",
            mixed.reused as f64 / (mixed.reused + mixed.evaluated) as f64,
        );
        let warm = sv.median("algorithms.samarati.search_warm_ms");
        let cold = sv.median("algorithms.samarati.search_cold_ms");
        layers.set("algorithms.samarati.search_warm_ms", warm);
        layers.set("algorithms.samarati.search_cold_ms", cold);
        layers.set("server.anonymize.overhead_ms", e("anonymize_p50_ms") - warm);
        layers.set(
            "server.anonymize_cold.overhead_ms",
            e("anonymize_cold_p50_ms") - cold,
        );
        layers.set(
            "server.anonymize.response_bytes",
            med(&mixed.response_bytes),
        );
        layers.set("server.shed_total", counters.shed_total);
        layers.set("sql.query_ms", sv.median("sql.query_ms"));
        for name in [
            "microdata.delta.apply_ms",
            "core.incremental.apply_ms",
            "core.verdict.invalidate_ms",
            "algorithms.samarati.reverify_ms",
        ] {
            layers.set(name, u.median(name));
        }
        layers.set("core.verdict.kept", live.kept as f64);
        layers.set("core.verdict.invalidated", live.invalidated as f64);
        layers.set(
            "server.update.overhead_ms",
            e("update_p50_ms")
                - u.median("core.incremental.apply_ms")
                - u.median("core.verdict.invalidate_ms")
                - u.median("algorithms.samarati.reverify_ms"),
        );
        layers.set("server.watch.flips", live.flips as f64);
        layers.set(
            "trace.overhead_ms",
            med(&mixed.anonymize_traced_ms) - med(&mixed.anonymize_untraced_ms),
        );
    }

    let mut host = JsonValue::object();
    host.set("workload", JsonValue::Str(args.workload.clone()));
    host.set("smoke", JsonValue::Bool(args.smoke));
    host.set("seed", JsonValue::Int(args.seed as i64));
    host.set("rows", JsonValue::Int(rows as i64));
    host.set("fresh_rows", JsonValue::Int(FRESH_ROWS as i64));
    host.set("updates", JsonValue::Int(live.batches.len() as i64));
    host.set("nproc", JsonValue::Int(nproc as i64));
    host.set("client_threads", JsonValue::Int(ctx.clients as i64));
    host.set("requested_threads", JsonValue::Int(0));
    host.set(
        "effective_threads",
        mixed
            .effective_threads
            .map_or(JsonValue::Null, |n| JsonValue::Int(n as i64)),
    );
    host.set("seconds", JsonValue::Float(args.seconds));
    host.set("trace", JsonValue::Bool(args.trace));
    host.set("rustc", JsonValue::Str(args.rustc.clone()));
    host.set("commit", JsonValue::Str(args.commit.clone()));

    let mut summary = JsonValue::object();
    for (name, values) in [
        ("cli.anonymize_s", &cli.anonymize_s),
        ("cli.check_s", &cli.check_s),
        ("cli.analyze_s", &cli.analyze_s),
        ("setup_s", &setups),
        ("mixed.anonymize_ms", &mixed.anonymize_ms),
        ("mixed.anonymize_cold_ms", &mixed.anonymize_cold_ms),
        ("mixed.check_ms", &mixed.check_ms),
        ("mixed.analyze_ms", &mixed.analyze_ms),
        ("mixed.query_ms", &mixed.query_ms),
        ("live.update_ms", &update_ms),
        ("live.anonymize_ms", &live_anonymize_ms),
    ] {
        summary.set(name, summarize(values));
    }
    Ok((host, summary, e2e, layers, ctx))
}

/// `perfbench replay COMMAND CSV SPEC OUT`: one fresh-process command
/// replay for a traced run; prints its samples and spans as one JSON line.
fn replay_main(args: &[String]) -> ExitCode {
    let [command, csv_path, spec_path, out_path] = args else {
        eprintln!("perfbench: usage: perfbench replay COMMAND CSV SPEC OUT");
        return ExitCode::from(2);
    };
    match replay::replay_command(
        command,
        csv_path.as_ref(),
        spec_path.as_ref(),
        out_path.as_ref(),
    ) {
        Ok((samples, spans)) => {
            let mut doc = JsonValue::object();
            doc.set("samples", samples.to_json());
            doc.set("spans", trace::spans_json(&spans));
            println!("{}", doc.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("replay") {
        return replay_main(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (host, summary, e2e, layers, ctx) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let mut doc = trace::to_json(&ctx.tracer.spans(), host.clone());
        doc.set("summary", summary.clone());
        doc.set("expectations", metrics::expectations_json());
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = write_file(&path, &doc.to_json()) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let (attempted, failed) = ctx.tally.counts();
    let defs = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let metrics = match (failed, if args.trace { &layers } else { &e2e }.render(defs)) {
        (0, Ok(m)) => Some(m),
        (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            None
        }
        _ => None,
    };
    let mut line = JsonValue::object();
    line.set("host", host);
    println!("{}", line.to_json());
    let mut line = JsonValue::object();
    line.set("summary", summary);
    println!("{}", line.to_json());
    let mut result = JsonValue::object();
    result.set("correct", JsonValue::Bool(metrics.is_some()));
    result.set("attempted", JsonValue::Int(attempted.max(1) as i64));
    result.set("failed", JsonValue::Int(failed as i64));
    result.set("metrics", metrics.clone().unwrap_or_else(JsonValue::object));
    println!("{}", result.to_json());
    match metrics {
        Some(_) => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}
