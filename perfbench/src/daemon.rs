//! The daemon phases: `psens-server` as a child process, driven over its
//! protocol by at most `nproc` client threads that never retry.
//!
//! - mixed: the table registered once; each client cycles pooled
//!   `anonymize` x2, `anonymize` with `no_cache`, `check`, `analyze` and
//!   the Algorithm 1 `query`.
//! - live: a server with `--state-dir` (every delta record is fsynced) and
//!   one `watch`; a writer streams a seeded delta script, and after each
//!   update a reader issues one pooled `anonymize` on the watched spec.

use crate::deltas::DeltaStream;
use crate::oracle::{self, Expected, Winner, QUERY_SQL};
use crate::{Ctx, K, P, TS};
use psens_microdata::{DeltaBatch, JsonValue, Table};
use psens_server::client::{register_params, response_result};
use psens_server::Client;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Name the table is registered under.
const DATASET: &str = "bench";

/// A running `psens-server` child; killed and reaped on drop if it was not
/// shut down.
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits for its address.
    pub fn spawn(ctx: &Ctx, tag: &str, state_dir: Option<&Path>) -> Result<Server, String> {
        let addr_file = ctx.work.join(format!("{tag}.addr"));
        let mut cmd = Command::new(ctx.bin("psens-server"));
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning psens-server: {e}"))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let published = std::fs::read_to_string(&addr_file).ok();
            if let Some(addr) = published.and_then(|t| t.trim().parse().ok()) {
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("psens-server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("psens-server did not publish its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A fresh connection.
    pub fn connect(&self) -> Result<Client, String> {
        let mut client =
            Client::connect(self.addr).map_err(|e| format!("connecting to psens-server: {e}"))?;
        client
            .set_io_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Sends `shutdown` and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        match self.connect()?.call("shutdown", JsonValue::object()) {
            Ok(response) => {
                response_result(&response).map_err(|e| format!("shutdown: {e}"))?;
            }
            // The server can close the connection before its reply is
            // written; the exit status below tells whether it stopped
            // cleanly.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
            Err(e) => return Err(format!("shutdown: transport: {e}")),
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("psens-server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("psens-server did not exit within 30 s of shutdown".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns a server and registers the workload's table; returns it with the
/// time from spawn to the `register` acknowledgement.
pub fn set_up(ctx: &Ctx, tag: &str, state_dir: Option<&Path>) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::spawn(ctx, tag, state_dir)?;
    let result = server.connect()?.call_ok(
        "register",
        register_params(DATASET, &ctx.csv_text, &ctx.spec),
    )?;
    let secs = start.elapsed().as_secs_f64();
    if result.get("rows").and_then(|r| r.as_usize().ok()) != Some(ctx.rows) {
        return Err(format!(
            "register acknowledged the wrong row count: {}",
            result.to_json()
        ));
    }
    Ok((server, secs))
}

fn params(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut out = JsonValue::object();
    out.set("dataset", JsonValue::Str(DATASET.to_owned()));
    for (k, v) in pairs {
        out.set(k, v);
    }
    out
}

fn int(v: u64) -> JsonValue {
    JsonValue::Int(v as i64)
}

fn anonymize_params(no_cache: bool) -> JsonValue {
    let model = oracle::model();
    let mut pairs = vec![
        ("model", JsonValue::Str(model.name().to_owned())),
        ("p", int(P.into())),
        ("k", int(K.into())),
        ("ts", int(TS as u64)),
    ];
    if no_cache {
        pairs.push(("no_cache", JsonValue::Bool(true)));
    }
    params(pairs)
}

fn field_usize(v: &JsonValue, path: &[&str]) -> Option<usize> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))?
        .as_usize()
        .ok()
}

/// One request/response, timed from send to reply. `Err` carries the
/// failure; the caller counts it.
fn timed_call(
    ctx: &Ctx,
    client: &mut Client,
    op: &str,
    span: &'static str,
    params: &JsonValue,
    parent: u64,
    record: bool,
) -> Result<(JsonValue, usize, f64), String> {
    ctx.tally.attempt();
    let open = ctx.tracer.start();
    let response = client
        .send(op, params.clone())
        .and_then(|id| Ok((id, client.recv()?)));
    let id = response.as_ref().map_or(0, |(id, _)| *id as u64);
    let took = ctx.tracer.finish(open, span, Some(parent), id, record);
    let (_, response) = response.map_err(|e| format!("{op}: transport: {e}"))?;
    let bytes = response.to_json().len();
    let result = response_result(&response).map_err(|e| format!("{op}: {e}"))?;
    Ok((result, bytes, took.as_secs_f64() * 1e3))
}

/// What the mixed phase's clients saw.
#[derive(Debug, Default)]
pub struct MixedLog {
    pub anonymize_ms: Vec<f64>,
    /// Pooled anonymize latencies of cycles with span recording on / off
    /// (traced runs alternate, to measure tracing overhead).
    pub anonymize_traced_ms: Vec<f64>,
    pub anonymize_untraced_ms: Vec<f64>,
    pub anonymize_cold_ms: Vec<f64>,
    pub check_ms: Vec<f64>,
    pub analyze_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub reused: u64,
    pub evaluated: u64,
    pub effective_threads: Option<usize>,
    pub completed: u64,
}

impl MixedLog {
    /// Appends `other`'s samples and adds its counts.
    pub fn absorb(&mut self, other: MixedLog) {
        self.anonymize_ms.extend(other.anonymize_ms);
        self.anonymize_traced_ms.extend(other.anonymize_traced_ms);
        self.anonymize_untraced_ms
            .extend(other.anonymize_untraced_ms);
        self.anonymize_cold_ms.extend(other.anonymize_cold_ms);
        self.check_ms.extend(other.check_ms);
        self.analyze_ms.extend(other.analyze_ms);
        self.query_ms.extend(other.query_ms);
        self.response_bytes.extend(other.response_bytes);
        self.reused += other.reused;
        self.evaluated += other.evaluated;
        self.effective_threads = self.effective_threads.or(other.effective_threads);
        self.completed += other.completed;
    }
}

#[derive(Clone, Copy, PartialEq)]
enum MixedOp {
    Anonymize,
    AnonymizeCold,
    Check,
    Analyze,
    Query,
}

/// Each client's closed-loop cycle.
const MIXED_CYCLE: [MixedOp; 6] = [
    MixedOp::Anonymize,
    MixedOp::Anonymize,
    MixedOp::AnonymizeCold,
    MixedOp::Check,
    MixedOp::Analyze,
    MixedOp::Query,
];

fn check_result_matches(result: &JsonValue, expect: &oracle::CheckAnswer) -> bool {
    let flag = |k: &str| result.get(k).and_then(|v| v.as_bool().ok());
    let num = |k: &str| field_usize(result, &[k]);
    flag("satisfied") == Some(expect.satisfied)
        && num("n_groups") == Some(expect.n_groups)
        && num("max_k") == Some(expect.max_k)
        && num("max_p") == Some(expect.max_p)
        && num("violations") == Some(expect.violations)
}

fn mixed_client(ctx: &Ctx, expect: &Expected, server: &Server, deadline: Instant) -> MixedLog {
    let mut log = MixedLog::default();
    let mut client = match server.connect() {
        Ok(c) => c,
        Err(e) => {
            ctx.tally.attempt();
            ctx.tally.fail(e);
            return log;
        }
    };
    let pooled = anonymize_params(false);
    let cold = anonymize_params(true);
    let check = params(vec![("p", int(P.into())), ("k", int(K.into()))]);
    let analyze = params(vec![]);
    let query = params(vec![("sql", JsonValue::Str(QUERY_SQL.to_owned()))]);
    let mut cycle_no = 0u64;
    while Instant::now() < deadline {
        // Traced runs record spans on every other cycle only, so the two
        // halves give the tracing overhead under identical load.
        let record = cycle_no.is_multiple_of(2);
        cycle_no += 1;
        let cycle = ctx.tracer.start();
        for op in MIXED_CYCLE {
            let (name, span, p) = match op {
                MixedOp::Anonymize => ("anonymize", "server.anonymize", &pooled),
                MixedOp::AnonymizeCold => ("anonymize", "server.anonymize_cold", &cold),
                MixedOp::Check => ("check", "server.check", &check),
                MixedOp::Analyze => ("analyze", "server.analyze", &analyze),
                MixedOp::Query => ("query", "server.query", &query),
            };
            let (result, bytes, ms) =
                match timed_call(ctx, &mut client, name, span, p, cycle.id(), record) {
                    Ok(r) => r,
                    Err(e) => {
                        ctx.tally.fail(e);
                        continue;
                    }
                };
            let ok = match op {
                MixedOp::Anonymize | MixedOp::AnonymizeCold => {
                    result.get("verdict").and_then(Winner::of_verdict).as_ref()
                        == Some(&expect.winner)
                }
                MixedOp::Check => check_result_matches(&result, &expect.check),
                MixedOp::Analyze => {
                    field_usize(&result, &["max_p"]) == Some(expect.analyze.max_p)
                        && field_usize(&result, &["identity_risk", "uniques"])
                            == Some(expect.analyze.uniques)
                        && field_usize(&result, &["attribute_risk", "disclosures"])
                            == Some(expect.analyze.disclosures)
                }
                MixedOp::Query => {
                    field_usize(&result, &["rows"]) == Some(expect.query_rows)
                        && result.get("text").and_then(|t| t.as_str().ok())
                            == Some(expect.query_text.as_str())
                }
            };
            if !ok {
                ctx.tally.fail(format!(
                    "{span}: result differs from the in-process answer: {}",
                    result.to_json()
                ));
                continue;
            }
            log.completed += 1;
            match op {
                MixedOp::Anonymize => {
                    log.anonymize_ms.push(ms);
                    if record {
                        log.anonymize_traced_ms.push(ms);
                    } else {
                        log.anonymize_untraced_ms.push(ms);
                    }
                    log.response_bytes.push(bytes as f64);
                    let stat = |k: &str| field_usize(&result, &["search", k]).unwrap_or(0) as u64;
                    log.reused += stat("cache_hits") + stat("cache_inferred");
                    log.evaluated += stat("nodes_evaluated");
                    log.effective_threads = field_usize(&result, &["search", "effective_threads"]);
                }
                MixedOp::AnonymizeCold => log.anonymize_cold_ms.push(ms),
                MixedOp::Check => log.check_ms.push(ms),
                MixedOp::Analyze => log.analyze_ms.push(ms),
                MixedOp::Query => log.query_ms.push(ms),
            }
        }
        ctx.tracer.finish(cycle, "client.cycle", None, 0, record);
    }
    log
}

/// Server-side counters read after the mixed phase.
#[derive(Debug, Default)]
pub struct ServerCounters {
    pub warm_hits: f64,
    pub cold_misses: f64,
    pub pool_bytes: f64,
    pub shed_total: f64,
}

fn server_counters(server: &Server) -> Result<ServerCounters, String> {
    let mut client = server.connect()?;
    let stats = client.call_ok("stats", JsonValue::object())?;
    let health = client.call_ok("health", JsonValue::object())?;
    let dataset = stats
        .get("datasets")
        .and_then(|d| d.as_array().ok())
        .and_then(|d| d.first())
        .ok_or("stats lists no dataset")?;
    let num = |v: &JsonValue, k: &str| {
        field_usize(v, &[k])
            .map(|n| n as f64)
            .ok_or(format!("missing `{k}` in stats/health"))
    };
    Ok(ServerCounters {
        warm_hits: num(dataset, "store_warm_hits")?,
        cold_misses: num(dataset, "store_cold_misses")?,
        pool_bytes: num(&health, "pool_bytes")?,
        shed_total: num(&health, "shed_total")?,
    })
}

/// The mixed phase's set-up server.
pub struct Mixed {
    server: Server,
}

impl Mixed {
    pub fn new(server: Server) -> Mixed {
        Mixed { server }
    }

    /// Runs `ctx.clients` closed-loop clients until `deadline`; returns what
    /// they saw and the slice's wall time in seconds.
    pub fn slice(&self, ctx: &Ctx, expect: &Expected, deadline: Instant) -> (MixedLog, f64) {
        let start = Instant::now();
        let server = &self.server;
        let logs: Vec<MixedLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..ctx.clients)
                .map(|_| s.spawn(|| mixed_client(ctx, expect, server, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mixed client panicked"))
                .collect()
        });
        let busy_s = start.elapsed().as_secs_f64();
        let mut log = MixedLog::default();
        for l in logs {
            log.absorb(l);
        }
        (log, busy_s)
    }

    /// Reads the server's counters and peak RSS (MiB), then shuts it down.
    pub fn finish(self) -> Result<(ServerCounters, f64), String> {
        let counters = server_counters(&self.server)?;
        let rss = self.server.peak_rss_mb()?;
        self.server.shutdown()?;
        Ok((counters, rss))
    }
}

/// The live phase's counts, plus the batches it sent (for the replay).
#[derive(Debug, Default)]
pub struct LiveLog {
    pub kept: u64,
    pub invalidated: u64,
    pub flips: u64,
    pub batches: Vec<DeltaBatch>,
}

fn render_batch(batch: &DeltaBatch) -> JsonValue {
    let appends = batch
        .appends
        .iter()
        .map(|row| {
            JsonValue::Array(
                row.iter()
                    .map(|v| JsonValue::Str(v.render().into_owned()))
                    .collect(),
            )
        })
        .collect();
    let deletes = batch.deletes.iter().map(|&ix| int(ix as u64)).collect();
    params(vec![
        ("appends", JsonValue::Array(appends)),
        ("deletes", JsonValue::Array(deletes)),
    ])
}

/// The writer's position in the update stream.
struct Stream {
    /// Generates the batches and holds the rows the daemon should hold.
    deltas: DeltaStream,
    /// The last verdict the watch published.
    watch: JsonValue,
    /// Set when a batch failed: the daemon's state is no longer known.
    broken: bool,
}

/// One `update` with the stream's next batch; returns its latency, or
/// `None` on a failure. A failure breaks the stream: the batch may have
/// landed even when no reply arrived.
fn update_step(
    ctx: &Ctx,
    client: &mut Client,
    fresh: &Table,
    stream: &mut Stream,
    log: &mut LiveLog,
) -> Option<f64> {
    let batch = stream.deltas.next_batch(fresh);
    let cycle = ctx.tracer.start();
    let sent = timed_call(
        ctx,
        client,
        "update",
        "server.update",
        &render_batch(&batch),
        cycle.id(),
        true,
    );
    ctx.tracer.finish(cycle, "client.cycle", None, 0, true);
    stream.deltas.apply(&batch);
    log.batches.push(batch);
    let checked = sent.and_then(|(result, _, ms)| {
        let rows_ok = field_usize(&result, &["rows"]) == Some(stream.deltas.n_rows());
        let count_ok = field_usize(&result, &["deltas_applied"]) == Some(stream.deltas.applied());
        let errors = result
            .get("watches")
            .and_then(|w| w.get("errors"))
            .and_then(|e| e.as_array().ok())
            .map_or(1, <[JsonValue]>::len);
        match rows_ok && count_ok && errors == 0 {
            true => Ok((result, ms)),
            false => Err(format!("update: unexpected response {}", result.to_json())),
        }
    });
    let (result, ms) = match checked {
        Ok(r) => r,
        Err(e) => {
            ctx.tally.fail(e);
            stream.broken = true;
            return None;
        }
    };
    let count = |path: &[&str]| field_usize(&result, path).unwrap_or(0) as u64;
    log.kept += count(&["invalidation", "kept"]);
    log.invalidated += count(&["invalidation", "invalidated"]);
    log.flips += count(&["watches", "flipped"]);
    let changed = result
        .get("watches")
        .and_then(|w| w.get("changed"))
        .and_then(|c| c.as_array().ok())
        .and_then(|c| c.last())
        .and_then(|c| c.get("verdict"));
    if let Some(verdict) = changed {
        stream.watch = verdict.clone();
    }
    Some(ms)
}

/// One pooled `anonymize` on the watched spec; returns its latency. Its
/// answer depends on which batch it raced with, so only its completeness
/// is checked here; the final state is checked at the end.
fn read_step(ctx: &Ctx, client: &mut Client) -> Option<f64> {
    let cycle = ctx.tracer.start();
    let sent = timed_call(
        ctx,
        client,
        "anonymize",
        "server.live_anonymize",
        &anonymize_params(false),
        cycle.id(),
        true,
    );
    ctx.tracer.finish(cycle, "client.cycle", None, 0, true);
    match sent {
        Ok((result, _, ms)) => match result.get("verdict").and_then(Winner::of_verdict) {
            Some(_) => Some(ms),
            None => {
                ctx.tally.fail(format!(
                    "live anonymize: incomplete verdict {}",
                    result.to_json()
                ));
                None
            }
        },
        Err(e) => {
            ctx.tally.fail(e);
            None
        }
    }
}

/// The live phase: a state-dir server with one watch, its update stream,
/// and what writer and reader saw so far.
pub struct Live {
    server: Server,
    stream: Stream,
    log: LiveLog,
}

impl Live {
    /// Sets up a state-dir server and watches the workload's spec.
    pub fn start(ctx: &Ctx, expect: &Expected) -> Result<Live, String> {
        let state_dir = ctx.work.join("state");
        std::fs::create_dir_all(&state_dir).map_err(|e| e.to_string())?;
        let (server, _) = set_up(ctx, "live", Some(&state_dir))?;
        let baseline = server
            .connect()?
            .call_ok("watch", anonymize_params(false))?;
        let watch = baseline.get("verdict").cloned().unwrap_or(JsonValue::Null);
        if Winner::of_verdict(&watch).as_ref() != Some(&expect.winner) {
            return Err(format!("watch baseline differs: {}", watch.to_json()));
        }
        Ok(Live {
            server,
            stream: Stream {
                deltas: DeltaStream::new(&expect.table),
                watch,
                broken: false,
            },
            log: LiveLog::default(),
        })
    }

    /// Streams updates until `deadline`, each followed by one pooled read
    /// on the watched spec; returns the update and anonymize latencies.
    ///
    /// Writer and reader take turns on two connections. Run side by side,
    /// which of the two requests takes the dataset's lock first is a race
    /// that settles differently from run to run, and that race, not the
    /// program, then sets a run's latencies. Taking turns keeps the trade
    /// the phase measures: the writer pays for invalidation and the
    /// watch's re-verification, the reader finds what they left in the
    /// pool.
    pub fn slice(&mut self, ctx: &Ctx, fresh: &Table, deadline: Instant) -> (Vec<f64>, Vec<f64>) {
        let mut updates = Vec::new();
        let mut reads = Vec::new();
        let clients = self
            .server
            .connect()
            .and_then(|w| Ok((w, self.server.connect()?)));
        let (mut writer, mut reader) = match clients {
            Ok(c) => c,
            Err(e) => {
                ctx.tally.attempt();
                ctx.tally.fail(e);
                self.stream.broken = true;
                return (updates, reads);
            }
        };
        while Instant::now() < deadline && !self.stream.broken {
            updates.extend(update_step(
                ctx,
                &mut writer,
                fresh,
                &mut self.stream,
                &mut self.log,
            ));
            reads.extend(read_step(ctx, &mut reader));
        }
        (updates, reads)
    }

    /// Shuts the server down, then compares its final state and last watch
    /// verdict with the benchmark's own copy of the rows.
    pub fn finish(self, expect: &Expected) -> Result<LiveLog, String> {
        let stats = self
            .server
            .connect()?
            .call_ok("stats", JsonValue::object())?;
        let dataset = stats
            .get("datasets")
            .and_then(|d| d.as_array().ok())
            .and_then(|d| d.first())
            .cloned()
            .ok_or("stats lists no dataset")?;
        self.server.shutdown()?;
        if self.stream.broken {
            return Err("the update stream stopped on a failure".into());
        }
        let deltas = &self.stream.deltas;
        if field_usize(&dataset, &["rows"]) != Some(deltas.n_rows())
            || field_usize(&dataset, &["deltas_applied"]) != Some(deltas.applied())
        {
            return Err(format!(
                "daemon state after the stream differs from the replay: {}",
                dataset.to_json()
            ));
        }
        let scratch = oracle::search(&deltas.table()?, &expect.qi)?;
        if Winner::of(&scratch) != Winner::of_verdict(&self.stream.watch) {
            return Err(format!(
                "last watch verdict differs from a from-scratch search: {}",
                self.stream.watch.to_json()
            ));
        }
        Ok(self.log)
    }
}
