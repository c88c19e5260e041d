//! Records the thread-scaling curve of the evaluator's per-node QI
//! partition on the scale workload (Adult-shaped, no identifier column,
//! bounded dictionaries): [`NodeEvaluator::partition`] at the lattice's
//! bottom node over one table of 100k/1M/10M rows, at 1/2/4/8 requested
//! threads. One thread runs the serial refinement chain; more threads run
//! the morsel-driven hash-partitioned executor over row ranges of the same
//! table, [`DEFAULT_MORSEL_ROWS`] rows per morsel.
//!
//! Run with:
//! `cargo run --release -p psens-bench --bin partition_scaling -- --out BENCH.json`
//!
//! Or as the CI thread-scaling gate:
//! `cargo run --release -p psens-bench --bin partition_scaling -- --gate`
//! which checks that threads=8 beats threads=1 wall-clock at 10M rows on
//! hosts with at least [`GATE_MIN_CORES`] cores (exit 1 on regression) and
//! SKIPs loudly on smaller hosts (exit 0 — a 1-core box cannot demonstrate
//! scaling, and silently "passing" there would hide real regressions).
//!
//! Honesty rules:
//!
//! - every entry is labelled by its *effective* thread count
//!   ([`resolve_threads`]), not the requested one: on a 2-core host a
//!   request for 8 threads runs 2, and is reported as 2 (with the requests
//!   that resolved to it listed alongside);
//! - per-thread-count speedups `speedup_vs_1 = t1_secs / tT_secs` to two
//!   decimals, so a slowdown prints as e.g. 0.86, never 1.00;
//! - `host_parallelism` recorded per entry, so scaling figures from small
//!   hosts are not mistaken for (or used to excuse) regressions.
//!
//! A plain binary with no dev-dependencies, so it runs in the hermetic
//! (offline) build.

use psens_bench::workloads;
use psens_core::evaluator::{EvalContext, NodeEvaluator};
use psens_core::MaskingContext;
use psens_datasets::Spec;
use psens_hierarchy::Node;
use psens_microdata::{resolve_threads, DEFAULT_MORSEL_ROWS};
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 3] = [100_000, 1_000_000, 10_000_000];
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Minimum host cores for the `--gate` check to be meaningful.
const GATE_MIN_CORES: usize = 4;
/// Row count the gate measures at (the largest benched size).
const GATE_ROWS: usize = 10_000_000;

/// Best wall-clock of `rounds` timed repetitions (after one warm-up call).
fn best_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The scale table of `n` rows with its node-invariant evaluator context
/// (serial partition) and the bottom node the partitions are timed at.
struct Workload {
    n_rows: usize,
    base: EvalContext,
    node: Node,
}

impl Workload {
    fn new(n: usize) -> Workload {
        let table = workloads::scale(n);
        let qi = Spec::scale().qi_space().expect("built-in scale spec");
        let ctx = MaskingContext {
            initial: &table,
            qi: &qi,
            k: 1,
            p: 1,
            ts: 0,
        };
        Workload {
            n_rows: n,
            base: EvalContext::build(&ctx).expect("scale table matches its spec"),
            node: qi.lattice().bottom(),
        }
    }

    /// The evaluator context partitioning on `threads` requested workers.
    fn context(&self, threads: usize) -> EvalContext {
        self.base
            .clone()
            .with_chunked_partition(DEFAULT_MORSEL_ROWS, threads)
    }

    /// Best-of-`rounds` seconds of one partition of the bottom node.
    fn time(&self, ectx: &EvalContext, rounds: usize) -> f64 {
        let mut evaluator: NodeEvaluator<'_> = ectx.evaluator();
        best_secs(rounds, || {
            black_box(evaluator.partition(black_box(&self.node)));
        })
    }
}

/// One effective thread count's measurement.
struct Entry {
    effective: usize,
    requested: Vec<usize>,
    secs: f64,
}

/// Times the partition once per distinct effective thread count.
fn bench_size(n: usize) -> (usize, Vec<Entry>) {
    let rounds = if n >= 10_000_000 { 3 } else { 5 };
    let workload = Workload::new(n);
    // Sanity: every thread count must find the serial group count before
    // its timing means anything (the byte-identity of the assignments is
    // pinned by the evaluator's tests and tests/chunked_equivalence.rs).
    let serial_groups = workload.base.evaluator().partition(&workload.node);
    let mut entries: Vec<Entry> = Vec::new();
    for &requested in &THREADS {
        let effective = resolve_threads(requested);
        if let Some(entry) = entries.iter_mut().find(|e| e.effective == effective) {
            entry.requested.push(requested);
            continue;
        }
        let ectx = workload.context(requested);
        assert_eq!(ectx.evaluator().partition(&workload.node), serial_groups);
        entries.push(Entry {
            effective,
            requested: vec![requested],
            secs: workload.time(&ectx, rounds),
        });
    }
    (workload.n_rows, entries)
}

fn render_json(reports: &[(usize, Vec<Entry>)], host_parallelism: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Infallible writes into a String; the fallible part — getting the text
    // onto disk intact — is `emit`'s job.
    let w = &mut out;
    let _ = writeln!(w, "{{");
    let _ = writeln!(w, "  \"workload\": {{");
    let _ = writeln!(
        w,
        "    \"dataset\": \"scale (Adult-shaped, no identifier)\","
    );
    let _ = writeln!(w, "    \"generator\": \"psens_datasets::ScaleGenerator\",");
    let _ = writeln!(
        w,
        "    \"operation\": \"NodeEvaluator::partition at the bottom node \
         (Age, MaritalStatus, Race, Sex)\","
    );
    let _ = writeln!(
        w,
        "    \"executor\": \"serial refinement at 1 thread, morsel-driven \
         hash-partitioned above\","
    );
    let _ = writeln!(w, "    \"morsel_rows\": {DEFAULT_MORSEL_ROWS}");
    let _ = writeln!(w, "  }},");
    let _ = writeln!(w, "  \"partition_scaling\": [");
    for (i, (n_rows, entries)) in reports.iter().enumerate() {
        let t1 = entries[0].secs;
        let _ = writeln!(w, "    {{");
        let _ = writeln!(w, "      \"n_rows\": {n_rows},");
        let _ = writeln!(w, "      \"host_parallelism\": {host_parallelism},");
        let _ = writeln!(w, "      \"by_effective_threads\": [");
        for (j, entry) in entries.iter().enumerate() {
            let requested: Vec<String> = entry.requested.iter().map(|r| r.to_string()).collect();
            let _ = write!(
                w,
                "        {{ \"effective_threads\": {}, \"requested_threads\": [{}], \
                 \"secs\": {:.4}, \"speedup_vs_1\": {:.2} }}",
                entry.effective,
                requested.join(", "),
                entry.secs,
                t1 / entry.secs
            );
            let _ = writeln!(w, "{}", if j + 1 < entries.len() { "," } else { "" });
        }
        let _ = writeln!(w, "      ],");
        let best = entries.iter().map(|e| e.secs).fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            w,
            "      \"rows_per_sec_best\": {:.0}",
            *n_rows as f64 / best
        );
        let _ = write!(w, "    }}");
        let _ = writeln!(w, "{}", if i + 1 < reports.len() { "," } else { "" });
    }
    let _ = writeln!(w, "  ],");
    let _ = writeln!(w, "  \"host_parallelism\": {host_parallelism}");
    let _ = writeln!(w, "}}");
    out
}

/// Gets BENCH JSON onto disk (or stdout) *verifiably*. With `--out FILE`,
/// the text is written, re-read, byte-compared, and re-parsed; any mismatch
/// or I/O error is reported and turns the whole run red. A `> BENCH.json`
/// shell redirect can silently truncate on a full disk and still exit 0 —
/// that failure mode produced a half-written BENCH file that read as a
/// green run, which is exactly what this path exists to prevent.
fn emit(text: &str, out_path: Option<&str>) -> Result<(), String> {
    match out_path {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            let back =
                std::fs::read_to_string(path).map_err(|e| format!("re-reading {path}: {e}"))?;
            if back != text {
                return Err(format!(
                    "{path}: content mismatch after write ({} bytes on disk, {} rendered)",
                    back.len(),
                    text.len()
                ));
            }
            psens_microdata::JsonValue::parse(&back)
                .map_err(|e| format!("{path}: emitted JSON does not parse: {e}"))?;
            eprintln!("wrote {path} ({} bytes, validated)", back.len());
            Ok(())
        }
        None => {
            use std::io::Write;
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(text.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| format!("writing BENCH JSON to stdout: {e}"))
        }
    }
}

/// The CI thread-scaling gate (see module docs). Returns the process exit
/// code. With `out_path`, the measurements are emitted as validated JSON and
/// an emission failure turns the gate red even when the perf check passed —
/// a truncated BENCH file must never ride out on a green exit code.
fn gate(host_parallelism: usize, out_path: Option<&str>) -> i32 {
    eprintln!(
        "thread-scaling gate: evaluator partition at {GATE_ROWS} rows, threads=8 vs threads=1"
    );
    let (perf_code, record) = if host_parallelism < GATE_MIN_CORES {
        eprintln!("!!------------------------------------------------------------------!!");
        eprintln!(
            "!! SKIPPED: host has {host_parallelism} core(s), gate needs >= {GATE_MIN_CORES}."
        );
        eprintln!("!! Thread scaling was NOT verified on this machine — run the gate on");
        eprintln!("!! a multi-core host before trusting parallel partition performance.");
        eprintln!("!!------------------------------------------------------------------!!");
        let record = format!(
            "{{\n  \"gate\": \"partition_scaling\",\n  \"skipped\": true,\n  \
             \"host_parallelism\": {host_parallelism},\n  \
             \"gate_min_cores\": {GATE_MIN_CORES}\n}}\n"
        );
        (0, record)
    } else {
        let workload = Workload::new(GATE_ROWS);
        let rounds = 3;
        let wide = resolve_threads(8);
        let t1 = workload.time(&workload.context(1), rounds);
        let tw = workload.time(&workload.context(8), rounds);
        let speedup = t1 / tw;
        eprintln!(
            "threads=1: {t1:.4}s  threads={wide}: {tw:.4}s  speedup: {speedup:.2}x  \
             (8 requested; host_parallelism: {host_parallelism})"
        );
        let passed = tw < t1;
        if passed {
            eprintln!("gate PASSED: threads={wide} beats threads=1");
        } else {
            eprintln!("gate FAILED: threads={wide} did not beat threads=1 wall-clock");
        }
        let record = format!(
            "{{\n  \"gate\": \"partition_scaling\",\n  \"skipped\": false,\n  \
             \"passed\": {passed},\n  \"n_rows\": {GATE_ROWS},\n  \
             \"threads_1_secs\": {t1:.4},\n  \"threads_{wide}_secs\": {tw:.4},\n  \
             \"speedup_{wide}_vs_1\": {speedup:.2},\n  \
             \"requested_threads\": 8,\n  \
             \"host_parallelism\": {host_parallelism}\n}}\n"
        );
        (i32::from(!passed), record)
    };
    if out_path.is_some() {
        if let Err(e) = emit(&record, out_path) {
            eprintln!("gate FAILED: BENCH JSON emission error: {e}");
            return 1;
        }
    }
    perf_code
}

/// Value of `--out FILE` if present (either `--out FILE` or `--out=FILE`).
fn out_arg(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            return Some(
                it.next()
                    .unwrap_or_else(|| {
                        eprintln!("error: --out requires a file path");
                        std::process::exit(1);
                    })
                    .clone(),
            );
        }
        if let Some(path) = a.strip_prefix("--out=") {
            return Some(path.to_string());
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = out_arg(&args);
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    if args.iter().any(|a| a == "--gate") {
        std::process::exit(gate(host_parallelism, out_path.as_deref()));
    }
    let reports: Vec<(usize, Vec<Entry>)> = SIZES.iter().map(|&n| bench_size(n)).collect();
    let text = render_json(&reports, host_parallelism);
    if let Err(e) = emit(&text, out_path.as_deref()) {
        eprintln!("error: BENCH JSON emission failed: {e}");
        std::process::exit(1);
    }
}
