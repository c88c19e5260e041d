//! End-to-end tests: a real server on a loopback port, real clients over
//! TCP.
//!
//! The cancellation tests are written to be deterministic-by-margin: they
//! assert lower bounds (serialization really waited) and generous upper
//! bounds (a freed slot really freed), never exact timings.

use psens_datasets::fixtures::adult_fixture;
use psens_microdata::JsonValue;
use psens_server::client::{register_params, Client};
use psens_server::{start, ServerConfig, ServerHandle};
use std::time::{Duration, Instant};

fn server(max_concurrent: usize) -> ServerHandle {
    start(ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        max_concurrent,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

fn registered_server(max_concurrent: usize) -> (ServerHandle, Client) {
    let handle = server(max_concurrent);
    let mut client = Client::connect(handle.addr()).unwrap();
    let fixture = adult_fixture(21, 120);
    client
        .call_ok(
            "register",
            register_params("adult", &fixture.csv, &fixture.spec),
        )
        .unwrap();
    (handle, client)
}

fn sleep_params(ms: i64) -> JsonValue {
    let mut params = JsonValue::object();
    params.set("ms", JsonValue::Int(ms));
    params
}

fn anonymize_params(extra: &[(&str, JsonValue)]) -> JsonValue {
    let mut params = JsonValue::object();
    params.set("dataset", JsonValue::Str("adult".into()));
    params.set("p", JsonValue::Int(2));
    params.set("k", JsonValue::Int(3));
    params.set("ts", JsonValue::Int(10));
    for (key, value) in extra {
        params.set(*key, value.clone());
    }
    params
}

#[test]
fn register_check_analyze_query_roundtrip() {
    let (_handle, mut client) = registered_server(2);

    let check = client
        .call_ok("check", {
            let mut p = JsonValue::object();
            p.set("dataset", JsonValue::Str("adult".into()));
            p.set("p", JsonValue::Int(2));
            p.set("k", JsonValue::Int(3));
            p
        })
        .unwrap();
    assert_eq!(check.require("rows").unwrap().as_u64().unwrap(), 120);
    assert!(check.require("max_k").unwrap().as_u64().unwrap() >= 1);
    check.require("satisfied").unwrap().as_bool().unwrap();

    let analyze = client
        .call_ok("analyze", {
            let mut p = JsonValue::object();
            p.set("dataset", JsonValue::Str("adult".into()));
            p.set("p", JsonValue::Int(2));
            p
        })
        .unwrap();
    assert!(analyze.require("max_p").unwrap().as_u64().unwrap() >= 1);
    analyze.require("satisfiable").unwrap().as_bool().unwrap();
    analyze
        .require("identity_risk")
        .unwrap()
        .require("uniques")
        .unwrap()
        .as_u64()
        .unwrap();

    let query = client
        .call_ok("query", {
            let mut p = JsonValue::object();
            p.set("dataset", JsonValue::Str("adult".into()));
            p.set("sql", JsonValue::Str("SELECT COUNT(*) FROM data".into()));
            p
        })
        .unwrap();
    assert_eq!(query.require("rows").unwrap().as_u64().unwrap(), 1);

    let stats = client.call_ok("stats", JsonValue::object()).unwrap();
    let datasets = stats.require("datasets").unwrap().as_array().unwrap();
    assert_eq!(datasets.len(), 1);
    assert_eq!(
        datasets[0].require("name").unwrap().as_str().unwrap(),
        "adult"
    );
}

#[test]
fn register_errors_are_typed() {
    let (_handle, mut client) = registered_server(2);
    let fixture = adult_fixture(21, 10);
    let err = client
        .call_ok(
            "register",
            register_params("adult", &fixture.csv, &fixture.spec),
        )
        .unwrap_err();
    assert!(err.starts_with("register: conflict:"), "{err}");

    let err = client
        .call_ok("check", {
            let mut p = JsonValue::object();
            p.set("dataset", JsonValue::Str("nope".into()));
            p
        })
        .unwrap_err();
    assert!(err.starts_with("check: not_found:"), "{err}");

    let err = client
        .call_ok("frobnicate", JsonValue::object())
        .unwrap_err();
    assert!(err.contains("bad_request"), "{err}");
}

#[test]
fn anonymize_warm_store_replays_verdicts() {
    let (_handle, mut client) = registered_server(2);

    let cold = client.call_ok("anonymize", anonymize_params(&[])).unwrap();
    assert!(!cold.require("warm").unwrap().as_bool().unwrap());
    let warm = client.call_ok("anonymize", anonymize_params(&[])).unwrap();
    assert!(warm.require("warm").unwrap().as_bool().unwrap());

    // The verdict object is byte-identical; only the execution-side fields
    // (warm flag, cache counters) differ.
    assert_eq!(
        cold.require("verdict").unwrap().to_json(),
        warm.require("verdict").unwrap().to_json()
    );
    let cold_stats = cold.require("search").unwrap();
    let warm_stats = warm.require("search").unwrap();
    let warm_replays = warm_stats.require("cache_hits").unwrap().as_u64().unwrap()
        + warm_stats
            .require("cache_inferred")
            .unwrap()
            .as_u64()
            .unwrap();
    assert!(
        warm_replays > 0,
        "second identical request must replay store verdicts"
    );
    assert!(
        warm_stats
            .require("nodes_evaluated")
            .unwrap()
            .as_u64()
            .unwrap()
            < cold_stats
                .require("nodes_evaluated")
                .unwrap()
                .as_u64()
                .unwrap(),
        "warm run must re-check fewer nodes than the cold run"
    );

    // no_cache opts out of the pool but reaches the same verdict.
    let uncached = client
        .call_ok(
            "anonymize",
            anonymize_params(&[("no_cache", JsonValue::Bool(true))]),
        )
        .unwrap();
    assert!(!uncached.require("warm").unwrap().as_bool().unwrap());
    assert_eq!(
        cold.require("verdict").unwrap().to_json(),
        uncached.require("verdict").unwrap().to_json()
    );

    // Different parameters get their own store: no cross-configuration
    // replay, warm=false on first use.
    let other = client
        .call_ok("anonymize", anonymize_params(&[("k", JsonValue::Int(2))]))
        .unwrap();
    assert!(!other.require("warm").unwrap().as_bool().unwrap());
}

#[test]
fn anonymize_budget_interruption_is_reported_not_fatal() {
    let (_handle, mut client) = registered_server(2);
    let result = client
        .call_ok(
            "anonymize",
            anonymize_params(&[("max_nodes", JsonValue::Int(0))]),
        )
        .unwrap();
    let verdict = result.require("verdict").unwrap();
    assert_eq!(
        verdict.require("termination").unwrap().as_str().unwrap(),
        "node_budget_exhausted"
    );
    // The connection survives an interrupted request.
    let stats = client.call_ok("stats", JsonValue::object()).unwrap();
    stats.require("requests_served").unwrap().as_u64().unwrap();
}

/// The headline interruption-path regression: one client hanging up must
/// cancel *its own* request only. With a single admission slot, a dropped
/// client's long sleep must free the slot early; a second client's request
/// then completes far sooner than the abandoned sleep would have allowed.
#[test]
fn disconnect_cancels_only_its_own_request() {
    let (_handle, mut live) = registered_server(1);

    // Doomed client: starts a 30s sleep, then vanishes without reading the
    // response.
    let mut doomed = Client::connect(_handle.addr()).unwrap();
    doomed.send("sleep", sleep_params(30_000)).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    drop(doomed);

    // The live client's request needs the single slot the doomed sleep is
    // holding. If the disconnect did not cancel the sleep, this would wait
    // ~30s; if cancellation leaked across requests (the process-global-token
    // bug), the live request would come back `interrupted` instead of ok.
    let start = Instant::now();
    let result = live.call_ok("sleep", sleep_params(50)).unwrap();
    assert_eq!(result.require("slept_ms").unwrap().as_u64().unwrap(), 50);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "doomed client's slot was not freed: waited {:?}",
        start.elapsed()
    );

    // And the server is still fully operational for real work.
    let check = live
        .call_ok("check", {
            let mut p = JsonValue::object();
            p.set("dataset", JsonValue::Str("adult".into()));
            p
        })
        .unwrap();
    assert_eq!(check.require("rows").unwrap().as_u64().unwrap(), 120);
}

#[test]
fn admission_gate_bounds_concurrency() {
    let handle = server(1);
    let addr = handle.addr();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let result = client.call_ok("sleep", sleep_params(200)).unwrap();
                assert_eq!(result.require("slept_ms").unwrap().as_u64().unwrap(), 200);
            });
        }
    });
    // One slot: the two 200ms sleeps cannot have overlapped.
    assert!(
        start.elapsed() >= Duration::from_millis(380),
        "sleeps overlapped despite max_concurrent=1: {:?}",
        start.elapsed()
    );
}

#[test]
fn shutdown_fans_out_to_inflight_requests() {
    let mut handle = server(2);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.send("sleep", sleep_params(30_000)).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    handle.shutdown();
    // The in-flight sleep observes the shutdown through its child token and
    // answers `interrupted` instead of finishing the 30s.
    let response = client.recv().unwrap();
    assert!(!response.require("ok").unwrap().as_bool().unwrap());
    let code = response
        .require("error")
        .unwrap()
        .require("code")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(code, "interrupted");
    assert!(start.elapsed() < Duration::from_secs(10));

    // New work is refused while shutting down.
    let err = client.call_ok("sleep", sleep_params(10)).unwrap_err();
    assert!(
        err.contains("shutting_down") || err.contains("transport"),
        "{err}"
    );
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (_handle, mut client) = registered_server(2);
    let mut ids = Vec::new();
    for ms in [30, 10, 20] {
        ids.push(client.send("sleep", sleep_params(ms)).unwrap());
    }
    for id in ids {
        let response = client.recv().unwrap();
        assert_eq!(response.require("id").unwrap().as_i64().unwrap(), id);
        assert!(response.require("ok").unwrap().as_bool().unwrap());
    }
}

/// The `shutdown` reply reaches the client before the process exits: with
/// the reply write stalled by an injected delay, the binary must still
/// answer `stopping: true` and then exit 0. Tripping the shutdown token
/// before the write let `main` return first and the client saw EOF.
#[test]
fn shutdown_reply_is_written_before_the_process_exits() {
    let dir = std::env::temp_dir().join(format!("psens-shutdown-reply-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr_file = dir.join("server.addr");
    let _ = std::fs::remove_file(&addr_file);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_psens-server"))
        .args(["--listen", "127.0.0.1:0", "--enable-inject", "--addr-file"])
        .arg(&addr_file)
        .env(
            "PSENS_FAULTS",
            r#"{"seed":1,"rules":[{"site":"write_response","op":"shutdown","action":"delay_ms","ms":300}]}"#,
        )
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn psens-server");
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&addr_file)
            .ok()
            .and_then(|text| text.trim().parse().ok())
        {
            break addr;
        }
        assert!(
            Instant::now() < deadline,
            "server never wrote its addr file"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut client = Client::connect(addr).unwrap();
    let reply = client.call_ok("shutdown", JsonValue::object());
    let status = child.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let result = reply.expect("shutdown reply");
    assert!(result.require("stopping").unwrap().as_bool().unwrap());
    assert!(status.success(), "psens-server exited with {status}");
}
