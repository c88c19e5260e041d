//! In-memory spans recorded around the benchmark's calls into the program:
//! child processes, protocol requests and in-process library calls. Spans
//! are kept in memory and written out once, when the run ends.

use psens_microdata::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// Layer boundary, e.g. `microdata.csv.parse` or `server.anonymize`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Spans of one request (or one replayed command) share this id.
    pub request: u64,
}

/// A span that has started but not finished.
pub struct Open {
    id: u64,
    at: Instant,
}

impl Open {
    /// The id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from every thread of the run. With `enabled == false`
/// nothing is stored and [`Tracer::finish`] only measures.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that stores spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span.
    pub fn start(&self) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            at: Instant::now(),
        }
    }

    /// Finishes `open`, storing it when `record` and the tracer are both
    /// on, and returns its duration.
    pub fn finish(
        &self,
        open: Open,
        name: &str,
        parent: Option<u64>,
        request: u64,
        record: bool,
    ) -> Duration {
        let end = Instant::now();
        let elapsed = end - open.at;
        if self.enabled && record {
            let span = Span {
                id: open.id,
                name: name.to_owned(),
                start_ns: (open.at - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                parent,
                request,
            };
            self.spans.lock().expect("span list poisoned").push(span);
        }
        elapsed
    }

    /// Runs `f` inside a recorded span and returns its result and duration.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.start();
        let out = f();
        (out, self.finish(open, name, parent, request, true))
    }

    /// Every stored span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Adopts spans recorded by another process: fresh ids, times shifted
    /// by `offset_ns`, and the other process's roots placed under `parent`.
    pub fn import(&self, spans: Vec<Span>, parent: u64, offset_ns: u64) {
        if !self.enabled {
            return;
        }
        let ids: BTreeMap<u64, u64> = spans
            .iter()
            .map(|s| (s.id, self.next_id.fetch_add(1, Ordering::Relaxed)))
            .collect();
        let adopted = spans.into_iter().map(|s| Span {
            id: ids[&s.id],
            parent: Some(
                s.parent
                    .and_then(|p| ids.get(&p).copied())
                    .unwrap_or(parent),
            ),
            start_ns: s.start_ns + offset_ns,
            end_ns: s.end_ns + offset_ns,
            ..s
        });
        self.spans
            .lock()
            .expect("span list poisoned")
            .extend(adopted);
    }

    /// Nanoseconds from this tracer's epoch to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Per span name: (count, total ms, self ms). A span's self time is its
/// duration minus the time its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&str, (u64, f64, f64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_default() += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for span in spans {
        let total = span.end_ns - span.start_ns;
        let own = total.saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        let entry = out.entry(span.name.as_str()).or_default();
        entry.0 += 1;
        entry.1 += total as f64 / 1e6;
        entry.2 += own as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> JsonValue {
    JsonValue::Array(
        spans
            .iter()
            .map(|s| {
                let mut e = JsonValue::object();
                e.set("id", JsonValue::Int(s.id as i64));
                e.set("name", JsonValue::Str(s.name.clone()));
                e.set("start_ns", JsonValue::Int(s.start_ns as i64));
                e.set("end_ns", JsonValue::Int(s.end_ns as i64));
                e.set(
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Int(p as i64)),
                );
                e.set("request", JsonValue::Int(s.request as i64));
                e
            })
            .collect(),
    )
}

/// Reads back what [`spans_json`] wrote.
pub fn spans_from_json(value: &JsonValue) -> Option<Vec<Span>> {
    value
        .as_array()
        .ok()?
        .iter()
        .map(|e| {
            let num = |k: &str| e.get(k)?.as_u64().ok();
            Some(Span {
                id: num("id")?,
                name: e.get("name")?.as_str().ok()?.to_owned(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                parent: num("parent"),
                request: num("request")?,
            })
        })
        .collect()
}

/// The spans and their per-name self times as one JSON document.
pub fn to_json(spans: &[Span], host: JsonValue) -> JsonValue {
    let mut doc = JsonValue::object();
    doc.set("host", host);
    let mut selves = JsonValue::object();
    for (name, (count, total, own)) in self_times(spans) {
        let mut entry = JsonValue::object();
        entry.set("count", JsonValue::Int(count as i64));
        entry.set("total_ms", JsonValue::Float(total));
        entry.set("self_ms", JsonValue::Float(own));
        selves.set(name, entry);
    }
    doc.set("self_time", selves);
    doc.set("spans", spans_json(spans));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, "cmd", 0, 10_000_000, None),
            span(2, "read", 0, 2_000_000, Some(1)),
            span(3, "parse", 2_000_000, 5_000_000, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cmd"], (1, 10.0, 5.0));
        assert_eq!(t["read"], (1, 2.0, 2.0));
        assert_eq!(t["parse"], (1, 3.0, 3.0));
    }

    #[test]
    fn disabled_tracer_measures_without_storing() {
        let tracer = Tracer::new(false);
        let open = tracer.start();
        let d = tracer.finish(open, "x", None, 0, true);
        assert!(d >= Duration::ZERO);
        assert!(tracer.spans().is_empty());
        let on = Tracer::new(true);
        let (v, _) = on.time("y", None, 7, || 5);
        assert_eq!(v, 5);
        assert_eq!(on.spans().len(), 1);
        assert_eq!(on.spans()[0].request, 7);
    }

    #[test]
    fn imported_spans_get_fresh_ids_and_the_given_root() {
        let child = vec![span(1, "cmd", 0, 10, None), span(2, "read", 0, 4, Some(1))];
        let json = spans_json(&child);
        let parsed = spans_from_json(&json).expect("round trip");
        let tracer = Tracer::new(true);
        let root = tracer.start().id();
        tracer.import(parsed, root, 100);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let cmd = spans.iter().find(|s| s.name == "cmd").unwrap();
        let read = spans.iter().find(|s| s.name == "read").unwrap();
        assert_eq!(cmd.parent, Some(root));
        assert_eq!(read.parent, Some(cmd.id));
        assert_eq!((read.start_ns, read.end_ns), (100, 104));
        assert!(cmd.id != 1 && cmd.id != root);
    }
}
