//! Spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent and (for commands) the
//! verb, plus the simulator events dispatched inside it where that is
//! known. Spans stay in memory and are written at exit as Chrome
//! trace-event JSON, which opens in Perfetto or `chrome://tracing`.
//! Nothing here reaches inside the program: the spans sit around public
//! calls such as `Network::run_for` and `Workstation::exec`.

use serde::Value;
use std::time::Instant;

/// Spans kept per thread; later spans are counted as dropped.
const SPAN_CAP: usize = 200_000;

struct Span {
    name: &'static str,
    verb: Option<&'static str>,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    events: Option<u64>,
}

/// One thread's span recorder. Disabled recorders cost one branch per
/// call, so the untraced runs carry the same code path.
pub(crate) struct Tracer {
    origin: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

/// Handle of an open span (`None` when the recorder was off).
pub(crate) type SpanId = Option<usize>;

impl Tracer {
    /// A recorder for thread `tid`; timestamps count from `origin`, which
    /// all threads of one run share.
    pub(crate) fn new(origin: Instant, tid: u32, enabled: bool) -> Tracer {
        Tracer {
            origin,
            tid,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The instant this run's timestamps count from.
    pub(crate) fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before it ends.
    pub(crate) fn begin(&mut self, name: &'static str, verb: Option<&'static str>) -> SpanId {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            verb,
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            events: None,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close `id`, recording the simulator events dispatched inside it
    /// when the caller knows them.
    pub(crate) fn end(&mut self, id: SpanId, events: Option<u64>) {
        let Some(id) = id else { return };
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
            span.events = events;
        }
    }

    /// Record a span whose end is learned after the fact (a response
    /// matched to its request once the phase is over).
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        verb: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            verb,
            tid: self.tid,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            events: None,
        });
    }

    /// Move another thread's spans into this recorder.
    pub(crate) fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub(crate) fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps).
    pub(crate) fn to_chrome_json(&self, workload: &str) -> String {
        let us = |ns: u64| Value::F64(ns as f64 / 1e3);
        let mut events: Vec<Value> = Vec::with_capacity(self.spans.len() + 1);
        events.push(Value::Map(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::U64(1)),
            (
                "args".into(),
                Value::Map(vec![(
                    "name".into(),
                    Value::Str(format!("lv-benchmark {workload}")),
                )]),
            ),
        ]));
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![("id".into(), Value::U64(id as u64))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Value::U64(p as u64)));
            }
            if let Some(v) = s.verb {
                args.push(("verb".into(), Value::Str(v.into())));
            }
            if let Some(e) = s.events {
                args.push(("events".into(), Value::U64(e)));
            }
            events.push(Value::Map(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str("lv".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), us(s.start_ns)),
                ("dur".into(), us(s.end_ns.saturating_sub(s.start_ns))),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(u64::from(s.tid))),
                ("args".into(), Value::Map(args)),
            ]));
        }
        let doc = Value::Map(vec![
            ("traceEvents".into(), Value::Seq(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            (
                "otherData".into(),
                Value::Map(vec![("dropped_spans".into(), Value::U64(self.dropped))]),
            ),
        ]);
        serde_json::to_string(&doc).unwrap_or_else(|_| String::from("{}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_serialize() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1, true);
        let outer = t.begin("loop.chunk", None);
        let inner = t.begin("core.exec", Some("ping"));
        t.end(inner, Some(12));
        t.end(outer, None);
        let mut other = Tracer::new(origin, 2, true);
        let s = other.begin("serve.request", Some("status"));
        other.end(s, None);
        t.absorb(other);
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        let json = t.to_chrome_json("corridor-commands");
        let v: Value = serde_json::from_str(&json).expect("valid JSON");
        let Some(Value::Seq(events)) = v.map_get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 4, "metadata + 3 spans");
        assert!(json.contains("\"verb\":\"ping\""));
        assert!(json.contains("\"events\":12"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(Instant::now(), 1, false);
        let s = t.begin("core.exec", None);
        assert!(s.is_none());
        t.end(s, None);
        assert_eq!(t.span_count(), 0);
    }
}
