//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is named after the metric its time feeds (`singe.verify.ms`), so
//! its layer is the name up to the last dot. Spans are kept in memory and
//! written once, when the run ends. With tracing off `begin`/`end` do not
//! read the clock.

use std::collections::BTreeMap;
use std::time::Instant;

use gpu_sim::profile::{EventKind, TraceEvent};

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The cell, request or candidate the span belongs to.
    pub op: String,
    /// Microseconds since the pass's timed region began.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// A measurement only the traced run makes (standalone flatten, model
    /// predictions on figure cells, profiled launches): left out when the
    /// traced path is set against the untraced one.
    pub extra: bool,
    /// Thread the span ran on (0 = the pass's own).
    pub tid: u32,
}

impl Span {
    pub fn layer(&self) -> &str {
        layer_of(&self.name)
    }

    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The layer of a span or metric name: the name up to its last dot.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the token to Tracer::end"]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    tid: u32,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Restart the clock: span times count from the start of the timed
    /// region.
    pub fn reset_epoch(&mut self) {
        self.epoch = Instant::now();
    }

    /// A tracer for another thread on the same clock; hand its spans back
    /// with [`Tracer::adopt`].
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Append a forked tracer's spans as children of the innermost open
    /// span.
    pub fn adopt(&mut self, other: Tracer) {
        let base = self.spans.len();
        let root = self.stack.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(root);
            self.spans.push(s);
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &str, op: &str) -> Open {
        self.open(name, op, false)
    }

    /// Begin a span the untraced path has no counterpart for.
    pub fn begin_extra(&mut self, name: &str, op: &str) -> Open {
        self.open(name, op, true)
    }

    fn open(&mut self, name: &str, op: &str, extra: bool) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let extra = extra || self.stack.last().is_some_and(|p| self.spans[*p].extra);
        self.spans.push(Span {
            name: name.to_string(),
            op: op.to_string(),
            start_us: 0.0,
            end_us: 0.0,
            parent: self.stack.last().copied(),
            extra,
            tid: self.tid,
        });
        self.stack.push(id);
        // Read the clock last so the bookkeeping above lands in the parent.
        self.spans[id].start_us = self.now_us();
        Open(Some(id))
    }

    /// Close a span and return its duration in microseconds (0 when
    /// tracing is off).
    pub fn end(&mut self, open: Open) -> f64 {
        let Some(id) = open.0 else { return 0.0 };
        let now = self.now_us();
        let popped = self.stack.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_us = now;
        self.spans[id].dur_us()
    }

    /// Hang the compiler's own stage spans (`Compiler::compile_traced`,
    /// microseconds since compile start) under the open span `parent`,
    /// renamed by `rename`.
    pub fn import(&mut self, parent: Open, events: &[TraceEvent], rename: fn(&str) -> String) {
        let Some(pid) = parent.0 else { return };
        let (base, op, extra) = {
            let p = &self.spans[pid];
            (p.start_us, p.op.clone(), p.extra)
        };
        for ev in events.iter().filter(|e| e.kind == EventKind::Span) {
            self.spans.push(Span {
                name: rename(&ev.name),
                op: op.clone(),
                start_us: base + ev.ts as f64,
                end_us: base + (ev.ts + ev.dur) as f64,
                parent: Some(pid),
                extra,
                tid: self.tid,
            });
        }
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children on other threads (a batch's requests) overlap each
/// other, so they are left to their own thread's account.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].tid == s.tid {
                own[p] -= s.dur_us();
            }
        }
    }
    own
}

/// Self time in milliseconds summed by span name, split into the spans on
/// the end-to-end path and the traced run's extra measurements.
pub fn self_ms_by_name(spans: &[Span]) -> (BTreeMap<String, f64>, BTreeMap<String, f64>) {
    let own = self_times_us(spans);
    let mut path = BTreeMap::new();
    let mut extra = BTreeMap::new();
    for (s, us) in spans.iter().zip(own) {
        let into = if s.extra { &mut extra } else { &mut path };
        *into.entry(s.name.clone()).or_insert(0.0) += us / 1e3;
    }
    (path, extra)
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(&s.name),
                    Json::str(&s.op),
                    Json::Num(s.start_us),
                    Json::Num(s.end_us),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    Json::Bool(s.extra),
                    Json::Num(f64::from(s.tid)),
                ])
            })
            .collect(),
    )
}

pub fn spans_from_json(j: &Json) -> Result<Vec<Span>, String> {
    j.as_arr()
        .iter()
        .map(|row| {
            let f = row.as_arr();
            let bad = || "malformed span".to_string();
            Ok(Span {
                name: f
                    .first()
                    .and_then(Json::as_str)
                    .ok_or_else(bad)?
                    .to_string(),
                op: f.get(1).and_then(Json::as_str).ok_or_else(bad)?.to_string(),
                start_us: f.get(2).and_then(Json::as_f64).ok_or_else(bad)?,
                end_us: f.get(3).and_then(Json::as_f64).ok_or_else(bad)?,
                parent: f.get(4).and_then(Json::as_f64).map(|p| p as usize),
                extra: f.get(5).and_then(Json::as_bool).ok_or_else(bad)?,
                tid: f.get(6).and_then(Json::as_f64).ok_or_else(bad)? as u32,
            })
        })
        .collect()
}

/// One Chrome-trace "process" per pass (`chrome://tracing`, Perfetto): the
/// span's layer is its category; op, parent and the extra flag ride in
/// `args`.
pub fn chrome_trace(passes: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (pid, (pass, spans)) in passes.iter().enumerate() {
        let pid = Json::Num(pid as f64);
        events.push(Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", pid.clone()),
            ("tid", Json::Num(0.0)),
            ("args", Json::obj(vec![("name", Json::str(pass))])),
        ]));
        for s in spans {
            events.push(Json::obj(vec![
                ("name", Json::str(&s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us())),
                ("pid", pid.clone()),
                ("tid", Json::Num(f64::from(s.tid))),
                (
                    "args",
                    Json::obj(vec![
                        ("op", Json::str(&s.op)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("extra", Json::Bool(s.extra)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a.outer_ms", "op");
        let inner = t.begin("a.b.inner_ms", "op");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        let extra = t.begin_extra("a.x.extra_ms", "op");
        t.end(extra);
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].layer(), "a.b");
        let own = self_times_us(&t.spans);
        let total: f64 = own.iter().sum();
        assert!(
            (total - t.spans[0].dur_us()).abs() < 1e-6,
            "self times tile the root"
        );
        assert!(own[1] >= 2000.0);
        let (path, extra) = self_ms_by_name(&t.spans);
        assert!(path.contains_key("a.outer_ms") && path.contains_key("a.b.inner_ms"));
        assert_eq!(extra.keys().collect::<Vec<_>>(), ["a.x.extra_ms"]);
        let back = spans_from_json(&Json::parse(&spans_to_json(&t.spans).to_string()).unwrap());
        assert_eq!(back.unwrap(), t.spans);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("a.b_ms", "");
        assert_eq!(t.end(s), 0.0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn forked_spans_hang_under_the_open_span() {
        let mut t = Tracer::new(true);
        let root = t.begin("a.root_ms", "");
        let mut f = t.fork(1);
        let s = f.begin("a.child_us", "r1");
        f.end(s);
        t.adopt(f);
        t.end(root);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].tid, 1);
        // Another thread's time is not taken out of the parent's.
        assert_eq!(self_times_us(&t.spans)[0], t.spans[0].dur_us());
        let chrome = chrome_trace(&[("p".into(), t.spans.clone())]);
        assert!(
            chrome.contains("\"cat\":\"a\"") && chrome.contains("\"op\":\"r1\""),
            "{chrome}"
        );
    }
}
