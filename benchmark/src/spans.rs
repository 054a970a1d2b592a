//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `{name, op_id, span_id, parent_id, start_ns, end_ns}`:
//! spans of one operation share `op_id`, `parent_id` names the span
//! that caused this one (0 for an operation's root span). They are
//! kept in a pre-sized in-memory buffer and written out once, after
//! the measured window. Nothing here is compiled into the engine.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<step>`, e.g. `server.wait` or `core.commit`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op_id: u32,
    /// This span's id (unique within a [`Tracer`], never 0).
    pub span_id: u32,
    /// The causing span's id; 0 for a root span.
    pub parent_id: u32,
    /// Start, nanoseconds since the run's time origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's time origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: usize,
    /// The open span's id, for use as a child's `parent_id`.
    pub id: u32,
}

/// A single-threaded span buffer. Every generator thread owns one;
/// they share the time origin and are merged after the window.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Ids are `id_base + n`, so buffers of different threads do not
    /// collide when merged.
    id_base: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A buffer with room for `capacity` spans, numbering its spans
    /// from `id_base + 1`.
    pub fn new(origin: Instant, id_base: u32, capacity: usize) -> Tracer {
        Tracer {
            origin,
            id_base,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, op_id: u32, parent_id: u32) -> Open {
        let id = self.id_base + self.spans.len() as u32 + 1;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op_id,
            span_id: id,
            parent_id,
            start_ns: now,
            end_ns: now,
        });
        Open {
            index: self.spans.len() - 1,
            id,
        }
    }

    /// Closes a span now and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.index];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Times `f`, returning its result and duration in nanoseconds;
    /// when `record` is set (a traced slice of the window) the interval
    /// is also kept as a span.
    pub fn time<T>(
        &mut self,
        record: bool,
        name: &'static str,
        op_id: u32,
        parent_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = record.then(|| self.open(name, op_id, parent_id));
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(open) = open {
            self.close(open);
        }
        (out, ns)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the buffer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children are not
/// counted twice).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

/// Per span name: `(count, total duration, total self time)` in
/// nanoseconds, over all `spans`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.parent_id != 0 {
            children.entry(s.parent_id).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.span_id).map(Vec::as_slice).unwrap_or(&[]);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_time_ns(s, kids);
    }
    out
}

/// Renders a trace file: run identification, the per-name summary and
/// every span.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let summary = summarize(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name.to_owned(),
                Json::Obj(vec![
                    ("count".into(), Json::Num(count as f64)),
                    ("total_ns".into(), Json::Num(total as f64)),
                    ("self_ns".into(), Json::Num(own as f64)),
                ]),
            )
        })
        .collect();
    let mut out = String::with_capacity(96 * spans.len() + 1024);
    out.push_str("{\"workload\": ");
    out.push_str(&Json::Str(workload.into()).render());
    out.push_str(&format!(", \"seed\": {seed}, \"summary\": "));
    out.push_str(&Json::Obj(summary).render());
    out.push_str(", \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"op_id\": {}, \"span_id\": {}, \"parent_id\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.op_id, s.span_id, s.parent_id, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            op_id: 1,
            span_id: id,
            parent_id: parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let root = span("op", 1, 0, 100, 200);
        let a = span("a", 2, 1, 110, 130);
        let b = span("b", 3, 1, 120, 150); // overlaps a by 10
        let c = span("c", 4, 1, 190, 230); // sticks out past the parent
        assert_eq!(self_time_ns(&root, &[]), 100);
        assert_eq!(self_time_ns(&root, &[&a]), 80);
        // Covered: [110,150) ∪ [190,200) = 40 + 10.
        assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 50);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span("op", 1, 0, 0, 100),
            span("step", 2, 1, 10, 40),
            span("step", 3, 1, 50, 70),
            span("op", 4, 0, 200, 260),
            span("step", 5, 4, 200, 260),
        ];
        let s = summarize(&spans);
        assert_eq!(s["op"], (2, 160, 50));
        assert_eq!(s["step"], (3, 110, 110));
    }

    #[test]
    fn tracer_ids_are_offset_and_parents_link() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1_000_000, 8);
        let root = t.open("op", 7, 0);
        let child = t.open("step", 7, root.id);
        t.close(child);
        t.close(root);
        let (out, ns) = t.time(false, "untraced", 8, 0, || 7);
        assert_eq!(out, 7);
        let ((), traced_ns) = t.time(true, "traced", 8, 0, || ());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3, "an untraced step leaves no span");
        assert!(spans[2].duration_ns() >= traced_ns && ns < 1_000_000_000);
        let spans = spans[..2].to_vec();
        assert_eq!(spans[0].span_id, 1_000_001);
        assert_eq!(spans[1].parent_id, 1_000_001);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let text = trace_json("w", 1, &spans);
        let parsed = Json::parse(&text).expect("trace file is valid JSON");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
