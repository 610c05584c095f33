//! In-memory spans recorded by the harness *around* its calls into the
//! engine. Nothing here reaches into the engine: a span is what the
//! load generator saw from outside.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use serde_json::json;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share its ordinal.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Opens a span at the current instant; [`close`](Self::close) it
    /// when the call it wraps returns.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now();
        self.record(name, start_ns, start_ns, parent, request)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Records a span whose bounds were stamped elsewhere (ticket
    /// deliveries are stamped by the service, not by the harness).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count
    /// once; a child reaching outside its parent is clipped).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if start < end {
                    children[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, covered)| {
                covered.sort_unstable();
                let mut busy = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in covered.iter() {
                    if end > reach {
                        busy += end - start.max(reach);
                        reach = end;
                    }
                }
                span.duration_ns() - busy
            })
            .collect()
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// One JSON object per line: name, start_ns, end_ns, parent, request.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(out, "{}", span_line(id as SpanId, span))?;
        }
        out.flush()
    }
}

fn span_line(id: SpanId, span: &Span) -> String {
    serde_json::to_string(&json!({
        "id": id,
        "name": (span.name),
        "start_ns": (span.start_ns),
        "end_ns": (span.end_ns),
        "parent": (span.parent),
        "request": (span.request),
    }))
    .expect("a span serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start, end, parent) in spans {
            t.record(name, start, end, parent, 7);
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let t = tracer(&[
            ("request", 0, 100, None),
            ("plan", 10, 70, Some(0)),
            ("sweep", 20, 50, Some(1)),
            ("commit", 70, 95, Some(0)),
        ]);
        // request: 100 - (60 + 25); plan: 60 - 30; leaves keep all.
        assert_eq!(t.self_times(), vec![15, 30, 30, 25]);
    }

    #[test]
    fn overlapping_and_escaping_children_are_not_double_counted() {
        let t = tracer(&[
            ("request", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 180, Some(0)), // overlaps a by 10
            ("c", 120, 130, Some(0)), // inside a
            ("d", 190, 260, Some(0)), // reaches 60 past the parent
            ("e", 10, 20, Some(0)),   // entirely outside: ignored
        ]);
        // Covered: [110,180) ∪ [190,200) = 80.
        assert_eq!(t.self_times()[0], 20);
        // Children are judged against their own (empty) child sets.
        assert_eq!(t.self_times()[4], 70);
    }

    #[test]
    fn span_lines_round_trip_through_the_parser() {
        let span =
            Span { name: "service.plan", start_ns: 12, end_ns: 3_456, parent: Some(4), request: 9 };
        let line = span_line(5, &span);
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["id"].as_u64(), Some(5));
        assert_eq!(v["name"].as_str(), Some("service.plan"));
        assert_eq!(v["start_ns"].as_u64(), Some(12));
        assert_eq!(v["end_ns"].as_u64(), Some(3_456));
        assert_eq!(v["parent"].as_u64(), Some(4));
        assert_eq!(v["request"].as_u64(), Some(9));
        let root = Span { parent: None, ..span };
        let v: serde_json::Value = serde_json::from_str(&span_line(0, &root)).unwrap();
        assert!(v["parent"].is_null());
    }

    #[test]
    fn open_and_close_stamp_monotonically() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 1);
        let child = t.open("service.plan", Some(root), 1);
        t.close(child);
        t.close(root);
        let s = t.spans();
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_us("service.plan").len(), 1);
    }
}
