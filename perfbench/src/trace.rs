//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end, the span that was open when it
//! began (its parent), and the id of the operation it served (one sim
//! point, one query batch, one fault set).  Spans stay in memory and are
//! written out when the run ends.  The name's prefix up to the first `.`
//! names the layer (`sim.run` belongs to `sim`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span.
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled; does nothing otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start a new operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, parent, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it that its child spans cover, summed by [`layer`].
pub fn self_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns);
        *out.entry(layer(s.name).to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Total duration per span name, in seconds.
pub fn total_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // op [0, 100) holds two sequential children and one that
        // overlaps the second; the grandchild is charged to its own layer.
        let spans = vec![
            span(0, "op.batch", None, 0, 100),
            span(1, "json.parse", Some(0), 10, 30),
            span(2, "queries.run_batch", Some(0), 40, 80),
            span(3, "json.emit", Some(0), 70, 90),
            span(4, "cache.solve", Some(2), 50, 60),
        ];
        let own = self_seconds(&spans);
        let ns = |layer: &str| (own[layer] * 1e9).round() as u64;
        assert_eq!(ns("op"), 100 - 20 - 50);
        assert_eq!(ns("json"), 20 + 20);
        assert_eq!(ns("queries"), 40 - 10);
        assert_eq!(ns("cache"), 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(0, "faulty.new", None, 10, 20),
            span(1, "router.bfs", Some(0), 5, 15),
        ];
        let own = self_seconds(&spans);
        assert_eq!((own["faulty"] * 1e9).round() as u64, 5);
    }

    #[test]
    fn tracer_nests_spans_and_ignores_them_when_disabled() {
        let mut t = Tracer::new(true);
        t.next_op();
        let first = t.enter("op.point");
        t.exit(first);
        let outer = t.enter("op.point");
        let inner = t.enter("sim.run");
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert!(t.to_json().contains("\"name\":\"sim.run\",\"parent\":1"));

        let mut off = Tracer::new(false);
        let ignored = off.enter("sim.run");
        off.exit(ignored);
        assert_eq!(off.len(), 0);
    }
}
