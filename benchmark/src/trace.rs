//! Spans around the harness's calls into each layer's public functions.
//!
//! Drivers are generic over [`Trace`]: with [`NoTrace`] every hook
//! compiles to nothing, which is how end-to-end numbers are taken; with
//! [`Tracer`] each call records `{name, start_ns, end_ns, parent,
//! request_id}` in memory and the spans are written out once, after the
//! run. A layer's *self time* is its span minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Sentinel parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (a module path such as `core.stack.pump`).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by all spans of one request (or one cell).
    pub request_id: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The hooks a driver calls at each layer boundary.
pub trait Trace {
    /// Token returned by [`Trace::begin`], consumed by [`Trace::end`].
    type Token;
    /// Sets the identifier stamped on every span begun from now on.
    fn set_request(&mut self, request_id: u64);
    /// Opens a span nested under the innermost open one.
    fn begin(&mut self, name: &'static str) -> Self::Token;
    /// Closes the span `token` opened.
    fn end(&mut self, token: Self::Token);
}

/// Tracing off: every hook is an empty inlined function.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTrace;

impl Trace for NoTrace {
    type Token = ();
    #[inline(always)]
    fn set_request(&mut self, _request_id: u64) {}
    #[inline(always)]
    fn begin(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn end(&mut self, _token: ()) {}
}

/// Tracing on: spans accumulate in memory until [`Tracer::into_spans`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in begin order.
    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Trace for Tracer {
    type Token = u32;

    fn set_request(&mut self, request_id: u64) {
        self.request_id = request_id;
    }

    fn begin(&mut self, name: &'static str) -> u32 {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id: self.request_id,
        });
        self.open.push(index);
        index
    }

    fn end(&mut self, token: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(token), "spans must close innermost first");
        self.spans[token as usize].end_ns = end_ns;
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Largest single span duration, ns.
    pub max_ns: u64,
}

impl LayerTotal {
    /// Mean self time per span, ns (0 when none were recorded).
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Sums self time per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.self_ns += self_ns;
        t.max_ns = t.max_ns.max(span.duration());
    }
    totals
}

/// Most spans one trace file holds; aggregates always cover every span.
pub const MAX_WRITTEN_SPANS: usize = 200_000;

/// Writes spans as JSON lines (`parent` is `null` for roots), at most
/// [`MAX_WRITTEN_SPANS`] of them.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for span in spans.iter().take(MAX_WRITTEN_SPANS) {
        let parent = if span.parent == NO_PARENT {
            "null".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.request_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("a.inner", 15, 25, 1),
            span("b", 40, 70, 0), // adjacent to `a`
            span("leaf", 200, 230, NO_PARENT),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 100, 200, NO_PARENT),
            span("x", 90, 150, 0),  // starts before the parent: clipped
            span("y", 140, 180, 0), // overlaps `x`
            span("z", 190, 260, 0), // ends after the parent: clipped
        ];
        // Covered: [100,180) and [190,200) = 90 of 100.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_records_nesting_and_request_ids() {
        let mut t = Tracer::new();
        t.set_request(7);
        let root = t.begin("request");
        let child = t.begin("core.stack.pump");
        t.end(child);
        t.end(root);
        t.set_request(8);
        let next = t.begin("request");
        t.end(next);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[1].request_id, spans[2].request_id), (7, 8));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = layer_totals(&spans);
        assert_eq!(totals["request"].count, 2);
        assert_eq!(totals["core.stack.pump"].count, 1);
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let spans = [span("root", 0, 9, NO_PARENT), span("kid", 1, 2, 0)];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"name\":\"root\",\"start_ns\":0,\"end_ns\":9,\"parent\":null,\"request_id\":1}"
        );
        assert!(lines[1].contains("\"parent\":0"));
        for line in lines {
            crate::json::parse(line).expect("each line is valid JSON");
        }
    }
}
