//! In-memory spans around calls into the library's layers.
//!
//! A span is `{name, start, end, parent, request}`. Spans are kept in
//! memory while the traced run executes and written once at exit. A
//! span's *self time* is its duration minus the part of its interval that
//! its children cover (children of one parent may overlap when they run
//! on different threads, so covered time is the union of their
//! intervals).

use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// One recorded call.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `crossbar.vmv`.
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the request (job) the span belongs to, if any.
    pub request: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures,
/// which is how the same replay is timed untraced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. `f` receives the new span's index so calls
    /// it makes can record child spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        self.timed(name, parent, request, f).0
    }

    /// [`Tracer::span`], also returning the span's duration in ns (a
    /// disabled tracer still times the call).
    pub fn timed<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let started = Instant::now();
            let out = f(None);
            return (out, started.elapsed().as_nanos() as u64);
        }
        let index = {
            let mut spans = self.spans.lock().expect("span list is never poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let out = f(Some(index));
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span list is never poisoned");
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        (out, end - start)
    }

    /// Every recorded span, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list is never poisoned")
            .clone()
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("job", 0, 100, None),
            // Two overlapping children (parallel trials): union 10..50.
            span("trial", 10, 40, Some(0)),
            span("trial", 30, 50, Some(0)),
            // A grandchild is charged to its own parent, not the root.
            span("read", 32, 36, Some(2)),
            span("finish", 60, 70, Some(0)),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns, vec![100 - 40 - 10, 30, 20 - 4, 4, 10]);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        let value = tracer.span("outer", None, Some(3), |outer| {
            tracer.span("inner", outer, Some(3), |_| 7)
        });
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], spans[0].duration_ns() - spans[1].duration_ns());

        let off = Tracer::new(false);
        assert!(off.span("outer", None, None, |p| p.is_none()));
        assert!(off.spans().is_empty());
    }
}
