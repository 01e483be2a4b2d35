//! Span recording around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, the span that encloses it and the
//! number of items (frames, ops) the enclosed calls handled. Spans stay
//! in memory until the run ends; a layer's self time is its span's
//! duration minus the time its child spans cover. With tracing off every
//! call is a no-op, so the untraced run pays nothing.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
    items: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub spans: u64,
    pub items: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

impl Agg {
    /// Self time per item, in ns (0 when nothing was counted).
    pub fn self_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.self_ns / self.items as f64
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start tracing (or stop) from the next span on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
            items: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close a span, crediting it with `items` handled.
    pub fn exit(&mut self, open: Open, items: u64) {
        let Some(id) = open.0 else { return };
        let now = Instant::now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = Some(now);
            span.items = items;
        }
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Time `f` as one span credited with `items`.
    pub fn span<T>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open, items);
        out
    }

    /// Totals per span name, self time computed from the parent links.
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let dur = |s: &Span| -> f64 {
            s.end
                .map(|e| e.duration_since(s.start).as_nanos() as f64)
                .unwrap_or(0.0)
        };
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end.is_none() {
                continue;
            }
            let agg = out.entry(s.name).or_default();
            agg.spans += 1;
            agg.items += s.items;
            agg.total_ns += dur(s);
            agg.self_ns += (dur(s) - child_ns[i]).max(0.0);
        }
        out
    }
}

/// Merge per-thread summaries.
pub fn merge(into: &mut BTreeMap<&'static str, Agg>, from: BTreeMap<&'static str, Agg>) {
    for (name, a) in from {
        let e = into.entry(name).or_default();
        e.spans += a.spans;
        e.items += a.items;
        e.total_ns += a.total_ns;
        e.self_ns += a.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer, 1);
        let s = t.summary();
        let (outer, inner) = (s["outer"], s["inner"]);
        assert_eq!(inner.items, 3);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns < inner.total_ns, "{outer:?} {inner:?}");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", 1, || ());
        assert!(t.summary().is_empty());
    }
}
