//! Spans recorded from the benchmark's own code around calls into each
//! layer: name, start, end and parent, kept in memory until the run
//! ends. A span's self time is its duration minus the time its direct
//! children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.dual.access_batch`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with an explicit nesting stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Each span's self time, ns: its duration minus its direct
    /// children's.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Self time per span name over every span nested (at any depth)
    /// under span `root`, the root itself excluded, ns.
    pub fn self_ns_under(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let under = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut out = BTreeMap::new();
        for (i, ns) in self.self_times().into_iter().enumerate() {
            if under(i) {
                *out.entry(self.spans[i].name).or_insert(0) += ns;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |t| {
                t.span("leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let leaf = t.durations("leaf")[0];
        let under = t.self_ns_under(0);
        assert_eq!(under["leaf"], leaf);
        assert_eq!(under["inner"], t.durations("inner")[0] - leaf);
        assert_eq!(under.len(), 2, "the root itself is excluded");
    }

    #[test]
    fn spans_record_their_parent() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.durations("outer")[0];
        let inner = t.durations("inner")[0];
        assert!(inner >= 5_000_000 && outer >= inner);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
