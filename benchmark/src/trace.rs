//! Benchmark-side spans. They are recorded around calls into each layer
//! from outside the program, kept in memory, and written out when the
//! run ends; spans inside the program are a later issue.

use crate::stats;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// One timed interval. `parent` is the span that caused it (0 = none);
/// spans of one request share `req` (0 = not tied to one request, e.g.
/// an inference batch that serves several).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink shared by client threads and the evaluator
/// wrapper running on the server's workers. Times are `core::now_ns`.
/// The buffer is allocated once; a span that does not fit is counted,
/// not stored.
pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU32,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
    capacity: usize,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
        }
    }

    /// Recording is off during the untraced reference phase of a traced
    /// run. `Relaxed`: the flag publishes no other data.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record a span under a fresh id (which its children name as their
    /// parent); returns the id. A span that does not fit is counted.
    pub fn span(
        &self,
        parent: u32,
        req: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut spans = self.spans.lock().expect("no tracer user panics");
        if spans.len() < self.capacity {
            spans.push(Span {
                id,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        id
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of what has been recorded so far; the buffer stays in
    /// place so later phases keep recording without allocating.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("no tracer user panics").clone()
    }
}

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its child spans cover (children
/// may overlap each other and may stick out of the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut by_parent: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != 0)
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    by_parent.sort_unstable();
    let mut scratch = Vec::new();
    spans
        .iter()
        .map(|s| {
            let lo = by_parent.partition_point(|c| c.0 < s.id);
            let hi = by_parent.partition_point(|c| c.0 <= s.id);
            scratch.clear();
            scratch.extend(by_parent[lo..hi].iter().map(|c| (c.1, c.2)));
            s.dur_ns() - stats::union_len(&mut scratch, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Sorted durations (ms) of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect();
    stats::sort(&mut v);
    v
}

/// One JSON object per line: the span and its self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, self_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // request ⊃ wait ⊃ inner: each level only loses its own children.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_overlapping_and_protruding_children() {
        // Children 10–40 and 30–70 overlap (cover 60, not 70); a third
        // child 90–130 sticks out past the parent's end at 100.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 70),
            span(4, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn full_buffer_counts_drops() {
        let t = Tracer::new(2);
        for _ in 0..5 {
            t.span(0, 0, "x", 0, 1);
        }
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.snapshot().len(), 2);
    }
}
