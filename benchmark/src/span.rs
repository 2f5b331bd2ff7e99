//! In-memory spans recorded by the benchmark around its own calls into each
//! layer, and the self-time arithmetic over them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. `parent == 0` marks the root span of request `req`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Keeps the first `cap` spans (a traced phase
/// records millions; the dump is a sample, the histograms are complete).
pub struct SpanLog {
    epoch: Instant,
    lane: u64,
    next: u64,
    cap: usize,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, lane: u64, cap: usize) -> Self {
        SpanLog {
            epoch,
            lane,
            next: 0,
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates a span id, unique across lanes.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.lane + 1) << 40 | self.next
    }

    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        }
    }

    /// Records a child span of `parent` that ran from `start_ns` to now and
    /// returns its end time.
    pub fn child(
        &mut self,
        req: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
    ) -> u64 {
        let end_ns = self.now();
        let id = self.id();
        self.push(Span {
            req,
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
        });
        end_ns
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice, and
/// a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                kids.entry(s.parent).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(iv) = kids.get_mut(&s.id) {
                iv.sort_unstable();
                let mut reach = 0;
                for &(lo, hi) in iv.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Self time summed per layer, and the total duration of root spans.
pub struct Attribution {
    pub self_ns_by_layer: BTreeMap<&'static str, u64>,
    pub root_ns: u64,
    pub roots: u64,
}

impl Attribution {
    /// Σ self times ÷ Σ root durations: 1 when the spans of each request
    /// account for its whole interval.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.self_ns_by_layer.values().sum::<u64>() as f64 / self.root_ns as f64
    }

    pub fn layer_frac(&self, layer: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        *self.self_ns_by_layer.get(layer).unwrap_or(&0) as f64 / self.root_ns as f64
    }
}

/// Attributes self time to layers over the requests whose root span is in
/// `spans` (a bounded sample can cut a request's root off its children;
/// those children are left out).
pub fn attribute(spans: &[Span]) -> Attribution {
    let selfs = self_times(spans);
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut out = Attribution {
        self_ns_by_layer: BTreeMap::new(),
        root_ns: 0,
        roots: 0,
    };
    for s in spans
        .iter()
        .filter(|s| s.parent == 0 || ids.contains(&s.parent))
    {
        *out.self_ns_by_layer.entry(s.layer).or_default() += selfs[&s.id];
        if s.parent == 0 {
            out.root_ns += s.dur();
            out.roots += 1;
        }
    }
    out
}

/// Writes one JSON object per span.
pub fn dump_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"req\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            layer,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(1, 0, "bench", 0, 100),
            span(2, 1, "net", 10, 60),
            span(3, 2, "service", 20, 30),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 50, "the grandchild does not count against the root");
        assert_eq!(s[&2], 40);
        assert_eq!(s[&3], 10);
        let a = attribute(&spans);
        assert_eq!(a.root_ns, 100);
        assert!((a.coverage() - 1.0).abs() < 1e-12);
        assert!((a.layer_frac("net") - 0.4).abs() < 1e-12);
        // A child whose root fell outside the sample is left out.
        let orphaned = [spans[0], spans[1], span(9, 8, "net", 0, 1000)];
        assert!((attribute(&orphaned).coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        // Children 10..50 and 30..70 overlap on 30..50; 90..130 overhangs the
        // parent's end; 200..300 lies outside it.
        let spans = [
            span(1, 0, "bench", 0, 100),
            span(2, 1, "net", 10, 50),
            span(3, 1, "net", 30, 70),
            span(4, 1, "persist", 90, 130),
            span(5, 1, "persist", 200, 300),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 60 - 10);
        assert_eq!(s[&2], 40);
        assert_eq!(s[&5], 100, "a child keeps its own duration");
    }

    #[test]
    fn log_keeps_a_bounded_sample_with_unique_ids() {
        let epoch = Instant::now();
        let (mut a, mut b) = (SpanLog::new(epoch, 0, 3), SpanLog::new(epoch, 1, 3));
        let root = a.id();
        for _ in 0..5 {
            let t = a.now();
            a.child(9, root, "net", "submit", t);
        }
        assert_eq!(a.spans.len(), 3);
        assert_ne!(a.id(), b.id());
        assert!(a
            .spans
            .iter()
            .all(|s| s.parent == root && s.end_ns >= s.start_ns));
    }
}
