//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and an id (the batch
//! index, or `Ticket::id` for a served request). Spans live in a vector
//! reserved before the measured window and are written out once the run
//! ends. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    pub parent: u32,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate of span self times.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotal {
    pub name: String,
    pub count: u64,
    pub self_ns: u64,
    pub dur_ns: u64,
}

impl NameTotal {
    /// Mean self time per span, microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.count as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`, with room for `capacity`
    /// spans reserved up front.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Tracer {
            origin,
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Interns a span name (call before the measured window).
    pub fn intern(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: u16, parent: u32, id: u64) -> u32 {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `idx` now.
    pub fn end(&mut self, idx: u32) {
        let end_ns = self.ns(Instant::now());
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Records a span whose ends were timed elsewhere.
    pub fn record(&mut self, name: u16, parent: u32, id: u64, start: Instant, end: Instant) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            id,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span, keeping the interned names.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to its own.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                dur.saturating_sub(covered(s.start_ns, s.end_ns, kids))
            })
            .collect()
    }

    /// Self and total time per span name, in interning order.
    pub fn totals(&self) -> Vec<NameTotal> {
        let mut out: Vec<NameTotal> = self
            .names
            .iter()
            .map(|n| NameTotal {
                name: n.clone(),
                count: 0,
                self_ns: 0,
                dur_ns: 0,
            })
            .collect();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = &mut out[s.name as usize];
            t.count += 1;
            t.self_ns += self_ns;
            t.dur_ns += s.end_ns.saturating_sub(s.start_ns);
        }
        out
    }

    /// Writes every span as CSV: `index,name,parent,id,start_ns,end_ns`
    /// (`parent` is empty for a root span).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("index,name,parent,id,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                text,
                "{i},{},{parent},{},{},{}",
                self.names[s.name as usize], s.id, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Length of the union of `kids` intervals inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in kids.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let o = Instant::now();
        let mut t = Tracer::new(o, 8);
        let (root, a, b) = (t.intern("root"), t.intern("a"), t.intern("b"));
        let r = t.record(root, ROOT, 0, at(o, 0), at(o, 100));
        t.record(a, r, 0, at(o, 10), at(o, 40));
        // Overlapping and out-of-range children are covered once, clipped.
        t.record(b, r, 0, at(o, 30), at(o, 60));
        t.record(b, r, 0, at(o, 90), at(o, 130));
        let selfs = t.self_times();
        assert_eq!(selfs[0], 100 - (60 - 10) - (100 - 90));
        assert_eq!(selfs[1], 30);
        let totals = t.totals();
        assert_eq!(totals[2].count, 2);
        assert_eq!(totals[2].self_ns, 30 + 40);
        // Self times of a tree add up to the root's duration when children
        // stay inside their parent.
        let mut t = Tracer::new(o, 8);
        let r = t.record(root, ROOT, 0, at(o, 0), at(o, 100));
        let c = t.record(a, r, 0, at(o, 5), at(o, 50));
        t.record(b, c, 0, at(o, 10), at(o, 20));
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn interning_is_stable() {
        let mut t = Tracer::new(Instant::now(), 0);
        assert_eq!(t.intern("x"), 0);
        assert_eq!(t.intern("y"), 1);
        assert_eq!(t.intern("x"), 0);
    }
}
