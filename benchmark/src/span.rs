//! Spans the benchmark records around its own calls into each layer: a
//! child process it runs, or an in-process call into a library crate.
//! They are kept in memory and written out as JSONL when the benchmark
//! ends, so recording them costs no I/O while timing.

use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: String,
    /// Spans of one workload run share this.
    pub run: u64,
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
}

/// Nested spans: a span opened while another is open is its child.
pub struct Spans {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Spans opened from now on belong to run `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            run: self.run,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span opened inside it and left open);
    /// returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
        self.spans[id].end - self.spans[id].start
    }

    /// Time `f` inside a span named `name`; returns its result and seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name);
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    /// A span's duration minus the part of it its children cover
    /// (children may overlap each other; covered time counts once).
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (span.end - span.start) - covered
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                s.id,
                perigap_core::trace::escape_json(&s.name),
                s.run,
                s.start,
                s.end,
                self.self_time(s.id)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(spans: &mut Spans, name: &str, parent: Option<usize>, start: f64, end: f64) -> usize {
        let id = spans.spans.len();
        spans.spans.push(Span {
            id,
            name: name.to_string(),
            run: 0,
            parent,
            start,
            end,
        });
        id
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::default();
        let root = at(&mut spans, "root", None, 0.0, 10.0);
        // Two overlapping children cover [1, 5]; a third runs past the
        // parent's end and counts only up to it; a grandchild is not a
        // child of the root.
        let a = at(&mut spans, "a", Some(root), 1.0, 3.0);
        at(&mut spans, "b", Some(root), 2.0, 5.0);
        at(&mut spans, "c", Some(root), 8.0, 12.0);
        at(&mut spans, "a.1", Some(a), 1.0, 2.0);
        assert!((spans.self_time(root) - 4.0).abs() < 1e-12);
        assert!((spans.self_time(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn open_spans_nest_and_close_together() {
        let mut spans = Spans::default();
        spans.set_run(7);
        let outer = spans.open("outer");
        let inner = spans.open("inner");
        spans.close(outer);
        let s = &spans.spans;
        assert_eq!((s[inner].parent, s[inner].run), (Some(outer), 7));
        assert!(s[inner].end <= s[outer].end && s[inner].end >= s[inner].start);
        let (v, secs) = spans.time("next", || 3);
        assert_eq!((v, spans.spans[2].parent), (3, None));
        assert!(secs >= 0.0);
    }
}
