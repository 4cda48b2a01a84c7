//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public function in a span (name, start, end, parent,
//! repetition), keeps them in memory, and writes them as JSONL at exit.
//! Nothing inside `crates/*` knows it is being traced.

use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span this one ran inside.
    pub parent: Option<usize>,
    /// Repetition of the traced body the span belongs to.
    pub rep: usize,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Single-threaded by construction: traced runs
/// cap `simrt` at one thread so that spans nest on the recording thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), rep: 0 }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Set the repetition id stamped on the spans that follow.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            rep: self.rep,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Every span's self time in nanoseconds: its duration minus the time
    /// its direct children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Share of the time under spans called `root` that their direct
    /// children cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == root) {
            total += s.end_ns - s.start_ns;
            uncovered += own[s.id];
        }
        if total == 0 {
            0.0
        } else {
            1.0 - uncovered as f64 / total as f64
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &'static str) -> std::io::Result<()> {
        #[derive(Serialize)]
        struct Line {
            workload: &'static str,
            rep: usize,
            id: usize,
            parent: Option<usize>,
            name: &'static str,
            start_ns: u64,
            end_ns: u64,
            self_ns: u64,
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Line {
                workload,
                rep: s.rep,
                id: s.id,
                parent: s.parent,
                name: s.name,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                self_ns: self_ns[s.id],
            };
            writeln!(out, "{}", serde_json::to_string(&line).expect("span serialises"))?;
        }
        out.flush()
    }
}

/// Run `f` inside a span called `name` when a tracer is given, plainly
/// otherwise: lets one function serve as a workload's body and as its
/// traced replay.
pub fn span_if<R>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("rep", |t| {
            t.span("a.x", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b.y", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(t.self_ns()[0] <= (s[0].end_ns - s[0].start_ns) - (s[1].end_ns - s[1].start_ns));
        assert!(t.coverage("rep") > 0.5);
    }
}
