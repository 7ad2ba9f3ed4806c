//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, made from the
//! benchmark: name, start, end, parent span and request id. Spans stay in
//! memory and are written out once the run ends. With tracing off every
//! method is a no-op, so the untraced runs that give the end-to-end
//! numbers pay nothing.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span, and the id returned while tracing is off.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans. Threads that trace concurrently each own a tracer
/// built from the same epoch and are merged with [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// One row of the self-time table.
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the shared epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        self.spans[id as usize].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Run `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Record an interval timed elsewhere (for example by a training
    /// callback) as a leaf under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req,
            start_ns,
            end_ns,
        });
    }

    /// Move another thread's finished spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Per-name totals, where a span's self time is its duration minus the
    /// time its child spans cover. Children of one span run on its thread
    /// one after another, so their coverage is the sum of their durations.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let mut durs = Vec::new();
                let mut self_ns = 0u64;
                for (i, s) in self.spans.iter().enumerate() {
                    if s.name == name {
                        durs.push(s.dur_ns());
                        self_ns += s.dur_ns().saturating_sub(child_ns[i]);
                    }
                }
                SelfTime {
                    name,
                    count: durs.len(),
                    total_ns: durs.iter().sum(),
                    self_ns,
                    p50_ns: crate::stats::quantile(&mut durs, 0.5),
                }
            })
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
