//! In-memory spans recorded by the benchmark around its calls into each
//! crate, written out as TSV when the traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call: name, start, end, the span that caused it, and the
/// request (or window, or epoch) it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `sample.extract`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Identifier shared by the spans of one request.
    pub request: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder for one traced run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Records an interval measured elsewhere (e.g. on another thread),
    /// as instants on this tracer's clock.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u32) {
        let base = self.t0;
        let ns = |t: Instant| t.saturating_duration_since(base).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: ROOT,
            request,
        });
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration in seconds of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.secs(name).iter().sum()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Runs each of `units` twice, once without spans and once recording
    /// them, alternating which goes first so warm-up and drift fall on
    /// both sides equally. Returns the summed `(untraced, traced)`
    /// seconds, whose difference is the tracing overhead.
    pub fn interleaved(
        &mut self,
        units: usize,
        mut f: impl FnMut(usize, Option<&mut Tracer>),
    ) -> (f64, f64) {
        let (mut plain, mut traced) = (0.0, 0.0);
        for u in 0..units {
            for pass in 0..2 {
                let with_spans = (pass + u) % 2 == 1;
                let t = Instant::now();
                f(u, with_spans.then_some(&mut *self));
                let secs = t.elapsed().as_secs_f64();
                if with_spans {
                    traced += secs;
                } else {
                    plain += secs;
                }
            }
        }
        (plain, traced)
    }

    /// Writes every span as a TSV row:
    /// `id parent request name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
