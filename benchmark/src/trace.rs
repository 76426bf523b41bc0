//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public API: name, layer, start, end, parent span and
//! request id. A disabled tracer runs the same closures without
//! recording, so the traced and untraced replays execute identical
//! work and their wall-time difference is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        (self.end - self.start) as f64
    }
}

pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Request id stamped on spans opened from now on.
    pub req: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of layer `layer`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            req: self.req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now();
        self.spans[id as usize].end = end;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Median duration (ns) of the spans called `name`; 0 when none ran.
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::report::median(&self.durations(name))
    }

    /// Self time (ns) of each span: its duration minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.dur_ns();
            }
        }
        own
    }

    /// Self time (ns) summed per layer.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer).or_insert(0.0) += t;
        }
        out
    }

    /// Writes the spans as tab-separated rows
    /// (`id parent req layer name start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tlayer\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.layer, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", "a", |t| {
            t.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let per = t.layer_self_ns();
        assert!(per["inner"] >= 2e6);
        assert!(per["outer"] < per["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        let total: f64 = per.values().sum();
        assert!((total - t.spans()[0].dur_ns()).abs() < 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("l", "n", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
