//! The traced run's span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (nothing inside the program is instrumented). They are kept in
//! memory, written out as JSON lines when the run ends, and summarised
//! as per-layer self time: a span's duration minus the part its child
//! spans cover. The layer is the span name up to its first `.`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
    /// Round, epoch or request the span belongs to.
    id: u64,
}

/// Handle to an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span that started at `start`.
    pub fn begin_at(&self, name: &'static str, parent: SpanId, id: u64, start: Instant) -> SpanId {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start,
            end: None,
            parent,
            id,
        });
        Some(spans.len() - 1)
    }

    pub fn begin(&self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.on {
            return None;
        }
        self.begin_at(name, parent, id, Instant::now())
    }

    pub fn end(&self, span: SpanId) {
        if let Some(i) = span {
            let now = Instant::now();
            self.spans.lock().expect("span recorder poisoned")[i].end = Some(now);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: SpanId, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, parent, id);
        let out = f();
        self.end(span);
        out
    }

    /// Per-layer `(spans, total ms, self ms)`.
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let dur = |s: &Span| {
            s.end
                .map_or(0.0, |e| e.duration_since(s.start).as_secs_f64() * 1e3)
        };
        let mut child_ms = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ms[p] += dur(s);
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let entry = out.entry(layer).or_default();
            entry.0 += 1;
            entry.1 += dur(s);
            entry.2 += (dur(s) - child_ms[i]).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line: name, start and end in µs
    /// from the recorder's creation, parent index, and id.
    pub fn dump(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| {
            t.checked_duration_since(self.origin)
                .map_or(0.0, |d| d.as_secs_f64() * 1e6)
        };
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s
                .end
                .map_or("null".to_string(), |e| format!("{:.1}", us(e)));
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{end},\"parent\":{parent},\"id\":{}}}",
                s.name,
                us(s.start),
                s.id
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.begin("client.round", None, 1);
        t.time("core.verify", root, 1, || {
            std::thread::sleep(Duration::from_millis(20))
        });
        std::thread::sleep(Duration::from_millis(10));
        t.end(root);
        let table = t.self_times();
        let (n, total, own) = table["client"];
        assert_eq!(n, 1);
        assert!(
            total >= 30.0 && own >= 10.0 && own < total - 15.0,
            "{table:?}"
        );
        assert!(table["core"].2 >= 20.0);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        let s = t.begin("x.y", None, 0);
        assert_eq!(s, None);
        t.end(s);
        assert!(t.self_times().is_empty());
    }
}
