//! Spans recorded around calls into the program's public functions,
//! from the driver (router) thread. Kept in memory; summarised when the
//! run ends. A disabled tracer calls straight through, so traced and
//! untraced jobs run the same code.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `router.ingest`.
    pub layer: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A per-job span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording it as a span of `layer` when enabled.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { layer, start, end });
        out
    }

    /// Durations (seconds) of every span of `layer`.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in `layer`.
    pub fn total(&self, layer: &str) -> f64 {
        self.durations(layer).iter().sum()
    }

    /// Wall seconds from the first span's start to the last span's end.
    pub fn wall(&self) -> f64 {
        match (self.spans.first(), self.spans.last()) {
            (Some(a), Some(b)) => b.end - a.start,
            _ => 0.0,
        }
    }

    /// Share of the traced wall the spans account for. Spans on the
    /// driver thread never overlap, so this is at most 1; the rest is
    /// the driver's own bookkeeping between calls.
    pub fn coverage(&self) -> f64 {
        let wall = self.wall();
        if wall <= 0.0 {
            return 0.0;
        }
        self.spans.iter().map(Span::secs).sum::<f64>() / wall
    }

    /// `(layer, total seconds, calls)` per layer, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, f64, usize)> {
        let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
        for s in &self.spans {
            match out.iter_mut().find(|(l, _, _)| *l == s.layer) {
                Some(entry) => {
                    entry.1 += s.secs();
                    entry.2 += 1;
                }
                None => out.push((s.layer, s.secs(), 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", || 7), 7);
        assert!(t.durations("x").is_empty());
        assert_eq!(t.coverage(), 0.0);
    }

    #[test]
    fn back_to_back_spans_cover_the_wall() {
        let mut t = Tracer::new(true);
        for _ in 0..50 {
            t.time("a", || std::hint::black_box((0..1000u64).sum::<u64>()));
            t.time("b", || {
                std::thread::sleep(std::time::Duration::from_micros(200))
            });
        }
        assert_eq!(t.durations("a").len(), 50);
        assert!(
            t.coverage() > 0.9 && t.coverage() <= 1.0,
            "{}",
            t.coverage()
        );
        assert_eq!(t.summary().len(), 2);
    }
}
