//! Spans around the calls into each layer, for the traced run.
//!
//! A [`Tracer`] stamps `{name, parent, tick, start_ns, end_ns}` into a
//! pre-sized `Vec`. A span's *self time* is its duration minus its direct
//! children's, so nested spans never count an interval twice and the
//! per-name self times of one tick add up to at most the tick. The timed
//! run hands the loops a tracer that is not recording, which costs one
//! predictable branch per call and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, [`NO_PARENT`] for a root.
    pub parent: u32,
    /// The workload tick the span belongs to: spans of one tick share it.
    pub tick: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder. While recording is off (the timed run, and a traced
/// loop's warm-up ticks) `open`/`close` do nothing.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// `false` for the timed run's tracer, which never records.
    enabled: bool,
    recording: bool,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, so that recording a span
    /// never reallocates in the measured loop.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            enabled: true,
            recording: true,
        }
    }

    /// A tracer that records nothing, for the timed run.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            recording: false,
            ..Tracer::with_capacity(0)
        }
    }

    /// Pauses or resumes recording (a loop's warm-up ticks are not
    /// recorded); resuming a tracer that is [`Tracer::off`] does nothing.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.recording = on && self.enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let dur = span.end_ns.saturating_sub(span.start_ns);
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(dur);
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn ledger(&self) -> BTreeMap<&'static str, Ledger> {
        let own = self.self_times();
        let mut ledger: BTreeMap<&'static str, Ledger> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let entry = ledger.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns.saturating_sub(span.start_ns);
            entry.self_ns += self_ns;
        }
        ledger
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// Writes the ledger and the first `max_spans` spans as JSON. The span
    /// list is capped because a traced run records about a million spans;
    /// the ledger above it always covers all of them.
    pub fn write_json(&self, path: &Path, max_spans: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans_recorded\": {},", self.spans.len())?;
        writeln!(out, " \"ledger\": {{")?;
        let ledger = self.ledger();
        for (i, (name, l)) in ledger.iter().enumerate() {
            let comma = if i + 1 < ledger.len() { "," } else { "" };
            writeln!(
                out,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                l.count, l.total_ns, l.self_ns
            )?;
        }
        writeln!(out, " }},\n \"spans\": [")?;
        let shown = self.spans.len().min(max_spans);
        for (i, s) in self.spans[..shown].iter().enumerate() {
            let comma = if i + 1 < shown { "," } else { "" };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"parent\": {parent}, \"tick\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.tick, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, " ]}}")?;
        out.flush()
    }

    /// Opens a span named after the layer function about to be called,
    /// child of the innermost open span.
    #[inline]
    pub fn open(&mut self, name: &'static str, tick: u64) -> u32 {
        if !self.recording {
            return 0;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            tick,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    #[inline]
    pub fn close(&mut self, id: u32) {
        if !self.recording {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Closes span `id` under another name, for calls whose kind is known
    /// only from their result (an observation that was sent or suppressed).
    #[inline]
    pub fn close_as(&mut self, id: u32, name: &'static str) {
        self.close(id);
        if self.recording {
            self.spans[id as usize].name = name;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            tick: 0,
            start_ns,
            end_ns,
        }
    }

    fn tracer_of(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::with_capacity(0);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // tick [0,100] > a [10,40] > a1 [15,25]; tick > b [50,90] (sibling of a)
        let t = tracer_of(vec![
            span("tick", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("a1", 1, 15, 25),
            span("b", 0, 50, 90),
        ]);
        // tick: 100 - 30 - 40 = 30 (a1 is a's child, not tick's);
        // a: 30 - 10 = 20; a1: 10; b: 40. Self times sum to the root's 100.
        assert_eq!(t.self_times(), vec![30, 20, 10, 40]);
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn ledger_groups_by_name() {
        let t = tracer_of(vec![
            span("tick", NO_PARENT, 0, 100),
            span("x", 0, 0, 10),
            span("x", 0, 20, 50),
            span("tick", NO_PARENT, 100, 160),
            span("x", 3, 100, 160),
        ]);
        let ledger = t.ledger();
        assert_eq!(
            ledger["x"],
            Ledger {
                count: 3,
                total_ns: 100,
                self_ns: 100
            }
        );
        assert_eq!(
            ledger["tick"],
            Ledger {
                count: 2,
                total_ns: 160,
                self_ns: 60
            }
        );
        assert_eq!(t.durations("x"), vec![10.0, 30.0, 60.0]);
    }

    #[test]
    fn recorder_nests_renames_and_pauses() {
        let mut t = Tracer::with_capacity(8);
        let tick = t.open("tick", 7);
        let call = t.open("call", 7);
        t.close_as(call, "call_sent");
        let sibling = t.open("other", 7);
        t.close(sibling);
        t.close(tick);
        t.set_recording(false);
        let ignored = t.open("warmup", 8);
        t.close(ignored);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].name, spans[1].parent), ("call_sent", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("other", 0));
        assert!(spans.iter().all(|s| s.tick == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn json_dump_caps_the_span_list_but_not_the_ledger() {
        let t = tracer_of(vec![
            span("tick", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 50, 90),
        ]);
        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path, 2).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("\"spans_recorded\": 3"));
        assert!(text.contains("\"b\": {\"count\": 1"));
        assert_eq!(text.matches("\"start_ns\"").count(), 2);
    }
}
