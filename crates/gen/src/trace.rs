//! Materialised stream traces with a line-oriented on-disk format.
//!
//! A `Trace` is a recorded `(observed, truth)` series. Experiments record
//! traces once and replay them across methods so every method sees the exact
//! same data. The format is a deliberately tiny self-describing text format
//! (header line, then one whitespace-separated row per tick) instead of JSON:
//! the build has no serialisation crate, and a flat numeric format is both
//! human-diffable and fast.

use std::fmt;
use std::io::{BufRead, Write};

use crate::Stream;

/// Errors from trace (de)serialisation.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Header line missing or malformed.
    BadHeader(String),
    /// A data row had the wrong number of fields or a non-numeric field.
    BadRow {
        /// 1-based line number of the bad row.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadHeader(h) => write!(f, "bad trace header: {h:?}"),
            TraceError::BadRow { line, reason } => {
                write!(f, "bad trace row at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A recorded stream: `len` ticks of `dim`-dimensional observed and truth
/// values, stored flattened row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    dim: usize,
    observed: Vec<f64>,
    truth: Vec<f64>,
}

impl Trace {
    /// Records `n` ticks from a live stream.
    pub fn record<S: Stream + ?Sized>(stream: &mut S, n: usize) -> Self {
        let dim = stream.dim();
        let name = stream.name().to_string();
        let (observed, truth) = stream.collect(n);
        Trace {
            name,
            dim,
            observed,
            truth,
        }
    }

    /// Builds a trace from raw parts.
    ///
    /// # Panics
    /// Panics when lengths are inconsistent with `dim`.
    pub fn from_parts(
        name: impl Into<String>,
        dim: usize,
        observed: Vec<f64>,
        truth: Vec<f64>,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(
            observed.len(),
            truth.len(),
            "observed/truth length mismatch"
        );
        assert_eq!(observed.len() % dim, 0, "length must be a multiple of dim");
        Trace {
            name: name.into(),
            dim,
            observed,
            truth,
        }
    }

    /// Stream name this trace was recorded from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Values per tick.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.observed.len() / self.dim
    }

    /// `true` when the trace has no ticks.
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }

    /// Observed values at tick `i`.
    pub fn observed(&self, i: usize) -> &[f64] {
        &self.observed[i * self.dim..(i + 1) * self.dim]
    }

    /// Ground-truth values at tick `i`.
    pub fn truth(&self, i: usize) -> &[f64] {
        &self.truth[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates `(observed, truth)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &[f64])> + '_ {
        (0..self.len()).map(move |i| (self.observed(i), self.truth(i)))
    }

    /// Writes the trace in the line format (`kalstream-trace v1` header,
    /// then `observed... truth...` per row).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), TraceError> {
        writeln!(
            w,
            "kalstream-trace v1 name={} dim={} len={}",
            self.name,
            self.dim,
            self.len()
        )?;
        for i in 0..self.len() {
            let mut row = String::new();
            for v in self.observed(i) {
                row.push_str(&format!("{v:.17e} "));
            }
            for v in self.truth(i) {
                row.push_str(&format!("{v:.17e} "));
            }
            writeln!(w, "{}", row.trim_end())?;
        }
        Ok(())
    }

    /// Reads a trace previously written by [`Trace::write_to`].
    ///
    /// # Errors
    /// [`TraceError::BadHeader`] / [`TraceError::BadRow`] on malformed input.
    pub fn read_from<R: BufRead>(r: &mut R) -> Result<Self, TraceError> {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let header = header.trim();
        let mut name = None;
        let mut dim = None;
        let mut len = None;
        let mut fields = header.split_whitespace();
        if fields.next() != Some("kalstream-trace") || fields.next() != Some("v1") {
            return Err(TraceError::BadHeader(header.to_string()));
        }
        for field in fields {
            if let Some(v) = field.strip_prefix("name=") {
                name = Some(v.to_string());
            } else if let Some(v) = field.strip_prefix("dim=") {
                dim = v.parse::<usize>().ok();
            } else if let Some(v) = field.strip_prefix("len=") {
                len = v.parse::<usize>().ok();
            }
        }
        let (name, dim, len) = match (name, dim, len) {
            (Some(n), Some(d), Some(l)) if d > 0 => (n, d, l),
            _ => return Err(TraceError::BadHeader(header.to_string())),
        };
        let mut observed = Vec::with_capacity(len * dim);
        let mut truth = Vec::with_capacity(len * dim);
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let vals: Result<Vec<f64>, _> =
                line.split_whitespace().map(str::parse::<f64>).collect();
            let vals = vals.map_err(|e| TraceError::BadRow {
                line: lineno + 2,
                reason: e.to_string(),
            })?;
            if vals.len() != 2 * dim {
                return Err(TraceError::BadRow {
                    line: lineno + 2,
                    reason: format!("expected {} fields, got {}", 2 * dim, vals.len()),
                });
            }
            observed.extend_from_slice(&vals[..dim]);
            truth.extend_from_slice(&vals[dim..]);
        }
        if observed.len() != len * dim {
            return Err(TraceError::BadRow {
                line: 0,
                reason: format!("expected {len} rows, got {}", observed.len() / dim),
            });
        }
        Ok(Trace {
            name,
            dim,
            observed,
            truth,
        })
    }
}

/// Replaying adapter: a recorded [`Trace`] exposed back as a [`Stream`].
/// Replays loop when they reach the end (experiments choose lengths ≤ the
/// recording, so looping is a guard, not a feature).
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Trace,
    pos: usize,
}

impl TraceReplay {
    /// Wraps a trace for replay from the beginning.
    ///
    /// # Panics
    /// Panics on an empty trace.
    pub fn new(trace: Trace) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        TraceReplay { trace, pos: 0 }
    }
}

impl Stream for TraceReplay {
    fn dim(&self) -> usize {
        self.trace.dim()
    }

    fn name(&self) -> &str {
        self.trace.name()
    }

    fn next_into(&mut self, observed: &mut [f64], truth: &mut [f64]) {
        let d = self.trace.dim();
        observed[..d].copy_from_slice(self.trace.observed(self.pos));
        truth[..d].copy_from_slice(self.trace.truth(self.pos));
        self.pos = (self.pos + 1) % self.trace.len();
    }
}

impl From<Trace> for TraceReplay {
    fn from(t: Trace) -> Self {
        TraceReplay::new(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::RandomWalk;

    #[test]
    fn record_and_index() {
        let mut w = RandomWalk::new(0.0, 0.1, 0.2, 0.05, 61);
        let t = Trace::record(&mut w, 100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.dim(), 1);
        assert_eq!(t.name(), "random_walk");
        assert_eq!(t.iter().count(), 100);
    }

    #[test]
    fn roundtrip_through_text_format() {
        let mut w = RandomWalk::new(1.0, -0.05, 0.3, 0.1, 62);
        let t = Trace::record(&mut w, 50);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let t2 = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn rejects_bad_header() {
        let data = b"not-a-trace v1 dim=1 len=0\n";
        assert!(matches!(
            Trace::read_from(&mut data.as_slice()),
            Err(TraceError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_bad_rows() {
        let data = b"kalstream-trace v1 name=x dim=1 len=1\n1.0 2.0 3.0\n";
        assert!(matches!(
            Trace::read_from(&mut data.as_slice()),
            Err(TraceError::BadRow { .. })
        ));
        let data = b"kalstream-trace v1 name=x dim=1 len=1\nfoo bar\n";
        assert!(matches!(
            Trace::read_from(&mut data.as_slice()),
            Err(TraceError::BadRow { .. })
        ));
    }

    #[test]
    fn rejects_truncated_body() {
        let data = b"kalstream-trace v1 name=x dim=1 len=3\n1.0 1.0\n";
        assert!(matches!(
            Trace::read_from(&mut data.as_slice()),
            Err(TraceError::BadRow { .. })
        ));
    }

    #[test]
    fn replay_reproduces_recording() {
        let mut w = RandomWalk::new(0.0, 0.0, 0.5, 0.1, 63);
        let t = Trace::record(&mut w, 20);
        let mut replay = TraceReplay::new(t.clone());
        for i in 0..20 {
            let s = replay.next_sample();
            assert_eq!(s.observed.as_slice(), t.observed(i));
            assert_eq!(s.truth.as_slice(), t.truth(i));
        }
        // Loops.
        let s = replay.next_sample();
        assert_eq!(s.observed.as_slice(), t.observed(0));
    }

    #[test]
    fn from_parts_validates() {
        let t = Trace::from_parts("x", 2, vec![1.0, 2.0], vec![1.0, 2.0]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn from_parts_rejects_ragged() {
        let _ = Trace::from_parts("x", 2, vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0]);
    }
}
