//! The export side: [`Registry`], name-scoping, and the [`Instrument`]
//! trait components implement to publish their metrics.

use crate::{Counter, Gauge, Histogram, MetricValue, Snapshot};

/// Collects exported metrics into a [`Snapshot`].
///
/// The registry is pull-model and off the hot path: components own their
/// instruments ([`Counter`]s embedded in their structs) and export copies
/// when asked, so there is no shared mutable state and no synchronization
/// anywhere near the protocol loop.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    entries: Vec<(String, MetricValue)>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Opens a name scope: every metric recorded through the returned
    /// [`Scope`] is prefixed with `prefix` + `.`.
    pub fn scope(&mut self, prefix: &str) -> Scope<'_> {
        Scope {
            registry: self,
            prefix: prefix.to_string(),
        }
    }

    /// Exports `instrument`'s metrics under `prefix`.
    pub fn observe(&mut self, prefix: &str, instrument: &dyn Instrument) {
        instrument.export(&mut self.scope(prefix));
    }

    /// Records a raw counter value at an absolute name.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries
            .push((name.into(), MetricValue::Counter(value)));
    }

    /// Records a raw gauge value at an absolute name.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), MetricValue::Gauge(value)));
    }

    /// Records a histogram at an absolute name.
    pub fn histogram(&mut self, name: impl Into<String>, hist: &Histogram) {
        self.entries
            .push((name.into(), MetricValue::from_histogram(hist)));
    }

    /// Freezes the recorded metrics into a deterministic [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_entries(self.entries.clone())
    }
}

/// A dot-separated name prefix over a [`Registry`].
#[derive(Debug)]
pub struct Scope<'a> {
    registry: &'a mut Registry,
    prefix: String,
}

impl Scope<'_> {
    fn full(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }

    /// Opens a nested scope (`parent.child`).
    pub fn scope(&mut self, name: &str) -> Scope<'_> {
        let prefix = self.full(name);
        Scope {
            registry: &mut *self.registry,
            prefix,
        }
    }

    /// Exports `instrument`'s metrics under a nested scope.
    pub fn observe(&mut self, name: &str, instrument: &dyn Instrument) {
        instrument.export(&mut self.scope(name));
    }

    /// Records a counter (accepts a [`Counter`] or a bare `u64`).
    pub fn counter(&mut self, name: &str, value: impl Into<Counter>) {
        let full = self.full(name);
        self.registry.counter(full, value.into().get());
    }

    /// Records a gauge (accepts a [`Gauge`] or a bare `f64`).
    pub fn gauge(&mut self, name: &str, value: impl Into<Gauge>) {
        let full = self.full(name);
        self.registry.gauge(full, value.into().get());
    }

    /// Records a histogram.
    pub fn histogram(&mut self, name: &str, hist: &Histogram) {
        let full = self.full(name);
        self.registry.histogram(full, hist);
    }
}

/// Implemented by any component that can publish its metrics.
///
/// The component writes each instrument into the provided [`Scope`]; the
/// caller decides the name prefix (which is how the same struct exports
/// cleanly as `stream.3.delivery.stale_drops` in a fleet and
/// `delivery.stale_drops` standalone).
pub trait Instrument {
    /// Exports this component's metrics into `scope`.
    ///
    /// Named `export` (not `observe`) deliberately: several instrumented
    /// components already have an `observe` in another vocabulary (a
    /// `SourceEndpoint`-style producer observing a measurement), and the
    /// two must never collide in method resolution.
    fn export(&self, scope: &mut Scope<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Widget {
        hits: Counter,
        load: Gauge,
        lat: Histogram,
    }

    impl Instrument for Widget {
        fn export(&self, scope: &mut Scope<'_>) {
            scope.counter("hits", self.hits);
            scope.gauge("load", self.load);
            scope.histogram("lat_ns", &self.lat);
        }
    }

    #[test]
    fn scopes_compose_dotted_names() {
        let mut w = Widget {
            hits: Counter::new(),
            load: Gauge::new(),
            lat: Histogram::new(),
        };
        w.hits += 3;
        w.load.set(0.5);
        w.lat.record(100);

        let mut reg = Registry::new();
        reg.observe("app.widget", &w);
        let mut s = reg.scope("app");
        s.counter("version", 1u64);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("app.widget.hits"), Some(3));
        assert_eq!(snap.gauge("app.widget.load"), Some(0.5));
        assert_eq!(snap.counter("app.version"), Some(1));
        assert!(matches!(
            snap.get("app.widget.lat_ns"),
            Some(MetricValue::Histogram { .. })
        ));
    }

    #[test]
    fn nested_scopes_nest() {
        let mut reg = Registry::new();
        {
            let mut a = reg.scope("a");
            let mut b = a.scope("b");
            b.counter("c", 9u64);
        }
        assert_eq!(reg.snapshot().counter("a.b.c"), Some(9));
    }

    #[test]
    fn empty_prefix_uses_bare_names() {
        let mut reg = Registry::new();
        reg.scope("").counter("bare", 1u64);
        assert_eq!(reg.snapshot().counter("bare"), Some(1));
    }
}
