//! The [`Registry`]: a name → metric map handing out shared atomic
//! handles.
//!
//! Lookup takes a `RwLock`, so components resolve their handles once
//! at construction and keep the returned `Arc`s; after that every
//! record is lock-free. A process-wide [`global`] registry exists for
//! code without an obvious owner, but components default to their own
//! registry so tests stay isolated.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, HistogramSnapshot, HistogramStat, LatencyHistogram};

/// A handle to any registered metric.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Instantaneous value.
    Gauge(Arc<Gauge>),
    /// Log-scale latency histogram.
    Histogram(Arc<LatencyHistogram>),
}

/// Point-in-time value of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram digest.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Collapses the reading to one `f64` (histograms via `stat`).
    pub fn as_f64(&self, stat: HistogramStat) -> f64 {
        match self {
            MetricValue::Counter(n) => *n as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(s) => stat.read(s),
        }
    }
}

/// A named snapshot of every metric in a registry, sorted by name.
pub type Snapshot = Vec<(String, MetricValue)>;

/// A name → metric map; see the module docs for the locking story.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<HashMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates an empty registry behind an `Arc`, the shape components
    /// store.
    pub fn shared() -> Arc<Self> {
        Arc::new(Registry::new())
    }

    /// Returns the counter named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        match self.get_or_insert(name, || {
            Metric::Histogram(Arc::new(LatencyHistogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Registers an existing counter under `name`, for a component
    /// that must own its counter before it knows its registry (a
    /// buffer shared with producer threads). Any counter already
    /// under `name` is replaced: the name reads the new handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        let mut map = self.metrics.write().expect("registry lock");
        if let Some(other @ (Metric::Gauge(_) | Metric::Histogram(_))) = map.get(name) {
            panic!("metric {name:?} is not a counter: {other:?}");
        }
        map.insert(name.to_string(), Metric::Counter(counter));
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.metrics.read().expect("registry lock").get(name) {
            return m.clone();
        }
        let mut map = self.metrics.write().expect("registry lock");
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Looks up a metric without creating it.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics
            .read()
            .expect("registry lock")
            .get(name)
            .cloned()
    }

    /// Names of all registered metrics, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .metrics
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().expect("registry lock").len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut out: Snapshot = self
            .metrics
            .read()
            .expect("registry lock")
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Returns a closure reading metric `name` as one `f64` — the
    /// self-scoping hook: wrap it in a `FUNC` signal source and a
    /// second Scope can plot gscope's own telemetry live. Histograms
    /// read out through `stat`; counters and gauges ignore it.
    ///
    /// Returns `None` if `name` is not registered.
    pub fn sampler(
        &self,
        name: &str,
        stat: HistogramStat,
    ) -> Option<impl FnMut() -> f64 + Send + 'static> {
        let metric = self.get(name)?;
        Some(move || match &metric {
            Metric::Counter(c) => c.get() as f64,
            Metric::Gauge(g) => g.get(),
            Metric::Histogram(h) => stat.read(&h.snapshot()),
        })
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::shared)
}

/// The process-wide registry as a shareable handle — the same map
/// [`global`] returns, for components that store an `Arc<Registry>`.
pub fn global_shared() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(Registry::shared))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn registered_counter_is_the_named_handle() {
        let r = Registry::new();
        r.counter("drops").add(5);
        let own = Arc::new(Counter::new());
        own.add(2);
        r.register_counter("drops", Arc::clone(&own));
        own.inc();
        assert_eq!(r.counter("drops").get(), 3);
        assert!(Arc::ptr_eq(&r.counter("drops"), &own));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn registering_over_another_kind_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.register_counter("x", Arc::new(Counter::new()));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.count").add(5);
        r.gauge("a.depth").set(3.0);
        r.histogram("c.lat").record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.depth", "b.count", "c.lat"]);
        assert_eq!(snap[1].1, MetricValue::Counter(5));
        assert_eq!(snap[0].1.as_f64(HistogramStat::Mean), 3.0);
        match snap[2].1 {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn sampler_reads_live_values() {
        let r = Registry::new();
        let c = r.counter("ticks");
        let mut read = r.sampler("ticks", HistogramStat::Mean).expect("registered");
        assert_eq!(read(), 0.0);
        c.add(7);
        assert_eq!(read(), 7.0);
        assert!(r.sampler("absent", HistogramStat::Mean).is_none());
    }

    #[test]
    fn global_is_a_singleton() {
        global().counter("gtel.selftest").inc();
        assert!(global().get("gtel.selftest").is_some());
    }
}
