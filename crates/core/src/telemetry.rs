//! Scope-side telemetry: cached gtel handles and the self-scoping
//! adapter. The registry is the only place scope activity is
//! counted; [`ScopeStats`](crate::ScopeStats) is a snapshot of it, and
//! `gtel::tuple_lines` exports it as §3.3 tuples.
//!
//! **Self-scoping** is the observability counterpart of the paper's
//! §4.5 microbenchmarks: instead of measuring gscope's overhead
//! offline, [`metric_signal`] exposes any registry metric as a
//! [`SigSource::func`] signal, so a second scope can plot the first
//! scope's tick jitter, buffer depth, or poll latency *live*, with the
//! same machinery it uses for application signals.

use std::collections::HashMap;
use std::sync::Arc;

use gtel::{Counter, Gauge, HistogramStat, LatencyHistogram, Registry};

use crate::source::SigSource;

/// Exposes registry metric `name` as a polled `FUNC` signal source.
///
/// Counters read as their running total, gauges as their value, and
/// histograms through `stat` (e.g. [`HistogramStat::P99`] of
/// `gel.tick.jitter_ns` to watch the event loop's own jitter).
/// Returns `None` if `name` is not registered yet.
pub fn metric_signal(registry: &Registry, name: &str, stat: HistogramStat) -> Option<SigSource> {
    registry.sampler(name, stat).map(SigSource::func)
}

/// Cached metric handles for one [`Scope`](crate::scope::Scope).
#[derive(Debug)]
pub struct ScopeTelemetry {
    registry: Arc<Registry>,
    /// `scope.ticks` — polling/playback ticks processed.
    pub ticks: Arc<Counter>,
    /// `scope.ticks.missed` — whole periods lost to scheduling.
    pub ticks_missed: Arc<Counter>,
    /// `scope.tick.poll_ns` — wall time of one full poll tick.
    pub poll_ns: Arc<LatencyHistogram>,
    /// `scope.buffer.depth` — buffered samples awaiting drain.
    pub buffer_depth: Arc<Gauge>,
    /// `scope.buffer.late_drops` — samples rejected as too old: the
    /// scope buffer's own counter, registered under this name.
    pub late_drops: Arc<Counter>,
    /// `scope.record.write_ns` — recorder write latency per tick.
    pub record_write_ns: Arc<LatencyHistogram>,
    /// `scope.record.tuples` — tuples written by the recorder.
    pub record_tuples: Arc<Counter>,
    /// `scope.record.bytes` — bytes emitted by the recorder.
    pub record_bytes: Arc<Counter>,
    /// `scope.record.errors` — recordings stopped by write errors.
    pub record_errors: Arc<Counter>,
    /// Per-signal poll-duration histograms, resolved on first use as
    /// `scope.signal.<name>.poll_ns`.
    signal_poll: HashMap<String, Arc<LatencyHistogram>>,
}

impl ScopeTelemetry {
    /// Resolves handles in `registry` and registers `late_drops` (the
    /// scope buffer's counter) as `scope.buffer.late_drops`.
    pub fn new(registry: Arc<Registry>, late_drops: Arc<Counter>) -> Self {
        registry.register_counter("scope.buffer.late_drops", Arc::clone(&late_drops));
        ScopeTelemetry {
            ticks: registry.counter("scope.ticks"),
            ticks_missed: registry.counter("scope.ticks.missed"),
            poll_ns: registry.histogram("scope.tick.poll_ns"),
            buffer_depth: registry.gauge("scope.buffer.depth"),
            late_drops,
            record_write_ns: registry.histogram("scope.record.write_ns"),
            record_tuples: registry.counter("scope.record.tuples"),
            record_bytes: registry.counter("scope.record.bytes"),
            record_errors: registry.counter("scope.record.errors"),
            signal_poll: HashMap::new(),
            registry,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The poll-duration histogram for signal `name`, resolving (and
    /// caching) the handle on first use.
    pub fn signal_poll_ns(&mut self, name: &str) -> &Arc<LatencyHistogram> {
        if !self.signal_poll.contains_key(name) {
            let h = self
                .registry
                .histogram(&format!("scope.signal.{name}.poll_ns"));
            self.signal_poll.insert(name.to_owned(), h);
        }
        &self.signal_poll[name]
    }
}

impl Default for ScopeTelemetry {
    fn default() -> Self {
        ScopeTelemetry::new(Registry::shared(), Arc::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use crate::tuple::Tuple;
    use gel::{Clock, Continue, MainLoop, Quantizer, TimeDelta, TimeStamp, VirtualClock};

    /// Parses `gtel::tuple_lines` output with the §3.3 codec.
    fn exported(registry: &Registry, now_ms: f64) -> Vec<Tuple> {
        gtel::tuple_lines(&registry.snapshot(), now_ms)
            .iter()
            .enumerate()
            .map(|(i, line)| Tuple::parse_line(line, i + 1).expect("exporter emits §3.3 lines"))
            .collect()
    }

    fn value_of(tuples: &[Tuple], name: &str) -> f64 {
        tuples
            .iter()
            .find(|t| t.name.as_deref() == Some(name))
            .unwrap_or_else(|| panic!("{name} not exported"))
            .value
    }

    #[test]
    fn loop_metrics_export_as_tuples() {
        let clock = VirtualClock::new();
        // The third wait is delivered 35 ms late: 3 whole periods lost.
        clock.set_latency_model(Some(Box::new(|n| if n == 2 { 35_000 } else { 0 })));
        let mut ml = MainLoop::with_quantizer(Arc::new(clock), Quantizer::exact());
        let registry = Registry::shared();
        ml.set_telemetry(Arc::clone(&registry));
        ml.add_timeout(TimeDelta::from_millis(10), Box::new(|_| Continue::Keep));
        ml.run_until(TimeStamp::from_millis(100));
        let stats = ml.stats();
        assert_eq!(stats.ticks_missed, 3);
        let tuples = exported(&registry, 500.0);
        assert!(tuples.iter().all(|t| t.time == TimeStamp::from_millis(500)));
        for (name, field) in [
            ("gel.loop.iterations", stats.iterations),
            ("gel.tick.dispatched", stats.timeouts_dispatched),
            ("gel.tick.missed", stats.ticks_missed),
            ("gel.io.dispatches", stats.io_dispatches),
            ("gel.io.idle_polls", stats.io_idle_polls),
            ("gel.idle.runs", stats.idle_runs),
            ("gel.loop.invokes", stats.invokes),
        ] {
            assert_eq!(value_of(&tuples, name), field as f64, "{name}");
        }
    }

    #[test]
    fn registry_export_shares_one_timestamp() {
        // Two components in one registry export as one snapshot, every
        // tuple stamped with the same time.
        let registry = Registry::shared();
        let mut ml = MainLoop::new(Arc::new(VirtualClock::new()));
        ml.set_telemetry(Arc::clone(&registry));
        ml.iteration(false);
        let tel = ScopeTelemetry::new(Arc::clone(&registry), Arc::default());
        tel.ticks.add(2);
        let tuples = exported(&registry, 777.0);
        assert!(
            tuples.len() > 14,
            "loop and scope metrics: {}",
            tuples.len()
        );
        assert!(tuples.iter().all(|t| t.time == TimeStamp::from_millis(777)));
        assert_eq!(value_of(&tuples, "gel.loop.iterations"), 1.0);
        assert_eq!(value_of(&tuples, "scope.ticks"), 2.0);
    }

    #[test]
    fn metric_signal_samples_registry() {
        let reg = Registry::new();
        let g = reg.gauge("scope.buffer.depth");
        g.set(12.0);
        let mut src =
            metric_signal(&reg, "scope.buffer.depth", HistogramStat::Mean).expect("registered");
        assert_eq!(src.type_name(), "FUNC");
        assert_eq!(src.sample(), Some(12.0));
        g.set(3.0);
        assert_eq!(src.sample(), Some(3.0));
        assert!(metric_signal(&reg, "absent", HistogramStat::Mean).is_none());
    }

    #[test]
    fn late_drops_are_counted_once() {
        // The scope buffer's counter is the registry's: ticks that
        // read it never add to it again.
        let clock = VirtualClock::new();
        let registry = Registry::shared();
        let mut scope = Scope::new("late", 32, 16, Arc::new(clock.clone()));
        scope.set_telemetry(Arc::clone(&registry));
        scope
            .add_signal("s", SigSource::Buffer, Default::default())
            .unwrap();
        scope.set_delay(TimeDelta::from_millis(10));
        scope.set_polling_mode(TimeDelta::from_millis(10)).unwrap();
        scope.start();
        clock.set(TimeStamp::from_millis(100));
        let buf = scope.buffer().clone();
        for late in [3u64, 0, 4] {
            for i in 0..late {
                assert!(!buf.push_sample("s", TimeStamp::from_millis(i), 1.0));
            }
            for _ in 0..2 {
                scope.tick(&gel::TickInfo {
                    now: clock.now(),
                    scheduled: clock.now(),
                    missed: 0,
                });
            }
        }
        assert_eq!(buf.late_drops(), 7);
        assert_eq!(scope.stats().late_drops, 7);
        assert_eq!(registry.counter("scope.buffer.late_drops").get(), 7);
        assert_eq!(
            value_of(&exported(&registry, 0.0), "scope.buffer.late_drops"),
            7.0
        );
    }

    #[test]
    fn signal_histograms_are_cached_per_name() {
        let mut tel = ScopeTelemetry::default();
        tel.signal_poll_ns("cwnd").record(10);
        tel.signal_poll_ns("cwnd").record(20);
        tel.signal_poll_ns("rtt").record(30);
        assert_eq!(tel.signal_poll_ns("cwnd").count(), 2);
        assert_eq!(
            tel.registry().histogram("scope.signal.rtt.poll_ns").count(),
            1
        );
    }
}
