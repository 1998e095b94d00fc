//! The event loop's gtel instrumentation.
//!
//! [`LoopTelemetry`] resolves its metric handles once against a
//! [`gtel::Registry`], so per-iteration recording is a few relaxed
//! atomics — the loop's own timing is not perturbed by measuring it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gtel::{Counter, Gauge, LatencyHistogram, Registry};
use loadmeter::BusyMeter;

use crate::time::TimeDelta;

/// Cached metric handles for one [`MainLoop`](crate::context::MainLoop).
#[derive(Debug, Clone)]
pub struct LoopTelemetry {
    registry: Arc<Registry>,
    /// `gel.loop.iterations` — loop iterations executed.
    pub iterations: Arc<Counter>,
    /// `gel.loop.iteration_ns` — wall time of the dispatch phase.
    pub iteration_ns: Arc<LatencyHistogram>,
    /// `gel.loop.sources` — installed sources after each iteration.
    pub sources: Arc<Gauge>,
    /// `gel.loop.invokes` — cross-thread invokes executed.
    pub invokes: Arc<Counter>,
    /// `gel.tick.dispatched` — timeout callbacks dispatched.
    pub ticks_dispatched: Arc<Counter>,
    /// `gel.tick.missed` — whole periods lost across dispatches.
    pub ticks_missed: Arc<Counter>,
    /// `gel.tick.lateness_ns` — scheduled-deadline → dispatch delay.
    pub tick_lateness_ns: Arc<LatencyHistogram>,
    /// `gel.tick.jitter_ns` — |lateness − previous lateness|.
    pub tick_jitter_ns: Arc<LatencyHistogram>,
    /// `gel.io.dispatches` — I/O watch polls that found work.
    pub io_dispatches: Arc<Counter>,
    /// `gel.io.idle_polls` — I/O watch polls that found nothing.
    pub io_idle_polls: Arc<Counter>,
    /// `gel.idle.runs` — idle callbacks run.
    pub idle_runs: Arc<Counter>,
    /// `gel.loop.duty_cycle` — dispatch busy ÷ wall over the last
    /// publish window (the §4.6 uniprocessor-equivalent CPU cost).
    pub duty_cycle: Arc<Gauge>,
    /// `gel.loop.overhead_fraction` — capacity lost to dispatch,
    /// computed with `loadmeter::overhead_fraction` over the window.
    pub overhead_fraction: Arc<Gauge>,
    /// `gel.stage.timeout.duty_cycle` — timeout-dispatch share.
    pub stage_timeout_duty: Arc<Gauge>,
    /// `gel.stage.io.duty_cycle` — I/O-watch share.
    pub stage_io_duty: Arc<Gauge>,
    /// `gel.stage.idle.duty_cycle` — idle-callback share.
    pub stage_idle_duty: Arc<Gauge>,
}

impl LoopTelemetry {
    /// Resolves handles in `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        LoopTelemetry {
            iterations: registry.counter("gel.loop.iterations"),
            iteration_ns: registry.histogram("gel.loop.iteration_ns"),
            sources: registry.gauge("gel.loop.sources"),
            invokes: registry.counter("gel.loop.invokes"),
            ticks_dispatched: registry.counter("gel.tick.dispatched"),
            ticks_missed: registry.counter("gel.tick.missed"),
            tick_lateness_ns: registry.histogram("gel.tick.lateness_ns"),
            tick_jitter_ns: registry.histogram("gel.tick.jitter_ns"),
            io_dispatches: registry.counter("gel.io.dispatches"),
            io_idle_polls: registry.counter("gel.io.idle_polls"),
            idle_runs: registry.counter("gel.idle.runs"),
            duty_cycle: registry.gauge("gel.loop.duty_cycle"),
            overhead_fraction: registry.gauge("gel.loop.overhead_fraction"),
            stage_timeout_duty: registry.gauge("gel.stage.timeout.duty_cycle"),
            stage_io_duty: registry.gauge("gel.stage.io.duty_cycle"),
            stage_idle_duty: registry.gauge("gel.stage.idle.duty_cycle"),
            registry,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one timeout dispatch given its lateness and lost-period
    /// count; returns the lateness in nanoseconds for jitter tracking.
    pub fn record_tick(&self, lateness: TimeDelta, missed: u64, prev_lateness_ns: u64) -> u64 {
        let lateness_ns = lateness.as_micros().saturating_mul(1_000);
        self.ticks_dispatched.inc();
        if missed > 0 {
            self.ticks_missed.add(missed);
        }
        self.tick_lateness_ns.record(lateness_ns);
        self.tick_jitter_ns
            .record(lateness_ns.abs_diff(prev_lateness_ns));
        lateness_ns
    }
}

impl Default for LoopTelemetry {
    fn default() -> Self {
        LoopTelemetry::new(Registry::shared())
    }
}

/// Gauges refresh on this wall cadence.
const PUBLISH_WINDOW: Duration = Duration::from_millis(250);

/// Per-stage busy-time meters for one main loop, published to the
/// duty-cycle gauges on a fixed wall cadence.
///
/// Each gauge is an ordinary registry metric, so `Registry::sampler`
/// turns it into a `FUNC` signal source — a second scope can plot the
/// loop's (or one stage's) load live, the §4.6 overhead experiment
/// running continuously instead of as a one-off benchmark.
#[derive(Debug)]
pub struct StageMeters {
    timeout: BusyMeter,
    io: BusyMeter,
    idle: BusyMeter,
    total: BusyMeter,
    window_start: Instant,
}

impl Default for StageMeters {
    fn default() -> Self {
        StageMeters::new()
    }
}

impl StageMeters {
    /// Fresh meters; the first publish window starts now.
    pub fn new() -> Self {
        StageMeters {
            timeout: BusyMeter::new(),
            io: BusyMeter::new(),
            idle: BusyMeter::new(),
            total: BusyMeter::new(),
            window_start: Instant::now(),
        }
    }

    /// Charges one iteration's stage durations and refreshes the
    /// gauges once the publish window has elapsed.
    pub fn record(&mut self, tel: &LoopTelemetry, timeout: Duration, io: Duration, idle: Duration) {
        self.timeout.add_busy(timeout);
        self.io.add_busy(io);
        self.idle.add_busy(idle);
        self.total.add_busy(timeout + io + idle);
        let wall = self.window_start.elapsed();
        if wall < PUBLISH_WINDOW {
            return;
        }
        tel.duty_cycle.set(self.total.duty_cycle());
        // The §4.6 estimate, continuous: of the window's wall budget,
        // the capacity left after dispatch is the "loaded" reading.
        let wall_ns = wall.as_nanos() as u64;
        let left_ns = wall_ns.saturating_sub(self.total.busy().as_nanos() as u64);
        tel.overhead_fraction
            .set(loadmeter::overhead_fraction(wall_ns, left_ns));
        tel.stage_timeout_duty.set(self.timeout.duty_cycle());
        tel.stage_io_duty.set(self.io.duty_cycle());
        tel.stage_idle_duty.set(self.idle.duty_cycle());
        self.timeout.reset();
        self.io.reset();
        self.idle.reset();
        self.total.reset();
        self.window_start = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tick_updates_all_series() {
        let tel = LoopTelemetry::default();
        let prev = tel.record_tick(TimeDelta::from_millis(2), 0, 0);
        assert_eq!(prev, 2_000_000);
        let prev = tel.record_tick(TimeDelta::from_millis(5), 3, prev);
        assert_eq!(prev, 5_000_000);
        assert_eq!(tel.ticks_dispatched.get(), 2);
        assert_eq!(tel.ticks_missed.get(), 3);
        assert_eq!(tel.tick_lateness_ns.snapshot().max, 5_000_000);
        // Jitter saw |2ms - 0| then |5ms - 2ms|.
        assert_eq!(tel.tick_jitter_ns.snapshot().max, 3_000_000);
        assert_eq!(tel.tick_jitter_ns.count(), 2);
    }

    #[test]
    fn shared_registry_reuses_handles() {
        let reg = Registry::shared();
        let a = LoopTelemetry::new(Arc::clone(&reg));
        let b = LoopTelemetry::new(Arc::clone(&reg));
        a.iterations.inc();
        b.iterations.inc();
        assert_eq!(reg.counter("gel.loop.iterations").get(), 2);
    }
}
