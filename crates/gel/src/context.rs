//! The main loop: glib-style sources dispatched against a [`Clock`].
//!
//! The original gscope relies on the GTK/glib main loop: periodic
//! timeouts drive scope polling, `g_io_add_watch` drives I/O-driven
//! applications (Figure 6), and everything — GUI and application events —
//! shares one event loop (§4.3). This module is that substrate, built
//! from scratch:
//!
//! * [`MainLoop::add_timeout`] — periodic sources with lost-tick
//!   accounting (§4.5: "Gscope keeps track of lost timeouts and advances
//!   the scope refresh appropriately").
//! * [`MainLoop::add_idle`] — run-when-quiet sources.
//! * [`MainLoop::add_io_watch`] — readiness-polled I/O sources. Where
//!   glib used `select()`, we poll watch callbacks non-blockingly at
//!   timer-quantum granularity; §4.5 notes the kernel quantizes `select`
//!   wake-ups to the timer interrupt anyway, so observable behaviour (max
//!   100 Hz at the default 10 ms quantum) is preserved.
//! * [`LoopHandle::invoke`] — cross-thread calls marshalled onto the loop
//!   thread, the idiom multi-threaded gscope applications use instead of
//!   taking "a global GTK lock" (§4.3).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::clock::{Clock, WakeFlag};
use crate::quantizer::Quantizer;
use crate::telemetry::LoopTelemetry;
use crate::time::{TimeDelta, TimeStamp};

/// Whether a source stays installed after its callback runs.
///
/// Mirrors glib's `TRUE`/`FALSE` return convention (Figure 6's
/// `read_program` returns `TRUE` to keep watching).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Continue {
    /// Keep the source installed.
    Keep,
    /// Remove the source.
    Remove,
}

/// What an I/O watch callback did this poll.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoPoll {
    /// No data was ready; nothing happened.
    Idle,
    /// The callback made progress (read/wrote/accepted something).
    Worked,
    /// Remove this watch (peer closed, fatal error, ...).
    Remove,
}

/// Dispatch priority for timeout sources, mirroring glib's source
/// priorities: when several timeouts are due in the same loop
/// iteration, higher-priority callbacks run first (application I/O
/// before display refresh, say). Ties dispatch in installation order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Dispatched before everything else due this iteration.
    High,
    /// The normal priority.
    #[default]
    Default,
    /// Dispatched after other due timeouts.
    Low,
}

/// Timing details handed to a timeout callback.
#[derive(Clone, Copy, Debug)]
pub struct TickInfo {
    /// The time observed when the callback was dispatched.
    pub now: TimeStamp,
    /// The deadline this tick was scheduled for.
    pub scheduled: TimeStamp,
    /// Whole periods lost before this dispatch (0 when on time).
    ///
    /// Under load the loop may wake several periods late; the scope uses
    /// this to advance its display by the missed amount (§4.5).
    pub missed: u64,
}

/// Callback type for periodic timeout sources.
pub type TimeoutFn = Box<dyn FnMut(&TickInfo) -> Continue + Send>;
/// Callback type for idle sources.
pub type IdleFn = Box<dyn FnMut() -> Continue + Send>;
/// Callback type for I/O watch sources.
pub type IoWatchFn = Box<dyn FnMut() -> IoPoll + Send>;
/// Closure marshalled onto the loop thread by [`LoopHandle::invoke`].
pub type InvokeFn = Box<dyn FnOnce(&mut MainLoop) + Send>;

/// Identifies an installed source for later removal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SourceId {
    index: usize,
    generation: u64,
}

enum SourceKind {
    Timeout {
        period: TimeDelta,
        next: TimeStamp,
        priority: Priority,
        cb: TimeoutFn,
    },
    Idle {
        cb: IdleFn,
    },
    Io {
        cb: IoWatchFn,
    },
}

enum Slot {
    Empty,
    /// Source temporarily taken out while its callback runs.
    Dispatching {
        generation: u64,
    },
    /// Source removed (by id) while its callback was running.
    Cancelled,
    Occupied {
        generation: u64,
        kind: SourceKind,
    },
}

/// Counters describing what the loop has done so far: a snapshot of
/// the loop's `gel.*` registry counters (see [`MainLoop::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Loop iterations executed.
    pub iterations: u64,
    /// Timeout callbacks dispatched.
    pub timeouts_dispatched: u64,
    /// Total whole periods lost across all timeout dispatches.
    pub ticks_missed: u64,
    /// I/O watch polls that found work.
    pub io_dispatches: u64,
    /// I/O watch polls that found nothing.
    pub io_idle_polls: u64,
    /// Idle callbacks run.
    pub idle_runs: u64,
    /// Cross-thread invokes executed.
    pub invokes: u64,
}

/// Result of a single loop iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Iteration {
    /// At least one callback ran.
    Dispatched,
    /// Nothing ran; the loop slept (or would have).
    Slept,
    /// No runnable or waitable sources exist.
    Stalled,
}

/// A cloneable, thread-safe handle to a running [`MainLoop`].
#[derive(Clone)]
pub struct LoopHandle {
    tx: Sender<InvokeFn>,
    wake: Arc<WakeFlag>,
    quit: Arc<AtomicBool>,
}

impl LoopHandle {
    /// Schedules `f` to run on the loop thread and wakes the loop.
    ///
    /// This is the safe replacement for "acquire a global GTK lock" from
    /// §4.3: application threads never touch loop state directly.
    pub fn invoke<F>(&self, f: F)
    where
        F: FnOnce(&mut MainLoop) + Send + 'static,
    {
        // A send error means the loop is gone; the invoke is dropped,
        // matching glib's behaviour for a destroyed context.
        let _ = self.tx.send(Box::new(f));
        self.wake.wake();
    }

    /// Asks the loop to exit its [`MainLoop::run`] call.
    pub fn quit(&self) {
        self.quit.store(true, Ordering::SeqCst);
        self.wake.wake();
    }

    /// Returns true if quit has been requested.
    pub fn quit_requested(&self) -> bool {
        self.quit.load(Ordering::SeqCst)
    }
}

/// The event loop.
pub struct MainLoop {
    clock: Arc<dyn Clock>,
    quantizer: Quantizer,
    slots: Vec<Slot>,
    free: Vec<usize>,
    next_generation: u64,
    wake: Arc<WakeFlag>,
    invoke_tx: Sender<InvokeFn>,
    invoke_rx: Receiver<InvokeFn>,
    quit: Arc<AtomicBool>,
    telemetry: LoopTelemetry,
    meters: crate::telemetry::StageMeters,
    last_lateness_ns: u64,
}

impl MainLoop {
    /// Creates a loop over the given clock with the default 10 ms
    /// timer quantum (§4.5).
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self::with_quantizer(clock, Quantizer::default())
    }

    /// Creates a loop with an explicit timer quantum.
    pub fn with_quantizer(clock: Arc<dyn Clock>, quantizer: Quantizer) -> Self {
        let (invoke_tx, invoke_rx) = unbounded();
        MainLoop {
            clock,
            quantizer,
            slots: Vec::new(),
            free: Vec::new(),
            next_generation: 1,
            wake: Arc::new(WakeFlag::new()),
            invoke_tx,
            invoke_rx,
            quit: Arc::new(AtomicBool::new(false)),
            telemetry: LoopTelemetry::default(),
            meters: crate::telemetry::StageMeters::new(),
            last_lateness_ns: 0,
        }
    }

    /// Returns the loop's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Returns the timer quantizer in effect.
    pub fn quantizer(&self) -> Quantizer {
        self.quantizer
    }

    /// Replaces the timer quantizer (granularity experiments, §4.5/§6).
    pub fn set_quantizer(&mut self, q: Quantizer) {
        self.quantizer = q;
    }

    /// Returns accumulated loop statistics, read from the loop's
    /// registry counters — the one place they are counted. Loops that
    /// share a registry share these counts.
    pub fn stats(&self) -> LoopStats {
        let t = &self.telemetry;
        LoopStats {
            iterations: t.iterations.get(),
            timeouts_dispatched: t.ticks_dispatched.get(),
            ticks_missed: t.ticks_missed.get(),
            io_dispatches: t.io_dispatches.get(),
            io_idle_polls: t.io_idle_polls.get(),
            idle_runs: t.idle_runs.get(),
            invokes: t.invokes.get(),
        }
    }

    /// Returns the loop's telemetry handles (and, through them, the
    /// registry its `gel.*` metrics live in).
    pub fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry
    }

    /// Re-homes the loop's metrics in `registry` — call before first
    /// use so every component of a process shares one registry.
    /// [`MainLoop::stats`] reads the current registry, so counts made
    /// before the move stay behind.
    pub fn set_telemetry(&mut self, registry: Arc<gtel::Registry>) {
        self.telemetry = LoopTelemetry::new(registry);
    }

    /// Returns a cloneable cross-thread handle.
    pub fn handle(&self) -> LoopHandle {
        LoopHandle {
            tx: self.invoke_tx.clone(),
            wake: Arc::clone(&self.wake),
            quit: Arc::clone(&self.quit),
        }
    }

    fn insert(&mut self, kind: SourceKind) -> SourceId {
        let generation = self.next_generation;
        self.next_generation += 1;
        let slot = Slot::Occupied { generation, kind };
        let index = match self.free.pop() {
            Some(i) => {
                debug_assert!(matches!(self.slots[i], Slot::Empty));
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        SourceId { index, generation }
    }

    /// Installs a periodic timeout firing every `period`, first at
    /// `now + period`.
    ///
    /// Equivalent to `gtk_timeout_add`. The callback receives a
    /// [`TickInfo`] carrying lost-tick information.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn add_timeout(&mut self, period: TimeDelta, cb: TimeoutFn) -> SourceId {
        self.add_timeout_with_priority(period, Priority::Default, cb)
    }

    /// Installs a periodic timeout with an explicit dispatch
    /// [`Priority`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn add_timeout_with_priority(
        &mut self,
        period: TimeDelta,
        priority: Priority,
        cb: TimeoutFn,
    ) -> SourceId {
        assert!(!period.is_zero(), "timeout period must be non-zero");
        let next = self.clock.now() + period;
        self.insert(SourceKind::Timeout {
            period,
            next,
            priority,
            cb,
        })
    }

    /// Installs a one-shot callback after `delay`.
    pub fn add_oneshot<F>(&mut self, delay: TimeDelta, f: F) -> SourceId
    where
        F: FnOnce(&TickInfo) + Send + 'static,
    {
        assert!(!delay.is_zero(), "oneshot delay must be non-zero");
        let mut f = Some(f);
        self.add_timeout(
            delay,
            Box::new(move |tick| {
                if let Some(f) = f.take() {
                    f(tick);
                }
                Continue::Remove
            }),
        )
    }

    /// Installs an idle source, run when an iteration dispatches nothing.
    pub fn add_idle(&mut self, cb: IdleFn) -> SourceId {
        self.insert(SourceKind::Idle { cb })
    }

    /// Installs an I/O watch, polled once per loop iteration.
    ///
    /// Equivalent to `g_io_add_watch` (Figure 6). The callback must use
    /// non-blocking operations and report what happened via [`IoPoll`].
    pub fn add_io_watch(&mut self, cb: IoWatchFn) -> SourceId {
        self.insert(SourceKind::Io { cb })
    }

    /// Removes a source by id.
    ///
    /// Returns true if the source existed. Safe to call from inside any
    /// callback, including the source's own.
    pub fn remove_source(&mut self, id: SourceId) -> bool {
        match self.slots.get_mut(id.index) {
            Some(slot @ Slot::Occupied { .. }) => {
                if matches!(slot, Slot::Occupied { generation, .. } if *generation == id.generation)
                {
                    *slot = Slot::Empty;
                    self.free.push(id.index);
                    true
                } else {
                    false
                }
            }
            Some(slot @ Slot::Dispatching { .. }) => {
                if matches!(slot, Slot::Dispatching { generation } if *generation == id.generation)
                {
                    *slot = Slot::Cancelled;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Returns the number of installed sources.
    pub fn source_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Occupied { .. }))
            .count()
    }

    fn drain_invokes(&mut self) -> bool {
        let mut any = false;
        // Collect first: running an invoke may send further invokes.
        loop {
            let Ok(f) = self.invoke_rx.try_recv() else {
                break;
            };
            any = true;
            self.telemetry.invokes.inc();
            f(self);
        }
        any
    }

    /// Puts a dispatched source back, honouring cancellation and the
    /// callback's continue decision.
    fn finish_dispatch(&mut self, index: usize, generation: u64, kind: SourceKind, keep: bool) {
        match &self.slots[index] {
            Slot::Cancelled => {
                self.slots[index] = Slot::Empty;
                self.free.push(index);
            }
            Slot::Dispatching { .. } => {
                if keep {
                    self.slots[index] = Slot::Occupied { generation, kind };
                } else {
                    self.slots[index] = Slot::Empty;
                    self.free.push(index);
                }
            }
            // The callback replaced the slot (removed itself and a new
            // source re-used the index): drop the old source.
            _ => {}
        }
    }

    /// Swaps a source out of its slot for dispatch, leaving a
    /// `Dispatching` placeholder so concurrent removal stays sound.
    fn take_for_dispatch(&mut self, index: usize) -> (u64, SourceKind) {
        let generation = match &self.slots[index] {
            Slot::Occupied { generation, .. } => *generation,
            _ => unreachable!("take_for_dispatch on non-occupied slot"),
        };
        match std::mem::replace(&mut self.slots[index], Slot::Dispatching { generation }) {
            Slot::Occupied { kind, .. } => (generation, kind),
            _ => unreachable!(),
        }
    }

    fn dispatch_timeouts(&mut self, now: TimeStamp) -> bool {
        let mut any = false;
        // Collect due timeouts and order them by priority, then by
        // installation (slot) order.
        let mut due: Vec<(Priority, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| match slot {
                Slot::Occupied {
                    kind: SourceKind::Timeout { next, priority, .. },
                    ..
                } if *next <= now => Some((*priority, index)),
                _ => None,
            })
            .collect();
        due.sort();
        for (_, index) in due {
            // A previously dispatched callback may have removed or
            // replaced this source; re-check.
            let still_due = matches!(
                &self.slots[index],
                Slot::Occupied { kind: SourceKind::Timeout { next, .. }, .. } if *next <= now
            );
            if !still_due {
                continue;
            }
            let (generation, kind) = self.take_for_dispatch(index);
            let SourceKind::Timeout {
                period,
                next,
                priority,
                mut cb,
            } = kind
            else {
                unreachable!()
            };
            let lateness = now.saturating_since(next);
            let missed = lateness.div_periods(period);
            let tick = TickInfo {
                now,
                scheduled: next,
                missed,
            };
            self.last_lateness_ns =
                self.telemetry
                    .record_tick(lateness, missed, self.last_lateness_ns);
            any = true;
            let decision = cb(&tick);
            let new_next = next + period.saturating_mul(missed + 1);
            let kind = SourceKind::Timeout {
                period,
                next: new_next,
                priority,
                cb,
            };
            self.finish_dispatch(index, generation, kind, decision == Continue::Keep);
        }
        any
    }

    fn dispatch_io(&mut self) -> bool {
        let mut any = false;
        for index in 0..self.slots.len() {
            let is_io = matches!(
                &self.slots[index],
                Slot::Occupied {
                    kind: SourceKind::Io { .. },
                    ..
                }
            );
            if !is_io {
                continue;
            }
            let (generation, kind) = self.take_for_dispatch(index);
            let SourceKind::Io { mut cb } = kind else {
                unreachable!()
            };
            let outcome = cb();
            match outcome {
                IoPoll::Worked => {
                    self.telemetry.io_dispatches.inc();
                    any = true;
                }
                IoPoll::Idle => self.telemetry.io_idle_polls.inc(),
                IoPoll::Remove => {}
            }
            let kind = SourceKind::Io { cb };
            self.finish_dispatch(index, generation, kind, outcome != IoPoll::Remove);
        }
        any
    }

    fn run_idles(&mut self) -> bool {
        let mut any = false;
        for index in 0..self.slots.len() {
            let is_idle = matches!(
                &self.slots[index],
                Slot::Occupied {
                    kind: SourceKind::Idle { .. },
                    ..
                }
            );
            if !is_idle {
                continue;
            }
            let (generation, kind) = self.take_for_dispatch(index);
            let SourceKind::Idle { mut cb } = kind else {
                unreachable!()
            };
            self.telemetry.idle_runs.inc();
            any = true;
            let decision = cb();
            let kind = SourceKind::Idle { cb };
            self.finish_dispatch(index, generation, kind, decision == Continue::Keep);
        }
        any
    }

    fn next_timeout_deadline(&self) -> Option<TimeStamp> {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Occupied {
                    kind: SourceKind::Timeout { next, .. },
                    ..
                } => Some(*next),
                _ => None,
            })
            .min()
    }

    fn has_io_watches(&self) -> bool {
        self.slots.iter().any(|s| {
            matches!(
                s,
                Slot::Occupied {
                    kind: SourceKind::Io { .. },
                    ..
                }
            )
        })
    }

    fn has_idles(&self) -> bool {
        self.slots.iter().any(|s| {
            matches!(
                s,
                Slot::Occupied {
                    kind: SourceKind::Idle { .. },
                    ..
                }
            )
        })
    }

    /// Runs a single loop iteration.
    ///
    /// Dispatches due timeouts, polls I/O watches, runs idles if nothing
    /// else ran, then (if `block` and nothing ran) sleeps until the next
    /// quantized deadline or a wake-up.
    pub fn iteration(&mut self, block: bool) -> Iteration {
        let dispatch_started = std::time::Instant::now();
        self.telemetry.iterations.inc();
        // Root span for this tick of the loop: every stage span opened
        // during dispatch (scope tick, render, net poll, store flush)
        // becomes its child, so one iteration's cost decomposes.
        let root_span = gtel::span("gel.iteration", self.telemetry.iterations.get());
        let mut dispatched = self.drain_invokes();
        let now = self.clock.now();
        let t0 = std::time::Instant::now();
        dispatched |= self.dispatch_timeouts(now);
        let t1 = std::time::Instant::now();
        dispatched |= self.dispatch_io();
        let t2 = std::time::Instant::now();
        if !dispatched && self.run_idles() {
            dispatched = true;
        }
        let t3 = std::time::Instant::now();
        drop(root_span);
        // Timed before any sleep: this is dispatch cost, not wait time.
        self.telemetry
            .iteration_ns
            .record_duration(dispatch_started.elapsed());
        self.meters
            .record(&self.telemetry, t1 - t0, t2 - t1, t3 - t2);
        self.telemetry.sources.set_count(self.source_count());
        if dispatched {
            return Iteration::Dispatched;
        }
        if !block {
            return Iteration::Slept;
        }
        let now = self.clock.now();
        let timeout_deadline = self
            .next_timeout_deadline()
            .map(|d| self.quantizer.round_up(d));
        // I/O watches are readiness-polled: bound the sleep to one
        // quantum so data is noticed at select()-like granularity.
        let io_deadline = if self.has_io_watches() {
            let quantum = self.quantizer.quantum();
            let step = if quantum.is_zero() {
                TimeDelta::from_millis(1)
            } else {
                quantum
            };
            Some(self.quantizer.round_up(now + step))
        } else {
            None
        };
        let deadline = match (timeout_deadline, io_deadline) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                if self.has_idles() {
                    // Idle-only loops spin at quantum granularity.
                    self.quantizer
                        .round_up(now + self.quantizer.quantum().max(TimeDelta::from_millis(1)))
                } else if self.clock.is_virtual() {
                    return Iteration::Stalled;
                } else {
                    // Nothing to wait for except cross-thread wake-ups.
                    self.wake
                        .wait_timeout(std::time::Duration::from_millis(100));
                    return Iteration::Slept;
                }
            }
        };
        self.clock.wait_until(deadline, &self.wake);
        Iteration::Slept
    }

    /// Runs until [`LoopHandle::quit`] is called.
    ///
    /// Equivalent to `gtk_main()` in Figure 6.
    ///
    /// # Panics
    ///
    /// Panics if the loop stalls on a virtual clock (no sources left and
    /// nothing can ever wake it).
    pub fn run(&mut self) {
        while !self.quit.load(Ordering::SeqCst) {
            match self.iteration(true) {
                Iteration::Stalled => {
                    if self.quit.load(Ordering::SeqCst) {
                        break;
                    }
                    panic!("main loop stalled: virtual clock with no runnable sources");
                }
                _ => continue,
            }
        }
        self.quit.store(false, Ordering::SeqCst);
    }

    /// Runs until the clock reaches `until` (or quit is requested).
    ///
    /// With a [`VirtualClock`](crate::clock::VirtualClock) this executes
    /// the whole timeline instantly; if the loop stalls early the clock
    /// is advanced to `until`.
    pub fn run_until(&mut self, until: TimeStamp) {
        while self.clock.now() < until && !self.quit.load(Ordering::SeqCst) {
            match self.iteration(true) {
                Iteration::Stalled => {
                    if let Some(d) = until.as_micros().checked_sub(self.clock.now().as_micros()) {
                        // Only virtual clocks stall; jump to the horizon.
                        self.clock
                            .wait_until(self.clock.now() + TimeDelta::from_micros(d), &self.wake);
                    }
                    break;
                }
                _ => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::sync::atomic::AtomicU64;

    fn virtual_loop() -> (MainLoop, VirtualClock) {
        let clock = VirtualClock::new();
        let ml = MainLoop::with_quantizer(Arc::new(clock.clone()), Quantizer::exact());
        (ml, clock)
    }

    #[test]
    fn loop_stats_are_the_registry_counts() {
        let clock = VirtualClock::new();
        // The third wait is delivered 35 ms late: missed ticks.
        clock.set_latency_model(Some(Box::new(|n| if n == 2 { 35_000 } else { 0 })));
        let mut ml = MainLoop::with_quantizer(Arc::new(clock.clone()), Quantizer::exact());
        let registry = gtel::Registry::shared();
        ml.set_telemetry(Arc::clone(&registry));
        let mut polls = 0u64;
        ml.add_io_watch(Box::new(move || {
            polls += 1;
            if polls.is_multiple_of(2) {
                IoPoll::Worked
            } else {
                IoPoll::Idle
            }
        }));
        ml.add_idle(Box::new(|| Continue::Remove));
        ml.add_timeout(TimeDelta::from_millis(10), Box::new(|_| Continue::Keep));
        ml.handle().invoke(|_| {});
        ml.run_until(TimeStamp::from_millis(100));

        let s = ml.stats();
        assert!(s.ticks_missed > 0 && s.io_dispatches > 0 && s.io_idle_polls > 0);
        assert_eq!((s.idle_runs, s.invokes), (1, 1));
        for (name, field) in [
            ("gel.loop.iterations", s.iterations),
            ("gel.tick.dispatched", s.timeouts_dispatched),
            ("gel.tick.missed", s.ticks_missed),
            ("gel.io.dispatches", s.io_dispatches),
            ("gel.io.idle_polls", s.io_idle_polls),
            ("gel.idle.runs", s.idle_runs),
            ("gel.loop.invokes", s.invokes),
        ] {
            match registry.get(name) {
                Some(gtel::Metric::Counter(c)) => assert_eq!(c.get(), field, "{name}"),
                other => panic!("{name} is not a registered counter: {other:?}"),
            }
        }
    }

    #[test]
    fn timeout_fires_periodically() {
        let (mut ml, _clock) = virtual_loop();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        ml.add_timeout(
            TimeDelta::from_millis(10),
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Continue::Keep
            }),
        );
        ml.run_until(TimeStamp::from_millis(105));
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn timeout_self_removes() {
        let (mut ml, _clock) = virtual_loop();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        ml.add_timeout(
            TimeDelta::from_millis(10),
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Continue::Remove
            }),
        );
        ml.run_until(TimeStamp::from_millis(100));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(ml.source_count(), 0);
    }

    #[test]
    fn oneshot_runs_once() {
        let (mut ml, _clock) = virtual_loop();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        ml.add_oneshot(TimeDelta::from_millis(30), move |tick| {
            assert_eq!(tick.scheduled, TimeStamp::from_millis(30));
            c.fetch_add(1, Ordering::SeqCst);
        });
        ml.run_until(TimeStamp::from_millis(200));
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn quantizer_rounds_dispatch_times() {
        let clock = VirtualClock::new();
        let mut ml = MainLoop::with_quantizer(Arc::new(clock.clone()), Quantizer::LINUX_HZ100);
        let times = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let t2 = Arc::clone(&times);
        // A 15 ms period under a 10 ms quantum: wake-ups land on 20, 40,
        // 60 ms boundaries (deadline 15→20, 30→40, 45→50...).
        ml.add_timeout(
            TimeDelta::from_millis(15),
            Box::new(move |tick| {
                t2.lock().push(tick.now.as_millis());
                Continue::Keep
            }),
        );
        ml.run_until(TimeStamp::from_millis(65));
        let observed = times.lock().clone();
        assert_eq!(observed, vec![20, 30, 50, 60]);
    }

    #[test]
    fn missed_ticks_are_reported() {
        let clock = VirtualClock::new();
        // The third wait is delivered 35 ms late.
        clock.set_latency_model(Some(Box::new(|n| if n == 2 { 35_000 } else { 0 })));
        let mut ml = MainLoop::with_quantizer(Arc::new(clock.clone()), Quantizer::exact());
        let missed = Arc::new(AtomicU64::new(0));
        let m = Arc::clone(&missed);
        ml.add_timeout(
            TimeDelta::from_millis(10),
            Box::new(move |tick| {
                m.fetch_add(tick.missed, Ordering::SeqCst);
                Continue::Keep
            }),
        );
        ml.run_until(TimeStamp::from_millis(100));
        // Wait for the 30 ms deadline arrives at 65 ms: 3 whole periods
        // late.
        assert_eq!(missed.load(Ordering::SeqCst), 3);
        assert_eq!(ml.stats().ticks_missed, 3);
    }

    #[test]
    fn schedule_catches_up_after_latency() {
        let clock = VirtualClock::new();
        clock.set_latency_model(Some(Box::new(|n| if n == 0 { 95_000 } else { 0 })));
        let mut ml = MainLoop::with_quantizer(Arc::new(clock.clone()), Quantizer::exact());
        let times = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let t2 = Arc::clone(&times);
        ml.add_timeout(
            TimeDelta::from_millis(10),
            Box::new(move |tick| {
                t2.lock().push((tick.now.as_millis(), tick.missed));
                Continue::Keep
            }),
        );
        ml.run_until(TimeStamp::from_millis(130));
        let observed = times.lock().clone();
        // First dispatch at 105 ms (9 missed), then back on the 10 ms
        // grid relative to the original phase: 110, 120, 130.
        assert_eq!(observed[0], (105, 9));
        assert_eq!(observed[1], (110, 0));
        assert_eq!(observed[2], (120, 0));
    }

    #[test]
    fn idle_runs_when_nothing_dispatched() {
        let (mut ml, _clock) = virtual_loop();
        let idles = Arc::new(AtomicU64::new(0));
        let i2 = Arc::clone(&idles);
        ml.add_idle(Box::new(move || {
            i2.fetch_add(1, Ordering::SeqCst);
            Continue::Remove
        }));
        ml.add_timeout(TimeDelta::from_millis(10), Box::new(|_| Continue::Keep));
        ml.run_until(TimeStamp::from_millis(50));
        assert_eq!(idles.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn io_watch_polled_and_removable() {
        let (mut ml, _clock) = virtual_loop();
        let polls = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&polls);
        ml.add_io_watch(Box::new(move || {
            let n = p2.fetch_add(1, Ordering::SeqCst);
            if n >= 4 {
                IoPoll::Remove
            } else if n.is_multiple_of(2) {
                IoPoll::Worked
            } else {
                IoPoll::Idle
            }
        }));
        ml.add_timeout(TimeDelta::from_millis(10), Box::new(|_| Continue::Keep));
        ml.run_until(TimeStamp::from_millis(100));
        assert_eq!(polls.load(Ordering::SeqCst), 5);
        assert_eq!(ml.source_count(), 1);
        assert!(ml.stats().io_dispatches >= 2);
    }

    #[test]
    fn remove_source_by_id() {
        let (mut ml, _clock) = virtual_loop();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let id = ml.add_timeout(
            TimeDelta::from_millis(10),
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Continue::Keep
            }),
        );
        assert!(ml.remove_source(id));
        assert!(!ml.remove_source(id), "double remove must fail");
        ml.add_timeout(TimeDelta::from_millis(10), Box::new(|_| Continue::Keep));
        ml.run_until(TimeStamp::from_millis(50));
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_id() {
        let (mut ml, _clock) = virtual_loop();
        let id1 = ml.add_timeout(TimeDelta::from_millis(10), Box::new(|_| Continue::Keep));
        assert!(ml.remove_source(id1));
        let id2 = ml.add_timeout(TimeDelta::from_millis(10), Box::new(|_| Continue::Keep));
        assert_eq!(id1.index, id2.index, "slot should be reused");
        assert!(!ml.remove_source(id1), "stale generation must not match");
        assert!(ml.remove_source(id2));
    }

    #[test]
    fn invoke_runs_on_loop_and_can_add_sources() {
        let (mut ml, _clock) = virtual_loop();
        let handle = ml.handle();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        handle.invoke(move |ml| {
            ml.add_timeout(
                TimeDelta::from_millis(10),
                Box::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                    Continue::Keep
                }),
            );
        });
        ml.run_until(TimeStamp::from_millis(55));
        assert_eq!(count.load(Ordering::SeqCst), 5);
        assert_eq!(ml.stats().invokes, 1);
    }

    #[test]
    fn priorities_order_same_deadline_dispatch() {
        let (mut ml, _clock) = virtual_loop();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (label, priority) in [
            ("low", Priority::Low),
            ("default", Priority::Default),
            ("high", Priority::High),
        ] {
            let o = Arc::clone(&order);
            ml.add_timeout_with_priority(
                TimeDelta::from_millis(10),
                priority,
                Box::new(move |_| {
                    o.lock().push(label);
                    Continue::Keep
                }),
            );
        }
        ml.run_until(TimeStamp::from_millis(15));
        assert_eq!(*order.lock(), vec!["high", "default", "low"]);
    }

    #[test]
    fn equal_priority_keeps_installation_order() {
        let (mut ml, _clock) = virtual_loop();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for label in ["first", "second", "third"] {
            let o = Arc::clone(&order);
            ml.add_timeout(
                TimeDelta::from_millis(10),
                Box::new(move |_| {
                    o.lock().push(label);
                    Continue::Keep
                }),
            );
        }
        ml.run_until(TimeStamp::from_millis(15));
        assert_eq!(*order.lock(), vec!["first", "second", "third"]);
    }

    #[test]
    fn high_priority_callback_can_remove_lower_one() {
        let (mut ml, _clock) = virtual_loop();
        let victim_fired = Arc::new(AtomicU64::new(0));
        let vf = Arc::clone(&victim_fired);
        // Install the victim first (Low priority).
        let victim = ml.add_timeout_with_priority(
            TimeDelta::from_millis(10),
            Priority::Low,
            Box::new(move |_| {
                vf.fetch_add(1, Ordering::SeqCst);
                Continue::Keep
            }),
        );
        let handle = ml.handle();
        ml.add_timeout_with_priority(
            TimeDelta::from_millis(10),
            Priority::High,
            Box::new(move |_| {
                // Removing via invoke lands before the next iteration's
                // dispatch; the same-iteration Low dispatch still runs.
                handle.invoke(move |ml| {
                    ml.remove_source(victim);
                });
                Continue::Keep
            }),
        );
        ml.run_until(TimeStamp::from_millis(45));
        // Fired once (the same iteration as the first High dispatch),
        // then removed before any further tick.
        assert_eq!(victim_fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn quit_stops_run() {
        let clock = Arc::new(VirtualClock::new());
        let mut ml = MainLoop::with_quantizer(clock, Quantizer::exact());
        let handle = ml.handle();
        let mut remaining = 3;
        ml.add_timeout(
            TimeDelta::from_millis(10),
            Box::new(move |_| {
                remaining -= 1;
                if remaining == 0 {
                    handle.quit();
                }
                Continue::Keep
            }),
        );
        ml.run();
        assert_eq!(ml.stats().timeouts_dispatched, 3);
    }

    #[test]
    fn run_until_with_real_clock() {
        let clock = Arc::new(crate::clock::SystemClock::new());
        let mut ml =
            MainLoop::with_quantizer(clock.clone(), Quantizer::new(TimeDelta::from_millis(1)));
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        ml.add_timeout(
            TimeDelta::from_millis(2),
            Box::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Continue::Keep
            }),
        );
        let deadline = clock.now() + TimeDelta::from_millis(30);
        ml.run_until(deadline);
        let n = count.load(Ordering::SeqCst);
        assert!(n >= 5, "expected at least 5 ticks in 30 ms, got {n}");
    }

    #[test]
    fn callback_removing_itself_via_handle_is_safe() {
        let (mut ml, _clock) = virtual_loop();
        let id_cell = Arc::new(parking_lot::Mutex::new(None::<SourceId>));
        let id_cell2 = Arc::clone(&id_cell);
        let handle = ml.handle();
        let fired = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&fired);
        let id = ml.add_timeout(
            TimeDelta::from_millis(10),
            Box::new(move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
                let id = id_cell2.lock().unwrap();
                // Ask the loop to remove us; runs before the next tick.
                handle.invoke(move |ml| {
                    ml.remove_source(id);
                });
                Continue::Keep
            }),
        );
        *id_cell.lock() = Some(id);
        ml.run_until(TimeStamp::from_millis(100));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }
}
