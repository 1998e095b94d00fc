//! The scope engine — the library's `GtkScope` widget (§2) minus the
//! pixels.
//!
//! A [`Scope`] owns a set of [`Signal`]s, the scope-wide sample
//! [`ScopeBuffer`], the acquisition mode, and the display parameters
//! (period, delay, zoom, bias). Every action available from the GUI in
//! the original gscope is a method here — the paper's "programmatic
//! interface for every action that can be performed from the GUI"
//! (§3.4). Rendering lives in the `grender` crate, which reads the
//! scope's state through [`Scope::display_cols`] and friends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

use gdsp::{Bin, SpectrumConfig};
use gel::{Clock, Continue, MainLoop, SourceId, TickInfo, TimeDelta, TimeStamp};
use gtel::LatencyHistogram;
use parking_lot::Mutex;

use crate::buffer::ScopeBuffer;
use crate::config::SigConfig;
use crate::error::{Result, ScopeError};
use crate::history::Cols;
use crate::signal::{EventSink, Signal};
use crate::source::SigSource;
use crate::telemetry::ScopeTelemetry;
use crate::trigger::{Envelope, Trigger};
use crate::tuple::{Tuple, TupleSink, TupleSource, TupleWriter};

/// Default sampling period: the 50 ms used throughout the paper's
/// examples (Figure 6, §3.3).
pub const DEFAULT_PERIOD: TimeDelta = TimeDelta::from_millis(50);

/// Signal name assumed for name-less tuples in single-signal playback
/// streams (§3.3).
pub const UNNAMED_SIGNAL: &str = "signal";

/// How the scope acquires data (§3.1: "polling or playback").
enum Mode {
    /// Not acquiring; ticks are ignored.
    Stopped,
    /// Sample live sources every period.
    Polling,
    /// Replay tuples from a recorded stream.
    Playback {
        tuples: Vec<Tuple>,
        /// Pre-resolved signal index per tuple, parallel to `tuples`
        /// ([`UNROUTED`] = no matching signal). Rebuilt by
        /// `refresh_wiring` whenever the signal set changes, so the
        /// per-step loop never searches by name.
        slots: Vec<u32>,
        /// Index of the next tuple to consume.
        cursor: usize,
        /// Current playback time; advances one period per tick.
        time: TimeStamp,
        /// Last value seen per signal, parallel to `Scope::signals`
        /// (sample-and-hold between tuples).
        current: Vec<Option<f64>>,
    },
}

/// Playback slot marker for tuples with no matching signal.
const UNROUTED: u32 = u32::MAX;

impl Mode {
    fn name(&self) -> &'static str {
        match self {
            Mode::Stopped => "stopped",
            Mode::Polling => "polling",
            Mode::Playback { .. } => "playback",
        }
    }
}

/// Counters describing scope activity: a snapshot of the scope's
/// `scope.*` registry counters (see [`Scope::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Polling or playback ticks processed.
    pub ticks: u64,
    /// Whole periods lost to scheduling latency, as reported by the
    /// event loop and compensated in the display (§4.5).
    pub missed_ticks: u64,
    /// Tuples written by the recorder.
    pub recorded_tuples: u64,
    /// Buffered samples rejected because they arrived after their
    /// display deadline (from the scope-wide [`ScopeBuffer`]).
    pub late_drops: u64,
    /// True if a recording was stopped by a write error (see
    /// [`Scope::recording_error`]).
    pub recording_failed: bool,
}

type RecordSink = Box<dyn TupleSink>;

/// An oscilloscope for software signals.
pub struct Scope {
    name: String,
    width: usize,
    height: usize,
    clock: Arc<dyn Clock>,
    signals: Vec<Signal>,
    palette_counter: usize,
    mode: Mode,
    period: TimeDelta,
    zoom: f64,
    bias: f64,
    buffer: ScopeBuffer,
    recorder: Option<RecordSink>,
    recording_error: Option<String>,
    /// Scope-level trigger: `(source signal, trigger)`.
    trigger: Option<(String, Trigger)>,
    envelopes: HashMap<String, Envelope>,
    telemetry: ScopeTelemetry,
    /// Interned signal name → index in `signals`; rebuilt on signal-set
    /// changes so tick-time routing is a single hash lookup.
    route: HashMap<Arc<str>, usize>,
    /// Per-signal poll-latency histograms, parallel to `signals` —
    /// resolved once at wiring time instead of per tick per signal.
    sig_tel: Vec<Arc<LatencyHistogram>>,
    /// Tick scratch: buffer samples drained this tick (reused).
    drain_buf: Vec<Tuple>,
    /// Tick scratch: values routed to each signal, parallel to
    /// `signals` (reused; cleared, not reallocated, each tick).
    routed: Vec<Vec<f64>>,
}

impl Scope {
    /// Creates a scope — `gtk_scope_new(name, width, height)` (§3.4).
    ///
    /// `width` is the canvas width in pixels (one polling period per
    /// pixel at default zoom); `height` only matters for rendering.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(
        name: impl Into<String>,
        width: usize,
        height: usize,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert!(width > 0, "scope width must be non-zero");
        let buffer = ScopeBuffer::new(Arc::clone(&clock), TimeDelta::from_millis(500));
        let telemetry = ScopeTelemetry::new(
            gtel::Registry::shared(),
            Arc::clone(buffer.late_drop_counter()),
        );
        Scope {
            name: name.into(),
            width,
            height,
            clock,
            signals: Vec::new(),
            palette_counter: 0,
            mode: Mode::Stopped,
            period: DEFAULT_PERIOD,
            zoom: 1.0,
            bias: 0.0,
            buffer,
            recorder: None,
            recording_error: None,
            trigger: None,
            envelopes: HashMap::new(),
            telemetry,
            route: HashMap::new(),
            sig_tel: Vec::new(),
            drain_buf: Vec::new(),
            routed: Vec::new(),
        }
    }

    /// Wraps the scope for sharing with an event loop and other threads.
    pub fn into_shared(self) -> SharedScope {
        Arc::new(Mutex::new(self))
    }

    /// Returns the scope name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the canvas width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns the canvas height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Resizes the canvas (a window resize in the GUI): every signal's
    /// history adopts the new pixel width (shrinking drops the oldest
    /// columns) and envelopes restart at the new width.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::OutOfRange`] for a zero width.
    pub fn set_size(&mut self, width: usize, height: usize) -> Result<()> {
        if width == 0 {
            return Err(ScopeError::OutOfRange {
                what: "canvas width",
                value: 0.0,
            });
        }
        self.width = width;
        self.height = height.max(1);
        for sig in &mut self.signals {
            sig.set_width(width);
        }
        for env in self.envelopes.values_mut() {
            *env = Envelope::new(width);
        }
        Ok(())
    }

    /// Returns the scope's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Returns activity counters, read from the scope's registry —
    /// the one place they are counted (scopes that share a registry
    /// share these counts) — plus the recording-failure flag.
    pub fn stats(&self) -> ScopeStats {
        let t = &self.telemetry;
        ScopeStats {
            ticks: t.ticks.get(),
            missed_ticks: t.ticks_missed.get(),
            recorded_tuples: t.record_tuples.get(),
            late_drops: t.late_drops.get(),
            recording_failed: self.recording_error.is_some(),
        }
    }

    /// Returns the scope's telemetry handles (and, through them, the
    /// registry its `scope.*` metrics live in).
    pub fn telemetry(&self) -> &ScopeTelemetry {
        &self.telemetry
    }

    /// Re-homes the scope's metrics in `registry` — call before first
    /// use so every component of a process shares one registry.
    /// [`Scope::stats`] reads the current registry, so counts made
    /// before the move stay behind (late drops excepted: the buffer's
    /// counter moves with it).
    pub fn set_telemetry(&mut self, registry: Arc<gtel::Registry>) {
        self.telemetry = ScopeTelemetry::new(registry, Arc::clone(self.buffer.late_drop_counter()));
        self.refresh_wiring();
    }

    /// Rebuilds everything derived from the signal set: the name →
    /// index routing table, the per-signal scratch vectors, the
    /// pre-resolved telemetry handles, and (in playback) the tuple →
    /// signal slot mapping and sample-and-hold state. Runs on signal
    /// add/remove and telemetry re-homing — never on the tick path.
    fn refresh_wiring(&mut self) {
        let old_route = std::mem::take(&mut self.route);
        for (i, sig) in self.signals.iter().enumerate() {
            self.route.insert(Arc::clone(sig.interned_name()), i);
        }
        self.routed.resize_with(self.signals.len(), Vec::new);
        self.sig_tel.clear();
        for sig in &self.signals {
            self.sig_tel
                .push(Arc::clone(self.telemetry.signal_poll_ns(sig.name())));
        }
        if let Mode::Playback {
            tuples,
            slots,
            current,
            ..
        } = &mut self.mode
        {
            slots.clear();
            slots.extend(tuples.iter().map(|t| {
                let name = t.name.as_deref().unwrap_or(UNNAMED_SIGNAL);
                self.route.get(name).map(|&i| i as u32).unwrap_or(UNROUTED)
            }));
            // Carry each surviving signal's held value across the
            // re-index; signals added mid-replay start empty.
            let old_current = std::mem::take(current);
            current.extend(self.signals.iter().map(|s| {
                old_route
                    .get(s.name())
                    .and_then(|&old| old_current.get(old).copied().flatten())
            }));
        }
    }

    // ----- signal management (§3.1) -----

    /// Adds a signal — `gtk_scope_signal_new` (§3.4).
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::DuplicateSignal`] if the name is taken, or
    /// a config validation error.
    pub fn add_signal(
        &mut self,
        name: impl AsRef<str>,
        source: SigSource,
        config: SigConfig,
    ) -> Result<()> {
        let name = name.as_ref();
        if self.signals.iter().any(|s| s.name() == name) {
            return Err(ScopeError::DuplicateSignal(name.to_owned()));
        }
        let sig = Signal::new(name, source, config, self.palette_counter, self.width)?;
        self.palette_counter += 1;
        self.signals.push(sig);
        self.refresh_wiring();
        self.buffer.bump_signals_epoch();
        Ok(())
    }

    /// Removes a signal (dynamic removal, §1's feature list).
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] if absent.
    pub fn remove_signal(&mut self, name: &str) -> Result<()> {
        let before = self.signals.len();
        self.signals.retain(|s| s.name() != name);
        if self.signals.len() == before {
            return Err(ScopeError::UnknownSignal(name.into()));
        }
        self.envelopes.remove(name);
        if self.trigger.as_ref().is_some_and(|(n, _)| n == name) {
            self.trigger = None;
        }
        self.refresh_wiring();
        self.buffer.bump_signals_epoch();
        Ok(())
    }

    /// Returns a signal by name.
    pub fn signal(&self, name: &str) -> Option<&Signal> {
        self.signals.iter().find(|s| s.name() == name)
    }

    /// Returns a mutable signal by name.
    pub fn signal_mut(&mut self, name: &str) -> Option<&mut Signal> {
        self.signals.iter_mut().find(|s| s.name() == name)
    }

    /// Returns the signal names in display order.
    pub fn signal_names(&self) -> Vec<String> {
        self.signals.iter().map(|s| s.name().to_owned()).collect()
    }

    /// Returns the signals in display order.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Returns an event sink for a signal (§4.2 event aggregation).
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] if absent.
    pub fn event_sink(&self, name: &str) -> Result<EventSink> {
        self.signal(name)
            .map(|s| s.event_sink())
            .ok_or_else(|| ScopeError::UnknownSignal(name.into()))
    }

    // ----- acquisition modes (§3.1) -----

    /// Enters polling mode at `period` —
    /// `gtk_scope_set_polling_mode(scope, ms)` (Figure 6). Acquisition
    /// starts on [`Scope::start`].
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::OutOfRange`] for a zero period.
    pub fn set_polling_mode(&mut self, period: TimeDelta) -> Result<()> {
        if period.is_zero() {
            return Err(ScopeError::OutOfRange {
                what: "polling period",
                value: 0.0,
            });
        }
        self.period = period;
        self.mode = Mode::Stopped;
        Ok(())
    }

    /// Enters playback mode over recorded tuples (§3.1, §3.3).
    ///
    /// Signals named in the stream that do not exist yet are created
    /// with default configuration; name-less tuples map to
    /// [`UNNAMED_SIGNAL`]. Playback starts on [`Scope::start`] and runs
    /// at the current period, one tuple-time period per tick.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::TupleOrder`] if the tuples are not in
    /// non-decreasing time order, or signal-creation errors.
    pub fn set_playback_mode(&mut self, tuples: Vec<Tuple>) -> Result<()> {
        for (i, w) in tuples.windows(2).enumerate() {
            if w[1].time < w[0].time {
                return Err(ScopeError::TupleOrder {
                    line: i + 2,
                    previous_ms: w[0].time.as_millis_f64(),
                    found_ms: w[1].time.as_millis_f64(),
                });
            }
        }
        // Auto-create signals for names present in the stream.
        let mut names: Vec<&str> = tuples
            .iter()
            .map(|t| t.name.as_deref().unwrap_or(UNNAMED_SIGNAL))
            .collect();
        names.sort_unstable();
        names.dedup();
        for n in names {
            if self.signal(n).is_none() {
                self.add_signal(n, SigSource::Events, SigConfig::default())?;
            }
        }
        let start = tuples.first().map(|t| t.time).unwrap_or(TimeStamp::ZERO);
        self.mode = Mode::Playback {
            tuples,
            slots: Vec::new(),
            cursor: 0,
            time: start,
            current: Vec::new(),
        };
        // Resolve every tuple's signal slot up front; the per-step
        // replay loop then indexes instead of searching by name.
        self.refresh_wiring();
        Ok(())
    }

    /// Enters playback mode over any [`TupleSource`] — a
    /// [`crate::TupleReader`] over a text file, or a `gstore`
    /// store reader positioned by a seek, so `replay --from T` starts
    /// mid-recording without materializing what came before.
    ///
    /// # Errors
    ///
    /// Propagates source errors and [`Scope::set_playback_mode`]
    /// errors.
    pub fn set_playback_source(&mut self, source: &mut dyn TupleSource) -> Result<()> {
        let tuples = source.collect_tuples()?;
        self.set_playback_mode(tuples)
    }

    /// Starts acquisition — `gtk_scope_start_polling` (Figure 6).
    ///
    /// In the stopped state after [`Scope::set_polling_mode`], begins
    /// polling; a prepared playback resumes where it stopped.
    pub fn start(&mut self) {
        if matches!(self.mode, Mode::Stopped) {
            self.mode = Mode::Polling;
        }
    }

    /// Stops acquisition; ticks are ignored until restarted.
    pub fn stop(&mut self) {
        if matches!(self.mode, Mode::Polling) {
            self.mode = Mode::Stopped;
        }
    }

    /// Returns the acquisition mode name (`"stopped"`, `"polling"`,
    /// `"playback"`).
    pub fn mode_name(&self) -> &'static str {
        self.mode.name()
    }

    /// True while playback has tuples left to replay.
    pub fn playback_active(&self) -> bool {
        matches!(&self.mode, Mode::Playback { tuples, cursor, .. } if *cursor < tuples.len())
    }

    // ----- scope parameters (§2's widgets) -----

    /// Returns the sampling period.
    pub fn period(&self) -> TimeDelta {
        self.period
    }

    /// Changes the sampling period (the sampling-period widget).
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::OutOfRange`] for a zero period.
    pub fn set_period(&mut self, period: TimeDelta) -> Result<()> {
        if period.is_zero() {
            return Err(ScopeError::OutOfRange {
                what: "polling period",
                value: 0.0,
            });
        }
        self.period = period;
        Ok(())
    }

    /// Returns the zoom factor (default 1.0).
    pub fn zoom(&self) -> f64 {
        self.zoom
    }

    /// Sets the zoom factor (the zoom widget); legal in `[0.01, 100]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::OutOfRange`] outside the legal range.
    pub fn set_zoom(&mut self, zoom: f64) -> Result<()> {
        if !zoom.is_finite() || !(0.01..=100.0).contains(&zoom) {
            return Err(ScopeError::OutOfRange {
                what: "zoom",
                value: zoom,
            });
        }
        self.zoom = zoom;
        Ok(())
    }

    /// Returns the bias (default 0.0).
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Sets the bias (the bias widget); legal in `[-1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::OutOfRange`] outside the legal range.
    pub fn set_bias(&mut self, bias: f64) -> Result<()> {
        if !bias.is_finite() || !(-1.0..=1.0).contains(&bias) {
            return Err(ScopeError::OutOfRange {
                what: "bias",
                value: bias,
            });
        }
        self.bias = bias;
        Ok(())
    }

    /// Returns the buffered-signal display delay (the delay widget).
    pub fn delay(&self) -> TimeDelta {
        self.buffer.delay()
    }

    /// Sets the buffered-signal display delay.
    pub fn set_delay(&mut self, delay: TimeDelta) {
        self.buffer.set_delay(delay);
    }

    /// Returns the scope-wide sample buffer for `BUFFER` signals.
    ///
    /// Clone it and hand it to producer threads or the network server.
    pub fn buffer(&self) -> &ScopeBuffer {
        &self.buffer
    }

    /// Maps a raw signal value to a display fraction in `[0, 1]`
    /// (0 = canvas bottom, 1 = top) applying the signal's min/max and
    /// the scope's zoom and bias.
    pub fn display_fraction(&self, config: &SigConfig, v: f64) -> f64 {
        (self.zoom * config.normalize(v) + self.bias).clamp(0.0, 1.0)
    }

    // ----- triggers and envelopes (§6 extensions) -----

    /// Installs a trigger sourced from `signal` — all traces align to
    /// its most recent trigger point.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] if absent.
    pub fn set_trigger(&mut self, signal: &str, trigger: Trigger) -> Result<()> {
        if self.signal(signal).is_none() {
            return Err(ScopeError::UnknownSignal(signal.into()));
        }
        self.trigger = Some((signal.to_owned(), trigger));
        Ok(())
    }

    /// Removes the trigger.
    pub fn clear_trigger(&mut self) {
        self.trigger = None;
    }

    /// Returns the installed trigger, if any.
    pub fn trigger(&self) -> Option<(&str, &Trigger)> {
        self.trigger.as_ref().map(|(n, t)| (n.as_str(), t))
    }

    /// Enables envelope accumulation for a signal.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] if absent.
    pub fn enable_envelope(&mut self, name: &str) -> Result<()> {
        if self.signal(name).is_none() {
            return Err(ScopeError::UnknownSignal(name.into()));
        }
        self.envelopes
            .entry(name.to_owned())
            .or_insert_with(|| Envelope::new(self.width));
        Ok(())
    }

    /// Installs a pre-computed envelope for a signal — the vehicle for
    /// level-of-detail playback, where min/max columns come straight
    /// off disk and the renderer must not re-decimate.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] if absent.
    pub fn set_envelope(&mut self, name: &str, envelope: Envelope) -> Result<()> {
        if self.signal(name).is_none() {
            return Err(ScopeError::UnknownSignal(name.into()));
        }
        self.envelopes.insert(name.to_owned(), envelope);
        Ok(())
    }

    /// Stops and clears envelope accumulation for a signal.
    pub fn disable_envelope(&mut self, name: &str) {
        self.envelopes.remove(name);
    }

    /// Returns the accumulated envelope for a signal, if enabled.
    pub fn envelope(&self, name: &str) -> Option<&Envelope> {
        self.envelopes.get(name)
    }

    // ----- recording (§3.1, §3.3) -----

    /// Starts recording every polled sample as §3.3 text tuples to a
    /// byte sink (a `File`, a socket, a `Vec<u8>`).
    pub fn start_recording<W>(&mut self, sink: W)
    where
        W: Write + Send + 'static,
    {
        self.start_recording_sink(TupleWriter::new(sink));
    }

    /// Starts recording into any [`TupleSink`] — e.g. a `gstore::Store`
    /// for a segmented, crash-safe, seekable recording instead of a
    /// flat text stream.
    pub fn start_recording_sink<S: TupleSink + 'static>(&mut self, sink: S) {
        self.recorder = Some(Box::new(sink));
        self.recording_error = None;
    }

    /// Stops recording, flushing and returning the sink.
    ///
    /// A flush failure is latched exactly like a tick-time write
    /// failure: the sink is still returned, but
    /// [`Scope::recording_error`] (and `ScopeStats::recording_failed`)
    /// report it.
    pub fn stop_recording(&mut self) -> Option<Box<dyn TupleSink>> {
        let mut w = self.recorder.take()?;
        if let Err(e) = w.flush() {
            self.recording_error = Some(e.to_string());
            self.telemetry.record_errors.inc();
        }
        Some(w)
    }

    /// True while a recorder is attached.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// The error that stopped a recording, if one occurred.
    pub fn recording_error(&self) -> Option<&str> {
        self.recording_error.as_deref()
    }

    // ----- the tick -----

    /// Advances the scope by one timeout dispatch.
    ///
    /// Wire this to a [`MainLoop`] timeout (see [`attach_scope`]) or
    /// call it directly in tests. Missed periods reported by the loop
    /// advance every trace by the missed amount first (§4.5), keeping
    /// the x-axis truthful.
    pub fn tick(&mut self, info: &TickInfo) {
        match &mut self.mode {
            Mode::Stopped => {}
            Mode::Polling => self.poll_tick(info),
            Mode::Playback { .. } => self.playback_tick(info),
        }
    }

    fn poll_tick(&mut self, info: &TickInfo) {
        let _span = gtel::span("scope.tick", self.telemetry.ticks.get() + 1);
        let poll_started = std::time::Instant::now();
        self.telemetry.ticks.inc();
        if info.missed > 0 {
            self.telemetry.ticks_missed.add(info.missed);
            for sig in &mut self.signals {
                sig.advance_held(info.missed);
            }
        }
        // Drain the scope-wide buffer up to now - delay and route the
        // samples to their signals (§3.1 buffered signals). The drain
        // target and per-signal routing vectors are reused across
        // ticks, so steady-state routing allocates nothing.
        let cutoff = info.now.saturating_sub(self.buffer.delay());
        self.drain_buf.clear();
        self.buffer.drain_until_into(cutoff, &mut self.drain_buf);
        for values in &mut self.routed {
            values.clear();
        }
        for t in &self.drain_buf {
            let name = t.name.as_deref().unwrap_or(UNNAMED_SIGNAL);
            if let Some(&idx) = self.route.get(name) {
                self.routed[idx].push(t.value);
            }
        }
        // Lateness attribution: this tick drained buffered samples for
        // these signals — the drain leg of any hub-stamped chain.
        let e2e = gtel::e2e();
        if e2e.is_active() {
            let drain_us = gtel::fast_now_ns() / 1_000;
            for (name, &idx) in &self.route {
                if !self.routed[idx].is_empty() {
                    e2e.note_drain(name, drain_us);
                }
            }
        }
        let period = self.period;
        for (i, sig) in self.signals.iter_mut().enumerate() {
            let sig_started = std::time::Instant::now();
            sig.tick(period, &self.routed[i]);
            self.sig_tel[i].record_duration(sig_started.elapsed());
        }
        self.telemetry.buffer_depth.set_count(self.buffer.len());
        self.record_tick(info.now);
        self.update_envelopes();
        self.telemetry
            .poll_ns
            .record_duration(poll_started.elapsed());
    }

    fn playback_tick(&mut self, info: &TickInfo) {
        let _span = gtel::span("scope.tick", self.telemetry.ticks.get() + 1);
        let Mode::Playback {
            tuples,
            slots,
            cursor,
            time,
            current,
        } = &mut self.mode
        else {
            return;
        };
        self.telemetry.ticks.inc();
        if info.missed > 0 {
            self.telemetry.ticks_missed.add(info.missed);
        }
        // Advance playback time by (1 + missed) periods, consuming
        // tuples that became due: one pixel per period (§3.1/§3.3).
        // Tuple→signal slots were resolved at set_playback_mode (and on
        // every signal-set change), so each step is index arithmetic —
        // no name lookups, no snapshots, no allocation.
        let steps = 1 + info.missed;
        for _ in 0..steps {
            while *cursor < tuples.len() && tuples[*cursor].time <= *time {
                let slot = slots[*cursor];
                if slot != UNROUTED {
                    current[slot as usize] = Some(tuples[*cursor].value);
                }
                *cursor += 1;
            }
            for (sig, v) in self.signals.iter_mut().zip(current.iter()) {
                sig.push_playback(*v);
            }
            *time += self.period;
        }
        if *cursor >= tuples.len() {
            let last = tuples.last().map(|t| t.time).unwrap_or(TimeStamp::ZERO);
            // Stop once the stream is exhausted and either nothing is
            // live any more (empty stream, or every routed signal was
            // removed mid-replay) or the display has scrolled past the
            // last tuple: freeze the display.
            let nothing_live = current.iter().all(|v| v.is_none());
            if nothing_live || *time > last + self.period {
                self.mode = Mode::Stopped;
            }
        }
        self.update_envelopes();
    }

    fn record_tick(&mut self, now: TimeStamp) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let _span = gtel::span("scope.record", self.telemetry.record_tuples.get());
        let write_started = std::time::Instant::now();
        let bytes_before = rec.bytes_written();
        let mut failed = None;
        let mut written = 0u64;
        for sig in &self.signals {
            if let Some(Some(v)) = sig.history().latest() {
                if let Err(e) = rec.write_parts(now, v, Some(sig.name())) {
                    failed = Some(e.to_string());
                    break;
                }
                written += 1;
            }
        }
        self.telemetry.record_tuples.add(written);
        let bytes_after = rec.bytes_written();
        self.telemetry
            .record_write_ns
            .record_duration(write_started.elapsed());
        self.telemetry
            .record_bytes
            .add(bytes_after.saturating_sub(bytes_before));
        if let Some(msg) = failed {
            self.recorder = None;
            self.recording_error = Some(msg);
            self.telemetry.record_errors.inc();
        }
    }

    fn update_envelopes(&mut self) {
        if self.envelopes.is_empty() {
            return;
        }
        // Split borrow: the envelope map is mutated while the signal
        // histories and trigger are only read — distinct fields, so
        // each sweep is folded in without cloning names or windows.
        let signals = &self.signals;
        let trigger = self.trigger.as_ref();
        let width = self.width;
        for (name, env) in &mut self.envelopes {
            env.accumulate_cols(display_cols_in(signals, trigger, width, name));
        }
    }

    /// Exports the currently displayed histories as ordered tuples —
    /// §6's "printing of recorded data" without having had a recorder
    /// attached. Column `i` of a window of length `n` is stamped
    /// `now − (n − 1 − i)·period`; empty columns are skipped.
    ///
    /// # Errors
    ///
    /// Propagates write errors from `sink`.
    pub fn dump_tuples<W: std::io::Write>(&self, sink: W) -> Result<u64> {
        let mut w = TupleWriter::new(sink);
        let now = self.clock.now();
        let mut count = 0u64;
        // Emit column by column so times are non-decreasing across
        // signals, reading each history in place — no window clones,
        // no per-tuple name or line allocations.
        let longest = self
            .signals
            .iter()
            .map(|sig| sig.history().len())
            .max()
            .unwrap_or(0);
        for col in 0..longest {
            for sig in &self.signals {
                // Right-align shorter histories to "now".
                let offset = longest - sig.history().len();
                if col < offset {
                    continue;
                }
                if let Some(Some(v)) = sig.history().get(col - offset) {
                    let age = (longest - 1 - col) as u64;
                    let t = now.saturating_sub(self.period.saturating_mul(age));
                    w.write_parts(t, v, Some(sig.name()))?;
                    count += 1;
                }
            }
        }
        w.flush()?;
        Ok(count)
    }

    // ----- display extraction (consumed by grender) -----

    /// Returns the columns to draw for `name` as a borrowed [`Cols`]
    /// view — trigger-aligned when a trigger is installed,
    /// right-aligned to the canvas otherwise. Zero-copy: the view
    /// borrows the signal's ring buffer in place.
    ///
    /// Unknown signals (and a Normal-mode trigger that has never
    /// fired) yield an empty view.
    pub fn display_cols(&self, name: &str) -> Cols<'_> {
        display_cols_in(&self.signals, self.trigger.as_ref(), self.width, name)
    }

    /// Runs `f` over the borrowed display window for `name` — the
    /// closure form of [`Scope::display_cols`], for callers that want
    /// the borrow scoped rather than returned.
    pub fn with_display_window<R>(&self, name: &str, f: impl FnOnce(Cols<'_>) -> R) -> R {
        f(self.display_cols(name))
    }

    /// Returns the columns to draw for `name`, trigger-aligned when a
    /// trigger is installed, right-aligned to the canvas otherwise.
    ///
    /// Unknown signals yield an empty vector.
    #[deprecated(note = "clones the window every call; use Scope::display_cols or \
                Scope::with_display_window for a zero-copy view")]
    pub fn display_window(&self, name: &str) -> Vec<Option<f64>> {
        self.display_cols(name).to_vec()
    }

    /// Computes a signal's frequency-domain view (§3.1) over the last
    /// `n` display samples.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] or an FFT length error
    /// mapped to [`ScopeError::OutOfRange`].
    pub fn spectrum(&self, name: &str, n: usize, config: SpectrumConfig) -> Result<Vec<Bin>> {
        let sig = self
            .signal(name)
            .ok_or_else(|| ScopeError::UnknownSignal(name.into()))?;
        sig.spectrum(n, config).map_err(|_| ScopeError::OutOfRange {
            what: "spectrum size",
            value: n as f64,
        })
    }

    /// Measures between two cursor columns of a signal's display
    /// window (x positions as column indices, oldest-first; both
    /// clamped to the window).
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] if absent, or
    /// [`ScopeError::OutOfRange`] when the window is empty or the slice
    /// contains no values.
    pub fn measure(&self, name: &str, x1: usize, x2: usize) -> Result<Measurement> {
        if self.signal(name).is_none() {
            return Err(ScopeError::UnknownSignal(name.into()));
        }
        let window = self.display_cols(name);
        if window.is_empty() {
            return Err(ScopeError::OutOfRange {
                what: "measurement window",
                value: 0.0,
            });
        }
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let lo = lo.min(window.len() - 1);
        let hi = hi.min(window.len() - 1);
        // Value at a cursor: nearest non-empty column at or before it.
        let value_at = |x: usize| window.slice(0, x + 1).iter().rev().find_map(|v| v);
        let (Some(v1), Some(v2)) = (value_at(lo), value_at(hi)) else {
            return Err(ScopeError::OutOfRange {
                what: "measurement cursors",
                value: lo as f64,
            });
        };
        let slice: Vec<f64> = window.slice(lo, hi + 1).iter().flatten().collect();
        if slice.is_empty() {
            return Err(ScopeError::OutOfRange {
                what: "measurement slice",
                value: lo as f64,
            });
        }
        let min = slice.iter().copied().fold(f64::INFINITY, f64::min);
        let max = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = slice.iter().sum::<f64>() / slice.len() as f64;
        Ok(Measurement {
            dt: self.period.saturating_mul((hi - lo) as u64),
            dv: v2 - v1,
            min,
            max,
            mean,
            samples: slice.len(),
        })
    }

    /// The Value-button readout for a signal.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::UnknownSignal`] if absent.
    pub fn value_readout(&self, name: &str) -> Result<Option<f64>> {
        self.signal(name)
            .map(|s| s.value_readout())
            .ok_or_else(|| ScopeError::UnknownSignal(name.into()))
    }
}

/// Display-window extraction shared by [`Scope::display_cols`] and the
/// envelope update, which must read windows while holding `&mut` on the
/// envelope map (a split borrow over the scope's fields).
fn display_cols_in<'a>(
    signals: &'a [Signal],
    trigger: Option<&(String, Trigger)>,
    width: usize,
    name: &str,
) -> Cols<'a> {
    let find = |n: &str| signals.iter().find(|s| s.name() == n);
    let Some(sig) = find(name) else {
        return Cols::EMPTY;
    };
    let full = sig.history().cols();
    let Some((trig_name, trig)) = trigger else {
        return full;
    };
    let Some(trig_sig) = find(trig_name) else {
        return full;
    };
    let trig_hist = trig_sig.history().cols();
    // Align every trace by the same distance from the newest column:
    // the window for all traces ends where the trigger source last
    // fired.
    let end_in_trig = match trig.find_last_cols(trig_hist) {
        Some(i) => i + 1,
        None => match trig.mode {
            crate::trigger::TriggerMode::Auto => trig_hist.len(),
            crate::trigger::TriggerMode::Normal => return Cols::EMPTY,
        },
    };
    let end_offset = trig_hist.len() - end_in_trig;
    let end = full.len().saturating_sub(end_offset);
    let start = end.saturating_sub(width);
    full.slice(start, end)
}

/// Cursor-measurement results over a display-window slice.
///
/// Real oscilloscopes provide measurement cursors: two x positions and
/// the Δt/ΔV (plus slice statistics) between them. [`Scope::measure`]
/// is the programmatic equivalent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Time between the two cursors (columns × period).
    pub dt: TimeDelta,
    /// Value difference `v(x2) − v(x1)` (nearest non-empty column at or
    /// before each cursor).
    pub dv: f64,
    /// Smallest value in the slice.
    pub min: f64,
    /// Largest value in the slice.
    pub max: f64,
    /// Mean over non-empty columns in the slice.
    pub mean: f64,
    /// Non-empty columns in the slice.
    pub samples: usize,
}

/// A scope shared between the event loop and application threads
/// (§4.3's threading models).
pub type SharedScope = Arc<Mutex<Scope>>;

/// Wires a shared scope to a main loop: installs a periodic timeout at
/// the scope's period that drives [`Scope::tick`].
///
/// If the scope's period changes, the source reinstalls itself at the
/// new rate automatically. Returns the initial source id.
pub fn attach_scope(scope: &SharedScope, ml: &mut MainLoop) -> SourceId {
    let period = scope.lock().period();
    let scope2 = Arc::clone(scope);
    let handle = ml.handle();
    ml.add_timeout(
        period,
        Box::new(move |tick| {
            let mut guard = scope2.lock();
            guard.tick(tick);
            let current = guard.period();
            drop(guard);
            if current != period {
                let scope3 = Arc::clone(&scope2);
                handle.invoke(move |ml| {
                    attach_scope(&scope3, ml);
                });
                return Continue::Remove;
            }
            Continue::Keep
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::IntVar;
    use gel::{Quantizer, VirtualClock};

    fn tick_at(ms: u64) -> TickInfo {
        TickInfo {
            now: TimeStamp::from_millis(ms),
            scheduled: TimeStamp::from_millis(ms),
            missed: 0,
        }
    }

    fn scope_with_int(width: usize) -> (Scope, IntVar) {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("test", width, 100, clock);
        let v = IntVar::new(0);
        scope
            .add_signal("v", v.clone().into(), SigConfig::default())
            .unwrap();
        scope.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
        scope.start();
        (scope, v)
    }

    #[test]
    fn polling_fills_history() {
        let (mut scope, v) = scope_with_int(8);
        for i in 0..5 {
            v.set(i);
            scope.tick(&tick_at(50 * (i as u64 + 1)));
        }
        assert_eq!(
            scope.display_cols("v").to_vec(),
            vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0), Some(4.0)]
        );
        assert_eq!(scope.stats().ticks, 5);
    }

    #[test]
    fn signal_set_changes_move_the_buffer_epoch() {
        let (mut scope, _v) = scope_with_int(8);
        let producer = scope.buffer().clone();
        let e0 = producer.signals_epoch();
        scope
            .add_signal("w", SigSource::Buffer, SigConfig::default())
            .unwrap();
        let e1 = producer.signals_epoch();
        assert_ne!(e1, e0, "add_signal moves the epoch a clone sees");
        assert!(scope
            .add_signal("w", SigSource::Buffer, SigConfig::default())
            .is_err());
        assert!(scope.remove_signal("nope").is_err());
        assert_eq!(producer.signals_epoch(), e1, "failed changes do not");
        scope.remove_signal("w").unwrap();
        assert_ne!(producer.signals_epoch(), e1, "remove_signal moves it");
    }

    #[test]
    fn stopped_scope_ignores_ticks() {
        let (mut scope, _v) = scope_with_int(8);
        scope.stop();
        scope.tick(&tick_at(50));
        assert_eq!(scope.stats().ticks, 0);
        assert!(scope.display_cols("v").to_vec().is_empty());
        scope.start();
        scope.tick(&tick_at(100));
        assert_eq!(scope.stats().ticks, 1);
    }

    #[test]
    fn missed_ticks_advance_display() {
        let (mut scope, v) = scope_with_int(16);
        v.set(7);
        scope.tick(&tick_at(50));
        // The loop reports 3 missed periods: the display advances 3
        // held columns plus the new sample.
        let mut info = tick_at(250);
        info.missed = 3;
        v.set(9);
        scope.tick(&info);
        assert_eq!(
            scope.display_cols("v").to_vec(),
            vec![Some(7.0), Some(7.0), Some(7.0), Some(7.0), Some(9.0)]
        );
        assert_eq!(scope.stats().missed_ticks, 3);
    }

    #[test]
    fn duplicate_and_unknown_signals_error() {
        let (mut scope, _v) = scope_with_int(8);
        let err = scope
            .add_signal("v", IntVar::new(0).into(), SigConfig::default())
            .unwrap_err();
        assert!(matches!(err, ScopeError::DuplicateSignal(_)));
        assert!(scope.remove_signal("nope").is_err());
        scope.remove_signal("v").unwrap();
        assert_eq!(scope.signal_count(), 0);
    }

    #[test]
    fn buffered_signal_respects_delay() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("buf", 8, 100, Arc::clone(&clock) as Arc<dyn Clock>);
        scope
            .add_signal("b", SigSource::Buffer, SigConfig::default())
            .unwrap();
        scope.set_delay(TimeDelta::from_millis(100));
        scope.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
        scope.start();
        scope
            .buffer()
            .push_sample("b", TimeStamp::from_millis(40), 5.0);
        // At t=50, cutoff = -50: nothing visible yet.
        scope.tick(&tick_at(50));
        assert_eq!(scope.display_cols("b").to_vec(), vec![None]);
        // At t=150, cutoff = 50 >= 40: the sample appears.
        scope.tick(&tick_at(150));
        assert_eq!(scope.display_cols("b").to_vec(), vec![None, Some(5.0)]);
    }

    #[test]
    fn recording_writes_tuples() {
        let (mut scope, v) = scope_with_int(8);
        let sink: Vec<u8> = Vec::new();
        let shared = Arc::new(Mutex::new(sink));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        scope.start_recording(SharedWriter(Arc::clone(&shared)));
        v.set(3);
        scope.tick(&tick_at(50));
        v.set(4);
        scope.tick(&tick_at(100));
        scope.stop_recording();
        let text = String::from_utf8(shared.lock().clone()).unwrap();
        assert_eq!(text, "50.000 3 v\n100.000 4 v\n");
        assert_eq!(scope.stats().recorded_tuples, 2);
        assert!(!scope.is_recording());
    }

    /// A sink that accepts `good_writes` tuples, then fails every
    /// write; flush fails when `fail_flush` is set.
    struct FailingSink {
        good_writes: usize,
        fail_flush: bool,
        writes: usize,
    }

    impl crate::tuple::TupleSink for FailingSink {
        fn write_parts(&mut self, _t: TimeStamp, _v: f64, _n: Option<&str>) -> Result<()> {
            self.writes += 1;
            if self.writes > self.good_writes {
                return Err(ScopeError::Io(std::io::Error::other("disk full")));
            }
            Ok(())
        }
        fn flush(&mut self) -> Result<()> {
            if self.fail_flush {
                return Err(ScopeError::Io(std::io::Error::other("flush failed")));
            }
            Ok(())
        }
        fn bytes_written(&self) -> u64 {
            self.writes as u64
        }
    }

    #[test]
    fn failed_write_drops_recorder_and_latches_error() {
        let (mut scope, v) = scope_with_int(8);
        scope.start_recording_sink(FailingSink {
            good_writes: 1,
            fail_flush: false,
            writes: 0,
        });
        v.set(1);
        scope.tick(&tick_at(50));
        assert!(scope.is_recording(), "first write succeeded");
        assert!(!scope.stats().recording_failed);
        v.set(2);
        scope.tick(&tick_at(100));
        // The dead sink must be gone, the error latched, and the stats
        // flag visible — the documented error path.
        assert!(!scope.is_recording(), "failed sink must be dropped");
        assert!(scope.recording_error().unwrap().contains("disk full"));
        assert!(scope.stats().recording_failed);
        // Subsequent ticks are fine (no recorder), and a fresh
        // recording clears the latched error.
        v.set(3);
        scope.tick(&tick_at(150));
        scope.start_recording(Vec::new());
        assert!(scope.recording_error().is_none());
        assert!(!scope.stats().recording_failed);
    }

    #[test]
    fn scope_stats_are_the_registry_counts() {
        let clock = VirtualClock::new();
        let mut scope = Scope::new("single", 8, 100, Arc::new(clock.clone()));
        let registry = gtel::Registry::shared();
        scope.set_telemetry(Arc::clone(&registry));
        let v = IntVar::new(0);
        scope
            .add_signal("v", v.clone().into(), SigConfig::default())
            .unwrap();
        scope
            .add_signal("b", SigSource::Buffer, SigConfig::default())
            .unwrap();
        scope.set_delay(TimeDelta::from_millis(10));
        scope.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
        scope.start();
        scope.start_recording_sink(FailingSink {
            good_writes: 3,
            fail_flush: false,
            writes: 0,
        });
        for (ms, missed) in [(50, 0), (200, 2), (250, 0), (300, 1)] {
            v.set(ms as i64);
            clock.set(TimeStamp::from_millis(ms));
            assert!(!scope.buffer().push_sample("b", TimeStamp::ZERO, 1.0));
            scope.tick(&TickInfo {
                missed,
                ..tick_at(ms)
            });
        }
        let s = scope.stats();
        assert_eq!((s.ticks, s.missed_ticks, s.late_drops), (4, 3, 4));
        assert_eq!(s.recorded_tuples, 3);
        assert!(s.recording_failed && scope.recording_error().is_some());
        for (name, field) in [
            ("scope.ticks", s.ticks),
            ("scope.ticks.missed", s.missed_ticks),
            ("scope.record.tuples", s.recorded_tuples),
            ("scope.buffer.late_drops", s.late_drops),
            ("scope.record.errors", u64::from(s.recording_failed)),
        ] {
            match registry.get(name) {
                Some(gtel::Metric::Counter(c)) => assert_eq!(c.get(), field, "{name}"),
                other => panic!("{name} is not a registered counter: {other:?}"),
            }
        }
    }

    #[test]
    fn flush_failure_at_stop_is_latched() {
        let (mut scope, v) = scope_with_int(8);
        scope.start_recording_sink(FailingSink {
            good_writes: usize::MAX,
            fail_flush: true,
            writes: 0,
        });
        v.set(1);
        scope.tick(&tick_at(50));
        let sink = scope.stop_recording();
        assert!(sink.is_some(), "sink is still returned");
        assert!(scope.recording_error().unwrap().contains("flush failed"));
        assert!(scope.stats().recording_failed);
    }

    #[test]
    fn playback_from_source_matches_playback_mode() {
        let data = "0 1 s\n100 2 s\n";
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("pb", 16, 100, clock);
        scope.set_period(TimeDelta::from_millis(50)).unwrap();
        let mut reader = crate::tuple::TupleReader::new(data.as_bytes());
        scope
            .set_playback_source(&mut reader as &mut dyn TupleSource)
            .unwrap();
        scope.start();
        for i in 1..=3 {
            scope.tick(&tick_at(50 * i));
        }
        assert_eq!(
            scope.display_cols("s").to_vec(),
            vec![Some(1.0), Some(1.0), Some(2.0)]
        );
    }

    #[test]
    fn playback_replays_with_sample_and_hold() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("pb", 16, 100, clock);
        scope.set_period(TimeDelta::from_millis(50)).unwrap();
        // §3.3's example: points 100 ms apart at 50 ms period land 2
        // pixels apart.
        let tuples = vec![
            Tuple::new(TimeStamp::from_millis(0), 1.0, "s"),
            Tuple::new(TimeStamp::from_millis(100), 2.0, "s"),
        ];
        scope.set_playback_mode(tuples).unwrap();
        assert_eq!(scope.signal_names(), vec!["s".to_owned()]);
        scope.start();
        for i in 1..=3 {
            scope.tick(&tick_at(50 * i));
        }
        assert_eq!(
            scope.display_cols("s").to_vec(),
            vec![Some(1.0), Some(1.0), Some(2.0)]
        );
    }

    #[test]
    fn playback_unnamed_tuples_use_default_signal() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("pb", 8, 100, clock);
        scope
            .set_playback_mode(vec![
                Tuple::unnamed(TimeStamp::ZERO, 9.0),
                Tuple::unnamed(TimeStamp::from_millis(50), 8.0),
            ])
            .unwrap();
        scope.start();
        scope.tick(&tick_at(50));
        assert_eq!(scope.display_cols(UNNAMED_SIGNAL).to_vec(), vec![Some(9.0)]);
    }

    #[test]
    fn playback_rejects_unordered() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("pb", 8, 100, clock);
        let err = scope
            .set_playback_mode(vec![
                Tuple::unnamed(TimeStamp::from_millis(10), 1.0),
                Tuple::unnamed(TimeStamp::ZERO, 2.0),
            ])
            .unwrap_err();
        assert!(matches!(err, ScopeError::TupleOrder { .. }));
    }

    #[test]
    fn playback_stops_past_stream_end() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("pb", 8, 100, clock);
        scope.set_period(TimeDelta::from_millis(50)).unwrap();
        scope
            .set_playback_mode(vec![Tuple::new(TimeStamp::ZERO, 1.0, "s")])
            .unwrap();
        scope.start();
        for i in 1..=10 {
            scope.tick(&tick_at(50 * i));
        }
        assert_eq!(scope.mode_name(), "stopped");
        let window = scope.display_cols("s").to_vec();
        assert!(window.len() < 10, "display froze after stream end");
    }

    #[test]
    fn playback_stops_when_signals_removed_mid_replay() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("pb", 8, 100, clock);
        scope.set_period(TimeDelta::from_millis(50)).unwrap();
        scope
            .set_playback_mode(vec![
                Tuple::new(TimeStamp::ZERO, 1.0, "a"),
                Tuple::new(TimeStamp::from_millis(50), 2.0, "b"),
            ])
            .unwrap();
        scope.start();
        scope.tick(&tick_at(50));
        // Both stream signals vanish mid-replay: once the stream is
        // exhausted, nothing is live and playback must reach Stopped
        // instead of replaying held values forever.
        scope.remove_signal("a").unwrap();
        scope.remove_signal("b").unwrap();
        for i in 2..=4 {
            scope.tick(&tick_at(50 * i));
        }
        assert_eq!(scope.mode_name(), "stopped");
        assert!(!scope.playback_active());
    }

    #[test]
    fn playback_survives_partial_signal_removal() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("pb", 16, 100, clock);
        scope.set_period(TimeDelta::from_millis(50)).unwrap();
        scope
            .set_playback_mode(vec![
                Tuple::new(TimeStamp::ZERO, 1.0, "a"),
                Tuple::new(TimeStamp::ZERO, 10.0, "b"),
                Tuple::new(TimeStamp::from_millis(100), 2.0, "a"),
                Tuple::new(TimeStamp::from_millis(100), 20.0, "b"),
            ])
            .unwrap();
        scope.start();
        scope.tick(&tick_at(50));
        // Dropping "b" re-resolves the remaining tuples' slots; "a"
        // keeps its sample-and-hold value across the re-index.
        scope.remove_signal("b").unwrap();
        scope.tick(&tick_at(100));
        scope.tick(&tick_at(150));
        assert_eq!(
            scope.display_cols("a").to_vec(),
            vec![Some(1.0), Some(1.0), Some(2.0)]
        );
    }

    #[test]
    fn zoom_bias_validation_and_transform() {
        let (mut scope, _v) = scope_with_int(8);
        assert!(scope.set_zoom(0.0).is_err());
        assert!(scope.set_bias(2.0).is_err());
        scope.set_zoom(2.0).unwrap();
        scope.set_bias(-0.5).unwrap();
        let cfg = SigConfig::default(); // range 0..100
                                        // v=50 → norm 0.5 → 2*0.5 - 0.5 = 0.5.
        assert_eq!(scope.display_fraction(&cfg, 50.0), 0.5);
        // v=100 → 2*1 - 0.5 = 1.5 → clamped 1.0.
        assert_eq!(scope.display_fraction(&cfg, 100.0), 1.0);
    }

    #[test]
    fn trigger_aligns_display_window() {
        let (mut scope, v) = scope_with_int(8);
        // Sawtooth 0..3 twice, then partial.
        let vals = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1];
        for (i, &x) in vals.iter().enumerate() {
            v.set(x);
            scope.tick(&tick_at(50 * (i as u64 + 1)));
        }
        scope.set_trigger("v", Trigger::rising(3.0)).unwrap();
        let w = scope.display_cols("v").to_vec();
        // Window ends at the most recent rising crossing of 3 (the
        // second "3", two columns before the end).
        assert_eq!(w.last(), Some(&Some(3.0)));
        scope.clear_trigger();
        assert_eq!(scope.display_cols("v").to_vec().last(), Some(&Some(1.0)));
    }

    #[test]
    fn display_accessors_agree() {
        let (mut scope, v) = scope_with_int(6);
        for (i, x) in [0, 1, 2, 3, 0, 1, 2, 3].into_iter().enumerate() {
            v.set(x);
            scope.tick(&tick_at(50 * (i as u64 + 1)));
        }
        scope.set_trigger("v", Trigger::rising(3.0)).unwrap();
        #[allow(deprecated)]
        let cloned = scope.display_window("v");
        assert_eq!(scope.display_cols("v").to_vec(), cloned);
        let via_closure = scope.with_display_window("v", |cols| cols.to_vec());
        assert_eq!(via_closure, cloned);
        assert!(scope.display_cols("nope").is_empty());
    }

    #[test]
    fn envelope_accumulates_over_ticks() {
        let (mut scope, v) = scope_with_int(4);
        scope.enable_envelope("v").unwrap();
        for (i, x) in [5, 9, 2, 7].into_iter().enumerate() {
            v.set(x);
            scope.tick(&tick_at(50 * (i as u64 + 1)));
        }
        let env = scope.envelope("v").unwrap();
        assert_eq!(env.sweeps(), 4);
        // Newest column saw values 5, 9, 2, 7 as the trace scrolled.
        assert_eq!(env.band(3), Some((2.0, 9.0)));
        scope.disable_envelope("v");
        assert!(scope.envelope("v").is_none());
    }

    #[test]
    fn attach_scope_drives_ticks_and_period_change() {
        let clock = VirtualClock::new();
        let mut ml = MainLoop::with_quantizer(Arc::new(clock.clone()), Quantizer::exact());
        let scope = {
            let mut s = Scope::new("att", 32, 100, Arc::new(clock.clone()));
            let v = IntVar::new(1);
            s.add_signal("v", v.into(), SigConfig::default()).unwrap();
            s.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
            s.start();
            s.into_shared()
        };
        attach_scope(&scope, &mut ml);
        ml.run_until(TimeStamp::from_millis(260));
        assert_eq!(scope.lock().stats().ticks, 5);
        // Change the period: the source reinstalls at 10 ms.
        scope.lock().set_period(TimeDelta::from_millis(10)).unwrap();
        ml.run_until(TimeStamp::from_millis(500));
        let ticks = scope.lock().stats().ticks;
        assert!(
            ticks > 20,
            "faster period should add many ticks, got {ticks}"
        );
    }

    #[test]
    fn resize_preserves_newest_columns() {
        let (mut scope, v) = scope_with_int(10);
        for i in 0..10 {
            v.set(i);
            scope.tick(&tick_at(50 * (i as u64 + 1)));
        }
        scope.enable_envelope("v").unwrap();
        scope.tick(&tick_at(550));
        scope.set_size(4, 80).unwrap();
        assert_eq!(scope.width(), 4);
        let w = scope.display_cols("v").to_vec();
        assert_eq!(w.len(), 4, "history shrank to the new width");
        assert_eq!(w.last(), Some(&Some(9.0)), "newest column kept");
        assert_eq!(
            scope.envelope("v").unwrap().width(),
            4,
            "envelope restarted at the new width"
        );
        assert!(scope.set_size(0, 10).is_err());
        // Growing keeps data and allows longer histories.
        scope.set_size(16, 80).unwrap();
        scope.tick(&tick_at(600));
        assert_eq!(scope.display_cols("v").to_vec().len(), 5);
    }

    #[test]
    fn measurement_cursors() {
        let (mut scope, v) = scope_with_int(16);
        for i in 0..10 {
            v.set(i * 5);
            scope.tick(&tick_at(50 * (i as u64 + 1)));
        }
        // Cursors at columns 2 and 8: 6 periods apart, v 10 -> 40.
        let m = scope.measure("v", 2, 8).unwrap();
        assert_eq!(m.dt, TimeDelta::from_millis(300));
        assert_eq!(m.dv, 30.0);
        assert_eq!(m.min, 10.0);
        assert_eq!(m.max, 40.0);
        assert_eq!(m.samples, 7);
        assert!((m.mean - 25.0).abs() < 1e-9);
        // Reversed and clamped cursors work.
        assert_eq!(scope.measure("v", 8, 2).unwrap(), m);
        let clamped = scope.measure("v", 0, 999).unwrap();
        assert_eq!(clamped.dv, 45.0);
        // Errors.
        assert!(scope.measure("nope", 0, 1).is_err());
    }

    #[test]
    fn measurement_skips_gaps_via_nearest_value() {
        let clock = Arc::new(VirtualClock::new());
        let mut scope = Scope::new("m", 8, 60, clock);
        scope
            .add_signal("e", SigSource::Events, SigConfig::default())
            .unwrap();
        scope.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
        scope.start();
        let sink = scope.event_sink("e").unwrap();
        // Tick 1 has an event; ticks 2-3 are quiet (hold); 4 has one.
        sink.push(7.0);
        scope.tick(&tick_at(50));
        scope.tick(&tick_at(100));
        scope.tick(&tick_at(150));
        sink.push(9.0);
        scope.tick(&tick_at(200));
        let m = scope.measure("e", 0, 3).unwrap();
        assert_eq!(m.dv, 2.0);
        assert_eq!(m.samples, 4, "hold fills the quiet ticks");
        // An all-gap prefix errors cleanly.
        let mut empty = Scope::new("x", 4, 60, Arc::new(VirtualClock::new()));
        empty
            .add_signal("q", SigSource::Buffer, SigConfig::default())
            .unwrap();
        empty.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
        empty.start();
        empty.tick(&tick_at(50));
        assert!(empty.measure("q", 0, 0).is_err());
    }

    #[test]
    fn dump_tuples_exports_display_in_time_order() {
        let clock = VirtualClock::new();
        let mut scope = Scope::new("dump", 8, 100, Arc::new(clock.clone()));
        let v = IntVar::new(0);
        scope
            .add_signal("v", v.clone().into(), SigConfig::default())
            .unwrap();
        scope.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
        scope.start();
        for i in 0..5 {
            v.set(i * 10);
            let t = TimeStamp::from_millis(50 * (i as u64 + 1));
            clock.set(t);
            scope.tick(&TickInfo {
                now: t,
                scheduled: t,
                missed: 0,
            });
        }
        let mut out = Vec::new();
        let n = scope.dump_tuples(&mut out).unwrap();
        assert_eq!(n, 5);
        let text = String::from_utf8(out.clone()).unwrap();
        // Round-trips through the reader, ordered, and replayable.
        let tuples = crate::tuple::TupleReader::new(out.as_slice())
            .read_all()
            .unwrap();
        assert_eq!(tuples.len(), 5);
        assert_eq!(tuples[0].value, 0.0);
        assert_eq!(tuples[4].value, 40.0);
        assert!(text.lines().all(|l| l.ends_with(" v")));
        // Newest column is stamped "now" (250 ms), oldest 4 periods
        // earlier.
        assert_eq!(tuples[4].time, TimeStamp::from_millis(250));
        assert_eq!(tuples[0].time, TimeStamp::from_millis(50));
    }

    #[test]
    fn value_readout_and_spectrum_errors() {
        let (mut scope, v) = scope_with_int(64);
        v.set(42);
        scope.tick(&tick_at(50));
        assert_eq!(scope.value_readout("v").unwrap(), Some(42.0));
        assert!(scope.value_readout("zz").is_err());
        assert!(scope.spectrum("v", 64, SpectrumConfig::default()).is_ok());
        assert!(scope.spectrum("v", 63, SpectrumConfig::default()).is_err());
        assert!(scope.spectrum("zz", 64, SpectrumConfig::default()).is_err());
    }
}
