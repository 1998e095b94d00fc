//! The runtime signal object — the library's `GtkScopeSignal` (§2).
//!
//! A [`Signal`] owns its data source, per-interval event accumulator,
//! low-pass filter, and per-pixel display history. The scope drives it
//! once per polling period via [`Signal::tick`].

use std::sync::Arc;

use gdsp::{power_spectrum, Bin, LowPass, SpectrumConfig};
use gel::TimeDelta;
use parking_lot::Mutex;

use crate::aggregate::EventAccumulator;
use crate::config::{Color, SigConfig};
use crate::error::Result;
use crate::history::History;
use crate::intern::intern;
use crate::source::SigSource;

/// A cloneable handle applications use to push event samples into a
/// signal from any thread (§4.2 "Event Aggregation").
///
/// Events are reduced to one display sample per polling interval by the
/// signal's [`Aggregation`](crate::aggregate::Aggregation).
#[derive(Clone)]
pub struct EventSink {
    acc: Arc<Mutex<EventAccumulator>>,
}

impl EventSink {
    /// Records one event value.
    pub fn push(&self, value: f64) {
        self.acc.lock().push(value);
    }

    /// Records an event with value 1 (pure occurrence counting, for
    /// `Events` / `AnyEvent` aggregations).
    pub fn mark(&self) {
        self.push(1.0);
    }
}

/// One displayed signal: source, config, filter, and pixel history.
pub struct Signal {
    name: Arc<str>,
    source: SigSource,
    config: SigConfig,
    /// Resolved trace color (config color or assigned palette entry).
    color: Color,
    filter: LowPass,
    acc: Arc<Mutex<EventAccumulator>>,
    history: History,
    /// Most recent raw (pre-filter) sample, for the Value button.
    last_raw: Option<f64>,
    /// Ticks processed.
    ticks: u64,
}

impl Signal {
    /// Creates a signal.
    ///
    /// `palette_index` picks the automatic color when the config does
    /// not specify one; `width` is the display history capacity in
    /// pixels.
    ///
    /// # Errors
    ///
    /// Returns a config validation error (bad α or range).
    pub fn new(
        name: impl AsRef<str>,
        source: SigSource,
        config: SigConfig,
        palette_index: usize,
        width: usize,
    ) -> Result<Self> {
        config.validate()?;
        let color = config
            .color
            .unwrap_or_else(|| Color::palette(palette_index));
        let filter = LowPass::new(config.filter_alpha).expect("alpha validated");
        let acc = Arc::new(Mutex::new(EventAccumulator::new(config.aggregation)));
        Ok(Signal {
            name: intern(name.as_ref()),
            source,
            config,
            color,
            filter,
            acc,
            history: History::new(width),
            last_raw: None,
            ticks: 0,
        })
    }

    /// Returns the signal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the interned name handle (cloning it is a refcount bump;
    /// the scope uses it to key its routing table).
    pub fn interned_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Returns the resolved trace color.
    pub fn color(&self) -> Color {
        self.color
    }

    /// Returns the display configuration.
    pub fn config(&self) -> &SigConfig {
        &self.config
    }

    /// Replaces the display configuration (the Figure 2 parameter
    /// window's OK button).
    ///
    /// Changing α re-seeds the filter; changing aggregation clears held
    /// event state.
    ///
    /// # Errors
    ///
    /// Returns a config validation error; the old config stays in
    /// effect.
    pub fn set_config(&mut self, config: SigConfig) -> Result<()> {
        config.validate()?;
        if config.filter_alpha != self.config.filter_alpha {
            self.filter = LowPass::new(config.filter_alpha).expect("alpha validated");
        }
        if config.aggregation != self.config.aggregation {
            self.acc.lock().set_aggregation(config.aggregation);
        }
        if let Some(c) = config.color {
            self.color = c;
        }
        self.config = config;
        Ok(())
    }

    /// Toggles visibility (left-click on the signal name, §2).
    pub fn toggle_hidden(&mut self) -> bool {
        self.config.hidden = !self.config.hidden;
        self.config.hidden
    }

    /// Toggles the Value readout (the Value button, §2).
    pub fn toggle_show_value(&mut self) -> bool {
        self.config.show_value = !self.config.show_value;
        self.config.show_value
    }

    /// Returns the event sink for this signal.
    ///
    /// Pushing events switches a polled signal to event-driven display
    /// (the source is no longer sampled).
    pub fn event_sink(&self) -> EventSink {
        EventSink {
            acc: Arc::clone(&self.acc),
        }
    }

    /// Returns the source type tag (`INTEGER`, `FUNC`, `BUFFER`, ...).
    pub fn source_type(&self) -> &'static str {
        self.source.type_name()
    }

    /// True if this signal's data comes from the scope-wide buffer.
    pub fn is_buffered(&self) -> bool {
        self.source.is_buffered()
    }

    /// Advances the signal by one polling period.
    ///
    /// `buffered` carries the values drained from the scope buffer for
    /// this signal this interval (empty for non-buffer signals). The
    /// sample passes through aggregation (event paths) and the low-pass
    /// filter before landing in the history.
    pub fn tick(&mut self, period: TimeDelta, buffered: &[f64]) {
        self.ticks += 1;
        let raw: Option<f64> = if self.source.is_buffered() {
            let mut acc = self.acc.lock();
            for &v in buffered {
                acc.push(v);
            }
            acc.finish_interval(period)
        } else {
            let mut acc = self.acc.lock();
            if acc.total_events() > 0 {
                // The application is pushing events: aggregate them.
                acc.finish_interval(period)
            } else {
                drop(acc);
                self.source.sample()
            }
        };
        if let Some(v) = raw {
            self.last_raw = Some(v);
            let filtered = self.filter.feed(v);
            self.history.push(Some(filtered));
        } else {
            self.history.push(None);
        }
    }

    /// Repeats the last column `n` times — how the scope "advances the
    /// scope refresh appropriately" after lost timeouts (§4.5).
    ///
    /// A signal showing a counting aggregation (sum, rate, events, any)
    /// instead gets `n` empty intervals: repeating its last column would
    /// count that interval's events again. Events that arrived during
    /// the missed periods land in the next tick's column.
    pub fn advance_held(&mut self, n: u64) {
        let counting = {
            let acc = self.acc.lock();
            (self.source.is_buffered() || acc.total_events() > 0)
                && !acc.aggregation().holds_when_empty()
        };
        if counting {
            for _ in 0..n {
                let filtered = self.filter.feed(0.0);
                self.history.push(Some(filtered));
            }
            return;
        }
        let held = self.history.latest().unwrap_or(None);
        for _ in 0..n {
            self.history.push(held);
        }
    }

    /// The most recent raw sample (the Value button readout).
    pub fn value_readout(&self) -> Option<f64> {
        self.last_raw
    }

    /// The display history (one column per pixel).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Resizes the history to a new canvas width.
    pub fn set_width(&mut self, width: usize) {
        self.history.set_capacity(width);
    }

    /// Clears history, filter, and readout state.
    pub fn reset(&mut self) {
        self.history.clear();
        self.filter.reset();
        self.last_raw = None;
        self.ticks = 0;
    }

    /// Computes the frequency-domain view over the last `n` samples
    /// (§3.1: signals "can be displayed in the time or frequency
    /// domain").
    ///
    /// `n` must be a power of two; fewer stored samples than `n` are
    /// zero-padded at the front so early spectra are still available.
    ///
    /// # Errors
    ///
    /// Returns an [`gdsp::FftError`] for invalid `n`.
    pub fn spectrum(
        &self,
        n: usize,
        config: SpectrumConfig,
    ) -> std::result::Result<Vec<Bin>, gdsp::FftError> {
        let mut vals = self.history.last_values(n);
        if vals.len() < n {
            let mut padded = vec![0.0; n - vals.len()];
            padded.append(&mut vals);
            vals = padded;
        }
        power_spectrum(&vals, config)
    }

    /// Directly pushes a display sample, bypassing source and filter —
    /// used by playback mode (§3.1), which replays already-recorded
    /// values.
    pub(crate) fn push_playback(&mut self, v: Option<f64>) {
        if let Some(x) = v {
            self.last_raw = Some(x);
        }
        self.history.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregation;
    use crate::value::IntVar;

    const P: TimeDelta = TimeDelta::from_millis(50);

    fn sig(source: SigSource, config: SigConfig) -> Signal {
        Signal::new("s", source, config, 0, 16).unwrap()
    }

    #[test]
    fn polled_signal_samples_each_tick() {
        let v = IntVar::new(1);
        let mut s = sig(v.clone().into(), SigConfig::default());
        s.tick(P, &[]);
        v.set(2);
        s.tick(P, &[]);
        assert_eq!(s.history().to_vec(), vec![Some(1.0), Some(2.0)]);
        assert_eq!(s.value_readout(), Some(2.0));
        assert_eq!(s.ticks(), 2);
    }

    #[test]
    fn filter_applies_to_display_not_readout() {
        let v = IntVar::new(0);
        let mut s = sig(v.clone().into(), SigConfig::default().with_filter(0.5));
        s.tick(P, &[]);
        v.set(10);
        s.tick(P, &[]);
        // y1 = 0.5*0 + 0.5*10 = 5, but the raw readout shows 10.
        assert_eq!(s.history().latest(), Some(Some(5.0)));
        assert_eq!(s.value_readout(), Some(10.0));
    }

    #[test]
    fn event_sink_overrides_polling() {
        let v = IntVar::new(99);
        let mut s = sig(
            v.into(),
            SigConfig::default().with_aggregation(Aggregation::Sum),
        );
        let sink = s.event_sink();
        sink.push(2.0);
        sink.push(3.0);
        s.tick(P, &[]);
        assert_eq!(s.history().latest(), Some(Some(5.0)), "sum of events");
        // Quiet interval: Sum reports 0, not the polled 99.
        s.tick(P, &[]);
        assert_eq!(s.history().latest(), Some(Some(0.0)));
    }

    #[test]
    fn pure_event_signal_gaps_before_first_event() {
        let mut s = sig(
            SigSource::Events,
            SigConfig::default().with_aggregation(Aggregation::Maximum),
        );
        s.tick(P, &[]);
        assert_eq!(s.history().latest(), Some(None), "no events yet: gap");
        let sink = s.event_sink();
        sink.push(7.0);
        sink.push(4.0);
        s.tick(P, &[]);
        assert_eq!(s.history().latest(), Some(Some(7.0)));
        // Hold across the quiet interval.
        s.tick(P, &[]);
        assert_eq!(s.history().latest(), Some(Some(7.0)));
    }

    #[test]
    fn buffered_signal_consumes_drained_values() {
        let mut s = sig(SigSource::Buffer, SigConfig::default());
        s.tick(P, &[1.0, 2.0, 3.0]);
        // Default SampleHold aggregation: last value in the interval.
        assert_eq!(s.history().latest(), Some(Some(3.0)));
        s.tick(P, &[]);
        assert_eq!(s.history().latest(), Some(Some(3.0)), "held");
    }

    #[test]
    fn advance_held_repeats_last_column() {
        let v = IntVar::new(4);
        let mut s = sig(v.into(), SigConfig::default());
        s.tick(P, &[]);
        s.advance_held(3);
        assert_eq!(s.history().len(), 4);
        assert_eq!(s.history().to_vec(), vec![Some(4.0); 4]);
    }

    #[test]
    fn advance_held_never_recounts_events() {
        let mut s = sig(
            SigSource::Events,
            SigConfig::default().with_aggregation(Aggregation::Sum),
        );
        let sink = s.event_sink();
        sink.push(2.0);
        s.tick(P, &[]);
        // Two periods lost while three more events arrive: the missed
        // columns are empty intervals, the events land in the next one.
        sink.push(1.0);
        sink.push(1.0);
        sink.push(1.0);
        s.advance_held(2);
        s.tick(P, &[]);
        assert_eq!(
            s.history().to_vec(),
            vec![Some(2.0), Some(0.0), Some(0.0), Some(3.0)]
        );

        let mut b = sig(
            SigSource::Buffer,
            SigConfig::default().with_aggregation(Aggregation::Events),
        );
        b.tick(P, &[5.0, 6.0]);
        b.advance_held(1);
        b.tick(P, &[7.0]);
        assert_eq!(b.history().to_vec(), vec![Some(2.0), Some(0.0), Some(1.0)]);
    }

    #[test]
    fn set_config_revalidates_and_reseeds() {
        let v = IntVar::new(1);
        let mut s = sig(v.into(), SigConfig::default());
        s.tick(P, &[]);
        assert!(s.set_config(SigConfig::default().with_filter(2.0)).is_err());
        s.set_config(SigConfig::default().with_filter(0.9).with_color(Color::RED))
            .unwrap();
        assert_eq!(s.color(), Color::RED);
        assert_eq!(s.config().filter_alpha, 0.9);
    }

    #[test]
    fn toggles() {
        let mut s = sig(IntVar::new(0).into(), SigConfig::default());
        assert!(s.toggle_hidden());
        assert!(!s.toggle_hidden());
        assert!(s.toggle_show_value());
    }

    #[test]
    fn spectrum_zero_pads_short_history() {
        let v = IntVar::new(3);
        let mut s = sig(v.into(), SigConfig::default());
        s.tick(P, &[]);
        let bins = s.spectrum(16, SpectrumConfig::default()).unwrap();
        assert_eq!(bins.len(), 9);
        assert!(s.spectrum(15, SpectrumConfig::default()).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let v = IntVar::new(5);
        let mut s = sig(v.into(), SigConfig::default().with_filter(0.5));
        s.tick(P, &[]);
        s.reset();
        assert!(s.history().is_empty());
        assert_eq!(s.value_readout(), None);
        assert_eq!(s.ticks(), 0);
    }

    #[test]
    fn palette_assignment_when_no_color() {
        let s = Signal::new("a", IntVar::new(0).into(), SigConfig::default(), 2, 8).unwrap();
        assert_eq!(s.color(), Color::palette(2));
    }
}
