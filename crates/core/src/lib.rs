//! `gscope` — an oscilloscope-like visualization library for
//! time-sensitive software.
//!
//! A from-scratch Rust reproduction of *"Gscope: A Visualization Tool
//! for Time-Sensitive Software"* (Ashvin Goel and Jonathan Walpole,
//! USENIX FREENIX Track, 2002). Gscope gives time-sensitive programs —
//! media players, schedulers, network stacks, control loops — an
//! embedded oscilloscope: signals are polled from live program state (or
//! pushed with timestamps), filtered, aggregated, displayed, recorded,
//! replayed, and streamed across machines, while control parameters let
//! the observer modify program behaviour in real time.
//!
//! # Crate map
//!
//! * [`Scope`] — the scope engine: signals, acquisition modes
//!   (polling/playback), period/delay/zoom/bias, recording, triggers.
//! * [`SigSource`] / [`IntVar`]-style shared variables — the paper's
//!   `INTEGER`/`BOOLEAN`/`SHORT`/`FLOAT`/`FUNC`/`BUFFER` signal types.
//! * [`SigConfig`] — per-signal color/range/line/hidden/α parameters.
//! * [`Aggregation`] — per-interval event aggregation (§4.2).
//! * [`ScopeBuffer`] — the scope-wide timestamped buffer with display
//!   delay and late-drop accounting (§3.1, §4.4).
//! * [`Parameter`] / [`ParamSet`] — read/write control parameters
//!   (§3.2).
//! * [`Tuple`] / [`TupleReader`] / [`TupleWriter`] — the textual
//!   `time value name` format (§3.3).
//! * [`Trigger`] / [`Envelope`] — the §6 future-work oscilloscope
//!   features, implemented.
//! * [`attach_scope`] — wire a scope to a `gel` main loop, the
//!   `gtk_timeout`-driven polling of the original.
//! * [`metric_signal`] — self-scoping: expose the
//!   stack's own `gtel` telemetry (tick jitter, buffer depth, poll
//!   latency) as signals a second scope can visualize live.
//!
//! # Example: the paper's Figure 6 program
//!
//! ```
//! use std::sync::Arc;
//! use gel::{MainLoop, TimeDelta, TimeStamp, VirtualClock};
//! use gscope::{attach_scope, IntVar, Scope, SigConfig};
//!
//! // int elephants;
//! let elephants = IntVar::new(8);
//!
//! // scope = gtk_scope_new(name, width, height);
//! let clock = VirtualClock::new();
//! let mut scope = Scope::new("mxtraf", 640, 480, Arc::new(clock.clone()));
//!
//! // gtk_scope_signal_new(scope, elephants_sig);  (min 0, max 40)
//! scope.add_signal(
//!     "elephants",
//!     elephants.clone().into(),
//!     SigConfig::default().with_range(0.0, 40.0),
//! ).unwrap();
//!
//! // gtk_scope_set_polling_mode(scope, 50); gtk_scope_start_polling(scope);
//! scope.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
//! scope.start();
//!
//! // gtk_main();
//! let shared = scope.into_shared();
//! let mut ml = MainLoop::new(Arc::new(clock.clone()));
//! attach_scope(&shared, &mut ml);
//! ml.run_until(TimeStamp::from_millis(500));
//!
//! assert_eq!(shared.lock().value_readout("elephants").unwrap(), Some(8.0));
//! ```

mod aggregate;
mod buffer;
mod config;
mod error;
mod history;
mod intern;
mod param;
mod scope;
mod signal;
mod source;
mod telemetry;
mod trigger;
mod tuple;
mod value;

pub use aggregate::{decimate_minmax, Aggregation, EventAccumulator};
pub use buffer::ScopeBuffer;
pub use config::{Color, LineMode, SigConfig};
pub use error::{Result, ScopeError};
pub use history::{Cols, History};
pub use intern::{intern, interned_count};
pub use param::{ParamBinding, ParamSet, ParamValue, Parameter};
pub use scope::{
    attach_scope, Measurement, Scope, ScopeStats, SharedScope, DEFAULT_PERIOD, UNNAMED_SIGNAL,
};
pub use signal::{EventSink, Signal};
pub use source::SigSource;
pub use telemetry::{metric_signal, ScopeTelemetry};
pub use trigger::{Envelope, Trigger, TriggerEdge, TriggerMode};
pub use tuple::{
    write_tuple_line, RawTuple, Tuple, TupleReader, TupleSink, TupleSource, TupleWriter,
};
pub use value::{BoolVar, FloatVar, IntVar, ShortVar};
