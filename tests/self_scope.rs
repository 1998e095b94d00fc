//! Self-scoping integration: a second scope watches the first scope's
//! own telemetry, live, through ordinary `FUNC` signals.
//!
//! This is the observability counterpart of the paper's §4.5
//! microbenchmarks — instead of measuring gscope's overhead offline,
//! the stack measures itself with the same machinery it offers
//! applications: the event loop and the primary scope record into a
//! shared `gtel` registry, and a meta-scope polls that registry via
//! [`gscope::metric_signal`].

use std::sync::Arc;

use gel::{Clock, MainLoop, TimeDelta, TimeStamp, VirtualClock};
use gscope::{
    attach_scope, metric_signal, IntVar, Scope, SigConfig, Tuple, TupleReader, TupleWriter,
};
use gtel::{HistogramStat, Registry};

const PERIOD_MS: u64 = 10;
const RUN_MS: u64 = 500;

#[test]
fn meta_scope_watches_primary_scope_live() {
    // One registry for the whole "process": loop + primary scope.
    let registry = Registry::shared();
    let clock = VirtualClock::new();

    // The application scope, watching an ordinary application signal.
    let app_var = IntVar::new(21);
    let mut primary = Scope::new("primary", 320, 120, Arc::new(clock.clone()));
    primary.set_telemetry(Arc::clone(&registry));
    primary
        .add_signal("app", app_var.clone().into(), SigConfig::default())
        .unwrap();
    primary
        .set_polling_mode(TimeDelta::from_millis(PERIOD_MS))
        .unwrap();
    primary.start();
    let primary = primary.into_shared();

    // The loop records into the same registry; created before the
    // meta-scope so its metrics exist for metric_signal to find.
    let mut ml = MainLoop::new(Arc::new(clock.clone()));
    ml.set_telemetry(Arc::clone(&registry));

    // The meta-scope, watching the primary's telemetry. Its own
    // counters go to a private (default) registry so it does not
    // perturb the numbers it is displaying.
    let mut meta = Scope::new("meta", 320, 120, Arc::new(clock.clone()));
    meta.add_signal(
        "watched.ticks",
        metric_signal(&registry, "scope.ticks", HistogramStat::Count).unwrap(),
        SigConfig::default(),
    )
    .unwrap();
    meta.add_signal(
        "watched.poll_p99_ns",
        metric_signal(&registry, "scope.tick.poll_ns", HistogramStat::P99).unwrap(),
        SigConfig::default(),
    )
    .unwrap();
    meta.add_signal(
        "watched.loop_iters",
        metric_signal(&registry, "gel.loop.iterations", HistogramStat::Count).unwrap(),
        SigConfig::default(),
    )
    .unwrap();
    meta.set_polling_mode(TimeDelta::from_millis(PERIOD_MS))
        .unwrap();
    meta.start();
    let meta = meta.into_shared();

    attach_scope(&primary, &mut ml);
    attach_scope(&meta, &mut ml);
    ml.run_until(TimeStamp::from_millis(RUN_MS));

    // The loop instrumented itself into the shared registry.
    let expected_ticks = RUN_MS / PERIOD_MS;
    assert!(
        registry.counter("gel.loop.iterations").get() >= expected_ticks,
        "loop iterations recorded"
    );
    assert!(registry.histogram("gel.tick.lateness_ns").count() > 0);
    assert!(registry.histogram("gel.loop.iteration_ns").count() > 0);

    // The primary scope instrumented itself too: one poll histogram
    // sample per tick, plus the per-signal breakdown.
    let polls = registry.histogram("scope.tick.poll_ns").count();
    assert!(
        polls >= expected_ticks - 2,
        "primary recorded its polls: {polls}"
    );
    assert!(registry.histogram("scope.signal.app.poll_ns").count() > 0);

    // And the meta-scope *displayed* those numbers as live signals.
    let guard = meta.lock();
    let watched_ticks = guard
        .value_readout("watched.ticks")
        .unwrap()
        .expect("meta scope polled the tick counter");
    assert!(
        watched_ticks >= (expected_ticks - 2) as f64,
        "non-trivial readout: {watched_ticks}"
    );
    let poll_p99 = guard
        .value_readout("watched.poll_p99_ns")
        .unwrap()
        .expect("meta scope polled the poll-latency histogram");
    assert!(poll_p99 > 0.0, "real (wall-clock) poll latency: {poll_p99}");
    let loop_iters = guard
        .value_readout("watched.loop_iters")
        .unwrap()
        .expect("meta scope polled the loop counter");
    assert!(loop_iters > 0.0);

    // The watched counter is monotone across the displayed history —
    // the meta-scope saw the primary making progress, not one frozen
    // sample.
    let history: Vec<f64> = guard
        .signal("watched.ticks")
        .unwrap()
        .history()
        .last_values(usize::MAX);
    assert!(
        history.len() > 5,
        "several samples displayed: {}",
        history.len()
    );
    assert!(
        history.windows(2).all(|w| w[0] <= w[1]),
        "tick counter is monotone in the display: {history:?}"
    );
    let growth = history.last().unwrap() - history.first().unwrap();
    assert!(growth > 0.0, "the displayed counter advanced: {history:?}");
}

#[test]
fn stats_export_round_trips_through_tuple_format() {
    // Drive a scope for a while, export the registry it shares with
    // the loop as §3.3 tuples, write + re-read them through the tuple
    // codec, and check the stream carries the typed snapshots' numbers.
    let registry = Registry::shared();
    let clock = VirtualClock::new();
    let var = IntVar::new(3);
    let mut scope = Scope::new("export", 160, 80, Arc::new(clock.clone()));
    scope.set_telemetry(Arc::clone(&registry));
    scope
        .add_signal("v", var.into(), SigConfig::default())
        .unwrap();
    scope
        .set_polling_mode(TimeDelta::from_millis(PERIOD_MS))
        .unwrap();
    scope.start();
    let shared = scope.into_shared();
    let mut ml = MainLoop::new(Arc::new(clock.clone()));
    ml.set_telemetry(Arc::clone(&registry));
    attach_scope(&shared, &mut ml);
    ml.run_until(TimeStamp::from_millis(200));

    let now = clock.now();
    let lines = gtel::tuple_lines(&registry.snapshot(), now.as_millis_f64());
    let exported: Vec<Tuple> = TupleReader::new(lines.join("\n").as_bytes())
        .read_all()
        .unwrap();
    assert_eq!(exported.len(), lines.len());

    let mut w = TupleWriter::new(Vec::new());
    for t in &exported {
        w.write_tuple(t).unwrap();
    }
    let bytes = w.into_inner();
    let round: Vec<Tuple> = TupleReader::new(bytes.as_slice()).read_all().unwrap();
    assert_eq!(round, exported);

    let find = |name: &str| -> f64 {
        round
            .iter()
            .find(|t| t.name.as_deref() == Some(name))
            .unwrap_or_else(|| panic!("{name} missing from stream"))
            .value
    };
    let scope_stats = shared.lock().stats();
    let loop_stats = ml.stats();
    let ticks = find("scope.ticks");
    assert!(ticks >= 15.0, "scope ticked: {ticks}");
    assert_eq!(ticks, scope_stats.ticks as f64);
    assert_eq!(find("scope.ticks.missed"), scope_stats.missed_ticks as f64);
    assert_eq!(
        find("scope.buffer.late_drops"),
        scope_stats.late_drops as f64
    );
    assert_eq!(find("scope.record.errors"), 0.0);
    assert!(!scope_stats.recording_failed);
    assert_eq!(find("gel.loop.iterations"), loop_stats.iterations as f64);
    assert_eq!(
        find("gel.tick.dispatched"),
        loop_stats.timeouts_dispatched as f64
    );
    assert!(find("gel.loop.iterations") >= ticks, "loop drove the scope");
    assert!(round.iter().all(|t| t.time == now));
}
