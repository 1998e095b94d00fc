//! `gscope-tool trace` and `gscope-tool health`: run the whole
//! pipeline — event loop, polled scope, frame cache, loopback gnet
//! link, gstore recording — under a thread-local tracer, then export
//! what happened.
//!
//! The loop runs on a virtual clock (deterministic tick count, no
//! sleeping), while span timestamps come from the wall clock — so the
//! spans measure *real* stage cost. That split is also what makes the
//! CI flight-recorder smoke deterministic: `--budget-us 0` clamps
//! every stage budget to 1ns, which any real stage exceeds, so the
//! first tick misses its deadline and triggers a post-mortem bundle
//! without any actual slowness or timing dependence.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use gel::{Continue, MainLoop, Priority, Quantizer, TimeDelta, TimeStamp, VirtualClock};
use gnet::{attach_server, ScopeClient, ScopeServer};
use gscope::{attach_scope, Scope, SigConfig, SigSource};
use gstore::{Compactor, CompactorConfig, FlightRecorder, Store, StoreConfig};
use gtel::{DeadlineMonitor, Registry, TraceLog};
use parking_lot::Mutex;

use crate::args::Args;
use crate::commands::CmdResult;

const TRACE_FLAGS: &[&str] = &[
    "ticks",
    "period",
    "signals",
    "budget-us",
    "window",
    "allow",
    "flight-dir",
    "max-bundles",
    "out",
    "top",
    "slow-tick",
    "slow-us",
    "no-net",
];

struct RunConfig {
    ticks: u64,
    period: TimeDelta,
    signals: usize,
    /// Override: the whole-iteration budget in µs; stage budgets
    /// scale proportionally. `Some(0)` clamps everything to 1ns.
    budget_us: Option<u64>,
    window: usize,
    allow: u64,
    flight_dir: Option<String>,
    max_bundles: u64,
    /// Make signal 0 sleep `slow_us` on poll number `slow_tick`.
    slow: Option<(u64, u64)>,
    net: bool,
}

impl RunConfig {
    fn from_args(args: &Args) -> Result<Self, Box<dyn std::error::Error>> {
        let slow_tick: u64 = args.get_or("slow-tick", 0)?;
        let slow_us: u64 = args.get_or("slow-us", 2_000)?;
        Ok(RunConfig {
            ticks: args.get_or("ticks", 40)?,
            period: TimeDelta::from_millis(args.get_or("period", 10)?),
            signals: args.get_or("signals", 3)?,
            budget_us: match args.get("budget-us") {
                Some(v) => Some(v.parse().map_err(|_| format!("bad --budget-us {v:?}"))?),
                None => None,
            },
            window: args.get_or("window", 20)?,
            allow: args.get_or("allow", 0)?,
            flight_dir: args.get("flight-dir").map(str::to_owned),
            max_bundles: args.get_or("max-bundles", 2)?,
            slow: (slow_tick > 0).then_some((slow_tick, slow_us)),
            net: !args.has("no-net"),
        })
    }
}

struct RunReport {
    log: Arc<TraceLog>,
    monitor: Arc<Mutex<DeadlineMonitor>>,
    bundles: Vec<PathBuf>,
    ticks: u64,
    recorded_tuples: u64,
    /// `store.lod.errors` after a compaction pass over the recording.
    lod_errors: u64,
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gtool-{tag}-{}-{:x}",
        std::process::id(),
        gtel::monotonic_ns()
    ))
}

/// Builds and runs the traced pipeline; see the module docs.
fn traced_run(cfg: &RunConfig) -> Result<RunReport, Box<dyn std::error::Error>> {
    // Exact newest-N retention makes the exports deterministic.
    let log = Arc::new(TraceLog::with_shards(65_536, 1));
    let _tracer = gtel::with_thread_tracer(Arc::clone(&log));
    let registry = Registry::shared();

    let clock = VirtualClock::new();
    let mut ml = MainLoop::with_quantizer(Arc::new(clock.clone()), Quantizer::exact());
    ml.set_telemetry(Arc::clone(&registry));

    // The scope under test: FUNC signals (plus a buffered one fed over
    // TCP), polling at the configured period, recording to a store so
    // scope.record / store.block spans appear under each tick.
    let mut scope = Scope::new("traced", 240, 120, Arc::new(clock.clone()));
    scope.set_telemetry(Arc::clone(&registry));
    for i in 0..cfg.signals {
        let freq = 0.5 + i as f64 * 0.7;
        let mut phase = 0.0f64;
        let mut calls = 0u64;
        let slow = cfg.slow.filter(|_| i == 0);
        let src = SigSource::func(move || {
            calls += 1;
            if let Some((at, us)) = slow {
                if calls == at {
                    // The forced slow tick: real wall time the span
                    // (and the deadline monitor) must see.
                    std::thread::sleep(Duration::from_micros(us));
                }
            }
            phase += 0.02 * freq;
            phase.sin() * 40.0 + 50.0
        });
        scope.add_signal(format!("wave{i}"), src, SigConfig::default())?;
    }
    if cfg.net {
        scope.add_signal("net.sig", SigSource::Buffer, SigConfig::default())?;
    }
    let store_dir = tmp_dir("trace-store");
    let store_cfg = StoreConfig {
        block_bytes: 512,
        block_frames: 8,
        ..StoreConfig::default()
    };
    scope.start_recording_sink(Store::open(&store_dir, store_cfg)?);
    scope.set_polling_mode(cfg.period)?;
    scope.start();
    let scope = scope.into_shared();

    // Loopback gnet link: the client send runs at High priority, so
    // on the same thread the bytes are already readable when this
    // iteration's I/O watch polls the server — net.server.poll lands
    // inside the same root span as the tick that consumes the data.
    let mut net_server = None;
    if cfg.net {
        let mut server = ScopeServer::bind("127.0.0.1:0")?;
        server.add_scope(Arc::clone(&scope));
        let local = server.local_addr()?;
        let server = Arc::new(Mutex::new(server));
        net_server = Some(Arc::clone(&server));
        let mut client = ScopeClient::connect(local)?;
        // Origin-stamp the loopback producer so hub ingest spans and
        // bundle clock rows carry its identity.
        client.set_node_id(2);
        let mut n = 0u64;
        ml.add_timeout_with_priority(
            cfg.period,
            Priority::High,
            Box::new(move |tick| {
                n += 1;
                client.send_parts(tick.now, (n % 100) as f64, Some("net.sig"));
                let _ = client.pump();
                Continue::Keep
            }),
        );
        attach_server(&server, &mut ml);
    }

    attach_scope(&scope, &mut ml);

    // Display refresh at Low priority, after the scope tick.
    let frames = Arc::new(Mutex::new(grender::FrameCache::new()));
    {
        let scope = Arc::clone(&scope);
        let frames = Arc::clone(&frames);
        ml.add_timeout_with_priority(
            cfg.period,
            Priority::Low,
            Box::new(move |_| {
                frames.lock().render(&scope.lock());
                Continue::Keep
            }),
        );
    }

    // Deadline monitor + flight recorder, last in the Low tier so it
    // observes everything this tick recorded.
    let period_ns = cfg.period.as_micros() * 1_000;
    let mut monitor_inner = DeadlineMonitor::for_period(&registry, period_ns, cfg.window);
    if let Some(us) = cfg.budget_us {
        monitor_inner.scale_budgets(us.saturating_mul(1_000), period_ns);
    }
    monitor_inner.set_breach_threshold(cfg.allow);
    let monitor = Arc::new(Mutex::new(monitor_inner));
    let flight = cfg.flight_dir.as_ref().map(|dir| {
        let mut fr = FlightRecorder::new(dir, 8);
        fr.set_max_bundles(cfg.max_bundles);
        // The traced pipeline plays the hub role in its bundles.
        fr.set_node_id(1);
        Arc::new(Mutex::new(fr))
    });
    let bundles: Arc<Mutex<Vec<PathBuf>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let monitor = Arc::clone(&monitor);
        let flight = flight.clone();
        let bundles = Arc::clone(&bundles);
        let log = Arc::clone(&log);
        let registry = Arc::clone(&registry);
        ml.add_timeout_with_priority(
            cfg.period,
            Priority::Low,
            Box::new(move |tick| {
                let misses = monitor.lock().scan(&log);
                if let Some(flight) = &flight {
                    let mut flight = flight.lock();
                    flight.note_stats(tick.now, &registry);
                    if let Some(server) = &net_server {
                        // Freeze each peer's wire-clock model so the
                        // bundle is mergeable by `trace merge`.
                        for info in server.lock().client_stats() {
                            if let Some(cs) = info.clock {
                                flight.note_clock(gstore::ClockRow {
                                    peer: info.peer,
                                    node_id: info.node_id,
                                    offset_us: cs.offset_us,
                                    rtt_us: cs.rtt_us,
                                    drift_ppm: cs.drift_ppm,
                                    error_us: cs.error_us,
                                    samples: cs.samples,
                                });
                            }
                        }
                    }
                    for miss in &misses {
                        // Every miss rides into the next bundle's
                        // `spans/` store as a `breach.<label>` tuple,
                        // making it searchable via `gtool query
                        // severity=breach`.
                        flight.note_breach(miss);
                    }
                    if let Some(miss) = misses.first() {
                        let reason = format!(
                            "deadline miss: {} took {}ns, budget {}ns",
                            miss.label, miss.duration_ns, miss.budget_ns
                        );
                        if let Ok(Some(info)) = flight.trigger(&reason, &log) {
                            bundles.lock().push(info.path);
                        }
                    }
                }
                Continue::Keep
            }),
        );
    }

    let horizon = TimeStamp::ZERO + cfg.period.saturating_mul(cfg.ticks) + cfg.period;
    ml.run_until(horizon);
    drop(ml);

    // Final scan: the last iteration's root span closed after the
    // in-loop monitor ran.
    monitor.lock().scan(&log);
    let recorded_tuples = scope.lock().stats().recorded_tuples;
    scope.lock().stop_recording();
    // One compaction pass over the recording, so health covers the
    // compactor: a failed pass is counted in the registry, which is
    // what health judges, so its `Err` needs no other handling here.
    let mut compactor = Compactor::new(&store_dir, CompactorConfig::default())?;
    compactor.set_telemetry(&registry);
    let _ = compactor.pass();
    let lod_errors = registry.counter("store.lod.errors").get();
    let _ = std::fs::remove_dir_all(&store_dir);

    let bundles = bundles.lock().clone();
    Ok(RunReport {
        log,
        monitor,
        bundles,
        ticks: cfg.ticks,
        recorded_tuples,
        lod_errors,
    })
}

fn run_summary(report: &RunReport) -> String {
    let mut out = format!(
        "traced {} ticks: {} span records ({} dropped), {} tuples recorded\n",
        report.ticks,
        report.log.recorded(),
        report.log.dropped(),
        report.recorded_tuples,
    );
    let monitor = report.monitor.lock();
    out.push_str(&format!(
        "deadline misses: {}{}\n",
        monitor.total_misses(),
        if monitor.breached() {
            " (SLO BREACH)"
        } else {
            ""
        }
    ));
    out.push_str(&format!("compactor errors: {}\n", report.lod_errors));
    for path in &report.bundles {
        out.push_str(&format!("post-mortem bundle: {}\n", path.display()));
    }
    out
}

/// `trace record|export|tree|slowest|merge [flags]` — run the
/// instrumented pipeline and export its spans, or merge frozen
/// bundles from several processes onto one timeline.
pub fn trace(args: &Args) -> CmdResult {
    args.check_known(TRACE_FLAGS)?;
    let sub = args.positional(0, "record|export|tree|slowest|merge")?;
    match sub {
        "merge" => crate::mergecmd::merge(args),
        "record" => {
            let cfg = RunConfig::from_args(args)?;
            let out = args.get("out").unwrap_or("trace.json");
            let report = traced_run(&cfg)?;
            std::fs::write(out, gtel::chrome_trace_json(&report.log.records()))?;
            let mut text = run_summary(&report);
            text.push_str(&format!(
                "wrote {out} — load it at https://ui.perfetto.dev or chrome://tracing\n"
            ));
            Ok(text)
        }
        "export" => {
            // With a bundle directory: dump its frozen trace instead
            // of running a fresh pipeline.
            let json = if let Ok(bundle) = args.positional(1, "bundle") {
                gstore::read_bundle(bundle)?.trace_json
            } else {
                let cfg = RunConfig::from_args(args)?;
                let report = traced_run(&cfg)?;
                gtel::chrome_trace_json(&report.log.records())
            };
            match args.get("out") {
                Some(out) => {
                    std::fs::write(out, json)?;
                    Ok(format!(
                        "wrote {out} — load it at https://ui.perfetto.dev or chrome://tracing\n"
                    ))
                }
                None => Ok(json),
            }
        }
        "tree" => {
            if let Ok(bundle) = args.positional(1, "bundle") {
                let summary = gstore::read_bundle(bundle)?;
                return Ok(summary.tree);
            }
            let cfg = RunConfig::from_args(args)?;
            let report = traced_run(&cfg)?;
            Ok(gtel::span_tree(&report.log.records()))
        }
        "slowest" => {
            let cfg = RunConfig::from_args(args)?;
            let top: usize = args.get_or("top", 10)?;
            let report = traced_run(&cfg)?;
            Ok(format!(
                "{}\n{}",
                run_summary(&report),
                gtel::slowest_spans(&report.log.records(), top)
            ))
        }
        other => Err(format!(
            "unknown trace subcommand {other:?} (record|export|tree|slowest|merge)"
        )
        .into()),
    }
}

/// `health [flags]` — run the instrumented pipeline and judge it
/// against the per-stage deadline budgets. A breached SLO window is
/// an `Err`, so the process exits non-zero (CI gate shape).
pub fn health(args: &Args) -> CmdResult {
    args.check_known(TRACE_FLAGS)?;
    let cfg = RunConfig::from_args(args)?;
    verdict(&traced_run(&cfg)?)
}

/// Health's judgement of one run: a breached SLO window or any
/// compactor error fails it.
fn verdict(report: &RunReport) -> CmdResult {
    let summary = run_summary(report);
    let monitor = report.monitor.lock();
    let text = format!("{}\n{}", summary.trim_end(), monitor.summary());
    if monitor.breached() {
        Err(format!("deadline SLO breached\n{text}").into())
    } else if report.lod_errors > 0 {
        Err(format!("compactor errors: {}\n{text}", report.lod_errors).into())
    } else {
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(s: &str) -> Args {
        Args::parse(
            s.split_whitespace().map(str::to_owned),
            crate::BOOLEAN_FLAGS,
        )
        .unwrap()
    }

    fn tmp_out(tag: &str) -> PathBuf {
        tmp_dir(tag)
    }

    #[test]
    fn trace_record_writes_chrome_json() {
        let dir = tmp_out("rec");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("trace.json");
        let report = trace(&args(&format!(
            "record --ticks 12 --period 5 --out {}",
            out.display()
        )))
        .unwrap();
        assert!(report.contains("traced 12 ticks"));
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"gel.iteration\""));
        assert!(json.contains("\"name\":\"scope.tick\""));
        assert!(json.contains("\"name\":\"render.frame\""));
        assert!(json.contains("\"name\":\"net.server.poll\""));
        assert!(json.contains("\"name\":\"store.block\""));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tight_budget_triggers_flight_bundle() {
        let dir = tmp_out("flight");
        let report = trace(&args(&format!(
            "record --ticks 10 --period 5 --budget-us 0 --flight-dir {} --out {}",
            dir.display(),
            dir.join("t.json").display()
        )))
        .unwrap();
        assert!(report.contains("post-mortem bundle"));
        let bundle = dir.join("postmortem-0000");
        let summary = gstore::read_bundle(&bundle).unwrap();
        assert!(summary.meta.contains("deadline miss"));
        assert!(summary.stats_tuples > 0);
        // Bundle-dir variants of export/tree read it back.
        let json = trace(&args(&format!("export {}", bundle.display()))).unwrap();
        assert!(json.contains("\"traceEvents\""));
        let tree = trace(&args(&format!("tree {}", bundle.display()))).unwrap();
        assert!(tree.contains("gel.iteration"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn health_passes_with_sane_budgets_and_fails_tight() {
        // 100ms budgets vs µs-scale stages: no misses. The period is
        // deliberately generous — this asserts budget semantics, and a
        // loaded test machine can stall any tick past a tight budget.
        let ok = health(&args("--ticks 8 --period 100")).unwrap();
        assert!(ok.contains("ok"));
        assert!(!ok.contains("BREACH"));
        // 1ns budgets: every tick misses, Err carries the table.
        let err = health(&args("--ticks 8 --period 10 --budget-us 0")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("deadline SLO breached"));
        assert!(text.contains("BREACH"));
    }

    #[test]
    fn health_fails_on_compactor_errors() {
        let cfg = RunConfig::from_args(&args("--ticks 4 --period 100 --no-net")).unwrap();
        let mut report = traced_run(&cfg).unwrap();
        assert_eq!(report.lod_errors, 0, "a clean recording compacts cleanly");
        assert!(verdict(&report).unwrap().contains("compactor errors: 0"));
        report.lod_errors = 2;
        let text = verdict(&report).unwrap_err().to_string();
        assert!(text.contains("compactor errors: 2"), "{text}");
    }

    #[test]
    fn slowest_surfaces_forced_slow_tick() {
        let report = trace(&args(
            "slowest --ticks 10 --period 5 --slow-tick 4 --slow-us 3000 --top 5",
        ))
        .unwrap();
        assert!(report.contains("scope.tick"));
        // The forced 3ms poll dominates every per-stage max.
        let tick_line = report
            .lines()
            .find(|l| l.trim_start().starts_with("scope.tick"))
            .unwrap();
        assert!(
            tick_line.contains("ms"),
            "slow tick not visible: {tick_line}"
        );
    }
}
