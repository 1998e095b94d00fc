//! Builds the real pipeline for one workload and runs its threads:
//!
//! ```text
//! generator ─producer─▶ hub shard ─▶ ScopeBuffer ─▶ tick ─▶ FrameCache
//!     ▲                    │ └─▶ store tee (history_store)
//!     └────subscriber──────┘
//! history_store only: viewer flush + zoom query + segment roll every
//!                     50 ms, compactor pass every 500 ms
//! ```
//!
//! The hub runs threaded with one shard; ticks and renders run on a gel
//! main loop timeout; the compactor and the viewer run on threads this
//! benchmark owns, side by side with no lock of their own, so queries
//! meet passes as they would in the program. Every layer is driven
//! through its public API.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gel::{Clock, Continue, LoopHandle, MainLoop, Quantizer, TimeDelta, TimeStamp};
use gnet::{HubConfig, Protocol, ScopeClient, ScopeServer};
use grender::{FrameCache, RenderStats};
use gscope::{Scope, SharedScope, SigConfig, SigSource};
use gstore::{Compactor, CompactorConfig, LodStats, Store, StoreConfig, StoreStats};
use gtel::TraceLog;
use netsim::{LinkClock, LinkConfig, SimConn};

use crate::load::{BenchClock, Generator, PhaseReport, PhaseSpec, Producer, Subscriber, EPOCH_US};
use crate::oracle::{check_query, signal_names, value_of, Counts, SubscriberCheck, Timeline};
use crate::os::thread_cpu_ns;

/// Scope polling period and display delay (§4.4: data later than the
/// delay is dropped).
pub const PERIOD: TimeDelta = TimeDelta::from_millis(10);
pub const DELAY: TimeDelta = TimeDelta::from_millis(100);
/// Display and query width in pixels.
pub const PX: usize = 1024;
/// Viewer query period (20 queries/s) and the short query's span.
const QUERY_EVERY: Duration = Duration::from_millis(50);
const RECENT_US: u64 = 10_000_000;
/// Compactor pass period.
const COMPACT_EVERY: Duration = Duration::from_millis(500);
/// Frames of prefilled, folded history in the `history_store` store.
pub const HISTORY_FRAMES: u64 = 10_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LiveTcp,
    HistoryStore,
    TextNetsim,
    /// `history_store` without the viewer's roll after each query: it
    /// reproduces the known store defect (see [`Workload::seals_after_query`])
    /// and is not one of the benchmark's workloads.
    HistoryRace,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "live_tcp" => Some(Workload::LiveTcp),
            "history_store" => Some(Workload::HistoryStore),
            "text_netsim" => Some(Workload::TextNetsim),
            "history_race" => Some(Workload::HistoryRace),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LiveTcp => "live_tcp",
            Workload::HistoryStore => "history_store",
            Workload::TextNetsim => "text_netsim",
            Workload::HistoryRace => "history_race",
        }
    }

    /// Nominal offered rate (tuples/s), well under each workload's
    /// capacity on a 2-vCPU host.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::LiveTcp => 500_000.0,
            Workload::HistoryStore | Workload::HistoryRace => 300_000.0,
            Workload::TextNetsim => 150_000.0,
        }
    }

    /// Set-ups per run; `setup_s` is their median. Without the
    /// history prefill a set-up takes milliseconds, so more of them
    /// steady the median.
    pub fn setups(self) -> usize {
        if self.tees_store() {
            3
        } else {
            31
        }
    }

    /// Whether the hub tees live tuples into a history store, which a
    /// compactor folds and a viewer queries.
    pub fn tees_store(self) -> bool {
        matches!(self, Workload::HistoryStore | Workload::HistoryRace)
    }

    /// Whether the viewer seals the store's open segment after each
    /// query, under the store lock. A query persists a `.gidx` sidecar
    /// for the open tier-0 segment it plans over, and the compactor
    /// takes a newest segment whose sidecar matches it for sealed: a
    /// pass that falls before the store's next block flush folds the
    /// open segment, moves the tier-1 watermark past it, and the tuples
    /// appended to it afterwards never reach tier 1 or above. Rolling
    /// the segment before the lock is released makes that sidecar a
    /// real seal, so passes and queries can still run side by side.
    pub fn seals_after_query(self) -> bool {
        self == Workload::HistoryStore
    }
}

/// One scope tick plus render, as the main loop ran it.
#[derive(Clone, Copy)]
pub struct TickSample {
    pub at_ns: u64,
    pub tick_ns: u64,
    pub render_ns: u64,
    /// Thread CPU inside tick and render (traced phases only).
    pub tick_cpu_ns: u64,
    pub render_cpu_ns: u64,
    /// Dispatch time minus the tick's scheduled time.
    pub late_us: u64,
    /// ScopeBuffer depth when the tick began.
    pub depth: usize,
}

/// One viewer query: store flush, then the zoom query.
#[derive(Clone, Copy)]
pub struct QuerySample {
    pub at_ns: u64,
    pub flush_ns: u64,
    pub query_ns: u64,
    pub flush_cpu_ns: u64,
    pub query_cpu_ns: u64,
    pub tier: u16,
    pub stats: LodStats,
}

/// One compactor pass.
#[derive(Clone, Copy)]
pub struct PassSample {
    pub at_ns: u64,
    pub dur_ns: u64,
    pub cpu_ns: u64,
    pub frames_in: u64,
}

/// State the pipeline threads share with the controller.
pub struct Shared {
    /// Record per-call CPU and spans.
    pub traced: AtomicBool,
    /// Viewer and compactor are running (off during set-up and idle).
    pub background: AtomicBool,
    stop: AtomicBool,
    pub ticks: Mutex<Vec<TickSample>>,
    pub render: Mutex<RenderStats>,
    pub queries: Mutex<Vec<QuerySample>>,
    pub passes: Mutex<Vec<PassSample>>,
    /// Failures found by the threads (each one fails the run).
    pub errors: Mutex<Vec<String>>,
    /// Viewer flushes or queries that returned an error (each one is a
    /// failed operation, not a wrong answer), with the bench-clock time.
    pub failed_queries: Mutex<Vec<u64>>,
    pub trace: Arc<TraceLog>,
}

impl Shared {
    /// `traced`: whether the run records spans. An untraced run gets a
    /// one-slot log: a full ring is ~12 MiB, touched when it is made,
    /// which would show in `setup_s` and `peak_rss_mb`.
    fn new(traced: bool) -> Shared {
        Shared {
            traced: AtomicBool::new(false),
            background: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            ticks: Mutex::default(),
            render: Mutex::default(),
            queries: Mutex::default(),
            passes: Mutex::default(),
            errors: Mutex::default(),
            failed_queries: Mutex::default(),
            trace: Arc::new(TraceLog::new(if traced { 1 << 17 } else { 1 })),
        }
    }

    fn error(&self, e: String) {
        self.errors.lock().expect("errors lock").push(e);
    }

    fn query_failed(&self, at_ns: u64, e: &str) {
        eprintln!("viewer: {e}");
        self.failed_queries
            .lock()
            .expect("failed queries lock")
            .push(at_ns);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

pub struct Pipeline {
    pub clock: Arc<BenchClock>,
    pub scope: SharedScope,
    pub server: Arc<ScopeServer>,
    pub shared: Arc<Shared>,
    /// The history store's directory (`history_store` only).
    pub store_dir: Option<PathBuf>,
    loop_handle: LoopHandle,
    threads: Vec<JoinHandle<()>>,
    gen_tx: Option<Sender<PhaseSpec>>,
    gen_rx: Receiver<PhaseReport>,
}

fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(f)
        .expect("spawn benchmark thread")
}

/// Appends `HISTORY_FRAMES` stream tuples evenly over the history span,
/// seals the segment and folds the whole zoom pyramid.
fn prefill(
    dir: &Path,
    seed: u64,
    timeline: &Timeline,
) -> Result<(Store, Compactor, Counts), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut store = Store::open(dir, StoreConfig::default()).map_err(|e| format!("{e}"))?;
    let names = signal_names();
    let mut counts = Counts::new(seed);
    let first_us = 1_000_000;
    let step_us = (EPOCH_US - 2 * first_us) / HISTORY_FRAMES;
    let mut marks = Vec::new();
    for i in 0..HISTORY_FRAMES {
        let (s, seq) = counts.next();
        let t = first_us + i * step_us;
        if Timeline::marks(seq) {
            marks.push((s, t));
        }
        store
            .append(
                TimeStamp::from_micros(t),
                value_of(seed, s, seq),
                Some(&names[s]),
            )
            .map_err(|e| format!("prefill append: {e}"))?;
    }
    timeline.record(&marks);
    store
        .roll_segment()
        .map_err(|e| format!("prefill roll: {e}"))?;
    let mut compactor =
        Compactor::new(dir, CompactorConfig::default()).map_err(|e| format!("{e}"))?;
    compactor
        .drain()
        .map_err(|e| format!("prefill fold: {e}"))?;
    Ok((store, compactor, counts))
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        if Instant::now() > deadline {
            return Err(format!("set-up: timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(20));
    }
    Ok(())
}

fn subscribed(server: &ScopeServer) -> bool {
    server.client_stats().iter().any(|c| c.subscribed)
}

impl Pipeline {
    /// Builds the pipeline; everything up to the point where load can
    /// begin. `dir`, for the history store, must not exist yet;
    /// `traced` sizes the span log (see [`Shared::new`]).
    pub fn setup(
        workload: Workload,
        seed: u64,
        dir: &Path,
        traced: bool,
    ) -> Result<Pipeline, String> {
        let timeline = Arc::new(Timeline::new());
        let history = if workload.tees_store() {
            Some(prefill(dir, seed, &timeline)?)
        } else {
            None
        };

        let clock = Arc::new(BenchClock::new());
        let dyn_clock: Arc<dyn Clock> = clock.clone();
        let mut scope = Scope::new("pipebench", PX, 200, Arc::clone(&dyn_clock));
        scope.set_delay(DELAY);
        let names = signal_names();
        for name in &names {
            scope
                .add_signal(name, SigSource::Buffer, SigConfig::default())
                .map_err(|e| format!("{e}"))?;
        }
        scope.set_polling_mode(PERIOD).map_err(|e| format!("{e}"))?;
        scope.start();
        let scope = scope.into_shared();

        let cfg = HubConfig {
            shards: 1,
            ..HubConfig::default()
        };
        let mut server =
            ScopeServer::with_config("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        server.add_scope(Arc::clone(&scope));
        let (stream, background) = match history {
            Some((store, compactor, stream)) => {
                server.set_store(store);
                (stream, Some(compactor))
            }
            None => (Counts::new(seed), None),
        };
        // Sim connections are parked on the shard before its thread
        // starts, so its first cycle adopts them. Parked later, they
        // would wait out the idle shard's readiness wait and pause
        // (about 1.3 ms) or not, as the race with the thread's start
        // fell, and set-up time would be bimodal.
        let sims = (workload == Workload::TextNetsim)
            .then(|| connect_sim(&server))
            .transpose()?;
        server.spawn_shards();
        let server = Arc::new(server);
        let (producer, subscriber) = match sims {
            Some(conns) => {
                wait_for("the text subscription", || subscribed(&server))?;
                conns
            }
            None => connect_tcp(&server)?,
        };

        let shared = Arc::new(Shared::new(traced));
        let mut threads = Vec::new();
        let loop_handle = start_loop(&dyn_clock, &clock, &scope, &shared, &mut threads);
        if let Some(compactor) = background {
            threads.push(start_compactor(compactor, &clock, &shared));
            threads.push(start_viewer(
                Arc::clone(&server),
                workload.seals_after_query(),
                seed,
                &stream,
                Arc::clone(&timeline),
                &clock,
                &shared,
            ));
        }

        let (gen_tx, cmd_rx) = channel();
        let (rep_tx, gen_rx) = channel();
        let generator = Generator {
            seed,
            clock: Arc::clone(&clock),
            producer,
            subscriber,
            names: names.iter().map(|n| Arc::from(n.as_str())).collect(),
            check: SubscriberCheck::new(seed, &stream),
            sent: stream,
            timeline: workload.tees_store().then_some(timeline),
            trace: Arc::clone(&shared.trace),
        };
        threads.push(spawn("pb-gen", move || generator.serve(cmd_rx, rep_tx)));
        Ok(Pipeline {
            clock,
            scope,
            server,
            shared,
            store_dir: workload.tees_store().then(|| dir.to_path_buf()),
            loop_handle,
            threads,
            gen_tx: Some(gen_tx),
            gen_rx,
        })
    }

    /// The history store's running totals, if the hub has a store.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.server.with_store(|s| s.stats())
    }

    /// Runs one load phase on the generator thread and waits for it.
    pub fn run_phase(&self, spec: PhaseSpec) -> Result<PhaseReport, String> {
        self.gen_tx
            .as_ref()
            .expect("generator running")
            .send(spec)
            .map_err(|_| "generator thread exited".to_string())?;
        self.gen_rx
            .recv()
            .map_err(|_| "generator thread exited".to_string())
    }

    /// Stops every thread and waits for each.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.shared.stop.store(true, Ordering::Release);
        self.loop_handle.quit();
        self.gen_tx = None;
        let mut panicked = 0;
        for t in self.threads.drain(..) {
            if t.join().is_err() {
                panicked += 1;
            }
        }
        if panicked > 0 {
            return Err(format!("{panicked} benchmark thread(s) panicked"));
        }
        Ok(())
    }
}

/// Opens the text producer and subscriber over netsim links and sends
/// the subscription.
fn connect_sim(server: &ScopeServer) -> Result<(Producer, Subscriber), String> {
    let (hub_p, prod) = SimConn::pair(LinkConfig::default(), LinkClock::real());
    let (hub_s, sub) = SimConn::pair(LinkConfig::default(), LinkClock::real());
    server.add_conn(Box::new(hub_p));
    server.add_conn(Box::new(hub_s));
    sub.write_bytes(format!("{}\n", gnet::wire::TEXT_SUB).as_bytes())
        .map_err(|e| format!("subscribe: {e}"))?;
    let producer = Producer::Sim {
        conn: prod,
        buf: Vec::new(),
        head: 0,
        sent: 0,
    };
    let subscriber = Subscriber::Sim {
        conn: sub,
        inbuf: Vec::new(),
        chunk: vec![0; 64 << 10],
        parse_errors: 0,
    };
    Ok((producer, subscriber))
}

/// Opens the binary producer and subscriber over loopback TCP and waits
/// until both are ready: binary negotiated, subscription registered.
fn connect_tcp(server: &ScopeServer) -> Result<(Producer, Subscriber), String> {
    let addr = server.local_addr().map_err(|e| format!("{e}"))?;
    let mut prod = ScopeClient::connect_binary(addr).map_err(|e| format!("connect: {e}"))?;
    prod.set_node_id(1);
    let mut sub = ScopeClient::connect_binary(addr).map_err(|e| format!("connect: {e}"))?;
    wait_for("binary negotiation", || {
        prod.pump();
        sub.pump();
        prod.negotiated() == Protocol::Binary && sub.negotiated() == Protocol::Binary
    })?;
    sub.subscribe();
    wait_for("the binary subscription", || {
        prod.pump();
        sub.pump();
        subscribed(server)
    })?;
    Ok((
        Producer::Tcp(Box::new(prod)),
        Subscriber::Tcp(Box::new(sub)),
    ))
}

/// The display: a main loop whose timeout ticks the scope and renders a
/// frame every period.
fn start_loop(
    dyn_clock: &Arc<dyn Clock>,
    clock: &Arc<BenchClock>,
    scope: &SharedScope,
    shared: &Arc<Shared>,
    threads: &mut Vec<JoinHandle<()>>,
) -> LoopHandle {
    let (tx, rx) = channel();
    let dyn_clock = Arc::clone(dyn_clock);
    let clock = Arc::clone(clock);
    let scope = Arc::clone(scope);
    let shared = Arc::clone(shared);
    threads.push(spawn("pb-loop", move || {
        let mut ml = MainLoop::with_quantizer(dyn_clock, Quantizer::LINUX_HZ100);
        let _ = tx.send(ml.handle());
        let mut cache = FrameCache::new();
        ml.add_timeout(
            PERIOD,
            Box::new(move |info| {
                let traced = shared.traced.load(Ordering::Relaxed);
                let cpu = || if traced { thread_cpu_ns() } else { 0 };
                let (c0, b0) = (cpu(), gtel::fast_now_ns());
                let mut g = scope.lock();
                let depth = g.buffer().len();
                g.tick(info);
                let (c1, b1) = (cpu(), gtel::fast_now_ns());
                cache.render(&g);
                drop(g);
                let (c2, b2) = (cpu(), gtel::fast_now_ns());
                if traced {
                    shared
                        .trace
                        .record_span_at("scope.tick", depth as u64, b0, b1);
                    shared.trace.record_span_at("render.frame", 0, b1, b2);
                }
                shared.ticks.lock().expect("ticks lock").push(TickSample {
                    at_ns: clock.now_ns(),
                    tick_ns: b1 - b0,
                    render_ns: b2 - b1,
                    tick_cpu_ns: c1 - c0,
                    render_cpu_ns: c2 - c1,
                    late_us: info.now.saturating_since(info.scheduled).as_micros(),
                    depth,
                });
                *shared.render.lock().expect("render lock") = cache.stats();
                Continue::Keep
            }),
        );
        ml.run();
    }));
    rx.recv().expect("main loop started")
}

/// Sleeps until `until` in short slices; false when stopped first.
fn sleep_until(until: Instant, shared: &Shared) -> bool {
    loop {
        if shared.stopped() {
            return false;
        }
        let now = Instant::now();
        if now >= until {
            return true;
        }
        std::thread::sleep((until - now).min(Duration::from_millis(20)));
    }
}

/// The background compactor: one pass every `COMPACT_EVERY`.
fn start_compactor(
    mut compactor: Compactor,
    clock: &Arc<BenchClock>,
    shared: &Arc<Shared>,
) -> JoinHandle<()> {
    let clock = Arc::clone(clock);
    let shared = Arc::clone(shared);
    spawn("pb-compact", move || {
        let mut next = Instant::now();
        loop {
            next += COMPACT_EVERY;
            if !sleep_until(next, &shared) {
                return;
            }
            if !shared.background.load(Ordering::Acquire) {
                continue;
            }
            let traced = shared.traced.load(Ordering::Relaxed);
            let c0 = thread_cpu_ns();
            let b0 = gtel::fast_now_ns();
            let pass = compactor.pass();
            let b1 = gtel::fast_now_ns();
            if traced {
                shared.trace.record_span_at("lod.pass", 0, b0, b1);
            }
            match pass {
                Ok(rep) => shared.passes.lock().expect("passes lock").push(PassSample {
                    at_ns: clock.now_ns(),
                    dur_ns: b1 - b0,
                    cpu_ns: thread_cpu_ns() - c0,
                    frames_in: rep.frames_in,
                }),
                Err(e) => shared.error(format!("compactor pass: {e}")),
            }
        }
    })
}

/// The history viewer: every `QUERY_EVERY`, flush the hub's store and
/// run a 1024-px zoom query (`Store::query`, which is
/// `gstore::lod::query` on the store's directory) for one signal,
/// alternating the full span and the newest 10 s, and check the answer
/// against the stream. With `seal`, roll the store's open segment after
/// the query (see [`Workload::seals_after_query`]).
fn start_viewer(
    server: Arc<ScopeServer>,
    seal: bool,
    seed: u64,
    stream: &Counts,
    timeline: Arc<Timeline>,
    clock: &Arc<BenchClock>,
    shared: &Arc<Shared>,
) -> JoinHandle<()> {
    let mut stream = stream.clone();
    let clock = Arc::clone(clock);
    let shared = Arc::clone(shared);
    let names = signal_names();
    let group = CompactorConfig::default().group;
    spawn("pb-viewer", move || {
        let mut k = 0u64;
        let mut next = Instant::now();
        loop {
            if !shared.background.load(Ordering::Acquire) {
                next = Instant::now() + QUERY_EVERY;
                if !sleep_until(Instant::now() + Duration::from_millis(5), &shared) {
                    return;
                }
                continue;
            }
            if !sleep_until(next, &shared) {
                return;
            }
            next += QUERY_EVERY;
            let full = k.is_multiple_of(2);
            let s = (k / 2) as usize % names.len();
            k += 1;
            let traced = shared.traced.load(Ordering::Relaxed);
            let (c0, b0) = (thread_cpu_ns(), gtel::fast_now_ns());
            // Flush and query under the hub's store lock, as
            // `Store::query` does: no tuple lands between the two, so
            // the flushed prefix is exactly what the query may see.
            let answer = server.with_store(|st| {
                st.flush().map_err(|e| format!("store flush: {e}"))?;
                let (c1, b1) = (thread_cpu_ns(), gtel::fast_now_ns());
                let frames = st.stats().frames_appended;
                let newest = st.last_time().ok_or("store is empty")?;
                let t0 = if full {
                    TimeStamp::from_micros(0)
                } else {
                    TimeStamp::from_micros(newest.as_micros().saturating_sub(RECENT_US))
                };
                let res = st
                    .query(Some(&names[s]), t0, newest, PX)
                    .map_err(|e| format!("zoom query: {e}"));
                let (c2, b2) = (thread_cpu_ns(), gtel::fast_now_ns());
                if seal {
                    st.roll_segment().map_err(|e| format!("store roll: {e}"))?;
                }
                Ok::<_, String>((c1, b1, c2, b2, frames, t0, newest, res))
            });
            let (c1, b1, c2, b2, frames, t0, newest, res) =
                match answer.unwrap_or_else(|| Err("hub lost its store".into())) {
                    Ok(a) => a,
                    Err(e) => {
                        shared.query_failed(clock.now_ns(), &e);
                        continue;
                    }
                };
            if traced {
                shared.trace.record_span_at("store.flush", frames, b0, b1);
                shared.trace.record_span_at("lod.query", s as u64, b1, b2);
            }
            let res = match res {
                Ok(r) => r,
                Err(e) => {
                    shared.query_failed(clock.now_ns(), &e);
                    continue;
                }
            };
            stream.advance_to(frames);
            let span = (t0.as_micros(), newest.as_micros());
            let checked = timeline.with(s, |times| {
                check_query(seed, s, &res, span, full, group, stream.of(s), |seq| {
                    Timeline::bracket(times, seq)
                })
            });
            if let Err(e) = checked {
                shared.error(format!(
                    "zoom query {}: {e}",
                    if full { "full" } else { "recent" }
                ));
            }
            shared
                .queries
                .lock()
                .expect("queries lock")
                .push(QuerySample {
                    at_ns: clock.now_ns(),
                    flush_ns: b1 - b0,
                    query_ns: b2 - b1,
                    flush_cpu_ns: c1 - c0,
                    query_cpu_ns: c2 - c1,
                    tier: res.tier,
                    stats: res.stats,
                });
        }
    })
}
