//! One pipeline benchmark for gscope: producer → wire → hub shard →
//! ScopeBuffer → tick → render, plus the store tee, the compactor and
//! zoom queries, driven through public APIs and measured from outside.
//!
//! ```text
//! pipebench --workload <live_tcp|history_store|text_netsim> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no per-call
//! timing; with `--trace 1` it measures the same nominal load twice, the
//! second half with spans and per-call thread CPU, then searches for
//! capacity, and reports the per-layer metrics. The last line of
//! standard output is one JSON
//! object; everything else goes to standard error and `.bench_out/`.
//! The run exits non-zero when any output check fails.

mod load;
mod oracle;
mod os;
mod pipeline;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use gnet::ServerStats;
use grender::RenderStats;

use load::{PhaseReport, PhaseSpec};
use pipeline::{Pipeline, Workload, DELAY};
use stats::{mean, median, quantile, ratio};

const WARMUP_SECS: f64 = 1.0;
const IDLE_SECS: f64 = 1.0;
/// Capacity search: probe length, step between rates, bisections.
const PROBE_SECS: f64 = 1.2;
const PROBE_STEP: f64 = 1.3;
const PROBE_MAX_STEPS: usize = 8;
const PROBE_ATTEMPTS: usize = 3;
const BISECTIONS: usize = 3;
/// Capacity limits: lost share, view-lag p99 (the display delay), and
/// the producer backlog that counts as growing.
const MAX_LOSS: f64 = 0.001;
const GROWING_BACKLOG_BYTES: usize = 64 << 10;
/// Latency statistics skip one-second windows in which the hypervisor
/// stole more than this share of the host's CPU (a quiet host steals
/// under 1%; a busy neighbour 10-40%, doubling tail latency), but
/// keep at least the `MIN_QUIET_WINDOWS` with the least steal.
/// Capacity probes that miss a limit under such steal are repeated.
const STEAL_LIMIT: f64 = 0.05;
const MIN_QUIET_WINDOWS: usize = 1;
/// `layers.unattributed_frac` must stay within this share of process
/// CPU in the traced run.
const UNATTRIBUTED_TOLERANCE: f64 = 0.10;
/// Tuples a store replay may lose at its rejoin boundary: those stamped
/// in the boundary's microsecond, a handful even at the highest rates
/// probed.
const REJOIN_TIES: u64 = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let w = get("--workload")?;
    let workload = Workload::parse(w).ok_or(format!("unknown workload {w}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Counters read before and after a measured window.
struct Snap {
    wall: Instant,
    bench_ns: u64,
    trace_ns: u64,
    proc_cpu: u64,
    threads: Vec<os::ThreadCpu>,
    server: ServerStats,
    late_drops: u64,
    /// Tuples the scope's tick has drained from its buffer so far.
    drained: u64,
    stages: [(u64, u64); 3],
    render: RenderStats,
    steal: (u64, u64),
}

fn snap(p: &Pipeline) -> Snap {
    let (late_drops, drained) = {
        let g = p.scope.lock();
        let b = g.buffer();
        (b.late_drops(), b.total_inserted() - b.len() as u64)
    };
    let e2e = gtel::e2e().snapshot();
    let stage = |i: usize| (e2e.stages[i].1.sum, e2e.stages[i].1.count);
    Snap {
        wall: Instant::now(),
        bench_ns: p.clock.now_ns(),
        trace_ns: gtel::fast_now_ns(),
        proc_cpu: os::process_cpu_ns(),
        threads: os::threads(),
        server: p.server.stats(),
        late_drops,
        drained,
        // Parse, route and push: the hub's stages of the e2e chain.
        stages: [stage(1), stage(2), stage(3)],
        render: *p.shared.render.lock().expect("render lock"),
        steal: os::steal_ticks(),
    }
}

/// A measured window: counters at both ends plus the generator report.
struct Window {
    a: Snap,
    b: Snap,
    rep: PhaseReport,
}

impl Window {
    fn secs(&self) -> f64 {
        (self.b.wall - self.a.wall).as_secs_f64()
    }

    fn offered(&self) -> f64 {
        self.rep.offered.max(1) as f64
    }

    fn thread_cpu(&self, prefix: &str) -> f64 {
        (os::threads_cpu_ns(&self.b.threads, prefix)
            .saturating_sub(os::threads_cpu_ns(&self.a.threads, prefix))) as f64
    }

    fn hub_cpu(&self) -> f64 {
        self.thread_cpu("gnet-")
    }

    fn proc_cpu(&self) -> f64 {
        (self.b.proc_cpu - self.a.proc_cpu) as f64
    }

    /// CPU of threads that ended inside the window: the zoom query's
    /// scan lanes, the only short-lived threads in the pipeline.
    fn exited_threads_cpu(&self) -> f64 {
        let live: u64 = self
            .b
            .threads
            .iter()
            .map(|t| {
                let before = self.a.threads.iter().find(|u| u.tid == t.tid);
                t.ns.saturating_sub(before.map_or(0, |u| u.ns))
            })
            .sum();
        (self.proc_cpu() - live as f64).max(0.0)
    }

    fn late_drops(&self) -> u64 {
        self.b.late_drops - self.a.late_drops
    }

    /// Lost: late-dropped at the scope, shed or never delivered to the
    /// subscriber.
    fn lost(&self) -> u64 {
        self.late_drops() + self.rep.gaps + self.rep.missing
    }

    fn lag_p99_ms(&self) -> f64 {
        quantile(&mut self.rep.lag_all(), 0.99) / 1e3
    }

    fn backlog_growing(&self) -> bool {
        self.rep.backlog_end > GROWING_BACKLOG_BYTES
            && self.rep.backlog_end as f64 > 1.5 * self.rep.backlog_mid as f64
    }

    /// The three capacity limits.
    fn meets_limits(&self) -> bool {
        self.lost() as f64 <= MAX_LOSS * self.offered()
            && self.lag_p99_ms() <= DELAY.as_secs_f64() * 1e3
            && !self.backlog_growing()
    }

    fn in_window(&self, at_ns: u64) -> bool {
        at_ns >= self.a.bench_ns && at_ns <= self.b.bench_ns
    }

    /// Index of the one-second window holding bench-clock time `at_ns`.
    fn window_of(&self, at_ns: u64) -> usize {
        let w = (at_ns.saturating_sub(self.rep.start_ns) / load::WINDOW_NS) as usize;
        w.min(self.rep.lag_windows.len().saturating_sub(1))
    }

    /// Which one-second windows the latency statistics use: those in
    /// which the hypervisor stole at most `STEAL_LIMIT` of the host's
    /// CPU, or else the `MIN_QUIET_WINDOWS` with the least steal.
    fn quiet_windows(&self) -> Vec<bool> {
        let n = self.rep.lag_windows.len();
        let steal = |i: usize| self.rep.window_steal.get(i).copied().unwrap_or(0.0);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)));
        let mut quiet = vec![false; n];
        for (rank, &i) in order.iter().enumerate() {
            quiet[i] = rank < MIN_QUIET_WINDOWS || steal(i) <= STEAL_LIMIT;
        }
        quiet
    }

    /// Share of the host's CPU time the hypervisor stole in the window.
    fn steal_frac(&self) -> f64 {
        ratio(
            (self.b.steal.0 - self.a.steal.0) as f64,
            (self.b.steal.1 - self.a.steal.1) as f64,
        )
    }

    /// `(issued, failed)` viewer queries in the window.
    fn queries(&self, p: &Pipeline) -> (u64, u64) {
        let ok = p
            .shared
            .queries
            .lock()
            .expect("queries lock")
            .iter()
            .filter(|q| self.in_window(q.at_ns))
            .count() as u64;
        let failed = p
            .shared
            .failed_queries
            .lock()
            .expect("failed queries lock")
            .iter()
            .filter(|&&at| self.in_window(at))
            .count() as u64;
        (ok + failed, failed)
    }
}

/// Runs one phase and reads the counters around it. A broken
/// connection fails the run.
fn measure(p: &Pipeline, spec: PhaseSpec) -> Result<Window, String> {
    let a = snap(p);
    let rep = p.run_phase(spec)?;
    let b = snap(p);
    if let Some(e) = &rep.error {
        return Err(format!("load at {:.0}/s: {e}", spec.rate));
    }
    Ok(Window { a, b, rep })
}

/// The subscriber oracle for a load phase: every tuple that arrives
/// carries a stream value, in order per signal, and every tuple that
/// never arrived is one the hub's counters show it did not deliver.
///
/// Under overload the hub sheds a subscriber's 256 KiB queue. With a
/// store (`store`) it then replays from the store and rejoins live with
/// no gap, except tuples stamped exactly at the rejoin boundary, which
/// the hub documents it may drop: at most `REJOIN_TIES` per replay.
/// Without a store the shed tuples are lost, and so is a batch that
/// still does not fit after a shed; with one subscriber,
/// `tuples_received - tuples_out` counts the latter. Repeats are allowed
/// only around a store replay.
fn check_delivery(w: &Window, store: bool, what: &str) -> Vec<String> {
    let r = &w.rep;
    let (a, b) = (&w.a.server, &w.b.server);
    let shed = b.tuples_shed - a.tuples_shed;
    let sheds = b.shed_events - a.shed_events;
    let unqueued =
        (b.tuples_received - a.tuples_received).saturating_sub(b.tuples_out - a.tuples_out);
    let replays = b.catch_ups_entered - a.catch_ups_entered;
    let excused = if store {
        REJOIN_TIES * replays
    } else if sheds > 0 {
        shed + unqueued
    } else {
        0
    };
    let mut errs = Vec::new();
    if r.bad + r.sub_errors > 0 {
        errs.push(format!(
            "{what}: subscriber got {} values that are not the stream's and {} undecodable messages",
            r.bad, r.sub_errors
        ));
    }
    if r.gaps + r.missing > excused {
        errs.push(format!(
            "{what}: {} tuples skipped and {} never arrived, but the hub shed {shed} in {sheds} sheds, left {unqueued} unqueued and replayed {replays} times from {}",
            r.gaps,
            r.missing,
            if store { "its store" } else { "no store" }
        ));
    }
    if r.repeats > 0 && replays == 0 {
        errs.push(format!(
            "{what}: {} tuples arrived twice or out of order without a store replay",
            r.repeats
        ));
    }
    if sheds > 0 {
        eprintln!(
            "{what}: hub shed {shed} tuples in {sheds} sheds, left {unqueued} unqueued, replayed {replays} times; subscriber missed {}",
            r.gaps + r.missing
        );
    }
    errs
}

fn hub_errors(s: &ServerStats) -> u64 {
    s.parse_errors + s.protocol_errors + s.store_errors + s.store_drops
}

/// Highest offered rate meeting the capacity limits, by stepping up
/// from the nominal rate (or down, if it fails) and then bisecting.
/// Every probe goes through the subscriber oracle; failures land in
/// `errors`.
fn capacity(
    p: &Pipeline,
    nominal: f64,
    stream: &mut u64,
    errors: &mut Vec<String>,
) -> Result<f64, String> {
    let store = p.store_dir.is_some();
    // A rate fails when two probes miss a limit. A miss while the
    // hypervisor steals more than `STEAL_LIMIT` counts only if no
    // attempt is left, so a busy neighbour does not end the search.
    let mut probe = |rate: f64| -> Result<bool, String> {
        let mut misses = 0;
        for attempt in 1..=PROBE_ATTEMPTS {
            *stream += 1;
            let w = measure(
                p,
                PhaseSpec {
                    rate,
                    secs: PROBE_SECS,
                    stream: *stream,
                    traced: false,
                    drain: Duration::from_secs(5),
                },
            )?;
            errors.extend(check_delivery(&w, store, &format!("probe {rate:.0}/s")));
            let ok = w.meets_limits();
            eprintln!(
                "  probe {rate:>10.0}/s: lost {} of {}, lag p99 {:.1} ms, backlog {} -> {} B, steal {:.1}%: {}",
                w.lost(),
                w.rep.offered,
                w.lag_p99_ms(),
                w.rep.backlog_mid,
                w.rep.backlog_end,
                w.steal_frac() * 100.0,
                if ok { "ok" } else { "over" }
            );
            if ok {
                return Ok(true);
            }
            if w.steal_frac() <= STEAL_LIMIT || attempt == PROBE_ATTEMPTS {
                misses += 1;
            }
            if misses == 2 {
                break;
            }
        }
        Ok(false)
    };
    // Step up from the nominal rate until a rate fails; if none above
    // it passes, step down from the nominal rate until one passes.
    let mut lo = None;
    let mut hi = None;
    let mut r = nominal;
    for _ in 0..PROBE_MAX_STEPS {
        r *= PROBE_STEP;
        if !probe(r)? {
            hi = Some(r);
            break;
        }
        lo = Some(r);
    }
    if lo.is_none() {
        r = nominal;
        for _ in 0..PROBE_MAX_STEPS {
            if probe(r)? {
                lo = Some(r);
                break;
            }
            hi = Some(r);
            r /= PROBE_STEP;
        }
    }
    let mut lo = lo.ok_or("no probed rate meets the capacity limits")?;
    let Some(mut hi) = hi else {
        return Ok(lo);
    };
    for _ in 0..BISECTIONS {
        let mid = (lo * hi).sqrt();
        if probe(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// View-lag and zoom-query latency of a window, from the kept
/// one-second windows only (see `Window::quiet_windows`).
struct Latency {
    lag_p50_ms: f64,
    /// Median over kept windows of each window's p99: one stall moves
    /// one window, not the run's figure.
    lag_p99_ms: f64,
    query_p50_ms: f64,
    /// About 20 queries/s: p95 is the highest percentile with at least
    /// ten samples beyond it in a 10 s window.
    query_p95_ms: f64,
}

fn latency(p: &Pipeline, w: &Window, what: &str) -> Latency {
    let quiet = w.quiet_windows();
    let kept: Vec<&Vec<f64>> = w
        .rep
        .lag_windows
        .iter()
        .zip(&quiet)
        .filter_map(|(v, &q)| q.then_some(v))
        .collect();
    let mut lag: Vec<f64> = kept.iter().copied().flatten().copied().collect();
    let mut p99s: Vec<f64> = kept
        .iter()
        .filter(|v| v.len() >= 100)
        .map(|v| quantile(&mut (*v).clone(), 0.99) / 1e3)
        .collect();
    let mut q: Vec<f64> = p
        .shared
        .queries
        .lock()
        .expect("queries lock")
        .iter()
        .filter(|q| w.in_window(q.at_ns) && quiet[w.window_of(q.at_ns)])
        .map(|q| q.query_ns as f64 / 1e6)
        .collect();
    eprintln!(
        "{what}: {} of {} one-second windows kept (hypervisor steal at most {:.0}%), {} zoom queries in them",
        kept.len(),
        quiet.len(),
        STEAL_LIMIT * 100.0,
        q.len()
    );
    Latency {
        lag_p50_ms: median(&mut lag) / 1e3,
        lag_p99_ms: median(&mut p99s),
        query_p50_ms: median(&mut q),
        query_p95_ms: quantile(&mut q, 0.95),
    }
}

/// End-to-end metrics of the nominal window.
fn end_to_end(p: &Pipeline, setup_s: f64, w: &Window, peak_rss_mb: f64) -> Metrics {
    let lat = latency(p, w, "nominal");
    vec![
        ("setup_s", setup_s, "s"),
        ("view_lag_p50_ms", lat.lag_p50_ms, "ms"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Per-layer metrics of the traced window `t`; `u` is the untraced
/// window at the same rate, `idle` the quiet phase. `capacity_tps` and
/// `cpu_ns_per_tuple` are whole-pipeline figures, reported here rather
/// than end to end because the host's speed drifts by more than any
/// end-to-end bound allows (see `metric_map.json`).
fn per_layer(p: &Pipeline, u: &Window, t: &Window, idle: &Window) -> (Metrics, f64) {
    let r = &t.rep;
    let n = t.offered();
    let ticks: Vec<_> = p
        .shared
        .ticks
        .lock()
        .expect("ticks lock")
        .iter()
        .copied()
        .filter(|s| t.in_window(s.at_ns))
        .collect();
    let queries: Vec<_> = p
        .shared
        .queries
        .lock()
        .expect("queries lock")
        .iter()
        .copied()
        .filter(|s| t.in_window(s.at_ns))
        .collect();
    let passes: Vec<_> = p
        .shared
        .passes
        .lock()
        .expect("passes lock")
        .iter()
        .copied()
        .filter(|s| t.in_window(s.at_ns))
        .collect();
    let mut tick_us: Vec<f64> = ticks.iter().map(|s| s.tick_ns as f64 / 1e3).collect();
    let mut render_us: Vec<f64> = ticks.iter().map(|s| s.render_ns as f64 / 1e3).collect();
    let mut tick_late: Vec<f64> = ticks.iter().map(|s| s.late_us as f64 / 1e3).collect();
    let tick_cpu: f64 = ticks.iter().map(|s| s.tick_cpu_ns as f64).sum();
    let render_cpu: f64 = ticks.iter().map(|s| s.render_cpu_ns as f64).sum();
    let mut flush_us: Vec<f64> = queries.iter().map(|q| q.flush_ns as f64 / 1e3).collect();
    let flush_cpu: f64 = queries.iter().map(|q| q.flush_cpu_ns as f64).sum();
    let query_cpu: f64 = queries.iter().map(|q| q.query_cpu_ns as f64).sum();
    let mut pass_ms: Vec<f64> = passes.iter().map(|s| s.dur_ns as f64 / 1e6).collect();
    let pass_cpu: f64 = passes.iter().map(|s| s.cpu_ns as f64).sum();
    let qs = |f: &dyn Fn(&gstore::LodStats) -> u64| {
        queries
            .iter()
            .map(|q| f(&q.stats) as f64)
            .collect::<Vec<_>>()
    };
    let pruned: f64 = qs(&|s| s.blocks_pruned).iter().sum();
    let scanned = qs(&|s| s.blocks_scanned);
    let stage_mean = |i: usize| {
        let (s0, c0) = t.a.stages[i];
        let (s1, c1) = t.b.stages[i];
        ratio((s1 - s0) as f64, (c1 - c0) as f64)
    };
    let (sa, sb) = (&t.a.server, &t.b.server);
    let render_total = |s: &RenderStats| s.full + s.content + s.incremental + s.cached;
    let store = p.store_stats().unwrap_or_default();
    let mut cycles = hub_cycle_us(t);

    // Where the traced window's process CPU went.
    let hub_cpu = t.hub_cpu();
    let gen_rest = r
        .thread_cpu_ns
        .saturating_sub(r.send_cpu_ns + r.recv_cpu_ns) as f64;
    let attributed = r.send_cpu_ns as f64
        + r.recv_cpu_ns as f64
        + gen_rest
        + hub_cpu
        + tick_cpu
        + render_cpu
        + flush_cpu
        + query_cpu
        + t.exited_threads_cpu()
        + pass_cpu;
    let unattributed = 1.0 - attributed / t.proc_cpu();
    let cpu_u = u.proc_cpu() / u.offered();
    let cpu_t = t.proc_cpu() / n;

    let lat = latency(p, t, "traced");
    let m: Metrics = vec![
        ("cpu_ns_per_tuple", cpu_u, "ns"),
        ("view_lag_p99_ms", lat.lag_p99_ms, "ms"),
        ("query_p50_ms", lat.query_p50_ms, "ms"),
        ("query_p95_ms", lat.query_p95_ms, "ms"),
        ("client.send_ns_per_tuple", r.send_cpu_ns as f64 / n, "ns"),
        ("client.wire_bytes_per_tuple", r.wire_bytes as f64 / n, "B"),
        ("client.backlog_bytes_max", r.backlog_max as f64, "B"),
        (
            "gen.late_p99_ms",
            quantile(&mut r.gen_late_us.clone(), 0.99) / 1e3,
            "ms",
        ),
        ("gen.cpu_ns_per_tuple", gen_rest / n, "ns"),
        ("hub.cpu_ns_per_tuple", hub_cpu / n, "ns"),
        ("hub.duty", hub_cpu / (t.secs() * 1e9), "frac"),
        (
            "hub.idle_cpu_frac",
            idle.hub_cpu() / (idle.secs() * 1e9),
            "frac",
        ),
        ("hub.cycle_us_p50", median(&mut cycles), "us"),
        ("hub.cycle_us_p99", quantile(&mut cycles, 0.99), "us"),
        ("hub.stage.parse_mean_us", stage_mean(0), "us"),
        ("hub.stage.route_mean_us", stage_mean(1), "us"),
        ("hub.stage.push_mean_us", stage_mean(2), "us"),
        (
            "hub.fanout_bytes_per_tuple",
            ratio(
                (sb.bytes_out - sa.bytes_out) as f64,
                (sb.tuples_out - sa.tuples_out) as f64,
            ),
            "B",
        ),
        (
            "hub.tuples_shed",
            (sb.tuples_shed - sa.tuples_shed) as f64,
            "count",
        ),
        (
            "hub.catch_up_tuples",
            (sb.catch_up_tuples - sa.catch_up_tuples) as f64,
            "count",
        ),
        ("hub.errors", hub_errors(sb) as f64, "count"),
        (
            "sub.recv_ns_per_tuple",
            r.recv_cpu_ns as f64 / r.received.max(1) as f64,
            "ns",
        ),
        ("scope.tick_us_p50", median(&mut tick_us), "us"),
        ("scope.tick_us_p99", quantile(&mut tick_us, 0.99), "us"),
        (
            "scope.tick_ns_per_tuple",
            ratio(tick_cpu, (t.b.drained - t.a.drained) as f64),
            "ns",
        ),
        (
            "scope.tick_late_p99_ms",
            quantile(&mut tick_late, 0.99),
            "ms",
        ),
        ("scope.late_drops", t.late_drops() as f64, "count"),
        (
            "scope.buffer_depth_max",
            ticks.iter().map(|s| s.depth).max().unwrap_or(0) as f64,
            "count",
        ),
        ("render.frame_us_p50", median(&mut render_us), "us"),
        ("render.frame_us_p99", quantile(&mut render_us, 0.99), "us"),
        (
            "render.incremental_frac",
            ratio(
                (t.b.render.incremental - t.a.render.incremental) as f64,
                (render_total(&t.b.render) - render_total(&t.a.render)) as f64,
            ),
            "frac",
        ),
        ("store.flush_us_p99", quantile(&mut flush_us, 0.99), "us"),
        (
            "store.bytes_per_tuple",
            ratio(store.bytes_written as f64, store.frames_appended as f64),
            "B",
        ),
        (
            "disk_bytes_per_tuple",
            ratio(
                p.store_dir.as_deref().map_or(0, dir_bytes) as f64,
                store.frames_appended as f64,
            ),
            "B",
        ),
        (
            "store.segments_rolled",
            store.segments_rolled as f64,
            "count",
        ),
        ("lod.pass_ms_p50", median(&mut pass_ms), "ms"),
        ("lod.pass_ms_max", quantile(&mut pass_ms, 1.0), "ms"),
        (
            "lod.duty",
            passes.iter().map(|s| s.dur_ns as f64).sum::<f64>() / (t.secs() * 1e9),
            "frac",
        ),
        (
            "lod.frames_folded_per_s",
            passes.iter().map(|s| s.frames_in as f64).sum::<f64>() / t.secs(),
            "1/s",
        ),
        ("query.plan_us_mean", mean(&qs(&|s| s.plan_us)), "us"),
        ("query.scan_us_mean", mean(&qs(&|s| s.scan_us)), "us"),
        ("query.blocks_scanned_mean", mean(&scanned), "count"),
        (
            "query.prune_frac",
            ratio(pruned, pruned + scanned.iter().sum::<f64>()),
            "frac",
        ),
        (
            "query.tier_mean",
            mean(
                &queries
                    .iter()
                    .map(|q| f64::from(q.tier))
                    .collect::<Vec<_>>(),
            ),
            "tier",
        ),
        ("loss_frac", (t.lost() + t.queries(p).1) as f64 / n, "frac"),
        ("layers.unattributed_frac", unattributed, "frac"),
        ("trace.overhead_frac", (cpu_t - cpu_u) / cpu_u, "frac"),
    ];
    (m, unattributed)
}

/// Busy hub cycles (`net.server.poll` spans the hub records itself)
/// inside the window, in µs.
fn hub_cycle_us(w: &Window) -> Vec<f64> {
    gtel::tracer()
        .records()
        .iter()
        .filter(|s| {
            s.label == "net.server.poll"
                && s.kind == gtel::SpanKind::End
                && s.begin_ns >= w.a.trace_ns
                && s.t_ns <= w.b.trace_ns
        })
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn provenance(args: &Args) -> String {
    let cmd = |prog: &str, a: &[&str]| {
        std::process::Command::new(prog)
            .args(a)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into())
    };
    let argv: Vec<String> = std::env::args().collect();
    // Only a checkout's own repository names its commit; git would
    // otherwise report whatever repository encloses the directory.
    let commit = if Path::new(".git").exists() {
        cmd("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    format!(
        "{{\"commit\": {}, \"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \"command\": {}, \"workload\": {}, \"seed\": {}, \"run_seconds\": {}, \"trace\": {}}}",
        json_str(&commit),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&os::cpu_model()),
        json_str(&os::first_line("/proc/sys/kernel/osrelease")),
        json_str(&cmd("rustc", &["-V"])),
        json_str(&argv.join(" ")),
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace)
    )
}

struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(args: &Args, out: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let mut setup_times = Vec::new();
    let mut pipe = None;
    let setups = w.setups();
    // The set-ups run on one CPU. Each one hands work to threads it
    // starts (hub shard, main loop, generator); spread over CPUs, every
    // hand-off waits for the hypervisor to wake an idle virtual CPU,
    // which on a shared host took from tens of microseconds to
    // milliseconds from one minute to the next and doubled the median
    // of a sub-millisecond set-up. Always the same CPU: on another one
    // the live_tcp set-up's timer-driven waits fell into a different
    // mix of its two modes (about 2.0 and 2.9 ms), and the median
    // flipped between them from run to run. Every thread gets the full
    // mask back before load begins.
    let unpin = os::pin_to_one_cpu();
    for k in 0..setups {
        let dir = out.join(format!("setup{k}"));
        let t0 = Instant::now();
        let p = Pipeline::setup(w, args.seed, &dir, args.trace)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if k + 1 < setups {
            p.shutdown()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            pipe = Some(p);
        }
    }
    let p = pipe.expect("at least one set-up");
    if let Some(mask) = unpin {
        os::set_affinity_all(&mask)?;
    }
    let setup_s = median(&mut setup_times.clone());
    eprintln!("set-up: {setup_times:?} s");

    let nominal = w.nominal_rate();
    let mut stream = 0u64;
    let mut spec = |secs: f64, traced: bool| {
        stream += 1;
        PhaseSpec {
            rate: nominal,
            secs,
            stream,
            traced,
            drain: Duration::from_secs(3),
        }
    };
    let mut errors = Vec::new();
    p.shared.background.store(true, Ordering::Release);
    let warm = measure(&p, spec(WARMUP_SECS, false))?;
    let store = p.store_dir.is_some();
    errors.extend(check_delivery(&warm, store, "warm-up"));

    let (main, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let u = measure(&p, spec(half, false))?;
        p.shared.traced.store(true, Ordering::Release);
        let t = measure(&p, spec(half, true))?;
        p.shared.traced.store(false, Ordering::Release);
        (u, Some(t))
    } else {
        (measure(&p, spec(args.seconds, false))?, None)
    };
    errors.extend(check_delivery(&main, store, "nominal"));
    let per_window: Vec<String> = main
        .rep
        .lag_windows
        .iter()
        .map(|v| {
            let mut v = v.clone();
            format!(
                "{:.1}/{:.1}",
                median(&mut v) / 1e3,
                quantile(&mut v, 0.99) / 1e3
            )
        })
        .collect();
    eprintln!("view lag p50/p99 ms per second: {}", per_window.join(" "));
    if let Some(t) = &traced {
        errors.extend(check_delivery(t, store, "nominal (traced)"));
    }

    p.shared.background.store(false, Ordering::Release);
    std::thread::sleep(Duration::from_millis(200));
    let idle = {
        let a = snap(&p);
        std::thread::sleep(Duration::from_secs_f64(IDLE_SECS));
        let b = snap(&p);
        Window {
            a,
            b,
            rep: PhaseReport::default(),
        }
    };
    // Operations: tuples offered plus viewer queries; a lost tuple or a
    // query that returned an error is a failed one.
    let mut attempted = 0;
    let mut failed = 0;
    for w in std::iter::once(&main).chain(traced.as_ref()) {
        let (issued, bad) = w.queries(&p);
        attempted += w.rep.offered + issued;
        failed += w.lost() + bad;
        eprintln!(
            "window: {} tuples, {} lost, {issued} queries, {bad} failed, host steal {:.1}%",
            w.rep.offered,
            w.lost(),
            w.steal_frac() * 100.0
        );
    }

    let metrics = if let Some(t) = &traced {
        let (mut m, unattributed) = per_layer(&p, &main, t, &idle);
        if unattributed.abs() > UNATTRIBUTED_TOLERANCE {
            errors.push(format!(
                "per-layer CPU misses {:.1}% of process CPU (tolerance {:.0}%)",
                unattributed * 100.0,
                UNATTRIBUTED_TOLERANCE * 100.0
            ));
        }
        let mut records = p.shared.trace.records();
        records.extend(gtel::tracer().records());
        let path = out.join("trace.json");
        std::fs::write(&path, gtel::chrome_trace_json(&records))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
        p.shared.background.store(true, Ordering::Release);
        let cap = capacity(&p, nominal, &mut stream, &mut errors)?;
        p.shared.background.store(false, Ordering::Release);
        m.insert(0, ("capacity_tps", cap, "1/s"));
        m
    } else {
        end_to_end(&p, setup_s, &main, os::peak_rss_mb())
    };

    let hub = p.server.stats();
    if hub_errors(&hub) > 0 {
        errors.push(format!("hub reported errors: {hub:?}"));
    }
    errors.extend(p.shared.errors.lock().expect("errors lock").drain(..));
    p.shutdown()?;
    Ok(Outcome {
        errors,
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    let out: PathBuf = Path::new(".bench_out").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&out);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("pipebench: {}: {e}", out.display());
        std::process::exit(1);
    }
    let prov = provenance(&args);
    eprintln!("provenance: {prov}");
    let outcome = match run(&args, &out) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    let record = format!("{{\"provenance\": {prov}, \"result\": {result}}}\n");
    let _ = std::fs::write(out.join("result.json"), record);
    // Keep the run's own files small: the store directories are large.
    for k in 0..args.workload.setups() {
        let _ = std::fs::remove_dir_all(out.join(format!("setup{k}")));
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
