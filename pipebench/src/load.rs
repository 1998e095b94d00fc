//! The load generator: one thread, two connections (a producer and a
//! live subscriber), open-loop Poisson arrivals at a fixed rate.
//!
//! Every tuple carries its due time as its timestamp, so the
//! subscriber's receive time minus the tuple time is the view lag, and
//! a stall anywhere (including in this generator) shows up in the lag of
//! every tuple that was due during it.

use std::io::ErrorKind;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gel::{Clock, IoPoll, TimeStamp, WakeFlag};
use gnet::ScopeClient;
use gscope::{write_tuple_line, Tuple};
use gtel::TraceLog;
use netsim::SimConn;

use crate::oracle::{value_of, Counts, Rng, SubscriberCheck, Timeline};
use crate::os::{steal_ticks, thread_cpu_ns};
use crate::stats::ratio;

/// Microseconds of history before the live clock's zero: the prefilled
/// history lives in `[0, EPOCH_US)`, live tuples after it.
pub const EPOCH_US: u64 = 1_000_000_000;

/// The generator wakes this often and sends everything that fell due.
const BURST_NS: u64 = 200_000;
/// Every n-th tuple of a signal (by sequence number) is a lag sample;
/// every n-th stream tuple is a generator-lateness sample.
const SAMPLE_EVERY: u64 = 4;
/// Lag samples are grouped into windows of this length.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Real time shared by the generator, the scope and its main loop.
/// Its zero sits `EPOCH_US` after the history's zero.
pub struct BenchClock {
    origin: Instant,
}

impl BenchClock {
    pub fn new() -> BenchClock {
        BenchClock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the clock was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The scope timestamp of a clock reading.
    pub fn stamp(ns: u64) -> TimeStamp {
        TimeStamp::from_micros(EPOCH_US + ns / 1_000)
    }
}

impl Clock for BenchClock {
    fn now(&self) -> TimeStamp {
        BenchClock::stamp(self.now_ns())
    }

    fn wait_until(&self, deadline: TimeStamp, waker: &WakeFlag) -> TimeStamp {
        loop {
            let now = self.now();
            if now >= deadline {
                return now;
            }
            if waker.wait_timeout(deadline.saturating_since(now).to_std()) {
                return self.now();
            }
        }
    }
}

/// The producer end: binary origin-stamped TCP, or §3.3 text lines over
/// a netsim link.
pub enum Producer {
    Tcp(Box<ScopeClient>),
    Sim {
        conn: SimConn,
        buf: Vec<u8>,
        head: usize,
        sent: u64,
    },
}

impl Producer {
    fn send(&mut self, time: TimeStamp, value: f64, name: &Arc<str>) {
        match self {
            Producer::Tcp(c) => c.send(&Tuple {
                time,
                value,
                name: Some(Arc::clone(name)),
            }),
            Producer::Sim { buf, .. } => {
                write_tuple_line(buf, time, value, Some(name));
                buf.push(b'\n');
            }
        }
    }

    fn pump(&mut self) -> Result<(), String> {
        match self {
            Producer::Tcp(c) => match c.pump() {
                IoPoll::Remove => Err("producer connection closed".into()),
                _ => Ok(()),
            },
            Producer::Sim {
                conn,
                buf,
                head,
                sent,
            } => {
                while *head < buf.len() {
                    match conn.write_bytes(&buf[*head..]) {
                        Ok(0) => break,
                        Ok(n) => {
                            *head += n;
                            *sent += n as u64;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => return Err(format!("producer link: {e}")),
                    }
                }
                if *head == buf.len() {
                    buf.clear();
                    *head = 0;
                } else if *head > buf.len() / 2 {
                    buf.drain(..*head);
                    *head = 0;
                }
                Ok(())
            }
        }
    }

    /// Bytes queued by the producer and not yet accepted by the wire.
    pub fn backlog(&self) -> usize {
        match self {
            Producer::Tcp(c) => c.pending_bytes(),
            Producer::Sim { buf, head, .. } => buf.len() - head,
        }
    }

    /// Bytes the wire accepted so far.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Producer::Tcp(c) => c.stats().bytes_sent,
            Producer::Sim { sent, .. } => *sent,
        }
    }
}

/// The live subscriber end, in the producer's encoding.
pub enum Subscriber {
    Tcp(Box<ScopeClient>),
    Sim {
        conn: SimConn,
        inbuf: Vec<u8>,
        chunk: Vec<u8>,
        parse_errors: u64,
    },
}

impl Subscriber {
    /// Reads and decodes everything that arrived into `out`.
    fn poll(&mut self, out: &mut Vec<Tuple>) -> Result<(), String> {
        match self {
            Subscriber::Tcp(c) => {
                if c.pump() == IoPoll::Remove {
                    return Err("subscriber connection closed".into());
                }
                out.append(&mut c.take_received());
                c.take_events();
                Ok(())
            }
            Subscriber::Sim {
                conn,
                inbuf,
                chunk,
                parse_errors,
            } => {
                loop {
                    match conn.read_bytes(chunk) {
                        Ok(0) => return Err("subscriber link closed".into()),
                        Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) => return Err(format!("subscriber link: {e}")),
                    }
                }
                let mut start = 0usize;
                while let Some(pos) = inbuf[start..].iter().position(|&b| b == b'\n') {
                    let line = &inbuf[start..start + pos];
                    start += pos + 1;
                    let Ok(text) = std::str::from_utf8(line) else {
                        *parse_errors += 1;
                        continue;
                    };
                    let text = text.trim();
                    if text.is_empty() || text.starts_with('#') {
                        continue;
                    }
                    match Tuple::parse_raw(text, 0) {
                        Ok(raw) => out.push(raw.to_tuple()),
                        Err(_) => *parse_errors += 1,
                    }
                }
                inbuf.drain(..start);
                Ok(())
            }
        }
    }

    /// Messages the subscriber could not decode.
    fn errors(&self) -> u64 {
        match self {
            Subscriber::Tcp(c) => c.stats().recv_errors,
            Subscriber::Sim { parse_errors, .. } => *parse_errors,
        }
    }
}

/// One phase of load.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    /// Offered tuples per second.
    pub rate: f64,
    pub secs: f64,
    /// Stream id for the arrival gaps (phases draw independent gaps).
    pub stream: u64,
    /// Record per-call CPU and spans.
    pub traced: bool,
    /// How long to wait after the phase for everything to arrive.
    pub drain: Duration,
}

/// What the generator saw during one phase.
#[derive(Default)]
pub struct PhaseReport {
    pub offered: u64,
    /// Production window on the bench clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Subscriber lag samples (µs), by window of receive time.
    pub lag_windows: Vec<Vec<f64>>,
    /// Share of the host's CPU time the hypervisor stole, per window.
    pub window_steal: Vec<f64>,
    /// Generator lateness samples (µs): send time minus due time.
    pub gen_late_us: Vec<f64>,
    pub backlog_max: usize,
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub wire_bytes: u64,
    pub received: u64,
    pub gaps: u64,
    pub repeats: u64,
    pub bad: u64,
    pub sub_errors: u64,
    /// Tuples that had not arrived when the drain gave up.
    pub missing: u64,
    /// Generator-thread CPU over the phase, and (traced) the parts
    /// spent inside producer and subscriber calls.
    pub thread_cpu_ns: u64,
    pub send_cpu_ns: u64,
    pub recv_cpu_ns: u64,
    pub error: Option<String>,
}

impl PhaseReport {
    pub fn lag_all(&self) -> Vec<f64> {
        self.lag_windows.iter().flatten().copied().collect()
    }
}

/// The generator thread's state.
pub struct Generator {
    pub seed: u64,
    pub clock: Arc<BenchClock>,
    pub producer: Producer,
    pub subscriber: Subscriber,
    pub names: Vec<Arc<str>>,
    /// The stream so far (history plus live tuples sent).
    pub sent: Counts,
    pub check: SubscriberCheck,
    /// Where the stamps of timeline tuples go (`history_store` only).
    pub timeline: Option<Arc<Timeline>>,
    pub trace: Arc<TraceLog>,
}

impl Generator {
    /// Serves phases until the command channel closes.
    pub fn serve(mut self, cmds: Receiver<PhaseSpec>, reports: Sender<PhaseReport>) {
        while let Ok(spec) = cmds.recv() {
            let report = self.phase(spec);
            if reports.send(report).is_err() {
                break;
            }
        }
    }

    fn phase(&mut self, spec: PhaseSpec) -> PhaseReport {
        let mut r = PhaseReport::default();
        let (gaps0, repeats0, bad0, recv0) = (
            self.check.gaps,
            self.check.repeats,
            self.check.bad,
            self.check.received,
        );
        let sub_err0 = self.subscriber.errors();
        let wire0 = self.producer.wire_bytes();
        let cpu0 = thread_cpu_ns();
        if let Err(e) = self.produce(spec, &mut r) {
            r.error = Some(e);
        }
        if r.error.is_none() {
            if let Err(e) = self.drain(spec, &mut r) {
                r.error = Some(e);
            }
        }
        r.missing = self.check.write_off(&self.sent);
        r.thread_cpu_ns = thread_cpu_ns() - cpu0;
        r.wire_bytes = self.producer.wire_bytes() - wire0;
        r.gaps = self.check.gaps - gaps0 - r.missing;
        r.repeats = self.check.repeats - repeats0;
        r.bad = self.check.bad - bad0;
        r.received = self.check.received - recv0;
        r.sub_errors = self.subscriber.errors() - sub_err0;
        r
    }

    fn produce(&mut self, spec: PhaseSpec, r: &mut PhaseReport) -> Result<(), String> {
        let mean_gap = 1e9 / spec.rate;
        let mut rng = Rng::new(self.seed, spec.stream);
        let start = self.clock.now_ns();
        let end = start + (spec.secs * 1e9) as u64;
        r.start_ns = start;
        r.end_ns = end;
        let windows = (end - start).div_ceil(WINDOW_NS) as usize;
        // Sized up front with room to spare: a sample vector that
        // reallocates mid-phase would put its transient copy into
        // peak RSS.
        let per_window = (spec.rate * WINDOW_NS as f64 / 1e9 / SAMPLE_EVERY as f64 * 1.5) as usize;
        r.lag_windows = (0..windows.max(1))
            .map(|_| Vec::with_capacity(per_window))
            .collect();
        r.gen_late_us = Vec::with_capacity(per_window * windows.max(1));
        let mut due = start as f64 + rng.exp(mean_gap);
        let mut rx: Vec<Tuple> = Vec::new();
        let mut marks = Vec::new();
        let mut mid_taken = false;
        let mut steal0 = steal_ticks();
        let mut next_window = start + WINDOW_NS;
        loop {
            let now = self.clock.now_ns();
            if now >= next_window.min(end) && r.window_steal.len() < windows {
                let steal = steal_ticks();
                r.window_steal.push(ratio(
                    (steal.0 - steal0.0) as f64,
                    (steal.1 - steal0.1) as f64,
                ));
                steal0 = steal;
                next_window += WINDOW_NS;
            }
            let _burst = spec.traced.then(|| self.trace.span("gen.burst"));
            let b0 = gtel::fast_now_ns();
            let c0 = if spec.traced { thread_cpu_ns() } else { 0 };
            let mut burst = 0u64;
            while due <= now as f64 && due < end as f64 {
                let due_ns = due as u64;
                let (s, seq) = self.sent.next();
                let stamp = BenchClock::stamp(due_ns);
                if self.timeline.is_some() && Timeline::marks(seq) {
                    marks.push((s, stamp.as_micros()));
                }
                self.producer
                    .send(stamp, value_of(self.seed, s, seq), &self.names[s]);
                if self.sent.end().is_multiple_of(SAMPLE_EVERY) {
                    r.gen_late_us.push((now - due_ns) as f64 / 1e3);
                }
                due += rng.exp(mean_gap);
                burst += 1;
            }
            r.offered += burst;
            if let Some(t) = &self.timeline {
                t.record(&marks);
                marks.clear();
            }
            self.producer.pump()?;
            let b1 = gtel::fast_now_ns();
            let c1 = if spec.traced { thread_cpu_ns() } else { 0 };
            let backlog = self.producer.backlog();
            r.backlog_max = r.backlog_max.max(backlog);
            if !mid_taken && now >= start + (end - start) / 2 {
                r.backlog_mid = backlog;
                mid_taken = true;
            }
            self.subscriber.poll(&mut rx)?;
            let b2 = gtel::fast_now_ns();
            if spec.traced {
                let c2 = thread_cpu_ns();
                r.send_cpu_ns += c1 - c0;
                r.recv_cpu_ns += c2 - c1;
                self.trace.record_span_at("client.send", burst, b0, b1);
                self.trace
                    .record_span_at("sub.recv", rx.len() as u64, b1, b2);
            }
            self.account(&mut rx, start, r);
            if now >= end && due >= end as f64 {
                break;
            }
            let spent = self.clock.now_ns() - now;
            if spent < BURST_NS {
                std::thread::sleep(Duration::from_nanos(BURST_NS - spent));
            }
        }
        r.backlog_end = self.producer.backlog();
        Ok(())
    }

    /// Pumps both ends until everything sent has arrived, the wire went
    /// quiet for a while, or the drain timeout passed.
    fn drain(&mut self, spec: PhaseSpec, r: &mut PhaseReport) -> Result<(), String> {
        let deadline = Instant::now() + spec.drain;
        let mut rx: Vec<Tuple> = Vec::new();
        let mut last_progress = Instant::now();
        let mut idle_polls = 0u32;
        loop {
            self.producer.pump()?;
            self.subscriber.poll(&mut rx)?;
            if rx.is_empty() {
                idle_polls += 1;
            } else {
                last_progress = Instant::now();
                idle_polls = 0;
            }
            self.account(&mut rx, r.start_ns, r);
            if self.producer.backlog() == 0 && self.check.missing(&self.sent) == 0 {
                return Ok(());
            }
            // Quiet means 300 ms without data *and* a thousand empty
            // polls, so a pause of the whole machine (hypervisor steal)
            // is not mistaken for tuples that will never come.
            let quiet = self.producer.backlog() == 0
                && idle_polls >= 1000
                && last_progress.elapsed() > Duration::from_millis(300);
            if quiet || Instant::now() >= deadline {
                return Ok(());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Checks received tuples and keeps lag samples.
    fn account(&mut self, rx: &mut Vec<Tuple>, start: u64, r: &mut PhaseReport) {
        if rx.is_empty() {
            return;
        }
        let now_ns = self.clock.now_ns();
        let now_us = BenchClock::stamp(now_ns).as_micros();
        let w =
            (((now_ns.saturating_sub(start)) / WINDOW_NS) as usize).min(r.lag_windows.len() - 1);
        for t in rx.drain(..) {
            let name = t.name.as_deref().unwrap_or("");
            if let Some(seq) = self.check.on_tuple(name, t.value) {
                if seq.is_multiple_of(SAMPLE_EVERY) {
                    let lag = now_us.saturating_sub(t.time.as_micros());
                    r.lag_windows[w].push(lag as f64);
                }
            }
        }
    }
}
