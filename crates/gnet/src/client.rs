//! The gscope client library (§4.4).
//!
//! "Clients use the gscope client API to connect to a server ... Clients
//! asynchronously send BUFFER signal data in tuple format to the
//! server." The client is single-threaded and I/O-driven: `send`
//! enqueues tuples into an in-memory out-buffer, and `pump` (typically
//! wired to a `gel` I/O watch) writes whatever the non-blocking socket
//! accepts — and drains whatever the server sent back.
//!
//! # Wire negotiation
//!
//! A plain [`ScopeClient::connect`] speaks the §3.3 text protocol and
//! never will anything else — byte-for-byte compatible with `nc`. A
//! client built with [`ScopeClient::connect_binary`] (or upgraded via
//! [`ScopeClient::set_prefer_binary`]) sends a HELLO frame and keeps
//! emitting text until the server answers WELCOME; from then on sends
//! are batched into binary DATA frames ([`crate::wire`]). Against a
//! legacy text server the WELCOME never comes and the client simply
//! stays on text — automatic fallback, no error, no timeout.
//!
//! # Receiving
//!
//! After [`ScopeClient::subscribe`] the server streams the live feed
//! back; `pump` decodes it (either encoding) into a buffer drained
//! with [`ScopeClient::take_received`]. Backpressure transitions
//! arrive as [`StreamEvent`]s.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use gel::{Clock, IoPoll, TimeStamp};
use gscope::{intern, write_tuple_line, Tuple};
use gtel::{Counter, Gauge, Registry};

use crate::clock::{wire_now_us, ClockEstimator, ClockStats};
use crate::wire::{
    decode_arg, decode_caps, decode_data, decode_pong, frame_arg, frame_hello, frame_ping,
    frame_pong, split_message, BatchEncoder, Msg, Origin, Protocol, FLAG_CLOCK_SYNC, FLAG_ORIGIN,
    LOCAL_CAPS, OP_CATCHUP_BEGIN, OP_CATCHUP_END, OP_DATA, OP_PING, OP_PONG, OP_SUB, OP_WELCOME,
    TEXT_CATCHUP_BEGIN, TEXT_CATCHUP_END, TEXT_SUB,
};

/// Flush a pending binary batch once its records reach this size, so
/// frames stay cache-friendly and far below the wire's hard cap.
const BATCH_FLUSH_BYTES: usize = 32 << 10;

/// Default gap between clock-sync probes on a negotiated connection.
const PING_INTERVAL_US: u64 = 200_000;

/// Counters describing client activity: a snapshot of the client's
/// `net.client.*` registry counters (see [`ScopeClient::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Tuples accepted by [`ScopeClient::send`].
    pub tuples_queued: u64,
    /// Bytes successfully written to the socket.
    pub bytes_sent: u64,
    /// `pump` calls that made progress in either direction.
    pub pumps_with_progress: u64,
    /// Tuples received from the server's live feed / catch-up replay.
    pub tuples_received: u64,
    /// Server messages this client could not decode (skipped).
    pub recv_errors: u64,
}

/// Out-of-band notifications decoded from the server stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamEvent {
    /// The server accepted binary encoding (WELCOME).
    Negotiated(Protocol),
    /// The live feed was shed; a store replay from this µs follows.
    CatchUpBegin(u64),
    /// Replay finished through this µs; the live feed resumes after.
    CatchUpEnd(u64),
}

/// Cached gtel handles for one [`ScopeClient`] — the only place its
/// activity is counted.
#[derive(Debug)]
struct ClientTelemetry {
    registry: Arc<Registry>,
    /// `net.client.tuples_out` — tuples queued for transmission.
    tuples_out: Arc<Counter>,
    /// `net.client.bytes_sent` — bytes the socket accepted.
    bytes_sent: Arc<Counter>,
    /// `net.client.pumps_with_progress` — pumps that moved bytes.
    pumps_with_progress: Arc<Counter>,
    /// `net.client.tuples_in` — tuples received from the server.
    tuples_in: Arc<Counter>,
    /// `net.client.recv_errors` — server messages not decoded.
    recv_errors: Arc<Counter>,
    /// `net.client.reconnects` — successful reconnections.
    reconnects: Arc<Counter>,
    /// `net.client.queue_bytes` — out-buffer depth after each pump.
    queue_bytes: Arc<Gauge>,
    /// `net.client.clock.offset_us` — estimated server − client offset.
    clock_offset: Arc<Gauge>,
    /// `net.client.clock.rtt_us` — smoothed sync-exchange RTT.
    clock_rtt: Arc<Gauge>,
    /// `net.client.clock.error_us` — offset error bound.
    clock_error: Arc<Gauge>,
}

impl ClientTelemetry {
    fn new(registry: Arc<Registry>) -> Self {
        ClientTelemetry {
            tuples_out: registry.counter("net.client.tuples_out"),
            bytes_sent: registry.counter("net.client.bytes_sent"),
            pumps_with_progress: registry.counter("net.client.pumps_with_progress"),
            tuples_in: registry.counter("net.client.tuples_in"),
            recv_errors: registry.counter("net.client.recv_errors"),
            reconnects: registry.counter("net.client.reconnects"),
            queue_bytes: registry.gauge("net.client.queue_bytes"),
            clock_offset: registry.gauge("net.client.clock.offset_us"),
            clock_rtt: registry.gauge("net.client.clock.rtt_us"),
            clock_error: registry.gauge("net.client.clock.error_us"),
            registry,
        }
    }
}

impl Default for ClientTelemetry {
    fn default() -> Self {
        ClientTelemetry::new(Registry::shared())
    }
}

/// A non-blocking streaming connection to a [`ScopeServer`].
///
/// [`ScopeServer`]: crate::server::ScopeServer
pub struct ScopeClient {
    stream: TcpStream,
    addr: std::net::SocketAddr,
    outbuf: VecDeque<u8>,
    /// Reusable line-encoding scratch: the send path formats into this
    /// buffer and copies into `outbuf`, so steady-state sends allocate
    /// nothing (no intermediate `String` per tuple).
    scratch: Vec<u8>,
    /// Pending binary batch (used once `proto` is Binary).
    enc: BatchEncoder,
    /// Bytes read from the server, split into messages by `pump`.
    inbuf: Vec<u8>,
    read_buf: Vec<u8>,
    /// DATA decode scratch.
    wire_scratch: Vec<crate::wire::WireRec>,
    /// Tuples received from the server, drained by `take_received`.
    rx: Vec<Tuple>,
    /// Events received from the server, drained by `take_events`.
    events: Vec<StreamEvent>,
    /// Encoding this client currently emits.
    proto: Protocol,
    /// HELLO sent; upgrade to binary when WELCOME arrives.
    prefer_binary: bool,
    /// Capability bits the server's WELCOME granted (intersection).
    peer_caps: u8,
    /// Node identity stamped into origin headers; `None` disables
    /// stamping even when the server negotiated [`FLAG_ORIGIN`].
    node_id: Option<u64>,
    /// Per-connection clock model fed by PING/PONG exchanges.
    clock: ClockEstimator,
    /// Local µs of the last probe sent (0 = never).
    last_ping_us: u64,
    /// Gap between probes; tests shrink this to converge fast.
    ping_interval_us: u64,
    closed: bool,
    telemetry: ClientTelemetry,
}

impl ScopeClient {
    /// Connects to a gscope server and switches the socket to
    /// non-blocking mode. The connection speaks text only — the legacy
    /// §3.3 protocol, byte-identical to what `nc` would send.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(ScopeClient {
            stream,
            addr,
            outbuf: VecDeque::new(),
            scratch: Vec::with_capacity(64),
            enc: BatchEncoder::new(),
            inbuf: Vec::new(),
            read_buf: vec![0u8; 16 << 10],
            wire_scratch: Vec::new(),
            rx: Vec::new(),
            events: Vec::new(),
            proto: Protocol::Text,
            prefer_binary: false,
            peer_caps: 0,
            node_id: None,
            clock: ClockEstimator::new(),
            last_ping_us: 0,
            ping_interval_us: PING_INTERVAL_US,
            closed: false,
            telemetry: ClientTelemetry::default(),
        })
    }

    /// Connects and announces binary capability (HELLO). Sends stay
    /// text until the server answers WELCOME; against a legacy server
    /// the client silently remains on text.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let mut c = ScopeClient::connect(addr)?;
        c.set_prefer_binary();
        Ok(c)
    }

    /// Announces binary capability on an existing connection (queues a
    /// HELLO frame). Idempotent.
    pub fn set_prefer_binary(&mut self) {
        if self.prefer_binary {
            return;
        }
        self.prefer_binary = true;
        self.scratch.clear();
        frame_hello(&mut self.scratch, LOCAL_CAPS);
        self.outbuf.extend(self.scratch.iter().copied());
    }

    /// Sets the node identity stamped into origin headers once the
    /// server negotiates [`FLAG_ORIGIN`]. Without one, batches stay
    /// plain `OP_DATA` even on a capable connection.
    pub fn set_node_id(&mut self, node_id: u64) {
        self.node_id = Some(node_id);
    }

    /// The node identity stamped into origin headers, if any.
    pub fn node_id(&self) -> Option<u64> {
        self.node_id
    }

    /// Shrinks (or widens) the clock-probe interval. Mostly a test
    /// hook: production connections converge within a few defaults.
    pub fn set_ping_interval_us(&mut self, interval_us: u64) {
        self.ping_interval_us = interval_us.max(1);
    }

    /// The connection's clock model (server − client offset, RTT,
    /// drift, error bound); `None` until a sync exchange completes.
    pub fn clock_stats(&self) -> Option<ClockStats> {
        self.clock.stats()
    }

    /// Capability bits the server granted in its WELCOME.
    pub fn peer_caps(&self) -> u8 {
        self.peer_caps
    }

    /// The encoding this client currently emits ([`Protocol::Binary`]
    /// only after the server's WELCOME has arrived).
    pub fn negotiated(&self) -> Protocol {
        self.proto
    }

    /// Subscribes to the server's live feed; received tuples appear in
    /// [`ScopeClient::take_received`].
    pub fn subscribe(&mut self) {
        self.scratch.clear();
        match self.proto {
            Protocol::Binary => frame_arg(&mut self.scratch, OP_SUB, 0),
            Protocol::Text => {
                self.scratch.extend_from_slice(TEXT_SUB.as_bytes());
                self.scratch.push(b'\n');
            }
        }
        self.outbuf.extend(self.scratch.iter().copied());
    }

    /// The registry this client's `net.client.*` metrics live in.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry.registry
    }

    /// Re-homes the client's metrics into `registry`. Call before first
    /// use: [`ScopeClient::stats`] reads the current registry, so counts
    /// made before the move stay behind.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = ClientTelemetry::new(registry);
    }

    /// Re-establishes a dead connection to the same server, keeping any
    /// queued-but-unsent tuples. Long-lived monitors survive scope
    /// server restarts this way. Negotiation restarts from text (the
    /// new peer may be a different server); a HELLO is re-queued when
    /// binary was preferred.
    ///
    /// # Errors
    ///
    /// Propagates connection errors (the client stays closed).
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.closed = false;
        self.proto = Protocol::Text;
        self.peer_caps = 0;
        self.clock = ClockEstimator::new();
        self.last_ping_us = 0;
        self.inbuf.clear();
        self.enc.reset();
        if self.prefer_binary {
            self.scratch.clear();
            frame_hello(&mut self.scratch, LOCAL_CAPS);
            // Head of the queue: negotiation precedes queued tuples.
            for &b in self.scratch.iter().rev() {
                self.outbuf.push_front(b);
            }
        }
        self.telemetry.reconnects.inc();
        Ok(())
    }

    /// Times [`ScopeClient::reconnect`] succeeded.
    pub fn reconnects(&self) -> u64 {
        self.telemetry.reconnects.get()
    }

    /// Returns client statistics, read from the client's registry —
    /// the one place they are counted. Clients that share a registry
    /// share these counts.
    pub fn stats(&self) -> ClientStats {
        let t = &self.telemetry;
        ClientStats {
            tuples_queued: t.tuples_out.get(),
            bytes_sent: t.bytes_sent.get(),
            pumps_with_progress: t.pumps_with_progress.get(),
            tuples_received: t.tuples_in.get(),
            recv_errors: t.recv_errors.get(),
        }
    }

    /// Bytes queued but not yet written (including any un-flushed
    /// binary batch).
    pub fn pending_bytes(&self) -> usize {
        self.outbuf.len() + self.enc.pending_bytes()
    }

    /// True once the server has closed the connection or a write failed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Queues one tuple for transmission.
    pub fn send(&mut self, tuple: &Tuple) {
        match (self.proto, &tuple.name) {
            (Protocol::Binary, name) => {
                // Already-interned names skip the re-intern hash walk.
                self.enc
                    .push(tuple.time.as_micros(), tuple.value, name.as_ref());
                self.after_queue();
            }
            (Protocol::Text, _) => self.send_parts(tuple.time, tuple.value, tuple.name()),
        }
    }

    /// Queues one tuple given as loose parts — the zero-allocation send
    /// path: on text, the line is formatted into a reused scratch
    /// buffer and appended to the out-buffer with no `Tuple` or
    /// `String` built; on binary, the tuple is delta-encoded into the
    /// pending batch (name interning allocates only on first use).
    pub fn send_parts(&mut self, time: TimeStamp, value: f64, name: Option<&str>) {
        match self.proto {
            Protocol::Text => {
                self.scratch.clear();
                write_tuple_line(&mut self.scratch, time, value, name);
                self.scratch.push(b'\n');
                self.outbuf.extend(self.scratch.iter().copied());
            }
            Protocol::Binary => {
                let interned = name.map(intern);
                self.enc.push(time.as_micros(), value, interned.as_ref());
            }
        }
        self.after_queue();
    }

    fn after_queue(&mut self) {
        self.telemetry.tuples_out.inc();
        if self.enc.pending_bytes() >= BATCH_FLUSH_BYTES {
            self.flush_batch();
        }
        self.telemetry.queue_bytes.set_count(self.pending_bytes());
    }

    /// Moves the pending binary batch (if any) into the out-buffer as
    /// one DATA frame — origin-stamped when the server negotiated
    /// [`FLAG_ORIGIN`] and a node id is set, so every batch carries
    /// its flush time and the producer's open span for downstream
    /// lateness attribution and trace merging.
    fn flush_batch(&mut self) {
        if self.enc.is_empty() {
            return;
        }
        self.scratch.clear();
        match self.node_id {
            Some(node_id) if self.peer_caps & FLAG_ORIGIN != 0 => {
                let origin = Origin {
                    node_id,
                    send_us: wire_now_us(),
                    span_id: gtel::TraceCtx::current_span(),
                };
                self.enc.frame_into_origin(&mut self.scratch, &origin);
            }
            _ => {
                self.enc.frame_into(&mut self.scratch);
            }
        }
        self.outbuf.extend(self.scratch.iter().copied());
    }

    /// Queues a clock probe when the interval elapsed on a connection
    /// that negotiated [`FLAG_CLOCK_SYNC`].
    fn maybe_ping(&mut self) {
        if self.peer_caps & FLAG_CLOCK_SYNC == 0 {
            return;
        }
        let now = wire_now_us();
        if now.saturating_sub(self.last_ping_us) < self.ping_interval_us {
            return;
        }
        self.last_ping_us = now;
        self.scratch.clear();
        frame_ping(&mut self.scratch, now);
        self.outbuf.extend(self.scratch.iter().copied());
    }

    /// Queues a named sample stamped with `clock`'s current time.
    pub fn send_now(&mut self, clock: &dyn Clock, name: &str, value: f64) {
        self.send_parts(clock.now(), value, Some(name));
    }

    /// Queues a named sample at an explicit time.
    pub fn send_at(&mut self, time: TimeStamp, name: &str, value: f64) {
        self.send_parts(time, value, Some(name));
    }

    /// Tuples the server streamed to this client since the last call.
    pub fn take_received(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.rx)
    }

    /// Stream events (negotiation, catch-up transitions) since the
    /// last call.
    pub fn take_events(&mut self) -> Vec<StreamEvent> {
        std::mem::take(&mut self.events)
    }

    /// Writes as much queued data as the socket accepts right now and
    /// drains whatever the server sent back.
    ///
    /// Returns [`IoPoll::Worked`] if bytes moved either way,
    /// [`IoPoll::Idle`] if nothing could, and [`IoPoll::Remove`] on a
    /// dead connection — the values a `gel` I/O watch needs.
    pub fn pump(&mut self) -> IoPoll {
        if self.closed {
            return IoPoll::Remove;
        }
        self.flush_batch();
        self.maybe_ping();
        let mut progressed = false;
        while !self.outbuf.is_empty() {
            let (front, _) = self.outbuf.as_slices();
            match self.stream.write(front) {
                Ok(0) => {
                    self.closed = true;
                    return IoPoll::Remove;
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    self.telemetry.bytes_sent.add(n as u64);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    return IoPoll::Remove;
                }
            }
        }
        progressed |= self.read_incoming();
        if self.closed {
            return IoPoll::Remove;
        }
        self.telemetry.queue_bytes.set_count(self.pending_bytes());
        if progressed {
            self.telemetry.pumps_with_progress.inc();
            IoPoll::Worked
        } else {
            IoPoll::Idle
        }
    }

    /// Drains the socket's receive side and decodes complete messages.
    fn read_incoming(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&self.read_buf[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        if self.inbuf.is_empty() {
            return any;
        }
        // Moved out so parsed slices don't hold a borrow of `self`
        // while handlers mutate it.
        let mut pending = std::mem::take(&mut self.inbuf);
        let mut consumed = 0usize;
        loop {
            match split_message(&pending[consumed..]) {
                Ok(None) => break,
                Ok(Some((msg, n))) => {
                    consumed += n;
                    self.handle_message(msg);
                }
                Err(_) => {
                    // Server framing broken: nothing downstream can be
                    // trusted.
                    self.telemetry.recv_errors.inc();
                    self.closed = true;
                    break;
                }
            }
        }
        pending.drain(..consumed);
        self.inbuf = pending;
        any
    }

    fn handle_message(&mut self, msg: Msg<'_>) {
        match msg {
            Msg::Frame {
                op: OP_WELCOME,
                body,
            } => {
                if self.prefer_binary && self.proto != Protocol::Binary {
                    self.proto = Protocol::Binary;
                    // The server granted the intersection of what we
                    // advertised and what it implements; mask again so
                    // a buggy peer can't turn on bits we never offered.
                    let (_, flags) = decode_caps(body);
                    self.peer_caps = flags & LOCAL_CAPS;
                    self.events.push(StreamEvent::Negotiated(Protocol::Binary));
                }
            }
            Msg::Frame { op: OP_PING, body } => match decode_arg(body) {
                // The server is probing us: echo t0 with our receive
                // and send times (one instant — we reply inline).
                Ok(t0) => {
                    let now = wire_now_us();
                    self.scratch.clear();
                    frame_pong(&mut self.scratch, t0, now, now);
                    self.outbuf.extend(self.scratch.iter().copied());
                }
                Err(_) => self.telemetry.recv_errors.inc(),
            },
            Msg::Frame { op: OP_PONG, body } => match decode_pong(body) {
                Ok((t0, t1, t2)) => {
                    self.clock.update(t0, t1, t2, wire_now_us());
                    if let Some(s) = self.clock.stats() {
                        self.telemetry.clock_offset.set(s.offset_us);
                        self.telemetry.clock_rtt.set(s.rtt_us);
                        self.telemetry.clock_error.set(s.error_us);
                    }
                }
                Err(_) => self.telemetry.recv_errors.inc(),
            },
            Msg::Frame { op: OP_DATA, body } => {
                self.wire_scratch.clear();
                match decode_data(body, &mut self.wire_scratch) {
                    Ok(n) => {
                        self.telemetry.tuples_in.add(u64::from(n));
                        for rec in self.wire_scratch.drain(..) {
                            self.rx.push(Tuple {
                                time: TimeStamp::from_micros(rec.time_us),
                                value: rec.value,
                                name: rec.name,
                            });
                        }
                    }
                    Err(_) => {
                        self.telemetry.recv_errors.inc();
                        self.closed = true;
                    }
                }
            }
            Msg::Frame {
                op: OP_CATCHUP_BEGIN,
                body,
            } => match decode_arg(body) {
                Ok(us) => self.events.push(StreamEvent::CatchUpBegin(us)),
                Err(_) => self.telemetry.recv_errors.inc(),
            },
            Msg::Frame {
                op: OP_CATCHUP_END,
                body,
            } => match decode_arg(body) {
                Ok(us) => self.events.push(StreamEvent::CatchUpEnd(us)),
                Err(_) => self.telemetry.recv_errors.inc(),
            },
            Msg::Frame { .. } => {
                self.telemetry.recv_errors.inc();
            }
            Msg::Line(line) => self.handle_line(line),
        }
    }

    fn handle_line(&mut self, line: &[u8]) {
        let Ok(text) = std::str::from_utf8(line) else {
            self.telemetry.recv_errors.inc();
            return;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return;
        }
        if trimmed.starts_with('#') {
            // Catch-up markers ride as comments on text connections so
            // legacy readers skip them transparently.
            if let Some(v) = trimmed.strip_prefix(TEXT_CATCHUP_BEGIN) {
                if let Ok(us) = v.trim().parse::<u64>() {
                    self.events.push(StreamEvent::CatchUpBegin(us));
                }
            } else if let Some(v) = trimmed.strip_prefix(TEXT_CATCHUP_END) {
                if let Ok(us) = v.trim().parse::<u64>() {
                    self.events.push(StreamEvent::CatchUpEnd(us));
                }
            }
            return;
        }
        match Tuple::parse_raw(trimmed, 0) {
            Ok(raw) => {
                self.rx.push(raw.to_tuple());
                self.telemetry.tuples_in.inc();
            }
            Err(_) => self.telemetry.recv_errors.inc(),
        }
    }

    /// Blocks until the out-buffer (and any pending binary batch)
    /// drains (test/shutdown helper; spins on the non-blocking socket).
    ///
    /// # Errors
    ///
    /// Returns an error if the connection dies first.
    pub fn flush_blocking(&mut self) -> std::io::Result<()> {
        self.flush_batch();
        while !self.outbuf.is_empty() {
            match self.pump() {
                IoPoll::Remove => {
                    return Err(std::io::Error::new(
                        ErrorKind::BrokenPipe,
                        "connection closed while flushing",
                    ))
                }
                IoPoll::Idle => std::thread::sleep(std::time::Duration::from_millis(1)),
                IoPoll::Worked => {}
            }
        }
        Ok(())
    }
}
