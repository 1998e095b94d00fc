//! The gscope server library (§4.4), scaled out.
//!
//! "The server receives data from one or more clients asynchronously
//! and buffers the data. It then displays these BUFFER signals to one
//! or more scopes with a user-specified delay. Data arriving at the
//! server after this delay is not buffered but dropped immediately."
//!
//! [`ScopeServer`] is now a facade over a sharded streaming hub (see
//! [`crate::shard`]): the acceptor pins each connection to one of N
//! per-core shards, and each shard runs its own readiness-driven
//! non-blocking loop. Two ways to drive it:
//!
//! * **Inline** — [`ScopeServer::poll`] accepts and cycles every shard
//!   on the caller's thread, exactly like the old single-threaded
//!   server (and [`attach_server`] wires the acceptor and each shard
//!   to a `gel` main loop as *independent* watches, so no lock is held
//!   across the whole poll).
//! * **Threaded** — [`ScopeServer::spawn_shards`] starts one thread
//!   per shard plus an acceptor; each shard blocks in its own `epoll`
//!   wait, and the acceptor in one on the listener. Hand-offs and
//!   shutdown end those waits through each shard's wake `eventfd`, so
//!   no thread sleeps on a timer. This is the thread-per-core mode the
//!   10k-client benchmark runs.
//!
//! Clients may speak the §3.3 text protocol or negotiate the binary
//! frame protocol ([`crate::wire`]); subscribers under backpressure
//! are demoted to store-backed catch-up instead of growing an
//! unbounded queue.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use gel::{Continue, IoPoll, MainLoop, SourceId, TimeDelta};
use gstore::Store;
use gtel::Registry;
use parking_lot::Mutex;

use crate::poll::{Poller, Waker};
use crate::shard::{catch_up_scopes, cycle, HubScope, HubShared, ServerTelemetry, Shard};
pub use crate::shard::{ClientInfo, HubConfig};
use crate::wire::StreamConn;
use gscope::SharedScope;

/// Counters describing server activity, aggregated across shards: a
/// snapshot of the hub's `net.server.*` registry counters (see
/// [`ScopeServer::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Clients that disconnected (or errored).
    pub disconnects: u64,
    /// Tuples parsed and delivered to scope buffers.
    pub tuples_received: u64,
    /// Lines that failed to parse (skipped).
    pub parse_errors: u64,
    /// Protocol violations: broken frames, bad commands, runaway
    /// unframed input. Frame-level violations kill the connection.
    pub protocol_errors: u64,
    /// Tuples rejected by every attached scope (late or no scope).
    pub tuples_dropped: u64,
    /// Tuples teed into the attached store.
    pub tuples_stored: u64,
    /// Tuples the store rejected as time-regressive — the storage
    /// analogue of the buffer's late-drop rule (§4.4).
    pub store_drops: u64,
    /// Store write/read failures (the server keeps serving).
    pub store_errors: u64,
    /// Tuples replayed out of the store — by [`ScopeServer::catch_up`]
    /// or to backpressured subscribers catching up.
    pub catch_up_tuples: u64,
    /// Tuples queued out to live subscribers (a batch shed on arrival
    /// counts here and in `tuples_shed`).
    pub tuples_out: u64,
    /// Bytes written to subscriber sockets.
    pub bytes_out: u64,
    /// Output-queue overflow (shed) events.
    pub shed_events: u64,
    /// Tuples discarded by those sheds (queued but never written) —
    /// the term that makes per-client output accounting reconcile:
    /// `tuples_out - tuples_shed - queue_tuples` is exactly what was
    /// written toward subscribers.
    pub tuples_shed: u64,
    /// Subscribers demoted to store-backed catch-up.
    pub catch_ups_entered: u64,
    /// Catch-ups that finished and rejoined the live feed.
    pub catch_ups_completed: u64,
}

/// A sharded, non-blocking tuple-stream hub feeding one or more scopes
/// (and optionally a persistent store), serving text and binary
/// subscribers with per-client backpressure.
pub struct ScopeServer {
    listener: Arc<TcpListener>,
    shared: Arc<HubShared>,
    shards: Vec<Arc<Shard>>,
    running: Arc<AtomicBool>,
    /// Ends the acceptor thread's wait at shutdown.
    acceptor_waker: Option<Arc<Waker>>,
    threads: Vec<JoinHandle<()>>,
}

impl ScopeServer {
    /// Binds a server socket (use port 0 for an ephemeral port) with
    /// default [`HubConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        ScopeServer::with_config(addr, HubConfig::default())
    }

    /// Binds a server socket with explicit hub tuning.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn with_config(addr: impl ToSocketAddrs, cfg: HubConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(HubShared::new(cfg));
        let n = cfg.effective_shards();
        let shards: Vec<Arc<Shard>> = (0..n).map(|id| Arc::new(Shard::new(id))).collect();
        shared
            .shards
            .set(shards.clone())
            .unwrap_or_else(|_| unreachable!("fresh hub"));
        Ok(ScopeServer {
            listener: Arc::new(listener),
            shared,
            shards,
            running: Arc::new(AtomicBool::new(false)),
            acceptor_waker: None,
            threads: Vec::new(),
        })
    }

    /// The registry this server's `net.server.*` metrics live in.
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.tel.read().registry)
    }

    /// Re-homes the server's metrics into `registry` (e.g. a registry
    /// shared with the scope and main loop for one combined snapshot).
    /// Call before first use: [`ScopeServer::stats`] reads the current
    /// registry, so counts made before the move stay behind.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        *self.shared.tel.write() = ServerTelemetry::new(registry);
    }

    /// The bound address (for handing to clients).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of shards serving this hub.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Attaches a scope: received tuples are pushed into its buffer.
    /// The hub keeps a clone of the scope's buffer and pushes through
    /// it, so ingest does not wait while the display holds the scope.
    /// Locks the scope briefly to take that clone.
    pub fn add_scope(&mut self, scope: SharedScope) {
        self.shared.scopes.write().push(HubScope::new(scope));
    }

    /// Attaches a scope and immediately replays the last `window` of
    /// stored history into every attached scope, so its display starts
    /// populated instead of blank. No-op without a store. The window
    /// must fit inside the scopes' delay, or the buffers' late-drop
    /// rule (§4.4) discards the replayed history again.
    ///
    /// Returns the number of tuples replayed.
    pub fn add_scope_with_catch_up(&mut self, scope: SharedScope, window: TimeDelta) -> u64 {
        self.shared.scopes.write().push(HubScope::new(scope));
        catch_up_scopes(&self.shared, window)
    }

    /// Installs a persistent store: from now on every delivered tuple
    /// is also appended to it (the tee), [`ScopeServer::catch_up`] can
    /// replay recent history, and backpressured subscribers catch up
    /// from it instead of dropping data. Replaces any previous store.
    pub fn set_store(&mut self, store: Store) {
        *self.shared.store.lock() = Some(store);
        self.shared.store_present.store(true, Ordering::Release);
    }

    /// Runs `f` against the attached store, if any.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut Store) -> R) -> Option<R> {
        self.shared.store.lock().as_mut().map(f)
    }

    /// Detaches and returns the store (flush/close is the caller's).
    pub fn take_store(&mut self) -> Option<Store> {
        self.shared.store_present.store(false, Ordering::Release);
        self.shared.store_dirty.store(false, Ordering::Release);
        self.shared.store.lock().take()
    }

    /// Flushes the store tee so readers (and a crash) see everything
    /// received so far. Returns false (and counts a store error) on
    /// failure; the server keeps running either way.
    pub fn flush_store(&mut self) -> bool {
        let ok = {
            let mut guard = self.shared.store.lock();
            match guard.as_mut().map(Store::flush) {
                None | Some(Ok(())) => true,
                Some(Err(_)) => false,
            }
        };
        if ok {
            self.shared.store_dirty.store(false, Ordering::Release);
        } else {
            self.shared.tel.read().store_errors.inc();
        }
        ok
    }

    /// Replays the last `window` of stored history (relative to the
    /// newest stored frame) into the attached scopes. The replay reads
    /// the store through its seek index, so catch-up cost scales with
    /// the window, not with the total history size.
    ///
    /// Returns the number of tuples replayed (0 without a store).
    pub fn catch_up(&mut self, window: TimeDelta) -> u64 {
        catch_up_scopes(&self.shared, window)
    }

    /// Enables or disables automatic creation of `BUFFER` signals for
    /// unseen signal names (default on).
    pub fn set_auto_register(&mut self, on: bool) {
        self.shared.auto_register.store(on, Ordering::Relaxed);
    }

    /// Returns server statistics, aggregated across all shards and
    /// read from the hub's registry — the one place they are counted.
    /// Hubs that share a registry share these counts.
    pub fn stats(&self) -> ServerStats {
        let t = self.shared.tel.read();
        ServerStats {
            connections: t.connections.get(),
            disconnects: t.disconnects.get(),
            tuples_received: t.tuples_in.get(),
            parse_errors: t.parse_errors.get(),
            protocol_errors: t.protocol_errors.get(),
            tuples_dropped: t.tuples_dropped.get(),
            tuples_stored: t.tuples_stored.get(),
            store_drops: t.store_drops.get(),
            store_errors: t.store_errors.get(),
            catch_up_tuples: t.catch_up.get(),
            tuples_out: t.tuples_out.get(),
            bytes_out: t.bytes_out.get(),
            shed_events: t.sheds.get(),
            tuples_shed: t.tuples_shed.get(),
            catch_ups_entered: t.catch_ups.get(),
            catch_ups_completed: t.catch_ups_completed.get(),
        }
    }

    /// Number of connected clients across all shards.
    pub fn client_count(&self) -> usize {
        self.shared.client_count.load(Ordering::Relaxed)
    }

    /// Per-client counters for every connection, across all shards —
    /// the view that makes one misbehaving client stand out from the
    /// aggregate stats.
    pub fn client_stats(&self) -> Vec<ClientInfo> {
        self.shards.iter().flat_map(|s| s.client_stats()).collect()
    }

    /// Hands a pre-established connection (e.g. a `netsim` shaped
    /// link) to the hub; it is pinned to a shard like an accepted
    /// socket.
    pub fn add_conn(&self, conn: Box<dyn StreamConn>) {
        self.shared.pin_connection(conn);
    }

    fn accept_pending(&self) -> bool {
        accept_into(&self.listener, &self.shared)
    }

    /// Accepts pending connections and cycles every shard once on the
    /// calling thread (inline mode).
    ///
    /// Returns [`IoPoll::Worked`] if anything happened — the shape a
    /// `gel` I/O watch expects.
    pub fn poll(&mut self) -> IoPoll {
        let mut any = self.accept_pending();
        for shard in &self.shards {
            any |= cycle(shard, &self.shared, 0);
        }
        if any {
            IoPoll::Worked
        } else {
            IoPoll::Idle
        }
    }

    /// Starts thread-per-core mode: one thread per shard (each parked
    /// in its own `epoll` wait) plus an acceptor thread (parked in one
    /// on the listener). Idempotent. Threads stop when the server
    /// drops. Inline [`ScopeServer::poll`] remains safe to call
    /// concurrently (shards are mutex-protected) but is pointless once
    /// threads run.
    pub fn spawn_shards(&mut self) {
        if self.running.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shards {
            let shard = Arc::clone(shard);
            let shared = Arc::clone(&self.shared);
            let running = Arc::clone(&self.running);
            self.threads.push(
                std::thread::Builder::new()
                    .name(format!("gnet-shard-{}", shard.id))
                    .spawn(move || {
                        let pacing = std::time::Duration::from_micros(shared.cfg.scan_pacing_us);
                        while running.load(Ordering::Acquire) {
                            // Blocks until a socket, the shard's waker
                            // or a client timer has work for it.
                            let worked = cycle(&shard, &shared, -1);
                            let scanning = shard.scan_mode.load(Ordering::Relaxed);
                            if !worked && (scanning || !shard.has_poller()) {
                                // A scanning cycle returns at once;
                                // don't spin.
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            } else if worked && scanning && !pacing.is_zero() {
                                // Hint-scanned clients have no kernel
                                // wakeup: pause so arrivals batch
                                // instead of re-scanning immediately.
                                std::thread::sleep(pacing);
                            }
                        }
                    })
                    .expect("spawn shard thread"),
            );
        }
        let listener = Arc::clone(&self.listener);
        let shared = Arc::clone(&self.shared);
        let running = Arc::clone(&self.running);
        let parked = acceptor_poller(&listener);
        self.acceptor_waker = parked.as_ref().map(|(_, waker)| Arc::clone(waker));
        self.threads.push(
            std::thread::Builder::new()
                .name("gnet-acceptor".to_owned())
                .spawn(move || {
                    let mut ready = Vec::new();
                    while running.load(Ordering::Acquire) {
                        let accepted = accept_into(&listener, &shared);
                        match &parked {
                            // Level-triggered: a connection that lands
                            // after the accept above ends the wait.
                            Some((poller, _)) => {
                                ready.clear();
                                poller.wait(&mut ready, -1);
                            }
                            None if !accepted => {
                                std::thread::sleep(std::time::Duration::from_micros(500));
                            }
                            None => {}
                        }
                    }
                })
                .expect("spawn acceptor thread"),
        );
    }

    /// True when [`ScopeServer::spawn_shards`] threads are running.
    pub fn threaded(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }
}

impl Drop for ScopeServer {
    fn drop(&mut self) {
        self.running.store(false, Ordering::Release);
        for shard in &self.shards {
            shard.wake();
        }
        if let Some(waker) = &self.acceptor_waker {
            waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Installs a shared server on a main loop: one I/O watch per shard
/// plus an acceptor watch, each locking only its own shard's state —
/// no lock is held across the whole poll, so several loop workers (or
/// a threaded loop) can drive different shards concurrently.
///
/// Returns the acceptor's [`SourceId`] (removing it stops new
/// connections; shard watches stay).
pub fn attach_server(server: &Arc<Mutex<ScopeServer>>, ml: &mut MainLoop) -> SourceId {
    let (listener, shared, shards) = {
        let guard = server.lock();
        (
            Arc::clone(&guard.listener),
            Arc::clone(&guard.shared),
            guard.shards.clone(),
        )
    };
    // Acceptor first: connections accepted this iteration are adopted
    // by the shard watches dispatched right after it.
    let acceptor = {
        let shared = Arc::clone(&shared);
        ml.add_io_watch(Box::new(move || {
            if accept_into(&listener, &shared) {
                IoPoll::Worked
            } else {
                IoPoll::Idle
            }
        }))
    };
    for shard in shards {
        let shared = Arc::clone(&shared);
        ml.add_io_watch(Box::new(move || {
            if cycle(&shard, &shared, 0) {
                IoPoll::Worked
            } else {
                IoPoll::Idle
            }
        }));
    }
    acceptor
}

/// Sets up a socket the hub accepted: non-blocking, and
/// `TCP_NODELAY`, as [`ScopeClient`](crate::ScopeClient) sets on every
/// connection it opens. Without it each fan-out write to a subscriber
/// waits for the previous segment's delayed ACK (Nagle), which spends
/// the display delay before the data is even on the wire.
///
/// Each failure is counted in `net.server.sockopt_errors`. Returns
/// false when the socket cannot be made non-blocking — the hub's loop
/// would stall on it, so the caller drops it; a `TCP_NODELAY` failure
/// only costs latency, so the socket is kept.
fn prepare_accepted(stream: &TcpStream, shared: &HubShared) -> bool {
    let nonblocking = stream.set_nonblocking(true).is_ok();
    let nodelay = stream.set_nodelay(true).is_ok();
    let failures = u64::from(!nonblocking) + u64::from(!nodelay);
    if failures > 0 {
        shared.tel.read().sockopt_errors.add(failures);
    }
    nonblocking
}

/// A poller for the acceptor thread: the listener's read readiness
/// plus a waker for shutdown. `None` without epoll or an `eventfd`;
/// the acceptor then polls the listener on a short sleep.
fn acceptor_poller(listener: &TcpListener) -> Option<(Poller, Arc<Waker>)> {
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    let fd = listener_fd(listener)?;
    (poller.add(fd, 0) && poller.add_waker(&waker, 1)).then_some((poller, waker))
}

#[cfg(unix)]
fn listener_fd(listener: &TcpListener) -> Option<i32> {
    use std::os::unix::io::AsRawFd;
    Some(listener.as_raw_fd())
}

#[cfg(not(unix))]
fn listener_fd(_listener: &TcpListener) -> Option<i32> {
    None
}

/// Drains the listener into the hub, pinning each connection to a
/// shard. Returns true when any connection was accepted (recorded as
/// a `net.server.accept` span so accept cost shows up in traces).
fn accept_into(listener: &TcpListener, shared: &HubShared) -> bool {
    let begin_ns = gtel::fast_now_ns();
    let mut accepted = 0u64;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if !prepare_accepted(&stream, shared) {
                    continue;
                }
                shared.pin_connection(Box::new(stream));
                accepted += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    if accepted > 0 {
        gtel::complete_span("net.server.accept", accepted, begin_ns);
    }
    accepted > 0
}

/// Installs a shared client's pump as an I/O watch on a main loop.
///
/// The watch removes itself when the connection dies.
pub fn attach_client(
    client: &Arc<Mutex<crate::client::ScopeClient>>,
    ml: &mut MainLoop,
) -> SourceId {
    let client = Arc::clone(client);
    ml.add_io_watch(Box::new(move || client.lock().pump()))
}

/// Convenience: installs a periodic timeout that samples `f` every
/// `period` and streams the value as `name` — a remote sensor in a few
/// lines.
pub fn stream_periodic<F>(
    client: &Arc<Mutex<crate::client::ScopeClient>>,
    ml: &mut MainLoop,
    name: &str,
    period: TimeDelta,
    mut f: F,
) -> SourceId
where
    F: FnMut() -> f64 + Send + 'static,
{
    let client = Arc::clone(client);
    let name = name.to_owned();
    ml.add_timeout(
        period,
        Box::new(move |tick| {
            let mut c = client.lock();
            if c.is_closed() {
                return Continue::Remove;
            }
            c.send_at(tick.now, &name, f());
            c.pump();
            Continue::Keep
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_get_nodelay_and_nonblocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(
            !stream.nodelay().unwrap(),
            "accepted sockets start with Nagle on"
        );
        let shared = HubShared::new(HubConfig::default());
        *shared.tel.write() = ServerTelemetry::new(Arc::new(Registry::new()));
        let errors = Arc::clone(&shared.tel.read().sockopt_errors);
        assert!(prepare_accepted(&stream, &shared));
        assert!(
            stream.nodelay().unwrap(),
            "hub sockets must not wait on Nagle"
        );
        let mut buf = [0u8; 1];
        let read = std::io::Read::read(&mut &stream, &mut buf);
        assert_eq!(
            read.map_err(|e| e.kind()),
            Err(ErrorKind::WouldBlock),
            "hub sockets must not block the shard loop"
        );
        assert_eq!(errors.get(), 0, "no option failed");
    }

    #[test]
    fn dropping_a_threaded_server_joins_its_blocked_threads() {
        let mut server = ScopeServer::with_config(
            "127.0.0.1:0",
            HubConfig {
                shards: 2,
                ..HubConfig::default()
            },
        )
        .unwrap();
        server.spawn_shards();
        // One connection, so one shard blocks with a client and one
        // without; the acceptor blocks on the listener.
        let _peer = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        while server.client_count() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (tx, rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(server);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("drop must wake and join every hub thread");
        dropper.join().unwrap();
    }
}
