//! The hub's scope-ingest and fan-out paths, driven deterministically:
//! every connection is an in-memory [`StreamConn`] and the hub runs
//! inline ([`ScopeServer::poll`]), so each poll is one fixed cycle.
//!
//! - ingest pushes through the hub's clone of the scope buffer and does
//!   not wait on the `Scope` mutex;
//! - auto-register keeps its semantics (new names, re-creation after
//!   removal, unnamed tuples, auto-register off);
//! - a fan-out batch discarded after a shed is counted, so a
//!   subscriber's books reconcile exactly.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gel::{TickInfo, TimeDelta, TimeStamp, VirtualClock};
use gnet::{HubConfig, ScopeServer, StreamConn};
use gscope::{Scope, SharedScope, SigConfig, SigSource, Tuple, UNNAMED_SIGNAL};

/// One side of an in-memory connection as the hub sees it: bytes the
/// test feeds in, bytes the hub wrote out, and how many more bytes the
/// "socket" accepts before it reports `WouldBlock`.
#[derive(Default)]
struct Pipe {
    inbound: VecDeque<u8>,
    outbound: Vec<u8>,
    write_budget: usize,
}

#[derive(Clone)]
struct MemConn(Arc<Mutex<Pipe>>);

impl MemConn {
    fn new(write_budget: usize) -> MemConn {
        MemConn(Arc::new(Mutex::new(Pipe {
            write_budget,
            ..Pipe::default()
        })))
    }

    fn feed(&self, bytes: &[u8]) {
        self.0.lock().unwrap().inbound.extend(bytes);
    }

    fn feed_tuples(&self, tuples: &[Tuple]) {
        let mut text = Vec::new();
        for t in tuples {
            t.write_line_into(&mut text);
            text.push(b'\n');
        }
        self.feed(&text);
    }

    fn set_write_budget(&self, bytes: usize) {
        self.0.lock().unwrap().write_budget = bytes;
    }

    /// Tuple lines the hub has written so far (comments skipped).
    fn received_tuples(&self) -> Vec<Tuple> {
        let pipe = self.0.lock().unwrap();
        std::str::from_utf8(&pipe.outbound)
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| Tuple::parse_line(l, 1).unwrap())
            .collect()
    }
}

impl StreamConn for MemConn {
    fn read_nb(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut pipe = self.0.lock().unwrap();
        if pipe.inbound.is_empty() {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(pipe.inbound.len());
        for (dst, src) in buf.iter_mut().zip(pipe.inbound.drain(..n)) {
            *dst = src;
        }
        Ok(n)
    }

    fn write_nb(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut pipe = self.0.lock().unwrap();
        let n = buf.len().min(pipe.write_budget);
        if n == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        pipe.write_budget -= n;
        pipe.outbound.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn peer_label(&self) -> String {
        "mem".to_owned()
    }
}

fn one_shard(outbuf_cap: usize) -> ScopeServer {
    let cfg = HubConfig {
        shards: 1,
        outbuf_cap,
        ..HubConfig::default()
    };
    ScopeServer::with_config("127.0.0.1:0", cfg).unwrap()
}

/// A polling scope on a virtual clock at 1 s, with a 100 ms delay.
fn scope_at_one_second() -> (SharedScope, VirtualClock) {
    let clock = VirtualClock::new();
    clock.advance(TimeDelta::from_secs(1));
    let mut scope = Scope::new("hub", 16, 8, Arc::new(clock.clone()));
    scope.set_delay(TimeDelta::from_millis(100));
    scope.set_polling_mode(TimeDelta::from_millis(10)).unwrap();
    scope.start();
    (scope.into_shared(), clock)
}

/// Advances the clock past every fed tuple's display deadline and ticks
/// the scope once, so the buffer drains into the signals.
fn drain_ticks(scope: &SharedScope, clock: &VirtualClock) {
    clock.advance(TimeDelta::from_millis(500));
    let now = gel::Clock::now(clock);
    scope.lock().tick(&TickInfo {
        now,
        scheduled: now,
        missed: 0,
    });
}

/// Values a signal's trace shows.
fn shown(scope: &SharedScope, name: &str) -> Vec<f64> {
    scope.lock().display_cols(name).iter().flatten().collect()
}

fn tuple_at(ms: u64, value: f64, name: &str) -> Tuple {
    Tuple::new(TimeStamp::from_millis(ms), value, name)
}

#[test]
fn inline_poll_ingests_and_fans_out_while_the_scope_is_locked() {
    let (scope, _clock) = scope_at_one_second();
    scope
        .lock()
        .add_signal("held", SigSource::Buffer, SigConfig::default())
        .unwrap();
    let mut server = one_shard(1 << 20);
    server.add_scope(Arc::clone(&scope));
    let sub = MemConn::new(usize::MAX);
    sub.feed(b"!sub\n");
    server.add_conn(Box::new(sub.clone()));
    let producer = MemConn::new(usize::MAX);
    server.add_conn(Box::new(producer.clone()));
    server.poll(); // adopt both, subscribe

    let tuples: Vec<Tuple> = (0..40)
        .map(|i| tuple_at(1_000 + i, i as f64, "held"))
        .collect();
    producer.feed_tuples(&tuples);

    // The display holds the scope (as a tick plus render does) while
    // the hub cycles on another thread.
    let guard = scope.lock();
    let (tx, rx) = channel();
    let hub = std::thread::spawn(move || {
        server.poll();
        let _ = tx.send(server);
    });
    // The timeout only turns a deadlock into a failure; a working hub
    // answers at once.
    let server = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("ScopeServer::poll blocked on the Scope mutex");
    hub.join().expect("hub thread");
    assert_eq!(guard.buffer().len(), 40, "ingest reached the scope buffer");
    drop(guard);

    let stats = server.stats();
    assert_eq!(stats.tuples_received, 40);
    assert_eq!(stats.tuples_dropped, 0);
    assert_eq!(stats.tuples_out, 40, "fan-out queued the batch");
    assert_eq!(sub.received_tuples(), tuples, "and flushed it in order");
}

#[test]
fn auto_register_keeps_its_semantics() {
    let (scope, clock) = scope_at_one_second();
    let mut server = one_shard(1 << 20);
    server.add_scope(Arc::clone(&scope));
    let producer = MemConn::new(usize::MAX);
    server.add_conn(Box::new(producer.clone()));

    // A new name gets a signal before its tuples drain.
    producer.feed_tuples(&[tuple_at(1_000, 1.0, "x"), tuple_at(1_001, 2.0, "x")]);
    server.poll();
    assert!(scope.lock().signal("x").is_some(), "x registered at ingest");
    drain_ticks(&scope, &clock);
    assert!(shown(&scope, "x").contains(&2.0));

    // A signal removed while its name keeps streaming is re-created,
    // and the hub's confirmed-name cache does not hide the removal.
    scope.lock().remove_signal("x").unwrap();
    let t = gel::Clock::now(&clock).as_millis();
    producer.feed_tuples(&[tuple_at(t, 3.0, "x")]);
    server.poll();
    assert!(scope.lock().signal("x").is_some(), "x re-created");
    drain_ticks(&scope, &clock);
    assert!(shown(&scope, "x").contains(&3.0));

    // Unnamed tuples go to UNNAMED_SIGNAL.
    let t = gel::Clock::now(&clock).as_millis();
    producer.feed_tuples(&[Tuple::unnamed(TimeStamp::from_millis(t), 4.0)]);
    server.poll();
    assert!(scope.lock().signal(UNNAMED_SIGNAL).is_some());
    drain_ticks(&scope, &clock);
    assert!(shown(&scope, UNNAMED_SIGNAL).contains(&4.0));
    assert_eq!(server.stats().tuples_dropped, 0);
}

#[test]
fn auto_register_off_creates_nothing() {
    let (scope, clock) = scope_at_one_second();
    let mut server = one_shard(1 << 20);
    server.set_auto_register(false);
    server.add_scope(Arc::clone(&scope));
    let producer = MemConn::new(usize::MAX);
    server.add_conn(Box::new(producer.clone()));
    let t = gel::Clock::now(&clock).as_millis();
    producer.feed_tuples(&[tuple_at(t, 1.0, "y")]);
    producer.feed_tuples(&[Tuple::unnamed(TimeStamp::from_millis(t), 2.0)]);
    server.poll();
    let guard = scope.lock();
    assert_eq!(guard.signal_count(), 0, "no signal created");
    assert_eq!(guard.buffer().len(), 2, "the tuples are still buffered");
    assert_eq!(server.stats().tuples_received, 2);
}

#[test]
fn batch_shed_on_arrival_is_counted() {
    // No store: a shed is lossy. The subscriber's socket takes a few
    // bytes per cycle, so its queue fills, sheds, and keeps a
    // partially-written head frame; batches too big for what room the
    // shed leaves are discarded on arrival. Every tuple the hub
    // received must end up either read by the subscriber or counted as
    // shed.
    const CAP: usize = 256;
    let mut server = one_shard(CAP);
    let sub = MemConn::new(usize::MAX);
    sub.feed(b"!sub\n");
    server.add_conn(Box::new(sub.clone()));
    let producer = MemConn::new(usize::MAX);
    server.add_conn(Box::new(producer.clone()));
    server.poll();

    let mut total = 0u64;
    for round in 0..40u64 {
        // Batch sizes cycle 2..=22 tuples: the largest encode to more
        // than CAP bytes, so they can never fit.
        let n = 2 + (round * 5) % 21;
        let batch: Vec<Tuple> = (0..n)
            .map(|i| tuple_at(10_000 + total + i, (total + i) as f64, "shed.me"))
            .collect();
        total += n;
        producer.feed_tuples(&batch);
        sub.set_write_budget(40);
        server.poll();
    }
    // Drain: the socket now takes everything.
    sub.set_write_budget(usize::MAX);
    server.poll();

    let stats = server.stats();
    let infos = server.client_stats();
    let s = infos.iter().find(|c| c.subscribed).expect("subscriber");
    assert_eq!(stats.tuples_received, total);
    assert_eq!(s.queue_tuples, 0, "queue drained: {s:?}");
    assert!(stats.shed_events > 0, "the test must force sheds");
    assert_eq!(s.tuples_out, total, "every tuple was offered: {s:?}");
    let read = sub.received_tuples().len() as u64;
    assert!(read > 0 && read < total, "some delivered, some shed");
    assert_eq!(
        read + s.tuples_shed,
        stats.tuples_received,
        "received == delivered + shed: {s:?}"
    );
    assert_eq!(stats.tuples_shed, s.tuples_shed);
    let tel = server.telemetry();
    let counted = match tel.get("net.server.tuples_shed") {
        Some(gtel::Metric::Counter(c)) => c.get(),
        other => panic!("tuples_shed counter missing: {other:?}"),
    };
    assert!(counted >= s.tuples_shed, "gtel counts the same sheds");
}

/// Reads counter `name` without creating it: a missing name fails.
fn registry_count(reg: &gtel::Registry, name: &str) -> u64 {
    match reg.get(name) {
        Some(gtel::Metric::Counter(c)) => c.get(),
        other => panic!("{name} is not a registered counter: {other:?}"),
    }
}

#[test]
fn server_stats_are_the_registry_counts() {
    // Ingest with late drops, parse and protocol errors, a store tee,
    // and a slow subscriber that is shed into store catch-up and
    // rejoins: every field of the typed snapshot must read the
    // registry's count under its `net.server.*` name.
    let dir = std::env::temp_dir().join(format!("gnet-hub-single-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = one_shard(256);
    server.set_store(gstore::Store::open(&dir, gstore::StoreConfig::default()).unwrap());
    let (scope, _clock) = scope_at_one_second();
    server.add_scope(Arc::clone(&scope));
    let sub = MemConn::new(0);
    sub.feed(b"!sub\n");
    server.add_conn(Box::new(sub.clone()));
    let producer = MemConn::new(usize::MAX);
    server.add_conn(Box::new(producer.clone()));
    server.poll();

    producer.feed(b"garbage\n!bogus\n");
    producer.feed_tuples(&[tuple_at(10, 1.0, "late")]);
    for round in 0..20u64 {
        let batch: Vec<Tuple> = (0..8)
            .map(|i| tuple_at(10_000 + round * 8 + i, i as f64, "flood"))
            .collect();
        producer.feed_tuples(&batch);
        server.poll();
    }
    sub.set_write_budget(usize::MAX);
    for _ in 0..200 {
        server.poll();
    }

    let s = server.stats();
    assert!(s.shed_events > 0 && s.catch_ups_entered > 0, "{s:?}");
    assert!(s.catch_ups_completed > 0, "the subscriber rejoined: {s:?}");
    assert!(s.parse_errors > 0 && s.protocol_errors > 0, "{s:?}");
    assert!(s.tuples_dropped > 0 && s.tuples_stored > 0, "{s:?}");
    let reg = server.telemetry();
    for (name, field) in [
        ("net.server.connections", s.connections),
        ("net.server.disconnects", s.disconnects),
        ("net.server.tuples_in", s.tuples_received),
        ("net.server.parse_errors", s.parse_errors),
        ("net.server.protocol_errors", s.protocol_errors),
        ("net.server.tuples_dropped", s.tuples_dropped),
        ("net.server.tuples_stored", s.tuples_stored),
        ("net.server.store_drops", s.store_drops),
        ("net.server.store_errors", s.store_errors),
        ("net.server.catch_up_tuples", s.catch_up_tuples),
        ("net.server.tuples_out", s.tuples_out),
        ("net.server.bytes_out", s.bytes_out),
        ("net.server.sheds", s.shed_events),
        ("net.server.tuples_shed", s.tuples_shed),
        ("net.server.catch_ups", s.catch_ups_entered),
        ("net.server.catch_ups_completed", s.catch_ups_completed),
    ] {
        assert_eq!(registry_count(&reg, name), field, "{name}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
