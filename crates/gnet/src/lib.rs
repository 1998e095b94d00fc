//! `gnet` — distributed visualization for gscope (§4.4).
//!
//! "Gscope supports monitoring and visualization of distributed
//! applications. It implements a single-threaded I/O driven
//! client-server library that can be used by applications to monitor
//! remote data." Clients stream `BUFFER` tuples asynchronously; the
//! server buffers them into one or more scopes, which display them with
//! a user-specified delay and drop data that arrives too late.
//!
//! Everything is non-blocking and integrates with the `gel` main loop
//! via I/O watches, exactly the event-driven style Figure 6 and §4.3
//! prescribe — no extra threads required. At scale the server also
//! runs **thread-per-core**: [`ScopeServer::spawn_shards`] gives every
//! shard its own readiness-driven poll loop, with connections pinned
//! to shards by the acceptor so no global lock serializes I/O.
//!
//! The default wire format is the §3.3 textual tuple format, one tuple
//! per line, so `nc` and recorded files interoperate with live
//! streams. Binary-capable peers negotiate a length-delimited
//! delta-varint frame protocol ([`wire`]) that cuts bytes-on-wire
//! roughly 2× and parse cost more; negotiation degrades to text
//! automatically against legacy peers. Timestamps cross machine
//! boundaries untranslated; where the paper (footnote 1) *assumes*
//! distributed clocks are correlated, negotiated connections now
//! *measure* the correlation: periodic PING/PONG exchanges feed a
//! per-peer [`ClockEstimator`] (offset, RTT, drift, error bound), and
//! origin-stamped batches let every hop's lateness be attributed on
//! one timeline within that bound.

mod client;
pub mod clock;
mod poll;
mod server;
mod shard;
pub mod wire;

pub use client::{ClientStats, ScopeClient, StreamEvent};
pub use clock::{ClockEstimator, ClockStats};
pub use server::{
    attach_client, attach_server, stream_periodic, ClientInfo, HubConfig, ScopeServer, ServerStats,
};
pub use wire::{Protocol, StreamConn};

#[cfg(test)]
mod tests {
    use super::*;
    use gel::{Clock, IoPoll, TimeDelta, TimeStamp, VirtualClock};
    use gscope::{Scope, SigSource};
    use std::sync::Arc;

    fn spin_until(mut cond: impl FnMut() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("condition not reached within 2s");
    }

    fn pump_pair(client: &mut ScopeClient, server: &mut ScopeServer) {
        let _ = client.pump();
        let _ = server.poll();
    }

    #[test]
    fn client_streams_tuples_to_server_scope() {
        let clock = VirtualClock::new();
        clock.advance(TimeDelta::from_millis(1)); // non-zero epoch
        let scope = Scope::new("remote", 64, 48, Arc::new(clock.clone())).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(10));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();

        for i in 0..50u64 {
            client.send_at(TimeStamp::from_millis(i * 10), "rtt", i as f64);
        }
        assert_eq!(client.stats().tuples_queued, 50);
        spin_until(|| {
            pump_pair(&mut client, &mut server);
            server.stats().tuples_received == 50
        });
        assert_eq!(server.stats().parse_errors, 0);
        assert_eq!(server.client_count(), 1);
        // Auto-registered as a BUFFER signal, samples queued in the
        // scope buffer.
        let guard = scope.lock();
        assert!(guard.signal("rtt").is_some());
        assert_eq!(guard.signal("rtt").unwrap().source_type(), "BUFFER");
        assert_eq!(guard.buffer().len(), 50);
    }

    #[test]
    fn multiple_clients_multiplex() {
        let clock = VirtualClock::new();
        let scope = Scope::new("multi", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut c1 = ScopeClient::connect(addr).unwrap();
        let mut c2 = ScopeClient::connect(addr).unwrap();
        c1.send_at(TimeStamp::from_millis(5), "throughput", 100.0);
        c2.send_at(TimeStamp::from_millis(6), "latency", 2.5);
        spin_until(|| {
            let _ = c1.pump();
            let _ = c2.pump();
            let _ = server.poll();
            server.stats().tuples_received == 2
        });
        assert_eq!(server.stats().connections, 2);
        let guard = scope.lock();
        assert!(guard.signal("throughput").is_some());
        assert!(guard.signal("latency").is_some());
    }

    #[test]
    fn late_data_is_dropped_at_the_server() {
        // §4.4: "Data arriving at the server after this delay is not
        // buffered but dropped immediately."
        let clock = VirtualClock::new();
        clock.advance(TimeDelta::from_secs(10));
        let scope = Scope::new("late", 64, 48, Arc::new(clock.clone())).into_shared();
        scope.lock().set_delay(TimeDelta::from_millis(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        // Sample from t=1s, now 10s, delay 0.1s: hopelessly late.
        client.send_at(TimeStamp::from_secs(1), "old", 1.0);
        // Fresh sample: acceptable.
        client.send_at(clock.now(), "fresh", 2.0);
        spin_until(|| {
            pump_pair(&mut client, &mut server);
            server.stats().tuples_received == 2
        });
        let guard = scope.lock();
        assert_eq!(guard.buffer().len(), 1, "only the fresh sample queued");
        assert_eq!(guard.buffer().late_drops(), 1);
        assert_eq!(server.stats().tuples_dropped, 1);
    }

    #[test]
    fn malformed_lines_are_counted_and_skipped() {
        let clock = VirtualClock::new();
        let scope = Scope::new("bad", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"garbage line here extra\n10 1 ok\n\n# comment\nnot-a-time 5 x\n")
            .unwrap();
        raw.flush().unwrap();
        spin_until(|| {
            let _ = server.poll();
            server.stats().tuples_received == 1
        });
        assert_eq!(server.stats().parse_errors, 2);
        assert!(scope.lock().signal("ok").is_some());
    }

    #[test]
    fn disconnect_is_detected() {
        let clock = VirtualClock::new();
        let scope = Scope::new("dc", 64, 48, Arc::new(clock)).into_shared();
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        {
            let _client = ScopeClient::connect(addr).unwrap();
            spin_until(|| {
                let _ = server.poll();
                server.client_count() == 1
            });
        } // drop closes the socket
        spin_until(|| {
            let _ = server.poll();
            server.client_count() == 0
        });
        assert_eq!(server.stats().disconnects, 1);
    }

    #[test]
    fn client_reconnects_after_server_restart() {
        let clock = VirtualClock::new();
        let scope = Scope::new("rc", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        // First server instance.
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        client.send_at(TimeStamp::from_millis(1), "x", 1.0);
        client.flush_blocking().unwrap();
        spin_until(|| {
            let _ = server.poll();
            server.stats().tuples_received == 1
        });
        drop(server);
        // Pump until the client notices the dead connection.
        spin_until(|| {
            client.send_at(TimeStamp::from_millis(2), "x", 2.0);
            client.pump() == IoPoll::Remove || client.is_closed()
        });
        assert!(client.is_closed());
        // New server instance on the same port.
        let mut server = ScopeServer::bind(addr).unwrap();
        server.add_scope(Arc::clone(&scope));
        client.reconnect().unwrap();
        assert!(!client.is_closed());
        assert_eq!(client.reconnects(), 1);
        client.send_at(TimeStamp::from_millis(3), "x", 3.0);
        let before = server.stats().tuples_received;
        spin_until(|| {
            let _ = client.pump();
            let _ = server.poll();
            server.stats().tuples_received > before
        });
    }

    #[test]
    fn server_poll_reports_idle_when_quiet() {
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        assert_eq!(server.poll(), IoPoll::Idle);
    }

    #[test]
    fn telemetry_mirrors_stats_in_shared_registry() {
        let registry = gtel::Registry::shared();
        let clock = VirtualClock::new();
        let scope = Scope::new("tel", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.set_telemetry(Arc::clone(&registry));
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        client.set_telemetry(Arc::clone(&registry));
        for i in 0..20u64 {
            client.send_at(TimeStamp::from_millis(i), "m", i as f64);
        }
        spin_until(|| {
            pump_pair(&mut client, &mut server);
            server.stats().tuples_received == 20
        });
        assert_eq!(registry.counter("net.server.connections").get(), 1);
        assert_eq!(registry.counter("net.server.tuples_in").get(), 20);
        assert_eq!(registry.counter("net.client.tuples_out").get(), 20);
        assert!(registry.counter("net.client.bytes_sent").get() > 0);
        assert_eq!(registry.gauge("net.server.clients").get(), 1.0);
        assert_eq!(registry.gauge("net.client.queue_bytes").get(), 0.0);
    }

    #[test]
    fn server_and_client_stats_export_as_tuples() {
        // Hub and client share one registry; its snapshot exports as
        // §3.3 tuples with one timestamp, and every typed-snapshot
        // field arrives under its registry name.
        use std::io::Write;
        let registry = gtel::Registry::shared();
        let clock = VirtualClock::new();
        let scope = Scope::new("exp", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.set_telemetry(Arc::clone(&registry));
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        client.set_telemetry(Arc::clone(&registry));
        for i in 0..40u64 {
            client.send_at(TimeStamp::from_millis(i), "m", i as f64);
        }
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"garbage\nnope nope nope\n1.0 notanumber sig\n")
            .unwrap();
        spin_until(|| {
            pump_pair(&mut client, &mut server);
            let s = server.stats();
            s.tuples_received == 40 && s.parse_errors == 3
        });
        let tuples: Vec<gscope::Tuple> = gtel::tuple_lines(&registry.snapshot(), 250.0)
            .iter()
            .map(|line| gscope::Tuple::parse_line(line, 1).unwrap())
            .collect();
        assert!(tuples.iter().all(|t| t.time == TimeStamp::from_millis(250)));
        let exported = |name: &str| -> f64 {
            tuples
                .iter()
                .find(|t| t.name.as_deref() == Some(name))
                .unwrap_or_else(|| panic!("{name} not exported"))
                .value
        };
        let s = server.stats();
        assert_eq!(exported("net.server.parse_errors"), 3.0);
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
            assert_eq!(exported(name), field as f64, "{name}");
        }
        let c = client.stats();
        assert!(c.bytes_sent > 0);
        for (name, field) in [
            ("net.client.tuples_out", c.tuples_queued),
            ("net.client.bytes_sent", c.bytes_sent),
            ("net.client.pumps_with_progress", c.pumps_with_progress),
            ("net.client.tuples_in", c.tuples_received),
            ("net.client.recv_errors", c.recv_errors),
        ] {
            assert_eq!(exported(name), field as f64, "{name}");
        }
    }

    #[test]
    fn client_stats_are_the_registry_counts() {
        // A bare socket plays the server: it feeds the client tuples
        // and undecodable lines, then drops the connection so the
        // client reconnects.
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        for i in 0..5u64 {
            client.send_at(TimeStamp::from_millis(i), "up", i as f64);
        }
        peer.write_all(b"0.001 1 down\n0.002 2 down\n\xff\xfe\nnot a tuple\n")
            .unwrap();
        spin_until(|| {
            let _ = client.pump();
            let s = client.stats();
            s.tuples_received == 2 && s.recv_errors == 2
        });
        drop(peer);
        spin_until(|| client.pump() == IoPoll::Remove);
        client.reconnect().unwrap();
        let _peer = listener.accept().unwrap();

        let c = client.stats();
        assert_eq!((c.tuples_queued, client.reconnects()), (5, 1));
        assert!(c.bytes_sent > 0 && c.pumps_with_progress > 0, "{c:?}");
        let reg = client.telemetry();
        for (name, field) in [
            ("net.client.tuples_out", c.tuples_queued),
            ("net.client.bytes_sent", c.bytes_sent),
            ("net.client.pumps_with_progress", c.pumps_with_progress),
            ("net.client.tuples_in", c.tuples_received),
            ("net.client.recv_errors", c.recv_errors),
            ("net.client.reconnects", client.reconnects()),
        ] {
            match reg.get(name) {
                Some(gtel::Metric::Counter(n)) => assert_eq!(n.get(), field, "{name}"),
                other => panic!("{name} is not a registered counter: {other:?}"),
            }
        }
    }

    #[test]
    fn attach_helpers_drive_the_pipeline_on_one_loop() {
        // The full §4.4 single-threaded architecture: server io-watch,
        // client pump io-watch, and a periodic sampler, all on one
        // gel loop over the system clock.
        use gel::SystemClock;
        use parking_lot::Mutex;
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let scope = Scope::new("attach", 64, 48, Arc::clone(&clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let server = Arc::new(Mutex::new(server));
        let client = Arc::new(Mutex::new(ScopeClient::connect(addr).unwrap()));

        let mut ml = gel::MainLoop::with_quantizer(
            Arc::clone(&clock),
            gel::Quantizer::new(TimeDelta::from_millis(1)),
        );
        attach_server(&server, &mut ml);
        attach_client(&client, &mut ml);
        // Stream a counter every 5 ms.
        let mut n = 0.0;
        stream_periodic(
            &client,
            &mut ml,
            "counter",
            TimeDelta::from_millis(5),
            move || {
                n += 1.0;
                n
            },
        );
        let handle = ml.handle();
        ml.add_oneshot(TimeDelta::from_millis(150), move |_| handle.quit());
        ml.run();

        let stats = server.lock().stats();
        assert_eq!(stats.connections, 1);
        assert!(
            stats.tuples_received >= 10,
            "periodic sampler streamed tuples: {}",
            stats.tuples_received
        );
        assert!(scope.lock().signal("counter").is_some());
        let cstats = client.lock().stats();
        assert_eq!(cstats.tuples_queued, stats.tuples_received);
        assert_eq!(client.lock().pending_bytes(), 0, "pump drained the queue");
    }

    #[test]
    fn stream_periodic_stops_when_connection_dies() {
        use gel::SystemClock;
        use parking_lot::Mutex;
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        // A listener we drop immediately: the client's writes start
        // failing once the kernel buffers are gone / RST arrives.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = Arc::new(Mutex::new(ScopeClient::connect(addr).unwrap()));
        drop(listener);
        let mut ml = gel::MainLoop::with_quantizer(
            Arc::clone(&clock),
            gel::Quantizer::new(TimeDelta::from_millis(1)),
        );
        stream_periodic(&client, &mut ml, "x", TimeDelta::from_millis(2), || 1.0);
        let handle = ml.handle();
        ml.add_oneshot(TimeDelta::from_millis(200), move |_| handle.quit());
        ml.run();
        // Either the connection death was detected (source removed
        // itself) or data queued without error; in both cases the loop
        // survived. The important property: no panic, bounded queue.
        let pending = client.lock().pending_bytes();
        assert!(pending < 64 * 1024, "pending bounded: {pending}");
    }

    #[test]
    fn end_to_end_through_event_loops() {
        // One process, two "machines": a client loop streaming a sine
        // and a server loop displaying it — the §4.4 architecture.
        let clock = VirtualClock::new();
        let scope = Scope::new("e2e", 128, 64, Arc::new(clock.clone())).into_shared();
        {
            let mut guard = scope.lock();
            guard.set_delay(TimeDelta::from_secs(1000));
            guard
                .add_signal("wave", SigSource::Buffer, Default::default())
                .unwrap();
            guard.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
            guard.start();
        }
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        for i in 0..100u64 {
            let t = TimeStamp::from_millis(i * 10);
            client.send_at(t, "wave", (i as f64 / 10.0).sin() * 50.0 + 50.0);
        }
        client.flush_blocking().unwrap();
        spin_until(|| {
            let _ = server.poll();
            server.stats().tuples_received == 100
        });
        // Drive the scope's polling over the buffered data.
        let mut ml =
            gel::MainLoop::with_quantizer(Arc::new(clock.clone()), gel::Quantizer::exact());
        gscope::attach_scope(&scope, &mut ml);
        clock.advance(TimeDelta::from_secs(1001));
        ml.run_until(clock.now() + TimeDelta::from_millis(200));
        let guard = scope.lock();
        let window = guard.display_cols("wave").to_vec();
        assert!(
            window.iter().any(|v| v.is_some()),
            "streamed samples reached the display"
        );
    }
}
