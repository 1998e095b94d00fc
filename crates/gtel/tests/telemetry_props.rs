//! Property tests for gtel: histogram percentile ordering, trace-ring
//! wrap-around bookkeeping, and exporter shape invariants.

use gtel::{prometheus_text, tuple_lines, LatencyHistogram, Registry, TraceLog};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn histogram_percentiles_ordered(
        samples in proptest::collection::vec(0u64..2_000_000_000, 1..300),
    ) {
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        let true_max = *samples.iter().max().expect("non-empty");
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(snap.max, true_max);
        // The invariant the readouts rely on: ordered and bounded.
        prop_assert!(snap.p50 <= snap.p90);
        prop_assert!(snap.p90 <= snap.p99);
        prop_assert!(snap.p99 <= snap.max);
        // Percentile estimates never undershoot the smallest sample's
        // bucket floor.
        let true_min = *samples.iter().min().expect("non-empty");
        prop_assert!(snap.p50 >= true_min.next_power_of_two() >> 1);
    }

    #[test]
    fn trace_ring_wraps_exactly(
        capacity in 1usize..64,
        events in 0u64..300,
    ) {
        let log = TraceLog::new(capacity);
        for i in 0..events {
            log.event_at(i, "e", i as f64);
        }
        prop_assert_eq!(log.recorded(), events);
        prop_assert_eq!(log.dropped(), events.saturating_sub(capacity as u64));
        let retained = log.records();
        prop_assert_eq!(retained.len() as u64, events.min(capacity as u64));
        // Retained events are the newest, in order.
        for (k, e) in retained.iter().enumerate() {
            let expect = events - retained.len() as u64 + k as u64;
            prop_assert_eq!(e.t_ns, expect);
        }
    }

    #[test]
    fn exporters_cover_every_metric(
        counters in proptest::collection::vec(0u64..1_000_000, 0..6),
        gauges in proptest::collection::vec(-1.0e6..1.0e6f64, 0..6),
        hist_samples in proptest::collection::vec(1u64..1_000_000, 0..40),
    ) {
        let r = Registry::new();
        for (i, &v) in counters.iter().enumerate() {
            r.counter(&format!("c{i}")).add(v);
        }
        for (i, &v) in gauges.iter().enumerate() {
            r.gauge(&format!("g{i}")).set(v);
        }
        if !hist_samples.is_empty() {
            let h = r.histogram("h");
            for &s in &hist_samples {
                h.record(s);
            }
        }
        let snap = r.snapshot();
        let hist_count = usize::from(!hist_samples.is_empty());

        let lines = tuple_lines(&snap, 100.0);
        // One line per scalar metric, five per histogram.
        prop_assert_eq!(lines.len(), counters.len() + gauges.len() + 5 * hist_count);
        for line in &lines {
            let fields: Vec<&str> = line.split_whitespace().collect();
            prop_assert_eq!(fields.len(), 3);
            prop_assert!(fields[0].parse::<f64>().is_ok());
            prop_assert!(fields[1].parse::<f64>().is_ok());
        }

        let prom = prometheus_text(&snap);
        let type_lines = prom.lines().filter(|l| l.starts_with("# TYPE")).count();
        // Histograms emit two TYPE lines (summary + _max gauge).
        prop_assert_eq!(type_lines, counters.len() + gauges.len() + 2 * hist_count);
    }
}

/// One label per writer thread so a torn slot (fields from two
/// different writes) is detectable: every field of a record is derived
/// from its `arg`, and a mismatch means the seqlock leaked a torn read.
static WRITER_LABELS: [&str; 6] = ["w0", "w1", "w2", "w3", "w4", "w5"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn span_ring_is_consistent_under_concurrent_writers(
        capacity in 8usize..256,
        shards in 1usize..5,
        threads in 2usize..6,
        per_thread in 10u64..120,
    ) {
        let log = std::sync::Arc::new(TraceLog::with_shards(capacity, shards));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let tag = ((t as u64) << 32) | i;
                        log.record_span_at(WRITER_LABELS[t], tag, tag * 4, tag * 4 + 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // Drop accounting is exact at quiescence: every claimed slot
        // is either still readable or counted as overwritten.
        let total = threads as u64 * per_thread;
        let records = log.records();
        prop_assert_eq!(log.recorded(), total);
        prop_assert_eq!(log.dropped() + records.len() as u64, total);
        prop_assert!(records.len() <= log.capacity());

        let mut seen = std::collections::HashSet::new();
        for r in &records {
            // No torn records: all fields agree with the tag.
            let t = (r.arg >> 32) as usize;
            prop_assert!(t < threads);
            prop_assert_eq!(r.label, WRITER_LABELS[t]);
            prop_assert_eq!(r.begin_ns, r.arg * 4);
            prop_assert_eq!(r.t_ns, r.arg * 4 + 3);
            prop_assert_eq!(r.duration_ns(), 3);
            prop_assert!(seen.insert(r.arg), "span retained twice");
        }
        // Snapshot comes back in claim order with unique seqs.
        for w in records.windows(2) {
            prop_assert!(w[0].seq < w[1].seq);
        }
        // Each writer claims seqs in program order, so its surviving
        // spans must come back in write order.
        for t in 0..threads {
            let mine: Vec<u64> = records
                .iter()
                .filter(|r| (r.arg >> 32) as usize == t)
                .map(|r| r.arg & 0xffff_ffff)
                .collect();
            for w in mine.windows(2) {
                prop_assert!(w[0] < w[1], "writer order lost");
            }
        }
    }
}

#[test]
fn sampler_round_trip_through_snapshot() {
    let r = Registry::new();
    let h = r.histogram("lat");
    for v in [100u64, 200, 300, 40_000] {
        h.record(v);
    }
    let mut p99 = r
        .sampler("lat", gtel::HistogramStat::P99)
        .expect("registered");
    let mut count = r
        .sampler("lat", gtel::HistogramStat::Count)
        .expect("registered");
    assert_eq!(count(), 4.0);
    assert_eq!(p99(), h.snapshot().p99 as f64);
    h.record(1);
    assert_eq!(count(), 5.0);
}
