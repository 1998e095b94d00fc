//! Snapshot exporters: the paper's §3.3 whitespace tuple stream,
//! Prometheus text exposition, and a human-readable table for
//! `gtool stats`.

use std::fmt::Write as _;

use crate::registry::{MetricValue, Snapshot};
use crate::span::{SpanKind, SpanRecord};

/// Renders `ns` nanoseconds with an auto-selected unit.
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

pub(crate) fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Emits the snapshot as §3.3 `time value name` tuple lines (time in
/// milliseconds, three decimals — the same shape `gtool stream`
/// produces for signals, so telemetry can feed straight back into a
/// scope). Histograms expand to `.count` plus millisecond-scaled
/// `.p50_ms`/`.p90_ms`/`.p99_ms`/`.max_ms` lines.
pub fn tuple_lines(snapshot: &Snapshot, now_ms: f64) -> Vec<String> {
    let mut out = Vec::new();
    let mut push = |name: &str, value: String| {
        out.push(format!("{now_ms:.3} {value} {name}"));
    };
    for (name, value) in snapshot {
        match value {
            MetricValue::Counter(n) => push(name, n.to_string()),
            MetricValue::Gauge(v) => push(name, fmt_value(*v)),
            MetricValue::Histogram(h) => {
                push(&format!("{name}.count"), h.count.to_string());
                push(&format!("{name}.p50_ms"), fmt_value(h.p50 as f64 / 1e6));
                push(&format!("{name}.p90_ms"), fmt_value(h.p90 as f64 / 1e6));
                push(&format!("{name}.p99_ms"), fmt_value(h.p99 as f64 / 1e6));
                push(&format!("{name}.max_ms"), fmt_value(h.max as f64 / 1e6));
            }
        }
    }
    out
}

/// Converts completed span records into store-ready tuple rows
/// `(time_us, duration_ms, "label#tN")`.
///
/// Only [`SpanKind::End`] records contribute (an End record alone
/// reconstructs the whole span); the row time is the span *end* in
/// microseconds and the value is the duration in milliseconds, so the
/// rows plug straight into a `gstore` tuple store where the `.gidx`
/// sidecar derives span-label, thread, and severity terms from the
/// `label#tN` naming convention. Rows come back sorted by time, ready
/// for in-order append.
pub fn span_tuple_rows(records: &[SpanRecord]) -> Vec<(u64, f64, String)> {
    let mut rows: Vec<(u64, f64, String)> = records
        .iter()
        .filter(|r| r.kind == SpanKind::End)
        .map(|r| {
            (
                r.t_ns / 1_000,
                r.duration_ns() as f64 / 1e6,
                format!("{}#t{}", r.label, r.tid),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
    rows
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Emits the snapshot in the Prometheus text exposition format.
/// Histograms are exported as summaries (quantiles in nanoseconds)
/// plus a `_max` gauge.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in snapshot {
        let n = prom_name(name);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {n} gauge\n{n} {}", fmt_value(*v));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {n} summary");
                let _ = writeln!(out, "{n}{{quantile=\"0.5\"}} {}", h.p50);
                let _ = writeln!(out, "{n}{{quantile=\"0.9\"}} {}", h.p90);
                let _ = writeln!(out, "{n}{{quantile=\"0.99\"}} {}", h.p99);
                let _ = writeln!(out, "{n}_sum {}", h.sum);
                let _ = writeln!(out, "{n}_count {}", h.count);
                let _ = writeln!(out, "# TYPE {n}_max gauge\n{n}_max {}", h.max);
            }
        }
    }
    out
}

fn json_escape(s: &str, out: &mut String) {
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
}

/// Emits the snapshot as one JSON object for scripting and CI
/// assertions (`gtool stats --json`). Every metric shares the single
/// `t_ms` timestamp captured by the caller, so nothing in the document
/// can carry a skewed clock reading. Histograms keep nanosecond
/// integer fields.
pub fn json_stats(snapshot: &Snapshot, now_ms: f64) -> String {
    let mut out = String::with_capacity(snapshot.len() * 64 + 64);
    let _ = write!(out, "{{\"t_ms\":{now_ms:.3},\"stats\":{{");
    for (i, (name, value)) in snapshot.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape(name, &mut out);
        out.push_str("\":");
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{}}}", fmt_value(*v));
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"histogram\",\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\
                     \"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                    h.count,
                    h.mean() as u64,
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max
                );
            }
        }
    }
    out.push_str("}}");
    out
}

/// Renders the snapshot as an aligned human-readable table (the
/// `gtool stats` default view).
pub fn stats_table(snapshot: &Snapshot) -> String {
    let name_width = snapshot
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let mut out = String::new();
    let _ = writeln!(out, "{:<name_width$}  {:<9}  value", "metric", "type");
    for (name, value) in snapshot {
        let (kind, rendered) = match value {
            MetricValue::Counter(v) => ("counter", v.to_string()),
            MetricValue::Gauge(v) => ("gauge", fmt_value(*v)),
            MetricValue::Histogram(h) => (
                "histogram",
                format!(
                    "count={} mean={} p50={} p90={} p99={} max={}",
                    h.count,
                    format_ns(h.mean() as u64),
                    format_ns(h.p50),
                    format_ns(h.p90),
                    format_ns(h.p99),
                    format_ns(h.max)
                ),
            ),
        };
        let _ = writeln!(out, "{name:<name_width$}  {kind:<9}  {rendered}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("net.tuples_in").add(42);
        r.gauge("scope.buffer.depth").set(3.0);
        let h = r.histogram("gel.tick.lateness_ns");
        for v in [1_000u64, 2_000, 500_000] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn tuple_lines_golden() {
        let lines = tuple_lines(&sample_snapshot(), 1250.0);
        assert_eq!(
            lines,
            [
                "1250.000 3 gel.tick.lateness_ns.count",
                "1250.000 0.002048 gel.tick.lateness_ns.p50_ms",
                "1250.000 0.500000 gel.tick.lateness_ns.p90_ms",
                "1250.000 0.500000 gel.tick.lateness_ns.p99_ms",
                "1250.000 0.500000 gel.tick.lateness_ns.max_ms",
                "1250.000 42 net.tuples_in",
                "1250.000 3 scope.buffer.depth",
            ]
        );
    }

    #[test]
    fn prometheus_golden() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE net_tuples_in counter\nnet_tuples_in 42\n"));
        assert!(text.contains("# TYPE scope_buffer_depth gauge\nscope_buffer_depth 3\n"));
        assert!(text.contains("# TYPE gel_tick_lateness_ns summary"));
        assert!(text.contains("gel_tick_lateness_ns{quantile=\"0.99\"} 500000"));
        assert!(text.contains("gel_tick_lateness_ns_sum 503000"));
        assert!(text.contains("gel_tick_lateness_ns_count 3"));
        assert!(text.contains("gel_tick_lateness_ns_max 500000"));
    }

    #[test]
    fn table_lines_up() {
        let table = stats_table(&sample_snapshot());
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("metric"));
        assert!(lines[1].contains("histogram"));
        assert!(lines[1].contains("max=500.00us"));
        assert!(lines[2].contains("counter"));
        assert!(lines[3].contains("gauge"));
    }

    #[test]
    fn json_stats_single_timestamp() {
        let json = json_stats(&sample_snapshot(), 1250.0);
        assert!(json.starts_with("{\"t_ms\":1250.000,\"stats\":{"));
        assert!(json.ends_with("}}"));
        assert!(json.contains("\"net.tuples_in\":{\"type\":\"counter\",\"value\":42}"));
        assert!(json.contains("\"scope.buffer.depth\":{\"type\":\"gauge\",\"value\":3}"));
        assert!(json.contains("\"gel.tick.lateness_ns\":{\"type\":\"histogram\",\"count\":3,"));
        assert!(json.contains("\"max_ns\":500000"));
        // Exactly one timestamp in the whole document.
        assert_eq!(json.matches("t_ms").count(), 1);
    }

    #[test]
    fn span_tuple_rows_ends_only_sorted() {
        use crate::span::{SpanKind, SpanRecord};
        let rec =
            |t_ns: u64, begin_ns: u64, label: &'static str, tid: u32, kind: SpanKind| SpanRecord {
                seq: 0,
                t_ns,
                begin_ns,
                span: 1,
                parent: 0,
                arg: 0,
                label,
                kind,
                tid,
            };
        let records = [
            rec(5_000_000, 2_000_000, "scope.tick", 1, SpanKind::End),
            rec(1_000_000, 1_000_000, "scope.tick", 1, SpanKind::Begin),
            rec(3_000_000, 1_500_000, "gel.iteration", 0, SpanKind::End),
            rec(2_000_000, 2_000_000, "marker", 0, SpanKind::Instant),
        ];
        let rows = span_tuple_rows(&records);
        assert_eq!(
            rows,
            [
                (3_000, 1.5, "gel.iteration#t0".to_string()),
                (5_000, 3.0, "scope.tick#t1".to_string()),
            ]
        );
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(1_700), "1.70us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn empty_snapshot_exports() {
        let empty: Snapshot = Vec::new();
        assert!(tuple_lines(&empty, 0.0).is_empty());
        assert!(prometheus_text(&empty).is_empty());
        assert_eq!(stats_table(&empty).lines().count(), 1);
    }
}
