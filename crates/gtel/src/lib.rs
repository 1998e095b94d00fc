//! gtel — self-telemetry for the gscope stack.
//!
//! Gscope exists to expose the temporal behaviour of time-sensitive
//! programs (paper §1); gtel turns that lens on gscope itself. It
//! provides:
//!
//! * [`Counter`] / [`Gauge`] / [`LatencyHistogram`] — atomic metric
//!   primitives whose record path is a handful of relaxed RMWs
//!   (~20ns), cheap enough to run on every event-loop tick.
//! * [`Registry`] — a name → metric map handing out shared handles;
//!   components resolve handles once and record lock-free thereafter.
//! * [`TraceLog`] — causally structured span tracing (gtrace) on a
//!   fixed-slot ring: begin/end records with parent/child
//!   links from a thread-local span stack, for after-the-fact
//!   decomposition of one event-loop tick into its pipeline stages.
//! * [`DeadlineMonitor`] — per-stage time budgets derived from the
//!   polling period with a rolling SLO window, exported as gauges.
//! * [`chrome`] — trace exporters: Chrome trace-event JSON
//!   (Perfetto-loadable), a causality text tree, slowest-span table.
//! * [`export`] — snapshot serializers: the paper's §3.3 tuple
//!   format, Prometheus text exposition, JSON, a human-readable
//!   table.
//!
//! The crate deliberately has no dependencies (it sits below `gel` in
//! the stack) and measures time as `u64` nanoseconds. The event loop,
//! scope core, and network layer all record into a registry, and
//! `Registry::sampler` lets any metric be replayed as a `FUNC` signal
//! source — so a second scope can visualize the first scope's tick
//! jitter live ("self-scoping", the observability analogue of the
//! paper's §4.5 microbenchmarks).

pub mod chrome;
pub mod deadline;
pub mod e2e;
pub mod export;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

pub use chrome::{aggregate_spans, chrome_trace_json, slowest_spans, span_tree, SpanAgg};
pub use deadline::{DeadlineMiss, DeadlineMonitor, StageBudget};
pub use e2e::{e2e, BatchMark, E2e, E2eSnapshot, Stage};
pub use export::{
    format_ns, json_stats, prometheus_text, span_tuple_rows, stats_table, tuple_lines,
};
pub use metrics::{
    Counter, Gauge, HistogramSnapshot, HistogramStat, LatencyHistogram, HISTOGRAM_BUCKETS,
};
pub use registry::{global, global_shared, Metric, MetricValue, Registry, Snapshot};
pub use span::{fast_now_ns, monotonic_ns, SpanKind, SpanRecord, TraceCtx, MAX_SPAN_DEPTH};
pub use trace::{
    complete_span, instant, set_thread_tracer, span, tracer, with_thread_tracer, SpanGuard,
    ThreadTracerGuard, TraceLog,
};
