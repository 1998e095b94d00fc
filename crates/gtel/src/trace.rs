//! The [`TraceLog`]: causally structured span tracing on a
//! fixed-slot ring — cheap enough to leave enabled in release builds.
//!
//! Recording is one `fetch_add` to claim a slot plus a seqlock'd
//! 80-byte store; there is no mutex and no queue shifting (the old
//! `Mutex<VecDeque>` ring this replaces paid a lock plus a pop/push
//! per event). Spans carry parent/child causality from a thread-local
//! stack ([`TraceCtx`]), so one event-loop tick decomposes into its
//! scope / render / net / store stages. End records carry `begin_ns`
//! next to the end time, so spans order by start time and export to
//! Chrome traces without their Begin record.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

pub use crate::span::{fast_now_ns, monotonic_ns};
use crate::span::{SpanKind, SpanRecord, SpanRing, TraceCtx};

/// Bounded ring of span and point-event records.
pub struct TraceLog {
    ring: SpanRing,
}

impl TraceLog {
    /// Creates a ring retaining exactly the newest `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            ring: SpanRing::new(capacity),
        }
    }

    /// Creates a ring with an explicit shard count: the first
    /// `shards - 1` recording threads get an RMW-free exclusive shard
    /// each, later threads share the last; retention is the newest
    /// `capacity / shards` records per shard.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        TraceLog {
            ring: SpanRing::with_shards(capacity, shards),
        }
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total records ever recorded.
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Records overwritten (ring full) or wiped by [`clear`](Self::clear).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Records a point event stamped with [`fast_now_ns`].
    pub fn event(&self, label: &'static str, value: f64) {
        self.event_at(fast_now_ns(), label, value);
    }

    /// Records a point event with an explicit timestamp (virtual-clock
    /// tests). The event is parented to the innermost open span.
    pub fn event_at(&self, t_ns: u64, label: &'static str, value: f64) {
        self.ring.record(SpanRecord {
            seq: 0,
            t_ns,
            begin_ns: t_ns,
            span: 0,
            parent: TraceCtx::current_span(),
            arg: value.to_bits(),
            label,
            kind: SpanKind::Instant,
            tid: TraceCtx::thread_id(),
        });
    }

    /// Starts a span; begin and end records bracket the guard's
    /// lifetime and nested spans become its children.
    pub fn span(self: &Arc<Self>, label: &'static str) -> SpanGuard {
        self.span_with(label, 0)
    }

    /// Starts a span carrying one payload word (tick number, byte
    /// count, …).
    pub fn span_with(self: &Arc<Self>, label: &'static str, arg: u64) -> SpanGuard {
        let (span, parent, tid) = TraceCtx::push();
        let begin_ns = fast_now_ns();
        self.ring.record(SpanRecord {
            seq: 0,
            t_ns: begin_ns,
            begin_ns,
            span,
            parent,
            arg,
            label,
            kind: SpanKind::Begin,
            tid,
        });
        SpanGuard {
            log: Arc::clone(self),
            label,
            arg,
            span,
            parent,
            tid,
            begin_ns,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Records an already-closed span with explicit timestamps; the
    /// span is parented to the innermost open span. Returns its id.
    #[inline(always)]
    pub fn record_span_at(&self, label: &'static str, arg: u64, begin_ns: u64, end_ns: u64) -> u64 {
        let (parent, tid) = TraceCtx::parent_tid();
        self.ring.record_complete(SpanRecord {
            seq: 0,
            t_ns: end_ns.max(begin_ns),
            begin_ns,
            span: 0,
            parent,
            arg,
            label,
            kind: SpanKind::End,
            tid,
        })
    }

    /// Copies out the raw span records, claim order (oldest first).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    /// Raw records with `seq >= since` (incremental consumers). Older
    /// slots are skipped from their state word alone, so a per-tick
    /// poll pays for the new records, not the whole ring.
    pub fn records_since(&self, since: u64) -> Vec<SpanRecord> {
        self.ring.snapshot_since(since)
    }

    /// Discards all retained records (counters are preserved).
    pub fn clear(&self) {
        self.ring.clear();
    }
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Open span: records Begin at creation, End (with duration) on drop.
///
/// `!Send`: the guard belongs to the thread that opened it — its drop
/// pops that thread's span stack and records with that thread's id
/// (which may route to a shard of the ring only that thread may
/// write).
#[derive(Debug)]
pub struct SpanGuard {
    log: Arc<TraceLog>,
    label: &'static str,
    arg: u64,
    span: u64,
    parent: u64,
    tid: u32,
    begin_ns: u64,
    /// Pins the guard to its creating thread (`*const ()` is `!Send`).
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// This span's id (usable as a parent reference).
    pub fn id(&self) -> u64 {
        self.span
    }

    /// Replaces the payload word recorded with the End record.
    pub fn set_arg(&mut self, arg: u64) {
        self.arg = arg;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = fast_now_ns();
        TraceCtx::pop();
        self.log.ring.record(SpanRecord {
            seq: 0,
            t_ns: end.max(self.begin_ns),
            begin_ns: self.begin_ns,
            span: self.span,
            parent: self.parent,
            arg: self.arg,
            label: self.label,
            kind: SpanKind::End,
            tid: self.tid,
        });
    }
}

/// Slots in the process-wide tracer (32k records, ~2.5 MB). Two
/// shards: the first recording thread — the event loop in every
/// gscope binary — owns half the slots with the RMW-free fast path;
/// all other threads share the rest under the CAS slot claim.
const GLOBAL_CAPACITY: usize = 32_768;
const GLOBAL_SHARDS: usize = 2;

static GLOBAL: OnceLock<Arc<TraceLog>> = OnceLock::new();

thread_local! {
    static OVERRIDE: RefCell<Option<Arc<TraceLog>>> = const { RefCell::new(None) };
}

/// The tracer instrumented code records into: this thread's override
/// if one is installed (tests, `gtool trace`), else the process-wide
/// log.
pub fn tracer() -> Arc<TraceLog> {
    if let Some(t) = OVERRIDE.with(|o| o.borrow().clone()) {
        return t;
    }
    Arc::clone(
        GLOBAL.get_or_init(|| Arc::new(TraceLog::with_shards(GLOBAL_CAPACITY, GLOBAL_SHARDS))),
    )
}

/// Installs (or with `None` removes) this thread's tracer override,
/// returning the previous one.
pub fn set_thread_tracer(tracer: Option<Arc<TraceLog>>) -> Option<Arc<TraceLog>> {
    OVERRIDE.with(|o| std::mem::replace(&mut *o.borrow_mut(), tracer))
}

/// Scoped tracer override: restores the previous tracer on drop.
#[derive(Debug)]
pub struct ThreadTracerGuard {
    prev: Option<Option<Arc<TraceLog>>>,
}

impl Drop for ThreadTracerGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            set_thread_tracer(prev);
        }
    }
}

/// Routes this thread's spans into `log` until the guard drops.
pub fn with_thread_tracer(log: Arc<TraceLog>) -> ThreadTracerGuard {
    ThreadTracerGuard {
        prev: Some(set_thread_tracer(Some(log))),
    }
}

/// Opens a span on the current tracer (see [`tracer`]).
#[inline]
pub fn span(label: &'static str, arg: u64) -> SpanGuard {
    tracer().span_with(label, arg)
}

/// Records a point event on the current tracer.
#[inline]
pub fn instant(label: &'static str, value: f64) {
    tracer().event(label, value);
}

/// Records a span that already ran (`begin_ns` from [`fast_now_ns`])
/// on the current tracer; for call sites that only know *after* the
/// work whether it is worth a span. Returns the span id.
#[inline]
pub fn complete_span(label: &'static str, arg: u64, begin_ns: u64) -> u64 {
    tracer().record_span_at(label, arg, begin_ns, fast_now_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_counts_drops() {
        let log = TraceLog::new(4);
        for i in 0..10u64 {
            log.event_at(i, "tick", i as f64);
        }
        assert_eq!(log.recorded(), 10);
        assert_eq!(log.dropped(), 6);
        let records = log.records();
        assert_eq!(records.len(), 4);
        // Oldest-first, and only the newest four survive.
        let times: Vec<u64> = records.iter().map(|r| r.t_ns).collect();
        assert_eq!(times, [6, 7, 8, 9]);
    }

    #[test]
    fn span_records_duration() {
        let log = Arc::new(TraceLog::new(8));
        {
            let _guard = log.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let ends: Vec<SpanRecord> = log
            .records()
            .into_iter()
            .filter(|r| r.kind == SpanKind::End)
            .collect();
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].label, "work");
        assert!(
            ends[0].duration_ns() >= 1_000_000,
            "span shorter than slept: {} ns",
            ends[0].duration_ns()
        );
    }

    #[test]
    fn span_records_begin_and_end() {
        let log = Arc::new(TraceLog::new(8));
        {
            let _guard = log.span_with("work", 7);
        }
        let records = log.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, SpanKind::Begin);
        assert_eq!(records[1].kind, SpanKind::End);
        assert_eq!(records[0].span, records[1].span);
        assert_eq!(records[1].begin_ns, records[0].t_ns);
        assert!(records[1].t_ns >= records[1].begin_ns);
        assert_eq!(records[1].arg, 7);
    }

    #[test]
    fn spans_nest_causally() {
        let log = Arc::new(TraceLog::new(16));
        {
            let outer = log.span("outer");
            let outer_id = outer.id();
            {
                let inner = log.span("inner");
                assert_ne!(inner.id(), outer_id);
            }
            log.event("point", 1.0);
        }
        let records = log.records();
        let outer_end = records
            .iter()
            .find(|r| r.label == "outer" && r.kind == SpanKind::End)
            .unwrap();
        let inner_end = records
            .iter()
            .find(|r| r.label == "inner" && r.kind == SpanKind::End)
            .unwrap();
        let point = records.iter().find(|r| r.label == "point").unwrap();
        assert_eq!(outer_end.parent, 0);
        assert_eq!(inner_end.parent, outer_end.span);
        assert_eq!(point.parent, outer_end.span);
    }

    #[test]
    fn clear_keeps_counters() {
        let log = TraceLog::new(2);
        log.event_at(0, "a", 0.0);
        log.event_at(1, "b", 0.0);
        log.event_at(2, "c", 0.0);
        log.clear();
        assert!(log.records().is_empty());
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn monotonic_ns_is_monotonic() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn thread_tracer_override_isolates() {
        let log = Arc::new(TraceLog::new(32));
        {
            let _t = with_thread_tracer(Arc::clone(&log));
            let _s = span("isolated", 1);
        }
        assert_eq!(log.records().len(), 2);
        // Restored: new spans go elsewhere.
        {
            let _s = span("global", 1);
        }
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn record_span_at_is_self_contained() {
        let log = TraceLog::new(8);
        let id = log.record_span_at("late", 42, 100, 350);
        let records = log.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].span, id);
        assert_eq!(records[0].kind, SpanKind::End);
        assert_eq!(records[0].duration_ns(), 250);
        assert_eq!(records[0].arg, 42);
    }
}
