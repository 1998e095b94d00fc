//! The scope-wide buffer behind `BUFFER` signals (§3.1, §4.4).
//!
//! Applications (or remote clients) *push* timestamped samples into the
//! buffer from any thread; the scope *polls* the buffer each tick and
//! displays samples "with a user-specified delay". The delay gives
//! in-flight data time to arrive; a sample that shows up after its
//! display deadline has already passed "is not buffered but dropped
//! immediately" (§4.4) and counted.
//!
//! # Ingestion layout
//!
//! Producers do not share one lock. Pushes land in one of a fixed set
//! of *shards* — plain `Mutex<Vec<Entry>>` segments — with each
//! producer thread pinned to a shard, so concurrent producers (and the
//! scope thread draining) contend only when they hash to the same
//! shard. Global time ordering is reconstructed at drain time: the
//! drain sweeps every shard into a staging min-heap ordered by
//! `(time, seq)` where `seq` is a process-wide insertion counter, then
//! pops everything up to the cutoff. Pushing is therefore an
//! O(1) `Vec::push` under a mostly-uncontended lock instead of an
//! O(log n) heap insert under a single hot one.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use gel::{Clock, TimeDelta, TimeStamp};
use gtel::Counter;
use parking_lot::Mutex;

use crate::tuple::Tuple;

/// Number of ingestion shards. Power of two, sized for "a handful of
/// producer threads plus the scope thread" — more shards than typical
/// producers so the thread→shard pinning rarely collides.
const SHARDS: usize = 8;

#[derive(Debug)]
struct Entry {
    time: TimeStamp,
    seq: u64,
    value: f64,
    name: Option<Arc<str>>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[derive(Default)]
struct Core {
    /// Per-producer ingestion segments; unsorted, merged at drain time.
    shards: [Mutex<Vec<Entry>>; SHARDS],
    /// Drain-side staging heap holding swept-but-not-yet-due samples.
    staged: Mutex<BinaryHeap<Reverse<Entry>>>,
    /// Process-wide insertion counter; breaks time ties in push order
    /// and doubles as the lifetime accepted-sample count (late drops
    /// never reach it).
    seq: AtomicU64,
    /// Samples removed by drains and clears. `seq - drained` is the
    /// queue population, letting the tick path skip all nine locks
    /// when the buffer is empty — the common case for a polling scope.
    drained: AtomicU64,
    /// Samples rejected as past their deadline. A registry handle, so
    /// the owning scope's `scope.buffer.late_drops` is this counter
    /// itself, not a copy kept in step.
    late_drops: Arc<Counter>,
    /// Bumped by the owning scope whenever its signal set changes, so
    /// producers that cache "this name has a signal" (the network
    /// hub's auto-register) know when to look again.
    signals_epoch: AtomicU64,
}

/// Returns this thread's shard slot, assigned round-robin on first use.
///
/// Pinning (rather than hashing per push) keeps a producer's samples in
/// one segment, so its cache lines are not bounced between shards.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            slot.set(idx);
        }
        idx
    })
}

/// Thread-safe timestamped sample queue shared by a scope and its data
/// producers.
///
/// Clones share the same queue, so a clone can be handed to producer
/// threads, device drivers (§4.2 "Buffering"), or the network server
/// (§4.4) while the scope keeps draining it.
#[derive(Clone)]
pub struct ScopeBuffer {
    core: Arc<Core>,
    delay_us: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
}

impl ScopeBuffer {
    /// Creates an empty buffer with the given display delay.
    pub fn new(clock: Arc<dyn Clock>, delay: TimeDelta) -> Self {
        ScopeBuffer {
            core: Arc::new(Core::default()),
            delay_us: Arc::new(AtomicU64::new(delay.as_micros())),
            clock,
        }
    }

    /// Returns the display delay.
    pub fn delay(&self) -> TimeDelta {
        TimeDelta::from_micros(self.delay_us.load(Ordering::Relaxed))
    }

    /// Changes the display delay (the GUI's delay widget).
    pub fn set_delay(&self, delay: TimeDelta) {
        self.delay_us.store(delay.as_micros(), Ordering::Relaxed);
    }

    /// Enqueues one sample.
    ///
    /// Returns false (and counts a late drop) if the sample's display
    /// deadline `time + delay` has already passed.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use gel::{TimeDelta, TimeStamp, VirtualClock};
    /// use gscope::{ScopeBuffer, Tuple};
    ///
    /// let clock = Arc::new(VirtualClock::new());
    /// let buf = ScopeBuffer::new(clock, TimeDelta::from_millis(500));
    /// assert!(buf.push(Tuple::new(TimeStamp::from_millis(10), 1.0, "rtt")));
    /// assert_eq!(buf.drain_until(TimeStamp::from_millis(10)).len(), 1);
    /// ```
    pub fn push(&self, tuple: Tuple) -> bool {
        let mut accepted = [false];
        self.push_batch(std::iter::once(tuple), &mut accepted);
        accepted[0]
    }

    /// Enqueues a batch of samples under one shard lock, reading the
    /// clock and the delay once for the whole batch.
    ///
    /// Each sample is dropped (and counted as a late drop) when its
    /// display deadline `time + delay` has already passed, exactly as
    /// [`ScopeBuffer::push`] does for one. Sets `accepted[i]` for every accepted sample `i`
    /// (other entries are left as they are, so one mask can collect
    /// acceptance across several buffers) and returns how many were
    /// accepted.
    ///
    /// # Panics
    ///
    /// Panics if `accepted` is shorter than the batch.
    pub fn push_batch<I>(&self, tuples: I, accepted: &mut [bool]) -> u64
    where
        I: IntoIterator<Item = Tuple>,
    {
        let delay = self.delay();
        let now = self.clock.now();
        let mut shard = self.core.shards[shard_index()].lock();
        let start = shard.len();
        let mut late = 0u64;
        for (i, tuple) in tuples.into_iter().enumerate() {
            if tuple.time.saturating_add(delay) < now {
                late += 1;
                continue;
            }
            accepted[i] = true;
            shard.push(Entry {
                time: tuple.time,
                seq: 0,
                value: tuple.value,
                name: tuple.name,
            });
        }
        // Sequence numbers are reserved once for the whole batch; the
        // shard lock is still held, so no drain sees them unnumbered.
        let pushed = shard.len() - start;
        let first = self.core.seq.fetch_add(pushed as u64, Ordering::Relaxed);
        for (k, e) in shard[start..].iter_mut().enumerate() {
            e.seq = first + k as u64;
        }
        drop(shard);
        if late > 0 {
            self.core.late_drops.add(late);
        }
        pushed as u64
    }

    /// Convenience: enqueue a named sample.
    pub fn push_sample(&self, name: impl AsRef<str>, time: TimeStamp, value: f64) -> bool {
        self.push(Tuple::new(time, value, name))
    }

    /// Removes and returns all samples with `time ≤ cutoff`, in time
    /// order (ties in insertion order).
    ///
    /// The scope calls this each tick with `cutoff = now − delay`.
    pub fn drain_until(&self, cutoff: TimeStamp) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.drain_until_into(cutoff, &mut out);
        out
    }

    /// [`ScopeBuffer::drain_until`] into a caller-owned vector, so the
    /// scope tick can reuse one allocation across ticks. Appends to
    /// `out` without clearing it.
    pub fn drain_until_into(&self, cutoff: TimeStamp, out: &mut Vec<Tuple>) {
        // Lock-free fast path: nothing queued anywhere. A push racing
        // with this check is simply picked up on the next tick, which
        // the delay semantics already allow.
        if self.is_empty() {
            return;
        }
        let mut staged = self.core.staged.lock();
        for shard in &self.core.shards {
            let mut pending = shard.lock();
            staged.extend(pending.drain(..).map(Reverse));
        }
        let mut popped = 0u64;
        while let Some(Reverse(head)) = staged.peek() {
            if head.time > cutoff {
                break;
            }
            let Reverse(e) = staged.pop().expect("peeked entry exists");
            popped += 1;
            out.push(Tuple {
                time: e.time,
                value: e.value,
                name: e.name,
            });
        }
        self.core.drained.fetch_add(popped, Ordering::Relaxed);
    }

    /// Number of samples waiting in the buffer (lock-free).
    pub fn len(&self) -> usize {
        let inserted = self.core.seq.load(Ordering::Relaxed);
        let drained = self.core.drained.load(Ordering::Relaxed);
        inserted.saturating_sub(drained) as usize
    }

    /// Returns true if no samples are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples rejected because they arrived after their deadline.
    pub fn late_drops(&self) -> u64 {
        self.core.late_drops.get()
    }

    /// The late-drop counter itself, for registering in a metrics
    /// registry.
    pub fn late_drop_counter(&self) -> &Arc<Counter> {
        &self.core.late_drops
    }

    /// Samples accepted over the buffer's lifetime.
    pub fn total_inserted(&self) -> u64 {
        self.core.seq.load(Ordering::Relaxed)
    }

    /// The owning scope's signal-set version: it changes whenever a
    /// signal is added or removed. A producer that remembers which
    /// names already have signals must forget them when this moves.
    pub fn signals_epoch(&self) -> u64 {
        // Acquire pairs with the AcqRel bump in `Scope::add_signal` and
        // `remove_signal`. The epoch is only a hint to look again: the
        // signal set itself is read under the scope's lock.
        self.core.signals_epoch.load(Ordering::Acquire)
    }

    /// Marks the owning scope's signal set as changed.
    pub(crate) fn bump_signals_epoch(&self) {
        self.core.signals_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Discards everything queued.
    pub fn clear(&self) {
        let mut removed = 0u64;
        for shard in &self.core.shards {
            let mut pending = shard.lock();
            removed += pending.len() as u64;
            pending.clear();
        }
        let mut staged = self.core.staged.lock();
        removed += staged.len() as u64;
        staged.clear();
        self.core.drained.fetch_add(removed, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gel::VirtualClock;

    fn buffer_at(delay_ms: u64) -> (ScopeBuffer, VirtualClock) {
        let clock = VirtualClock::new();
        let buf = ScopeBuffer::new(Arc::new(clock.clone()), TimeDelta::from_millis(delay_ms));
        (buf, clock)
    }

    #[test]
    fn drain_returns_time_ordered() {
        let (buf, _clock) = buffer_at(1_000);
        assert!(buf.push_sample("a", TimeStamp::from_millis(30), 3.0));
        assert!(buf.push_sample("a", TimeStamp::from_millis(10), 1.0));
        assert!(buf.push_sample("b", TimeStamp::from_millis(20), 2.0));
        let got = buf.drain_until(TimeStamp::from_millis(25));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].value, 1.0);
        assert_eq!(got[1].value, 2.0);
        assert_eq!(buf.len(), 1, "the 30 ms sample stays queued");
    }

    #[test]
    fn equal_times_keep_insertion_order() {
        let (buf, _clock) = buffer_at(1_000);
        for i in 0..5 {
            buf.push_sample("s", TimeStamp::from_millis(10), i as f64);
        }
        let got = buf.drain_until(TimeStamp::from_millis(10));
        let values: Vec<f64> = got.iter().map(|t| t.value).collect();
        assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn late_sample_is_dropped_and_counted() {
        let (buf, clock) = buffer_at(50);
        clock.advance(TimeDelta::from_millis(200));
        // Sample from t=100 with 50 ms delay: deadline 150 < now 200.
        assert!(!buf.push_sample("a", TimeStamp::from_millis(100), 1.0));
        assert_eq!(buf.late_drops(), 1);
        assert_eq!(buf.len(), 0);
        // Sample from t=160: deadline 210 >= 200, accepted.
        assert!(buf.push_sample("a", TimeStamp::from_millis(160), 2.0));
        assert_eq!(buf.total_inserted(), 1);
    }

    #[test]
    fn raising_delay_rescues_stragglers() {
        let (buf, clock) = buffer_at(10);
        clock.advance(TimeDelta::from_millis(100));
        assert!(!buf.push_sample("a", TimeStamp::from_millis(50), 1.0));
        buf.set_delay(TimeDelta::from_millis(500));
        assert!(buf.push_sample("a", TimeStamp::from_millis(50), 1.0));
        assert_eq!(buf.delay(), TimeDelta::from_millis(500));
    }

    #[test]
    fn clones_share_state() {
        let (buf, _clock) = buffer_at(1_000);
        let other = buf.clone();
        other.push_sample("x", TimeStamp::from_millis(1), 9.0);
        assert_eq!(buf.len(), 1);
        buf.clear();
        assert!(other.is_empty());
    }

    #[test]
    fn partial_drain_keeps_future_samples_ordered() {
        // Samples swept into the staging heap but past the cutoff must
        // merge correctly with samples pushed after the drain.
        let (buf, _clock) = buffer_at(10_000);
        buf.push_sample("s", TimeStamp::from_millis(40), 4.0);
        buf.push_sample("s", TimeStamp::from_millis(10), 1.0);
        assert_eq!(buf.drain_until(TimeStamp::from_millis(20)).len(), 1);
        buf.push_sample("s", TimeStamp::from_millis(30), 3.0);
        let rest = buf.drain_until(TimeStamp::from_millis(100));
        let values: Vec<f64> = rest.iter().map(|t| t.value).collect();
        assert_eq!(values, vec![3.0, 4.0]);
    }

    #[test]
    fn drain_into_appends_and_reuses_capacity() {
        let (buf, _clock) = buffer_at(1_000);
        buf.push_sample("s", TimeStamp::from_millis(1), 1.0);
        let mut out = Vec::new();
        buf.drain_until_into(TimeStamp::from_millis(5), &mut out);
        assert_eq!(out.len(), 1);
        buf.push_sample("s", TimeStamp::from_millis(2), 2.0);
        buf.drain_until_into(TimeStamp::from_millis(5), &mut out);
        assert_eq!(out.len(), 2, "appends without clearing");
    }

    #[test]
    fn push_batch_matches_per_tuple_push_late_drops() {
        // Same samples, same clock, same delay: one buffer fed tuple by
        // tuple, the other in one batch, must accept and drop alike.
        let samples: Vec<Tuple> = [40u64, 160, 100, 151, 149, 150, 300]
            .iter()
            .enumerate()
            .map(|(i, &ms)| Tuple::new(TimeStamp::from_millis(ms), i as f64, "s"))
            .collect();
        let (one, clock_one) = buffer_at(50);
        let (batch, clock_batch) = buffer_at(50);
        clock_one.advance(TimeDelta::from_millis(200));
        clock_batch.advance(TimeDelta::from_millis(200));
        let expect: Vec<bool> = samples.iter().map(|t| one.push(t.clone())).collect();
        let mut got = vec![false; samples.len()];
        let accepted = batch.push_batch(samples.iter().cloned(), &mut got);
        assert_eq!(got, expect);
        assert_eq!(accepted, expect.iter().filter(|&&a| a).count() as u64);
        assert_eq!(batch.late_drops(), one.late_drops());
        assert_eq!(batch.late_drops(), 3, "40, 100 and 149 ms are past due");
        assert_eq!(batch.total_inserted(), one.total_inserted());
        assert_eq!(batch.len(), one.len());
        let a = one.drain_until(TimeStamp::from_millis(1_000));
        let b = batch.drain_until(TimeStamp::from_millis(1_000));
        assert_eq!(a, b, "same samples drain in the same order");
    }

    #[test]
    fn push_batch_keeps_batch_order_for_equal_times() {
        let (buf, _clock) = buffer_at(1_000);
        buf.push_sample("s", TimeStamp::from_millis(5), -1.0);
        let batch = (0..5).map(|i| Tuple::new(TimeStamp::from_millis(5), i as f64, "s"));
        let mut mask = [false; 5];
        assert_eq!(buf.push_batch(batch, &mut mask), 5);
        assert!(mask.iter().all(|&a| a));
        buf.push_sample("s", TimeStamp::from_millis(5), 9.0);
        let values: Vec<f64> = buf
            .drain_until(TimeStamp::from_millis(5))
            .iter()
            .map(|t| t.value)
            .collect();
        assert_eq!(values, vec![-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 9.0]);
    }

    #[test]
    fn push_batch_mask_accumulates_across_buffers() {
        // A sample one buffer drops and another accepts stays marked.
        let (strict, clock_a) = buffer_at(10);
        let (lenient, clock_b) = buffer_at(1_000);
        clock_a.advance(TimeDelta::from_millis(100));
        clock_b.advance(TimeDelta::from_millis(100));
        let batch = [
            Tuple::new(TimeStamp::from_millis(50), 1.0, "s"),
            Tuple::new(TimeStamp::from_millis(95), 2.0, "s"),
        ];
        let mut mask = [false; 2];
        assert_eq!(lenient.push_batch(batch.iter().cloned(), &mut mask), 2);
        assert_eq!(strict.push_batch(batch.iter().cloned(), &mut mask), 1);
        assert_eq!(mask, [true, true]);
        assert_eq!(strict.late_drops(), 1);
    }

    #[test]
    fn concurrent_producers() {
        let (buf, _clock) = buffer_at(10_000);
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = buf.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    b.push_sample(format!("s{t}"), TimeStamp::from_millis(i), i as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(buf.len(), 1000);
        let drained = buf.drain_until(TimeStamp::from_millis(300));
        assert_eq!(drained.len(), 1000);
        // Verify global time ordering of the drain.
        for w in drained.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn per_thread_push_order_survives_sharding() {
        // A single producer's equal-time samples must still drain in its
        // push order even though shards are merged at drain time.
        let (buf, _clock) = buffer_at(10_000);
        let b = buf.clone();
        std::thread::spawn(move || {
            for i in 0..100 {
                b.push_sample("t", TimeStamp::from_millis(7), i as f64);
            }
        })
        .join()
        .unwrap();
        let got = buf.drain_until(TimeStamp::from_millis(7));
        let values: Vec<f64> = got.iter().map(|t| t.value).collect();
        let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(values, expect);
    }
}
