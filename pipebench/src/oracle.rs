//! The seeded input stream and the checks that the pipeline's outputs
//! match it.
//!
//! Tuple `i` of the stream (history prefill first, then live load)
//! belongs to signal `signal_of(seed, i)`. Within a signal the tuples
//! are numbered `seq = 0, 1, 2, ...`, and tuple `seq` carries the value
//! `seq + k/16` with `k` a seeded 4-bit hash of `(signal, seq)`. So a
//! value names its own sequence number, values rise with time inside
//! a signal, and a value from another signal or position fails the
//! 4-bit check with probability 15/16.

use std::sync::Mutex;

use gstore::LodResult;

/// Signals in every workload.
pub const SIGNALS: usize = 16;

/// Signal names, `s00` .. `s15`.
pub fn signal_names() -> Vec<String> {
    (0..SIGNALS).map(|s| format!("s{s:02}")).collect()
}

/// Index of a signal name, if it is one of ours.
pub fn signal_index(name: &str) -> Option<usize> {
    let idx: usize = name.strip_prefix('s')?.parse().ok()?;
    (idx < SIGNALS).then_some(idx)
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Signal of stream tuple `i`.
pub fn signal_of(seed: u64, i: u64) -> usize {
    (mix(seed ^ mix(i ^ 0x5349_474E)) % SIGNALS as u64) as usize
}

/// The value tuple `seq` of signal `s` carries.
pub fn value_of(seed: u64, s: usize, seq: u64) -> f64 {
    let k = mix(seed.rotate_left(17) ^ mix(((s as u64) << 48) ^ seq)) & 15;
    seq as f64 + k as f64 / 16.0
}

/// The sequence number `v` names, if `v` is a value signal `s` carries.
pub fn seq_of(seed: u64, s: usize, v: f64) -> Option<u64> {
    if !(0.0..(1u64 << 48) as f64).contains(&v) {
        return None;
    }
    let seq = v.floor() as u64;
    (value_of(seed, s, seq) == v).then_some(seq)
}

/// Per-signal tuple counts of the stream prefix `[0, end)`, advanced
/// incrementally.
#[derive(Clone)]
pub struct Counts {
    seed: u64,
    end: u64,
    per_signal: [u64; SIGNALS],
}

impl Counts {
    pub fn new(seed: u64) -> Counts {
        Counts {
            seed,
            end: 0,
            per_signal: [0; SIGNALS],
        }
    }

    /// Assigns the next stream tuple; returns `(signal, seq)`.
    pub fn next(&mut self) -> (usize, u64) {
        let s = signal_of(self.seed, self.end);
        self.end += 1;
        let seq = self.per_signal[s];
        self.per_signal[s] += 1;
        (s, seq)
    }

    /// Advances to the prefix `[0, end)`.
    pub fn advance_to(&mut self, end: u64) {
        while self.end < end {
            self.next();
        }
    }

    pub fn end(&self) -> u64 {
        self.end
    }

    pub fn of(&self, s: usize) -> u64 {
        self.per_signal[s]
    }
}

/// Checks what the live subscriber receives: every sequence number of
/// every signal, in order, with the seeded value.
pub struct SubscriberCheck {
    seed: u64,
    /// Next expected sequence number per signal.
    next: [u64; SIGNALS],
    pub received: u64,
    /// Sequence numbers skipped (lost) on the way.
    pub gaps: u64,
    /// Sequence numbers seen again or out of order.
    pub repeats: u64,
    /// Tuples whose value or name is not one the stream carries.
    pub bad: u64,
}

impl SubscriberCheck {
    /// Starts expecting the live stream right after `history`.
    pub fn new(seed: u64, history: &Counts) -> SubscriberCheck {
        let mut next = [0; SIGNALS];
        for (s, n) in next.iter_mut().enumerate() {
            *n = history.of(s);
        }
        SubscriberCheck {
            seed,
            next,
            received: 0,
            gaps: 0,
            repeats: 0,
            bad: 0,
        }
    }

    /// Checks one received tuple; returns its sequence number when the
    /// name and value are valid.
    pub fn on_tuple(&mut self, name: &str, value: f64) -> Option<u64> {
        self.received += 1;
        let Some(s) = signal_index(name) else {
            self.bad += 1;
            return None;
        };
        let Some(seq) = seq_of(self.seed, s, value) else {
            self.bad += 1;
            return None;
        };
        let want = self.next[s];
        if seq > want {
            self.gaps += seq - want;
        } else if seq < want {
            self.repeats += 1;
            return Some(seq);
        }
        self.next[s] = seq + 1;
        Some(seq)
    }

    /// Tuples sent (per `sent`) that have not arrived yet.
    pub fn missing(&self, sent: &Counts) -> u64 {
        (0..SIGNALS)
            .map(|s| sent.of(s).saturating_sub(self.next[s]))
            .sum()
    }

    /// Gives up on everything sent so far that has not arrived: counts
    /// it as gaps and expects what is sent next.
    pub fn write_off(&mut self, sent: &Counts) -> u64 {
        let lost = self.missing(sent);
        for s in 0..SIGNALS {
            self.next[s] = self.next[s].max(sent.of(s));
        }
        self.gaps += lost;
        lost
    }
}

/// Timestamps of every `TIMELINE_EVERY`-th sequence number of each
/// signal, so a checker can bound when any tuple was stamped without a
/// copy of the whole stream.
pub const TIMELINE_EVERY: u64 = 16;

/// `times[s][k]` is the timestamp (µs) of tuple `k * TIMELINE_EVERY` of
/// signal `s`. The prefill and the generator append to it in sequence
/// order; the viewer reads it.
pub struct Timeline {
    times: Mutex<Vec<Vec<u32>>>,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline {
            times: Mutex::new(vec![Vec::new(); SIGNALS]),
        }
    }

    /// Appends the stamps `(signal, time_us)` of timeline tuples (see
    /// [`Timeline::marks`]), in sequence order per signal.
    pub fn record(&self, marks: &[(usize, u64)]) {
        if marks.is_empty() {
            return;
        }
        let mut t = self.times.lock().expect("timeline lock");
        for &(s, time_us) in marks {
            t[s].push(u32::try_from(time_us).expect("timestamps fit 32 bits of µs"));
        }
    }

    /// Whether tuple `seq` belongs on the timeline.
    pub fn marks(seq: u64) -> bool {
        seq.is_multiple_of(TIMELINE_EVERY)
    }

    /// `(earliest, latest)` time tuple `seq` can carry, given its
    /// signal's timeline: the stamps of the timeline tuples around it.
    /// A bound not recorded yet (the generator records once per burst,
    /// after sending) is open: 0 or `u64::MAX`.
    pub fn bracket(times: &[u32], seq: u64) -> (u64, u64) {
        let k = (seq / TIMELINE_EVERY) as usize;
        let at = |i: usize| times.get(i).map(|&t| u64::from(t));
        let lo = at(k).unwrap_or(0);
        let hi = if seq.is_multiple_of(TIMELINE_EVERY) {
            at(k)
        } else {
            at(k + 1)
        };
        (lo, hi.unwrap_or(u64::MAX))
    }

    /// Runs `f` on the timeline of signal `s`.
    pub fn with<R>(&self, s: usize, f: impl FnOnce(&[u32]) -> R) -> R {
        f(&self.times.lock().expect("timeline lock")[s])
    }
}

/// Tier-0 tuples one band of tier `k` of the zoom pyramid can cover.
/// A tier-`k` band folds at most `group` tier-`k-1` frames, and those
/// frames (min/max pairs) belong to at most `group / 2 + 1` tier-`k-1`
/// bands.
fn band_span(group: u64, k: u16) -> u64 {
    match k {
        0 => 1,
        k => group * (group / 2 + 1).pow(u32::from(k) - 1),
    }
}

/// Checks a zoom query's columns for signal `s` over `[from_us, to_us]`
/// against a reference fold of the stream.
///
/// Values rise with sequence number inside a signal, and the pyramid
/// stores each band of tuples as its `(min, max)` at the band's first
/// timestamp. At tiers 0 and 1 a column's envelope is therefore exactly
/// `(value(a), value(b))` for the run of sequence numbers `a..=b` whose
/// bands start in it: the first filled column of a full-span query
/// starts at tuple 0, each filled column starts right after the one
/// before it ends, tuple `a` is stamped inside the column's time range,
/// and the last filled column ends at the newest flushed tuple. Two
/// by-design effects of coarse tiers get exactly their slack and no
/// more:
/// - a tier-`k` band (`k` >= 2) may split a min/max pair of tier `k-1`,
///   hiding up to `band_span(group, k-1) - 1` tuples between two columns
///   and stamping the column's first value that much earlier;
/// - where the plan stitches a finer tier after a coarser one, the finer
///   slice starts after the coarse tier's last band *time*, so it may
///   show again up to `band_span(group, k) - 1` tuples that band covers.
///
/// A tuple, block or segment dropped, repeated, reordered or folded into
/// the wrong column breaks one of these checks.
///
/// `group` is the compactor's decimation group, `flushed` the count of
/// signal `s` in the flushed stream prefix, and `bracket(seq)` bounds
/// the timestamp of tuple `seq` (see [`Timeline::bracket`]).
#[allow(clippy::too_many_arguments)]
pub fn check_query(
    seed: u64,
    s: usize,
    res: &LodResult,
    (from_us, to_us): (u64, u64),
    full_span: bool,
    group: u64,
    flushed: u64,
    bracket: impl Fn(u64) -> (u64, u64),
) -> Result<(), String> {
    let px = res.columns.len() as u64;
    let width = to_us - from_us + 1;
    // Equal-width columns over [from_us, to_us].
    let col_of = |t: u64| ((t.clamp(from_us, to_us) - from_us) * px / width) as usize;
    let col_start = |c: usize| from_us + (c as u64 * width).div_ceil(px);
    // Tiers of the slices read in [t0, t1): the coarsest, and whether
    // a seam between two slices lies inside.
    let tiers = |t0: u64, t1: u64| {
        let read = res
            .slices
            .iter()
            .filter(|sl| sl.from_us < t1 && sl.to_us >= t0);
        let top = read.clone().map(|sl| sl.tier).max().unwrap_or(res.tier);
        (top, read.count() > 1)
    };
    let split_slack = |tier: u16| {
        if tier <= 1 {
            0
        } else {
            band_span(group, tier - 1) - 1
        }
    };
    let mut first: Option<u64> = None;
    // Previous filled column and the seq it ends at.
    let mut last: Option<(usize, u64)> = None;
    for (c, col) in res.columns.iter().enumerate() {
        let Some((lo, hi)) = *col else { continue };
        let (Some(a), Some(b)) = (seq_of(seed, s, lo), seq_of(seed, s, hi)) else {
            return Err(format!(
                "s{s:02} column {c}: ({lo}, {hi}) is not an envelope of stream values"
            ));
        };
        if a > b {
            return Err(format!("s{s:02} column {c}: min seq {a} above max seq {b}"));
        }
        if let Some((pc, p)) = last {
            let (top, seam) = tiers(col_start(pc), col_start(c + 1));
            let gap = split_slack(top);
            let overlap = if seam { band_span(group, top) - 1 } else { 0 };
            if a + overlap <= p || a > p + 1 + gap {
                return Err(format!(
                    "s{s:02} column {c} starts at seq {a} but filled column {pc} ends at {p} (tier {top}, seam {seam}): tuples dropped, repeated or reordered"
                ));
            }
        }
        let here = split_slack(tiers(col_start(c), col_start(c + 1)).0);
        let (t0, _) = bracket(a.saturating_sub(here));
        let (_, t1) = bracket(a);
        if !(col_of(t0) <= c && c <= col_of(t1)) {
            return Err(format!(
                "s{s:02} column {c} starts with seq {a}, stamped between {t0} and {t1} us, outside the column's time range"
            ));
        }
        first.get_or_insert(a);
        last = Some((c, b));
    }
    let (Some(first), Some((_, last))) = (first, last) else {
        return Err(format!("s{s:02}: query returned no data"));
    };
    if last + 1 != flushed {
        return Err(format!(
            "s{s:02}: envelope ends at seq {last}, but the newest flushed tuple is seq {}",
            flushed.wrapping_sub(1)
        ));
    }
    if full_span && first != 0 {
        return Err(format!(
            "s{s:02}: full-span envelope starts at seq {first}, not at the first tuple"
        ));
    }
    Ok(())
}

/// Seeded uniform and exponential draws from a hashed counter, so each
/// `(seed, stream)` pair always yields the same sequence.
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng {
            state: mix(seed ^ mix(stream ^ 0x4741_5053)),
        }
    }

    /// Uniform in (0, 1].
    pub fn uniform(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        ((mix(self.state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential with the given mean: Poisson-process gaps.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.uniform().ln() * mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_sequence_number() {
        for s in 0..SIGNALS {
            for seq in [0u64, 1, 77, 1 << 30] {
                let v = value_of(9, s, seq);
                assert_eq!(seq_of(9, s, v), Some(seq));
            }
        }
        let foreign = (0..64)
            .filter(|&seq| seq_of(9, 1, value_of(9, 0, seq)).is_some())
            .count();
        assert!(foreign < 16, "cross-signal values mostly fail the check");
    }

    /// A tier-0 answer for signal 0: tuple `seq` stamped `1000 + 10 * seq`
    /// µs, folded into 64 columns over `[0, to]`.
    fn tier0_answer(n: u64) -> (LodResult, (u64, u64)) {
        let to = 1000 + 10 * (n - 1);
        let px = 64u64;
        let mut columns = vec![None; px as usize];
        for seq in 0..n {
            let c = ((1000 + 10 * seq) * px / (to + 1)) as usize;
            let v = value_of(5, 0, seq);
            columns[c] = Some(match columns[c] {
                None => (v, v),
                Some((lo, hi)) => (f64::min(lo, v), f64::max(hi, v)),
            });
        }
        let res = LodResult {
            tier: 0,
            px_width: px as usize,
            columns,
            slices: vec![gstore::LodSlice {
                tier: 0,
                from_us: 0,
                to_us: to,
            }],
            stats: gstore::LodStats::default(),
        };
        (res, (0, to))
    }

    #[test]
    fn query_check_finds_drops_and_misplaced_columns() {
        let n = 1000;
        let exact = |seq: u64| (1000 + 10 * seq, 1000 + 10 * seq);
        let check = |res: &LodResult, span| check_query(5, 0, res, span, true, 16, n, exact);
        let (res, span) = tier0_answer(n);
        assert_eq!(check(&res, span), Ok(()));

        let mut dropped = res.clone();
        dropped.columns[30] = None;
        assert!(check(&dropped, span).unwrap_err().contains("dropped"));

        let mut shifted = res.clone();
        shifted.columns[31] = shifted.columns[30].take();
        assert!(check(&shifted, span).unwrap_err().contains("time range"));

        let mut short = res.clone();
        *short.columns.last_mut().unwrap() = None;
        assert!(check(&short, span).unwrap_err().contains("newest"));
    }

    #[test]
    fn coarse_tiers_get_only_their_slack() {
        assert_eq!(band_span(16, 0), 1);
        assert_eq!(band_span(16, 1), 16);
        assert_eq!(band_span(16, 2), 144);
        let (mut res, span) = tier0_answer(1000);
        let exact = |seq: u64| (1000 + 10 * seq, 1000 + 10 * seq);
        // A split tier-1 pair hides up to 15 tuples at tier 2, not 16.
        let (lo, hi) = res.columns[40].unwrap();
        let skip = |k: u64| value_of(5, 0, seq_of(5, 0, lo).unwrap() + k);
        res.tier = 2;
        res.slices[0].tier = 2;
        res.columns[40] = Some((skip(15), hi));
        assert_eq!(check_query(5, 0, &res, span, true, 16, 1000, exact), Ok(()));
        res.columns[40] = Some((skip(16), hi));
        assert!(check_query(5, 0, &res, span, true, 16, 1000, exact).is_err());
    }

    #[test]
    fn subscriber_check_counts_gaps_and_repeats() {
        let history = Counts::new(3);
        let mut chk = SubscriberCheck::new(3, &history);
        let v = |seq| value_of(3, 2, seq);
        assert_eq!(chk.on_tuple("s02", v(0)), Some(0));
        assert_eq!(chk.on_tuple("s02", v(2)), Some(2));
        assert_eq!(chk.on_tuple("s02", v(1)), Some(1));
        assert_eq!((chk.gaps, chk.repeats, chk.bad), (1, 1, 0));
        assert_eq!(chk.on_tuple("s02", v(3) + 1.0 / 32.0), None);
        assert_eq!(chk.on_tuple("x", v(3)), None);
        assert_eq!(chk.bad, 2);
    }
}
