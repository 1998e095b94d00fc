//! The append side: a directory of segments with rotation, retention,
//! and min/max downsampling into a coarser tier.
//!
//! A store directory holds `seg-NNNNNNNN-tT.gseg` files. Tier 0 is the
//! full-rate log; tier 1 holds min/max pairs per `(signal, bucket)`
//! produced when tier-0 segments are evicted by the retention policy,
//! mirroring the renderer's `decimate_minmax` semantics: an evicted
//! stretch of history keeps its envelope (two frames per bucket, equal
//! timestamps — legal under §3.3's non-decreasing rule) instead of
//! vanishing.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gel::{TimeDelta, TimeStamp};
use gscope::{Result, ScopeError, TupleSink};
use gtel::{Counter, Gauge, Registry};

use crate::segment::{
    parse_segment_file_name, read_block_payload, read_seg_header, recover_segment, scan_headers,
    segment_file_name, SegmentWriter,
};

/// Compaction scratch: `(bucket_start_us, signal)` → running
/// `(min, max)` over the frames that fell in the bucket.
type EnvelopeBuckets = BTreeMap<(u64, Option<Arc<str>>), (f64, f64)>;

/// Tuning knobs for a [`Store`]. The defaults favor scope recording:
/// ~16 KiB blocks (about a thousand frames of index granularity, one
/// write syscall each) and 1 MiB segments (the retention / compaction
/// unit).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Flush the open block once its payload reaches this many bytes.
    pub block_bytes: usize,
    /// ... or once it holds this many frames, whichever comes first.
    /// This bounds both seek granularity and torn-tail loss.
    pub block_frames: u32,
    /// Roll to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Evict the oldest tier-0 segments once their total size exceeds
    /// this budget (`None` = unbounded).
    pub retain_bytes: Option<u64>,
    /// Evict tier-0 segments whose newest frame is older than this,
    /// measured against the newest data time in the store — data time,
    /// not wall time, so replayed recordings behave deterministically.
    pub retain_age: Option<TimeDelta>,
    /// Bucket width for tier-1 min/max downsampling of evicted data.
    pub compact_bucket: TimeDelta,
    /// `fsync` after every block write (durable against power loss,
    /// not just process crash). Off by default: the paper's tool is a
    /// debugging aid, and a torn tail already loses at most one frame.
    pub fsync: bool,
    /// Maintain `.gidx` search sidecars: per-name envelope stats on
    /// the append path, posting lists written once per segment seal.
    /// On by default; turning it off shaves the last few percent off
    /// ingest and costs nothing but a deferred rebuild — queries
    /// reconstruct any missing sidecar from the segment on first use.
    pub index_sidecars: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            block_bytes: 16 * 1024,
            block_frames: 1024,
            segment_bytes: 1 << 20,
            retain_bytes: None,
            retain_age: None,
            compact_bucket: TimeDelta::from_secs(1),
            fsync: false,
            index_sidecars: true,
        }
    }
}

/// Catalog entry for one sealed segment.
#[derive(Clone, Debug)]
pub struct SegmentInfo {
    /// Path of the segment file.
    pub path: PathBuf,
    /// Monotonic sequence number (file-name order == time order).
    pub seq: u64,
    /// Downsampling tier (0 = full rate, 1 = min/max buckets).
    pub tier: u16,
    /// File size in bytes.
    pub bytes: u64,
    /// Time of the first frame, if the segment has any.
    pub first_us: Option<u64>,
    /// Time of the last frame, if known (sealed segments only).
    pub last_us: Option<u64>,
    /// Frame count from block headers.
    pub frames: u64,
}

/// Running totals for one [`Store`]: a snapshot of its `store.*`
/// registry counters (see [`Store::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frames accepted by [`Store::append`].
    pub frames_appended: u64,
    /// Bytes written to segment files (headers + blocks).
    pub bytes_written: u64,
    /// Blocks flushed to disk.
    pub blocks_flushed: u64,
    /// Segments sealed and rolled.
    pub segments_rolled: u64,
    /// Opens that had to truncate a torn or corrupt tail.
    pub recovery_truncations: u64,
    /// Frames salvaged out of torn tail blocks on open.
    pub salvaged_frames: u64,
    /// Complete blocks dropped for CRC mismatch on open.
    pub dropped_blocks: u64,
    /// Retention passes that downsampled at least one segment.
    pub compaction_runs: u64,
    /// Tier-0 segments evicted by retention.
    pub segments_evicted: u64,
}

/// Cached gtel handles for one [`Store`] — the only place its
/// activity is counted.
#[derive(Debug)]
pub struct StoreTelemetry {
    registry: Arc<Registry>,
    /// `store.frames` — frames appended, published when their block
    /// is written (the open block's frames are not included yet).
    pub frames: Arc<Counter>,
    /// `store.bytes` — bytes written to segment files.
    pub bytes: Arc<Counter>,
    /// `store.blocks` — blocks flushed to disk.
    pub blocks: Arc<Counter>,
    /// `store.segments.rolled` — segments sealed and rolled.
    pub segments_rolled: Arc<Counter>,
    /// `store.segments.evicted` — tier-0 segments evicted by retention.
    pub segments_evicted: Arc<Counter>,
    /// `store.segments.live` — sealed tier-0 segments on disk.
    pub segments_live: Arc<Gauge>,
    /// `store.recovery.truncations` — torn/corrupt tails cut on open.
    pub recovery_truncations: Arc<Counter>,
    /// `store.recovery.salvaged_frames` — frames salvaged out of torn
    /// tail blocks on open.
    pub salvaged_frames: Arc<Counter>,
    /// `store.recovery.dropped_blocks` — complete blocks dropped for
    /// CRC mismatch on open.
    pub dropped_blocks: Arc<Counter>,
    /// `store.compaction.runs` — retention passes that downsampled.
    pub compaction_runs: Arc<Counter>,
    /// `store.errors` — index sidecars of deleted segments that could
    /// not be deleted.
    pub errors: Arc<Counter>,
}

impl StoreTelemetry {
    /// Resolves the store's metric handles from `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        StoreTelemetry {
            frames: registry.counter("store.frames"),
            bytes: registry.counter("store.bytes"),
            blocks: registry.counter("store.blocks"),
            segments_rolled: registry.counter("store.segments.rolled"),
            segments_evicted: registry.counter("store.segments.evicted"),
            segments_live: registry.gauge("store.segments.live"),
            recovery_truncations: registry.counter("store.recovery.truncations"),
            salvaged_frames: registry.counter("store.recovery.salvaged_frames"),
            dropped_blocks: registry.counter("store.recovery.dropped_blocks"),
            compaction_runs: registry.counter("store.compaction.runs"),
            errors: registry.counter("store.errors"),
            registry,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn counters(&self) -> [&Arc<Counter>; 10] {
        [
            &self.frames,
            &self.bytes,
            &self.blocks,
            &self.segments_rolled,
            &self.segments_evicted,
            &self.recovery_truncations,
            &self.salvaged_frames,
            &self.dropped_blocks,
            &self.compaction_runs,
            &self.errors,
        ]
    }
}

impl Default for StoreTelemetry {
    fn default() -> Self {
        StoreTelemetry::new(Registry::shared())
    }
}

/// Summary of one retention pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Tier-0 segments evicted.
    pub evicted: u64,
    /// Tier-0 frames folded into tier-1 buckets.
    pub frames_compacted: u64,
    /// `(signal, bucket)` envelopes written to tier 1.
    pub buckets_written: u64,
}

/// Scans `dir` and catalogs its segment files, newest last.
///
/// Sealed segments get exact `first_us`/`last_us`/`frames` by reading
/// block headers (sparse) and decoding only the final block.
///
/// # Errors
///
/// Propagates directory / file I/O errors; unreadable or foreign files
/// are skipped, not fatal (the store must always open).
pub fn catalog_segments(dir: &Path) -> std::io::Result<Vec<SegmentInfo>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((seq, tier)) = parse_segment_file_name(name) else {
            continue;
        };
        let path = entry.path();
        let bytes = entry.metadata()?.len();
        let mut info = SegmentInfo {
            path,
            seq,
            tier,
            bytes,
            first_us: None,
            last_us: None,
            frames: 0,
        };
        if let Ok(mut file) = File::open(&info.path) {
            if read_seg_header(&mut file).is_ok() {
                if let Ok(scan) = scan_headers(&mut file) {
                    info.first_us = scan.blocks.first().map(|b| b.first_us);
                    info.frames = scan.blocks.iter().map(|b| u64::from(b.frames)).sum();
                    if let Some(last) = scan.blocks.last() {
                        if let Ok(Some(payload)) = read_block_payload(&mut file, last) {
                            let (frames, _) =
                                crate::segment::decode_records(&payload, last.first_us);
                            info.last_us = frames.last().map(|f| f.time_us);
                        }
                    }
                }
            }
        }
        found.push(info);
    }
    found.sort_by_key(|s| (s.tier, s.seq));
    Ok(found)
}

/// A writable tuple store rooted at one directory.
///
/// `Store` implements [`TupleSink`], so it plugs in anywhere a text
/// recorder does — `Scope::start_recording_sink`, the network server's
/// tee, or `gtool record`. Appends are buffered into blocks; call
/// [`Store::flush`] to make everything written so far visible to
/// readers (and durable against process crash).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    cfg: StoreConfig,
    writer: Option<SegmentWriter>,
    /// Sequence number for the *next* segment created.
    next_seq: u64,
    /// Sealed tier-0 segments, oldest first.
    sealed: Vec<SegmentInfo>,
    /// Open tier-1 writer for compacted envelopes, created lazily.
    tier1: Option<SegmentWriter>,
    tier1_last_us: Option<u64>,
    /// Time of the last accepted frame (monotonicity gate).
    last_us: Option<u64>,
    /// First frame time of the active segment.
    active_first_us: Option<u64>,
    /// Frames in the active segment.
    active_frames: u64,
    telemetry: StoreTelemetry,
}

impl Store {
    /// Opens (or creates) the store at `dir` and recovers its tail:
    /// the newest tier-0 segment is verified block-by-block, truncated
    /// past the last trustworthy frame, and any complete frames
    /// decoded from a torn tail block are re-appended. This never
    /// refuses to open a damaged directory — damage only shrinks it.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on directory or file I/O failure.
    pub fn open(dir: impl Into<PathBuf>, cfg: StoreConfig) -> Result<Store> {
        let dir = dir.into();
        // Rolls happen at block boundaries, so a block larger than the
        // segment budget would make `segment_bytes` unreachable: clamp
        // it (a 1 KiB-segment config must not buffer 16 KiB blocks).
        let mut cfg = cfg;
        cfg.block_bytes = cfg.block_bytes.min(cfg.segment_bytes.max(1) as usize);
        std::fs::create_dir_all(&dir).map_err(ScopeError::Io)?;
        let mut catalog = catalog_segments(&dir).map_err(ScopeError::Io)?;
        let next_seq = catalog.iter().map(|s| s.seq + 1).max().unwrap_or(0);
        let tier1_last_us = catalog
            .iter()
            .filter(|s| s.tier == 1)
            .filter_map(|s| s.last_us)
            .max();
        let mut store = Store {
            dir,
            cfg,
            writer: None,
            next_seq,
            sealed: Vec::new(),
            tier1: None,
            tier1_last_us,
            last_us: None,
            active_first_us: None,
            active_frames: 0,
            telemetry: StoreTelemetry::default(),
        };
        // Newest tier-0 segment is the append point: recover + resume
        // — unless the glod pyramid already folded it. A
        // watermark-covered segment is immutable (its envelope bands
        // are on disk at tier 1+), so growing it would silently
        // diverge from the pyramid; roll to a fresh seq instead.
        let wm = crate::lod::watermark(&store.dir, 1);
        let active = catalog
            .iter()
            .rposition(|s| s.tier == 0 && wm < Some(s.seq))
            .map(|i| catalog.remove(i));
        store.sealed = catalog.into_iter().filter(|s| s.tier == 0).collect();
        store.last_us = store.sealed.iter().filter_map(|s| s.last_us).max();
        if let Some(active) = active {
            let rec = recover_segment(&active.path).map_err(ScopeError::Io)?;
            if rec.truncated {
                store.telemetry.recovery_truncations.inc();
                store
                    .telemetry
                    .dropped_blocks
                    .add(u64::from(rec.dropped_blocks));
            }
            if rec.valid_len == 0 {
                // Not even the header survived; start the file over.
                std::fs::remove_file(&active.path).map_err(ScopeError::Io)?;
                store.forget_segment(&active.path);
                store.next_seq = store.next_seq.max(active.seq);
            } else {
                let mut w =
                    SegmentWriter::resume(active.path.clone(), rec.valid_len, store.cfg.fsync)
                        .map_err(ScopeError::Io)?;
                w.set_index_enabled(store.cfg.index_sidecars);
                store.active_first_us = active.first_us;
                store.active_frames = rec.frames;
                store.last_us = store
                    .last_us
                    .max(rec.last_us)
                    .max(rec.salvaged.last().map(|f| f.time_us));
                store
                    .telemetry
                    .salvaged_frames
                    .add(rec.salvaged.len() as u64);
                for f in &rec.salvaged {
                    if store.active_first_us.is_none() {
                        store.active_first_us = Some(f.time_us);
                    }
                    w.append(f.time_us, f.value, f.name.as_deref());
                    store.active_frames += 1;
                }
                // Salvaged frames go straight back to disk in their own
                // block: they were never appended, and `store.frames`
                // counts the open block's frames when it is written.
                let written = w.flush_block().map_err(ScopeError::Io)?;
                if written > 0 {
                    store.telemetry.bytes.add(written);
                    store.telemetry.blocks.inc();
                }
                store.writer = Some(w);
            }
        }
        store.telemetry.segments_live.set_count(store.sealed.len());
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Running totals (frames, bytes, rolls, recoveries, compactions),
    /// read from the store's registry — the one place they are
    /// counted (stores that share a registry share these counts).
    /// `frames_appended` adds the open block's frames to `store.frames`;
    /// `bytes_written` counts flushed bytes only.
    pub fn stats(&self) -> StoreStats {
        let t = &self.telemetry;
        StoreStats {
            frames_appended: self.frames_appended(),
            bytes_written: t.bytes.get(),
            blocks_flushed: t.blocks.get(),
            segments_rolled: t.segments_rolled.get(),
            recovery_truncations: t.recovery_truncations.get(),
            salvaged_frames: t.salvaged_frames.get(),
            dropped_blocks: t.dropped_blocks.get(),
            compaction_runs: t.compaction_runs.get(),
            segments_evicted: t.segments_evicted.get(),
        }
    }

    /// Frames accepted by [`Store::append`]: those in written blocks
    /// plus the open block's.
    fn frames_appended(&self) -> u64 {
        let open = self.writer.as_ref().map_or(0, SegmentWriter::block_frames);
        self.telemetry.frames.get() + u64::from(open)
    }

    /// Cached telemetry handles.
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.telemetry
    }

    /// Re-homes the store's metrics in `registry`, carrying over what
    /// was counted so far (opening a store already counts its
    /// recovery).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        let old = std::mem::replace(&mut self.telemetry, StoreTelemetry::new(registry));
        for (new, old) in self.telemetry.counters().into_iter().zip(old.counters()) {
            new.add(old.get());
        }
        self.telemetry.segments_live.set_count(self.sealed.len());
    }

    /// Sealed tier-0 segments, oldest first (the active segment is not
    /// listed until it rolls).
    pub fn sealed_segments(&self) -> &[SegmentInfo] {
        &self.sealed
    }

    /// Time of the newest accepted frame.
    pub fn last_time(&self) -> Option<TimeStamp> {
        self.last_us.map(TimeStamp::from_micros)
    }

    /// Appends one frame. Times must be non-decreasing across the
    /// whole store (§3.3); equal times are legal.
    ///
    /// # Errors
    ///
    /// [`ScopeError::TupleOrder`] when `time` goes backwards,
    /// [`ScopeError::Io`] when a block or segment write fails.
    #[inline]
    pub fn append(&mut self, time: TimeStamp, value: f64, name: Option<&str>) -> Result<()> {
        let time_us = time.as_micros();
        if let Some(last) = self.last_us {
            if time_us < last {
                return Err(ScopeError::TupleOrder {
                    line: (self.frames_appended() + 1) as usize,
                    previous_ms: last as f64 / 1_000.0,
                    found_ms: time_us as f64 / 1_000.0,
                });
            }
        }
        if self.writer.is_none() {
            self.writer = Some(self.new_segment(0)?);
            self.active_first_us = None;
            self.active_frames = 0;
        }
        let w = self.writer.as_mut().expect("writer just ensured");
        if self.active_first_us.is_none() {
            self.active_first_us = Some(time_us);
        }
        w.append(time_us, value, name);
        self.active_frames += 1;
        self.last_us = Some(time_us);
        // Telemetry counters are atomics; frames are published at block
        // granularity (see `flush_block`) to keep the append path free
        // of them.
        if w.block_payload_len() >= self.cfg.block_bytes
            || w.block_frames() >= self.cfg.block_frames
        {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends one tuple (convenience over [`Store::append`]).
    ///
    /// # Errors
    ///
    /// Same as [`Store::append`].
    pub fn append_tuple(&mut self, t: &gscope::Tuple) -> Result<()> {
        self.append(t.time, t.value, t.name.as_deref())
    }

    fn new_segment(&mut self, tier: u16) -> Result<SegmentWriter> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let created_us = self.last_us.unwrap_or(0);
        let path = self.dir.join(segment_file_name(seq, tier));
        let mut w = SegmentWriter::create(path, tier, created_us, self.cfg.fsync)
            .map_err(ScopeError::Io)?;
        w.set_index_enabled(self.cfg.index_sidecars);
        Ok(w)
    }

    fn flush_block(&mut self) -> Result<()> {
        let Some(w) = self.writer.as_mut() else {
            return Ok(());
        };
        let begin_ns = gtel::fast_now_ns();
        let frames = w.block_frames();
        let written = w.flush_block().map_err(ScopeError::Io)?;
        let pending = w.pending_bytes();
        if written > 0 {
            self.telemetry.frames.add(u64::from(frames));
            self.telemetry.bytes.add(written);
            self.telemetry.blocks.inc();
            // Span only for blocks that hit the file; empty flushes
            // are no-ops and would pollute the ring.
            gtel::complete_span("store.block", written, begin_ns);
        }
        if pending >= self.cfg.segment_bytes {
            self.roll_segment()?;
        }
        Ok(())
    }

    /// Seals the active segment and starts a new one, then applies the
    /// retention policy and returns what it evicted. Called
    /// automatically at the size threshold; callable explicitly (the
    /// CLI does, before compacting).
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on seal failure.
    pub fn roll_segment(&mut self) -> Result<RetentionReport> {
        let Some(w) = self.writer.take() else {
            return Ok(RetentionReport::default());
        };
        let path = w.path().to_path_buf();
        let pending = pending_block_bytes(&w);
        self.telemetry.frames.add(u64::from(w.block_frames()));
        let bytes = w.seal().map_err(ScopeError::Io)?;
        self.telemetry.bytes.add(pending);
        if pending > 0 {
            self.telemetry.blocks.inc();
        }
        let seq = parse_segment_file_name(path.file_name().and_then(|n| n.to_str()).unwrap_or(""))
            .map(|(s, _)| s)
            .unwrap_or(self.next_seq.saturating_sub(1));
        self.sealed.push(SegmentInfo {
            path,
            seq,
            tier: 0,
            bytes,
            first_us: self.active_first_us,
            last_us: self.last_us,
            frames: self.active_frames,
        });
        self.active_first_us = None;
        self.active_frames = 0;
        self.telemetry.segments_rolled.inc();
        self.telemetry.segments_live.set_count(self.sealed.len());
        self.enforce_retention()
    }

    /// Applies the retention policy: evicts the oldest sealed tier-0
    /// segments over the byte budget or past the age horizon, folding
    /// each into tier-1 min/max buckets before deleting it.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on compaction or delete failure.
    pub fn enforce_retention(&mut self) -> Result<RetentionReport> {
        let mut report = RetentionReport::default();
        if self.cfg.retain_bytes.is_none() && self.cfg.retain_age.is_none() {
            return Ok(report);
        }
        let newest = self.last_us.unwrap_or(0);
        loop {
            let total: u64 = self.sealed.iter().map(|s| s.bytes).sum();
            let over_bytes = self
                .cfg
                .retain_bytes
                .is_some_and(|budget| total > budget && self.sealed.len() > 1);
            let over_age = self.cfg.retain_age.is_some_and(|age| {
                self.sealed
                    .first()
                    .and_then(|s| s.last_us)
                    .is_some_and(|last| newest.saturating_sub(last) > age.as_micros())
            });
            if !(over_bytes || over_age) {
                break;
            }
            let victim = self.sealed.remove(0);
            report.evicted += 1;
            // When the glod pyramid already folded this segment (its
            // seq is at or under the tier-1 watermark) the envelope is
            // preserved on disk — folding it again into the bucketed
            // tier-1 log would double-count it. Just delete.
            let pyramid_covered =
                crate::lod::watermark(&self.dir, 1).is_some_and(|wm| victim.seq <= wm);
            if !pyramid_covered {
                let (frames, buckets) = self.compact_segment(&victim)?;
                report.frames_compacted += frames;
                report.buckets_written += buckets;
            }
            std::fs::remove_file(&victim.path).map_err(ScopeError::Io)?;
            self.forget_segment(&victim.path);
            self.telemetry.segments_evicted.inc();
        }
        if report.evicted > 0 {
            self.telemetry.compaction_runs.inc();
            self.telemetry.segments_live.set_count(self.sealed.len());
            if let Some(t1) = self.tier1.as_mut() {
                t1.flush_block().map_err(ScopeError::Io)?;
            }
        }
        Ok(report)
    }

    /// Follows a deleted segment: its index sidecar is deleted too (a
    /// failure other than `NotFound` counts in `store.errors`) and the
    /// process-wide lod caches forget the path.
    fn forget_segment(&self, seg: &Path) {
        match std::fs::remove_file(crate::index::index_path(seg)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => self.telemetry.errors.inc(),
            _ => {}
        }
        crate::lod::forget_cached(seg);
    }

    /// Downsamples one tier-0 segment into the tier-1 log: per
    /// `(signal, bucket)` the envelope survives as two frames at the
    /// bucket start — `(t, min)` then `(t, max)` — the same reduction
    /// `decimate_minmax` applies on screen.
    ///
    /// Buckets are keyed `(bucket_start_us, signal)` so the fold emits
    /// tier-1 frames in time order; the value is the running
    /// `(min, max)`.
    fn compact_segment(&mut self, seg: &SegmentInfo) -> Result<(u64, u64)> {
        let mut file = File::open(&seg.path).map_err(ScopeError::Io)?;
        if read_seg_header(&mut file).is_err() {
            return Ok((0, 0)); // unreadable: nothing to preserve
        }
        let scan = scan_headers(&mut file).map_err(ScopeError::Io)?;
        let bucket_us = self.cfg.compact_bucket.as_micros().max(1);
        let mut buckets: EnvelopeBuckets = BTreeMap::new();
        let mut frames = 0u64;
        for meta in &scan.blocks {
            let Some(payload) = read_block_payload(&mut file, meta).map_err(ScopeError::Io)? else {
                continue; // corrupt block: skip, keep the rest
            };
            let (decoded, _) = crate::segment::decode_records(&payload, meta.first_us);
            for f in decoded {
                let b = f.time_us / bucket_us * bucket_us;
                let e = buckets.entry((b, f.name)).or_insert((f.value, f.value));
                e.0 = e.0.min(f.value);
                e.1 = e.1.max(f.value);
                frames += 1;
            }
        }
        if buckets.is_empty() {
            return Ok((0, 0));
        }
        if self.tier1.is_none() {
            let w = self.new_segment(1)?;
            self.tier1 = Some(w);
        }
        let written = buckets.len() as u64;
        let t1 = self.tier1.as_mut().expect("tier1 just ensured");
        for ((bucket, name), (lo, hi)) in buckets {
            // Buckets straddling an eviction boundary may repeat with
            // an equal timestamp; §3.3 permits that, readers merge.
            let t = bucket.max(self.tier1_last_us.unwrap_or(0));
            t1.append(t, lo, name.as_deref());
            t1.append(t, hi, name.as_deref());
            self.tier1_last_us = Some(t);
        }
        Ok((frames, written * 2))
    }

    /// Flushes the open block so readers (and a crash) see everything
    /// appended so far.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on write failure.
    pub fn flush(&mut self) -> Result<()> {
        self.flush_block()?;
        if let Some(t1) = self.tier1.as_mut() {
            t1.flush_block().map_err(ScopeError::Io)?;
        }
        Ok(())
    }

    /// Level-of-detail query over everything recorded so far: folds
    /// `signal`'s history in `[t0, t1]` into `px_width` min/max
    /// columns, reading the coarsest glod pyramid tier that still
    /// yields one column per pixel (see [`crate::lod::query`]). The
    /// open block is flushed first so the newest frames are visible.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on flush or directory I/O failure.
    pub fn query(
        &mut self,
        signal: Option<&str>,
        t0: TimeStamp,
        t1: TimeStamp,
        px_width: usize,
    ) -> Result<crate::lod::LodResult> {
        self.flush()?;
        crate::lod::query(&self.dir, signal, t0, t1, px_width)
    }

    /// Flushes and seals everything, consuming the store. [`Drop`]
    /// does this best-effort; call `close` to observe errors.
    ///
    /// # Errors
    ///
    /// [`ScopeError::Io`] on seal failure.
    pub fn close(mut self) -> Result<StoreStats> {
        self.close_inner()?;
        Ok(self.stats())
    }

    fn close_inner(&mut self) -> Result<()> {
        if let Some(w) = self.writer.take() {
            let pending = pending_block_bytes(&w);
            self.telemetry.frames.add(u64::from(w.block_frames()));
            w.seal().map_err(ScopeError::Io)?;
            self.telemetry.bytes.add(pending);
        }
        if let Some(t1) = self.tier1.take() {
            t1.seal().map_err(ScopeError::Io)?;
        }
        Ok(())
    }
}

/// Bytes the open block would add when flushed (header + payload).
fn pending_block_bytes(w: &SegmentWriter) -> u64 {
    if w.block_frames() > 0 {
        crate::segment::BLOCK_HEADER_LEN + w.block_payload_len() as u64
    } else {
        0
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = self.close_inner();
    }
}

impl TupleSink for Store {
    fn write_parts(&mut self, time: TimeStamp, value: f64, name: Option<&str>) -> Result<()> {
        Store::append(self, time, value, name)
    }

    fn flush(&mut self) -> Result<()> {
        Store::flush(self)
    }

    fn bytes_written(&self) -> u64 {
        self.telemetry.bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gstore-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            block_bytes: 256,
            block_frames: 16,
            segment_bytes: 2048,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn append_rolls_segments_at_size() {
        let dir = tmp_dir("roll");
        let mut store = Store::open(&dir, small_cfg()).unwrap();
        for i in 0..2_000u64 {
            store
                .append(
                    TimeStamp::from_micros(i * 500),
                    (i % 97) as f64,
                    Some("sig"),
                )
                .unwrap();
        }
        let stats = store.close().unwrap();
        assert!(
            stats.segments_rolled >= 2,
            "rolled {}",
            stats.segments_rolled
        );
        assert_eq!(stats.frames_appended, 2_000);
        let cat = catalog_segments(&dir).unwrap();
        assert!(cat.len() >= 3);
        let total_frames: u64 = cat.iter().map(|s| s.frames).sum();
        assert_eq!(total_frames, 2_000);
    }

    #[test]
    fn small_segment_budget_clamps_block_size() {
        // With default (16 KiB) blocks, a 1 KiB segment budget would
        // never see a block flush, so rolls could never trigger; open
        // must clamp the block size to the segment budget.
        let dir = tmp_dir("clamp");
        let cfg = StoreConfig {
            segment_bytes: 1024,
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, cfg).unwrap();
        for i in 0..300u64 {
            store
                .append(TimeStamp::from_micros(i * 500), i as f64, Some("sig"))
                .unwrap();
        }
        let stats = store.close().unwrap();
        assert!(
            stats.segments_rolled >= 2,
            "a ~3.8 KiB recording must roll 1 KiB segments (rolled {})",
            stats.segments_rolled
        );
    }

    #[test]
    fn append_rejects_time_regression() {
        let dir = tmp_dir("order");
        let mut store = Store::open(&dir, small_cfg()).unwrap();
        store.append(TimeStamp::from_millis(10), 1.0, None).unwrap();
        // Equal time is legal.
        store.append(TimeStamp::from_millis(10), 2.0, None).unwrap();
        let err = store
            .append(TimeStamp::from_millis(9), 3.0, None)
            .unwrap_err();
        assert!(matches!(err, ScopeError::TupleOrder { .. }), "{err}");
    }

    #[test]
    fn reopen_resumes_where_append_left_off() {
        let dir = tmp_dir("reopen");
        {
            let mut store = Store::open(&dir, small_cfg()).unwrap();
            for i in 0..100u64 {
                store
                    .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("a"))
                    .unwrap();
            }
            store.close().unwrap();
        }
        let mut store = Store::open(&dir, small_cfg()).unwrap();
        assert_eq!(store.last_time(), Some(TimeStamp::from_micros(99_000)));
        // Appending before the recovered watermark is rejected.
        assert!(store
            .append(TimeStamp::from_micros(50_000), 0.0, Some("a"))
            .is_err());
        store
            .append(TimeStamp::from_micros(99_000), 1.0, Some("a"))
            .unwrap();
        store.close().unwrap();
    }

    #[test]
    fn torn_tail_recovery_salvages_and_truncates() {
        let dir = tmp_dir("torn");
        {
            let mut store = Store::open(&dir, small_cfg()).unwrap();
            for i in 0..40u64 {
                store
                    .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("a"))
                    .unwrap();
            }
            // Flush blocks but do NOT seal cleanly: simulate a crash by
            // forgetting the store after a manual flush, then tearing
            // the file below.
            store.flush().unwrap();
            std::mem::forget(store);
        }
        // Tear 3 bytes off the active segment's last block.
        let cat = catalog_segments(&dir).unwrap();
        let active = cat.last().unwrap();
        let len = std::fs::metadata(&active.path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&active.path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let store = Store::open(&dir, small_cfg()).unwrap();
        let stats = store.stats();
        assert_eq!(stats.recovery_truncations, 1);
        assert!(stats.salvaged_frames > 0);
        // At most one frame lost: 40 appended, ≥39 survive.
        let survived = store.last_time().unwrap().as_micros();
        assert!(survived >= 38_000, "survived to {survived}");
    }

    #[test]
    fn store_stats_are_the_registry_counts() {
        // A torn tail (recovery), then rolls and retention under a
        // shared registry adopted after open.
        let dir = tmp_dir("single");
        {
            let mut store = Store::open(&dir, small_cfg()).unwrap();
            for i in 0..40u64 {
                store
                    .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("a"))
                    .unwrap();
            }
            store.flush().unwrap();
            std::mem::forget(store);
        }
        let active = catalog_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&active.path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&active.path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let cfg = StoreConfig {
            retain_bytes: Some(4096),
            ..small_cfg()
        };
        let mut store = Store::open(&dir, cfg).unwrap();
        let registry = Registry::shared();
        store.set_telemetry(Arc::clone(&registry));
        for i in 40..2_000u64 {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("a"))
                .unwrap();
        }
        store.flush().unwrap();

        let s = store.stats();
        assert_eq!(s.frames_appended, 1_960);
        assert_eq!((s.recovery_truncations, s.dropped_blocks), (1, 0));
        assert!(s.salvaged_frames > 0 && s.blocks_flushed > 0, "{s:?}");
        assert!(s.segments_evicted > 0 && s.compaction_runs > 0, "{s:?}");
        for (name, field) in [
            ("store.frames", s.frames_appended),
            ("store.bytes", s.bytes_written),
            ("store.blocks", s.blocks_flushed),
            ("store.segments.rolled", s.segments_rolled),
            ("store.recovery.truncations", s.recovery_truncations),
            ("store.recovery.salvaged_frames", s.salvaged_frames),
            ("store.recovery.dropped_blocks", s.dropped_blocks),
            ("store.compaction.runs", s.compaction_runs),
            ("store.segments.evicted", s.segments_evicted),
        ] {
            match registry.get(name) {
                Some(gtel::Metric::Counter(c)) => assert_eq!(c.get(), field, "{name}"),
                other => panic!("{name} is not a registered counter: {other:?}"),
            }
        }
    }

    #[test]
    fn failed_sidecar_delete_is_counted() {
        // A directory where the sidecar should be cannot be unlinked
        // (root ignores mode bits, so permissions cannot force this).
        let dir = tmp_dir("sidecar-error");
        let cfg = StoreConfig {
            retain_bytes: Some(4096),
            ..small_cfg()
        };
        let mut store = Store::open(&dir, cfg).unwrap();
        let mut i = 0u64;
        let mut append = |store: &mut Store| {
            store
                .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("a"))
                .unwrap();
            i += 1;
        };
        while store.sealed_segments().is_empty() {
            append(&mut store);
        }
        let oldest = store.sealed_segments()[0].path.clone();
        let sidecar = crate::index::index_path(&oldest);
        std::fs::remove_file(&sidecar).unwrap();
        std::fs::create_dir(&sidecar).unwrap();
        while oldest.exists() {
            append(&mut store);
        }
        assert_eq!(store.telemetry().errors.get(), 1);
        let _ = std::fs::remove_dir(&sidecar);
    }

    #[test]
    fn retention_compacts_into_minmax_tier() {
        let dir = tmp_dir("retain");
        let cfg = StoreConfig {
            block_bytes: 256,
            block_frames: 16,
            segment_bytes: 1024,
            retain_bytes: Some(2048),
            compact_bucket: TimeDelta::from_millis(10),
            ..StoreConfig::default()
        };
        let mut store = Store::open(&dir, cfg).unwrap();
        for i in 0..3_000u64 {
            let v = (i as f64 * 0.1).sin() * 100.0;
            store
                .append(TimeStamp::from_micros(i * 500), v, Some("wave"))
                .unwrap();
        }
        let stats = store.close().unwrap();
        assert!(stats.segments_evicted > 0, "nothing evicted");
        assert!(stats.compaction_runs > 0);
        let cat = catalog_segments(&dir).unwrap();
        let tier0_bytes: u64 = cat.iter().filter(|s| s.tier == 0).map(|s| s.bytes).sum();
        assert!(
            tier0_bytes <= 2048 + 1024 + 64,
            "tier0 {tier0_bytes}B over budget"
        );
        let tier1: Vec<_> = cat.iter().filter(|s| s.tier == 1).collect();
        assert!(!tier1.is_empty(), "no tier-1 segment written");
        // Tier-1 frames come in (t, min) / (t, max) pairs.
        let t1_frames: u64 = tier1.iter().map(|s| s.frames).sum();
        assert_eq!(t1_frames % 2, 0);
        assert!(t1_frames > 0);
    }

    #[test]
    fn sink_trait_object_records_frames() {
        let dir = tmp_dir("sink");
        let store = Store::open(&dir, small_cfg()).unwrap();
        let mut sink: Box<dyn TupleSink> = Box::new(store);
        sink.write_parts(TimeStamp::from_millis(1), 0.5, Some("s"))
            .unwrap();
        sink.write_tuple(&gscope::Tuple::new(TimeStamp::from_millis(2), 1.5, "s"))
            .unwrap();
        sink.flush().unwrap();
        drop(sink);
        let cat = catalog_segments(&dir).unwrap();
        let frames: u64 = cat.iter().map(|s| s.frames).sum();
        assert_eq!(frames, 2);
    }

    #[test]
    fn salvaged_frames_replay_through_reopen_chain() {
        // Repeatedly tear the tail and reopen; every reopen must
        // succeed and the watermark must never move backwards.
        let dir = tmp_dir("chain");
        let mut last_watermark = 0u64;
        {
            let mut store = Store::open(&dir, small_cfg()).unwrap();
            for i in 0..200u64 {
                store
                    .append(TimeStamp::from_micros(i * 1_000), i as f64, Some("x"))
                    .unwrap();
            }
            store.flush().unwrap();
            std::mem::forget(store);
        }
        for cut in [1u64, 2, 7, 13] {
            let cat = catalog_segments(&dir).unwrap();
            let active = cat.iter().rfind(|s| s.tier == 0).unwrap();
            let len = std::fs::metadata(&active.path).unwrap().len();
            if len > cut + crate::segment::SEG_HEADER_LEN {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&active.path)
                    .unwrap()
                    .set_len(len - cut)
                    .unwrap();
            }
            let store = Store::open(&dir, small_cfg()).unwrap();
            if let Some(t) = store.last_time() {
                assert!(t.as_micros() + 20_000 >= last_watermark);
                last_watermark = t.as_micros();
            }
            store.close().unwrap();
        }
    }
}
