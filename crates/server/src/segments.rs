//! Epoch-indexed durable segment store: the archive's read-optimised
//! on-disk shape.
//!
//! The journal makes the archive *durable*: every publish is an fsynced
//! append. But replay is linear. This module adds the read side the
//! paper's §3 archive needs at scale, and is the only home of sealed
//! history (the archive keeps just unsealed records in RAM): when the
//! journal rotates, the sealed `seg-<seq>.trej` segment is **adopted**
//! into a sorted, epoch-indexed archive segment `arch-<seq>.tres` —
//! same CRC-framed record layout, records sorted by epoch, written via
//! temp-file + fsync + atomic rename (+ directory fsync). A sparse
//! in-memory offset index (every `index_stride`-th record) gives
//! O(log n) epoch lookup: binary search over segment epoch ranges,
//! binary search over the sparse index, then a forward scan bounded by
//! the stride. Range reads are served straight from the segment files
//! in bounded chunks — a deep catch-up never materialises the whole
//! span in memory.
//!
//! ## Crash consistency
//!
//! Sealing is repeatable and atomic: a crash (or injected I/O fault)
//! mid-seal leaves at worst an `arch-*.tres.tmp` stray, which open
//! deletes; the journal segment is still there, so the next adoption
//! pass re-seals it. A `kill -9` anywhere around a rotation therefore
//! recovers gap-free — the journal remains the write-ahead source of
//! truth and `.tres` files are a derived, re-derivable view.
//!
//! ## Corruption handling
//!
//! On open every `.tres` file is scanned front to back with the same
//! framing checks as the journal (magic, bounded length, CRC), plus a
//! sortedness check. Scanning stops at the first bad byte: the intact
//! prefix is preserved and served; if the source journal segment still
//! exists the `.tres` is discarded and re-sealed from it instead (full
//! recovery). Nothing in this path panics on arbitrary bytes — the
//! segment proptests pin that.
//!
//! ## Fault injection
//!
//! [`SegmentStore::set_fault_plan`] wires the store into the existing
//! [`FaultPlan`] machinery: [`Fault::SegmentShortWrite`],
//! [`Fault::SegmentDiskFull`] and [`Fault::SegmentReadError`] events
//! are interpreted with `at` as the store's I/O *operation index* (each
//! seal write is one op, each positioned segment read is one op). The
//! store must stay consistent and recover after every injected fault.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::faults::{Fault, FaultPlan};
use crate::journal::{
    crc32, encode_record, scan_segment, segment_name, segment_paths, ReplayedRecord,
    MAX_RECORD_BODY, RECORD_HEADER_LEN, RECORD_MAGIC, RECORD_TRAILER_LEN,
};

/// Segment-store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SegmentStoreConfig {
    /// Every `index_stride`-th record of a sealed segment gets a sparse
    /// index entry; a lookup scans at most this many records after the
    /// index seek. Smaller = more memory, fewer probes.
    pub index_stride: usize,
}

impl Default for SegmentStoreConfig {
    fn default() -> Self {
        Self { index_stride: 8 }
    }
}

tre_obs::stats! {
    /// Monotone segment-store counters (all since open).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SegmentStoreStats {
        /// Journal segments sealed into `.tres` archive segments.
        pub segments_sealed: u64,
        /// Seal attempts that failed (I/O error / injected fault); the
        /// journal segment stays adoptable, so these are retried.
        pub seal_failures: u64,
        /// Records written into sealed archive segments.
        pub records_sealed: u64,
        /// Corrupt or partial `.tres` files discarded and rebuilt from
        /// their journal segment on open.
        pub resealed_segments: u64,
        /// Bytes dropped off corrupt `.tres` tails that had no journal
        /// segment left to re-seal from (intact prefix preserved).
        pub corrupt_tail_bytes: u64,
        /// Point lookups served.
        pub lookups: u64,
        /// Total probes across lookups: sparse-index binary-search steps
        /// plus records scanned forward. The O(log n) evidence — compare
        /// against `total_records / 2` per lookup for the linear baseline.
        pub lookup_probes: u64,
        /// Chunked range reads served.
        pub range_reads: u64,
        /// Records returned by range reads.
        pub range_records: u64,
        /// Read operations that failed (I/O error / injected fault).
        pub read_failures: u64,
        /// Archive segments deleted by compaction.
        pub segments_dropped: u64,
    }
}

/// In-memory metadata for one sealed archive segment.
#[derive(Debug)]
struct SealedSegment {
    seq: u64,
    path: PathBuf,
    /// Smallest epoch in the segment (`u64::MAX` when empty).
    min_epoch: u64,
    /// Largest epoch in the segment (0 when empty).
    max_epoch: u64,
    records: u64,
    /// Length of the validated record prefix; reads never go past it.
    intact_len: u64,
    /// Sparse offsets: `(epoch, byte offset)` of every
    /// `index_stride`-th record, always including the first.
    index: Vec<(u64, u64)>,
}

/// Which fault class an injected event belongs to (write path or read
/// path); `at` is the store's I/O operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegFault {
    ShortWrite,
    DiskFull,
    ReadError,
}

fn arch_name(seq: u64) -> String {
    format!("arch-{seq:010}.tres")
}

fn arch_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("arch-")?.strip_suffix(".tres")?;
    digits.parse().ok()
}

/// All archive segment files in `dir`, sorted by sequence number.
fn arch_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(seq) = arch_seq(&path) {
            segments.push((seq, path));
        }
    }
    segments.sort_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Result of validating one `.tres` file front to back.
struct ArchScan {
    records: u64,
    min_epoch: u64,
    max_epoch: u64,
    index: Vec<(u64, u64)>,
    /// Validated prefix length; anything past it is corrupt.
    intact_len: u64,
}

/// Validates a sealed archive segment: dense CRC-framed records sorted
/// by epoch. Stops at the first framing/CRC/sortedness violation — the
/// intact prefix is what the store may serve.
fn scan_arch(bytes: &[u8], stride: usize) -> ArchScan {
    let stride = stride.max(1);
    let mut scan = ArchScan {
        records: 0,
        min_epoch: u64::MAX,
        max_epoch: 0,
        index: Vec::new(),
        intact_len: 0,
    };
    let mut off = 0usize;
    let mut prev_epoch = None::<u64>;
    while bytes.len() - off >= RECORD_HEADER_LEN + RECORD_TRAILER_LEN {
        let rest = &bytes[off..];
        if rest[..4] != RECORD_MAGIC {
            break;
        }
        let epoch = u64::from_be_bytes(rest[4..12].try_into().unwrap());
        let body_len = u32::from_be_bytes(rest[12..16].try_into().unwrap()) as usize;
        if body_len > MAX_RECORD_BODY {
            break;
        }
        let total = RECORD_HEADER_LEN + body_len + RECORD_TRAILER_LEN;
        if rest.len() < total {
            break;
        }
        let stored = u32::from_be_bytes(rest[total - 4..total].try_into().unwrap());
        if crc32(&rest[4..total - 4]) != stored {
            break;
        }
        if prev_epoch.is_some_and(|p| epoch < p) {
            break; // sealed segments are sorted; out-of-order = corrupt
        }
        if scan.records.is_multiple_of(stride as u64) {
            scan.index.push((epoch, off as u64));
        }
        scan.min_epoch = scan.min_epoch.min(epoch);
        scan.max_epoch = scan.max_epoch.max(epoch);
        scan.records += 1;
        prev_epoch = Some(epoch);
        off += total;
        scan.intact_len = off as u64;
    }
    scan
}

/// The durable, epoch-indexed segment store (see the module docs).
/// Lives in the same directory as the journal; owns the `arch-*.tres`
/// files, never touches `seg-*.trej` except to read sealed ones.
pub struct SegmentStore {
    dir: PathBuf,
    config: SegmentStoreConfig,
    segments: Vec<SealedSegment>,
    stats: SegmentStoreStats,
    /// Injected faults: `(op index armed at, class)`, consumed in order
    /// by the next matching-class I/O operation.
    faults: Vec<(u64, SegFault)>,
    ops: u64,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("segments", &self.segments.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SegmentStore {
    /// Opens the store over `dir`: deletes stray `.tres.tmp` files from
    /// interrupted seals, validates every `arch-*.tres` (rebuilding
    /// corrupt ones from their journal segment when it still exists),
    /// and builds the sparse indexes.
    ///
    /// # Errors
    /// Propagates filesystem errors; corruption is recovered from, not
    /// an error.
    pub fn open(dir: impl AsRef<Path>, config: SegmentStoreConfig) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut store = Self {
            dir: dir.clone(),
            config,
            segments: Vec::new(),
            stats: SegmentStoreStats::default(),
            faults: Vec::new(),
            ops: 0,
        };
        // Stray temp files are interrupted seals: the journal segment is
        // still the source of truth, so just remove them.
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("arch-") && name.ends_with(".tres.tmp") {
                let _ = fs::remove_file(&path);
            }
        }
        let journal_segs: std::collections::HashMap<u64, PathBuf> =
            segment_paths(&dir)?.into_iter().collect();
        for (seq, path) in arch_paths(&dir)? {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let scan = scan_arch(&bytes, config.index_stride);
            if scan.intact_len < bytes.len() as u64 {
                if let Some(src) = journal_segs.get(&seq) {
                    // The journal segment survives: discard the damaged
                    // view and rebuild it whole.
                    fs::remove_file(&path)?;
                    store.stats.resealed_segments += 1;
                    store.seal_one(seq, src)?;
                    continue;
                }
                // No source left: keep the intact prefix, drop the tail.
                let tail = bytes.len() as u64 - scan.intact_len;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.intact_len)?;
                f.sync_data()?;
                store.stats.corrupt_tail_bytes += tail;
            }
            store.segments.push(SealedSegment {
                seq,
                path,
                min_epoch: scan.min_epoch,
                max_epoch: scan.max_epoch,
                records: scan.records,
                intact_len: scan.intact_len,
                index: scan.index,
            });
        }
        store.segments.sort_by_key(|s| s.seq);
        // Same normalisation as `seal_one`: empty segments inherit their
        // predecessor's max epoch so range ordering stays monotone.
        let mut prev_max = 0u64;
        for seg in &mut store.segments {
            if seg.records == 0 {
                seg.min_epoch = prev_max;
                seg.max_epoch = prev_max;
            } else {
                prev_max = seg.max_epoch;
            }
        }
        Ok(store)
    }

    /// Arms the segment-scoped events of `plan`
    /// ([`Fault::SegmentShortWrite`], [`Fault::SegmentDiskFull`],
    /// [`Fault::SegmentReadError`]); each fires on the first
    /// matching-class I/O operation at or after its `at` index. Other
    /// fault kinds in the plan are ignored here.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for event in plan.events() {
            let class = match event.fault {
                Fault::SegmentShortWrite => SegFault::ShortWrite,
                Fault::SegmentDiskFull => SegFault::DiskFull,
                Fault::SegmentReadError => SegFault::ReadError,
                _ => continue,
            };
            self.faults.push((event.at, class));
        }
        self.faults.sort_by_key(|(at, _)| *at);
    }

    /// Counts one I/O operation and returns the armed fault that should
    /// fire on it, if any. `write_path` selects which classes apply.
    fn take_fault(&mut self, write_path: bool) -> Option<SegFault> {
        let op = self.ops;
        self.ops += 1;
        let pos = self.faults.iter().position(|(at, class)| {
            *at <= op
                && match class {
                    SegFault::ShortWrite | SegFault::DiskFull => write_path,
                    SegFault::ReadError => !write_path,
                }
        })?;
        Some(self.faults.remove(pos).1)
    }

    /// Adopts every journal segment with `seq < active_seq` that has no
    /// archive segment yet, sealing each into a sorted `.tres` file.
    /// Returns the number of segments sealed. Individual seal failures
    /// (e.g. injected ENOSPC) are counted, skipped, and retried on the
    /// next call — the journal still holds the records.
    ///
    /// # Errors
    /// Propagates directory-listing errors only.
    pub fn adopt_sealed(&mut self, active_seq: u64) -> io::Result<u64> {
        let mut sealed = 0u64;
        for (seq, path) in segment_paths(&self.dir)? {
            if seq >= active_seq || self.has_segment(seq) {
                continue;
            }
            match self.seal_one(seq, &path) {
                Ok(()) => sealed += 1,
                Err(e) => {
                    self.stats.seal_failures += 1;
                    if tre_obs::is_enabled() {
                        tre_obs::event("segments.seal_failed", &format!("seq={seq} err={e}"));
                    }
                }
            }
        }
        Ok(sealed)
    }

    /// Seals one journal segment: scan, sort by epoch (last write per
    /// epoch wins), write to `arch-<seq>.tres.tmp`, fsync, rename,
    /// fsync the directory, and index it in memory.
    fn seal_one(&mut self, seq: u64, journal_seg: &Path) -> io::Result<()> {
        let mut bytes = Vec::new();
        File::open(journal_seg)?.read_to_end(&mut bytes)?;
        let scan = scan_segment(&bytes);
        let mut by_epoch = std::collections::BTreeMap::new();
        for (epoch, body) in scan.records {
            by_epoch.insert(epoch, body); // later journal appends win
        }
        let mut out = Vec::new();
        let stride = self.config.index_stride.max(1);
        let mut index = Vec::new();
        let (mut min_epoch, mut max_epoch) = (u64::MAX, 0u64);
        for (i, (epoch, body)) in by_epoch.iter().enumerate() {
            if i.is_multiple_of(stride) {
                index.push((*epoch, out.len() as u64));
            }
            min_epoch = min_epoch.min(*epoch);
            max_epoch = max_epoch.max(*epoch);
            out.extend_from_slice(&encode_record(*epoch, body));
        }
        let path = self.dir.join(arch_name(seq));
        let tmp = self.dir.join(format!("{}.tmp", arch_name(seq)));
        let write_result = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            match self.take_fault(true) {
                Some(SegFault::ShortWrite) => {
                    // Persist only half the segment, then fail — the
                    // torn temp file must never become visible.
                    f.write_all(&out[..out.len() / 2])?;
                    f.sync_data()?;
                    return Err(io::Error::other("injected short write"));
                }
                Some(SegFault::DiskFull) => {
                    return Err(io::Error::other("injected ENOSPC"));
                }
                _ => {}
            }
            f.write_all(&out)?;
            f.sync_data()?;
            Ok(())
        })();
        if let Err(e) = write_result {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &path)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.stats.segments_sealed += 1;
        self.stats.records_sealed += by_epoch.len() as u64;
        if tre_obs::is_enabled() {
            tre_obs::event(
                "segments.sealed",
                &format!("seq={seq} records={}", by_epoch.len()),
            );
        }
        if by_epoch.is_empty() {
            // An empty rotation (nothing published between two rotates)
            // carries no epochs; inherit the predecessor's max so the
            // epoch ordering the read paths binary-search over stays
            // monotone across the segment list.
            let prev_max = self
                .segments
                .iter()
                .filter(|s| s.seq < seq)
                .map(|s| s.max_epoch)
                .max()
                .unwrap_or(0);
            min_epoch = prev_max;
            max_epoch = prev_max;
        }
        self.segments.push(SealedSegment {
            seq,
            path,
            min_epoch,
            max_epoch,
            records: by_epoch.len() as u64,
            intact_len: out.len() as u64,
            index,
        });
        self.segments.sort_by_key(|s| s.seq);
        Ok(())
    }

    /// Reads `[start, end)` of sealed segment `seg` (one I/O op, read
    /// class — an armed [`Fault::SegmentReadError`] fires here), counting
    /// a failure in `read_failures`.
    fn read_window(&mut self, seg: usize, start: u64, end: u64) -> io::Result<Vec<u8>> {
        let read = if let Some(SegFault::ReadError) = self.take_fault(false) {
            Err(io::Error::other("injected read error"))
        } else {
            File::open(&self.segments[seg].path).and_then(|mut f| {
                f.seek(SeekFrom::Start(start))?;
                let mut buf = vec![0u8; (end - start) as usize];
                f.read_exact(&mut buf)?;
                Ok(buf)
            })
        };
        self.stats.read_failures += read.is_err() as u64;
        read
    }

    /// Parses the dense records of a validated window, calling `emit`
    /// for each until it returns `false`.
    fn walk_window(
        window: &[u8],
        base_off: u64,
        mut emit: impl FnMut(u64, &[u8]) -> bool,
    ) -> io::Result<()> {
        let mut off = 0usize;
        while window.len() - off >= RECORD_HEADER_LEN + RECORD_TRAILER_LEN {
            let rest = &window[off..];
            if rest[..4] != RECORD_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad record magic at offset {}", base_off + off as u64),
                ));
            }
            let epoch = u64::from_be_bytes(rest[4..12].try_into().unwrap());
            let body_len = u32::from_be_bytes(rest[12..16].try_into().unwrap()) as usize;
            let total = RECORD_HEADER_LEN + body_len + RECORD_TRAILER_LEN;
            if body_len > MAX_RECORD_BODY || rest.len() < total {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "record overruns validated window",
                ));
            }
            if !emit(
                epoch,
                &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + body_len],
            ) {
                break;
            }
            off += total;
        }
        Ok(())
    }

    /// Sparse-index seek: the window `[start, end)` of `seg` that must
    /// contain `epoch` if present, plus the binary-search probe count.
    fn index_window(seg: &SealedSegment, epoch: u64) -> (u64, u64, u64) {
        // partition_point is a binary search: ~log2(index.len()) probes.
        let pos = seg.index.partition_point(|(e, _)| *e <= epoch);
        let probes = (seg.index.len().max(1)).ilog2() as u64 + 1;
        let start = if pos == 0 { 0 } else { seg.index[pos - 1].1 };
        let end = seg
            .index
            .get(pos)
            .map_or(seg.intact_len, |(_, off)| *off)
            .max(start);
        (start, end, probes)
    }

    /// Point lookup: the raw record body for `epoch`, if sealed.
    /// Binary search over segment epoch ranges, binary search over the
    /// sparse index, then a forward scan of at most `index_stride`
    /// records — the probe count lands in
    /// [`SegmentStoreStats::lookup_probes`].
    ///
    /// # Errors
    /// Propagates read errors (including injected ones).
    pub fn lookup(&mut self, epoch: u64) -> io::Result<Option<Vec<u8>>> {
        self.stats.lookups += 1;
        // Binary search for the first segment whose range can hold the
        // epoch (ranges are non-overlapping in practice; scan forward
        // defensively in case they are not).
        let mut i = self.segments.partition_point(|s| s.max_epoch < epoch);
        self.stats.lookup_probes += (self.segments.len().max(1)).ilog2() as u64 + 1;
        while i < self.segments.len() && self.segments[i].min_epoch <= epoch {
            let seg = &self.segments[i];
            if seg.records > 0 && epoch <= seg.max_epoch {
                let (start, end, idx_probes) = Self::index_window(seg, epoch);
                self.stats.lookup_probes += idx_probes;
                if end > start {
                    let window = self.read_window(i, start, end)?;
                    let mut found = None;
                    let mut scanned = 0u64;
                    Self::walk_window(&window, start, |e, body| {
                        scanned += 1;
                        if e == epoch {
                            found = Some(body.to_vec());
                            return false;
                        }
                        e < epoch
                    })?;
                    self.stats.lookup_probes += scanned;
                    if found.is_some() {
                        return Ok(found);
                    }
                }
            }
            i += 1;
        }
        Ok(None)
    }

    /// Chunked range read: up to `max_records` sealed records with
    /// epochs in `[from, to]`, ascending, straight from the segment
    /// files. Callers iterate by advancing `from` past the last epoch
    /// returned — the store never materialises more than one chunk.
    ///
    /// # Errors
    /// Propagates read errors (including injected ones).
    pub fn read_range(
        &mut self,
        from: u64,
        to: u64,
        max_records: usize,
    ) -> io::Result<Vec<ReplayedRecord>> {
        match self.read_range_partial(from, to, max_records) {
            (out, None) => Ok(out),
            (_, Some((_, _, e))) => Err(e),
        }
    }

    /// [`read_range`](Self::read_range) that keeps what it read before a
    /// failure: the records of the segments before the failed one, plus
    /// the first epoch the failed segment could hold, its sequence
    /// number and the error. Every record returned lies below that
    /// epoch, so a caller can serve them and retry from it.
    pub(crate) fn read_range_partial(
        &mut self,
        from: u64,
        to: u64,
        max_records: usize,
    ) -> (Vec<ReplayedRecord>, Option<(u64, u64, io::Error)>) {
        self.stats.range_reads += 1;
        let mut out: Vec<ReplayedRecord> = Vec::new();
        if from > to || max_records == 0 {
            return (out, None);
        }
        let start_seg = self.segments.partition_point(|s| s.max_epoch < from);
        for i in start_seg..self.segments.len() {
            let seg = &self.segments[i];
            if seg.min_epoch > to || out.len() >= max_records {
                break;
            }
            if seg.records == 0 {
                continue;
            }
            // Window: from the index entry at-or-before `from` up to the
            // first entry past `to` (or the intact end).
            let (start, _, _) = Self::index_window(seg, from);
            let end_pos = seg.index.partition_point(|(e, _)| *e <= to);
            let end = seg
                .index
                .get(end_pos)
                .map_or(seg.intact_len, |(_, off)| *off)
                .max(start);
            if end == start {
                continue;
            }
            let resume = from.max(seg.min_epoch);
            let walked = self.read_window(i, start, end).and_then(|window| {
                Self::walk_window(&window, start, |e, body| {
                    if e > to {
                        return false;
                    }
                    if e >= from {
                        out.push((e, body.to_vec()));
                    }
                    out.len() < max_records
                })
            });
            if let Err(e) = walked {
                // Drop what the failed window yielded before it broke.
                out.retain(|(e, _)| *e < resume);
                self.stats.range_records += out.len() as u64;
                return (out, Some((resume, self.segments[i].seq, e)));
            }
        }
        self.stats.range_records += out.len() as u64;
        (out, None)
    }

    /// Drops sealed segment `seq` from the index (after a read error)
    /// and returns its [`journal_records`](Self::journal_records). The
    /// next [`adopt_sealed`](Self::adopt_sealed) reseals it; a reopen
    /// re-validates its file.
    pub(crate) fn evict(&mut self, seq: u64) -> Vec<ReplayedRecord> {
        if let Ok(i) = self.segments.binary_search_by_key(&seq, |s| s.seq) {
            self.segments.remove(i);
        }
        self.journal_records(seq)
    }

    /// The intact records of journal segment `seq`, in append order —
    /// empty when it is gone or unreadable.
    pub(crate) fn journal_records(&self, seq: u64) -> Vec<ReplayedRecord> {
        let mut bytes = Vec::new();
        File::open(self.dir.join(segment_name(seq)))
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_or_else(|_| Vec::new(), |_| scan_segment(&bytes).records)
    }

    /// Whether journal segment `seq` has been sealed into this store.
    pub(crate) fn has_segment(&self, seq: u64) -> bool {
        self.segments.binary_search_by_key(&seq, |s| s.seq).is_ok()
    }

    /// Largest epoch present in any sealed segment, if any.
    pub fn sealed_max_epoch(&self) -> Option<u64> {
        self.segments
            .iter()
            .filter(|s| s.records > 0)
            .map(|s| s.max_epoch)
            .max()
    }

    /// Deletes archive segments whose every epoch is below `horizon`
    /// (segment-granular retention, mirroring journal compaction).
    /// Returns the number of segments dropped.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn compact(&mut self, horizon: u64) -> io::Result<u64> {
        let mut dropped = 0u64;
        let mut keep = Vec::with_capacity(self.segments.len());
        for seg in std::mem::take(&mut self.segments) {
            if seg.records > 0 && seg.max_epoch < horizon {
                fs::remove_file(&seg.path)?;
                dropped += 1;
            } else {
                keep.push(seg);
            }
        }
        self.segments = keep;
        self.stats.segments_dropped += dropped;
        Ok(dropped)
    }

    /// Number of sealed archive segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total records across all sealed segments (the linear-scan
    /// baseline for the probe-count comparison).
    pub fn total_records(&self) -> u64 {
        self.segments.iter().map(|s| s.records).sum()
    }

    /// Counters since open.
    pub fn stats(&self) -> SegmentStoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalConfig};
    use crate::FsyncPolicy;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tre-segments-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn body(i: u64) -> Vec<u8> {
        format!("segment-body-{i}").into_bytes()
    }

    /// Builds a journal of `epochs` records with tiny segments, rotates
    /// them sealed, and returns the directory and active sequence.
    fn build_journal(dir: &Path, epochs: u64) -> u64 {
        let config = JournalConfig {
            fsync: FsyncPolicy::OnClose,
            max_segment_bytes: 128,
        };
        let (mut j, _, _) = Journal::open(dir, config).unwrap();
        for e in 0..epochs {
            j.append(e, &body(e)).unwrap();
        }
        j.sync().unwrap();
        j.active_segment()
    }

    #[test]
    fn seal_lookup_and_range_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let active = build_journal(&dir, 40);
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        let sealed = store.adopt_sealed(active).unwrap();
        assert!(sealed >= 2, "tiny segments seal several archives");
        assert_eq!(store.segment_count() as u64, sealed);
        let sealed_max = store.sealed_max_epoch().unwrap();
        assert!(sealed_max < 40, "active segment is never sealed");

        for e in 0..=sealed_max {
            assert_eq!(
                store.lookup(e).unwrap().as_deref(),
                Some(body(e).as_slice()),
                "epoch {e}"
            );
        }
        assert_eq!(store.lookup(sealed_max + 1).unwrap(), None);

        // Chunked range read walks the whole sealed span.
        let mut got = Vec::new();
        let mut from = 0u64;
        loop {
            let chunk = store.read_range(from, sealed_max, 7).unwrap();
            if chunk.is_empty() {
                break;
            }
            from = chunk.last().unwrap().0 + 1;
            got.extend(chunk);
        }
        let epochs: Vec<u64> = got.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, (0..=sealed_max).collect::<Vec<_>>());
        assert!(got.iter().all(|(e, b)| *b == body(*e)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn adoption_is_idempotent_and_reopen_preserves_index() {
        let dir = tmp_dir("idempotent");
        let active = build_journal(&dir, 24);
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        let first = store.adopt_sealed(active).unwrap();
        assert!(first > 0);
        assert_eq!(store.adopt_sealed(active).unwrap(), 0, "nothing new");
        let sealed_max = store.sealed_max_epoch().unwrap();
        drop(store);

        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        assert_eq!(store.adopt_sealed(active).unwrap(), 0, "reopen sees them");
        assert_eq!(store.sealed_max_epoch(), Some(sealed_max));
        assert_eq!(
            store.lookup(sealed_max).unwrap().as_deref(),
            Some(body(sealed_max).as_slice())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_probes_stay_logarithmic() {
        let dir = tmp_dir("probes");
        let config = JournalConfig {
            fsync: FsyncPolicy::OnClose,
            max_segment_bytes: 1024,
        };
        let n = 2000u64;
        let active = {
            let (mut j, _, _) = Journal::open(&dir, config).unwrap();
            for e in 0..n {
                j.append(e, &body(e)).unwrap();
            }
            j.sync().unwrap();
            j.active_segment()
        };
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        store.adopt_sealed(active).unwrap();
        let sealed = store.total_records();
        assert!(sealed > n / 2);

        let lookups = 200u64;
        for i in 0..lookups {
            let e = (i * 7919) % sealed; // deterministic spread
            assert!(store.lookup(e).unwrap().is_some());
        }
        let stats = store.stats();
        let avg_probes = stats.lookup_probes / stats.lookups;
        let linear_baseline = sealed / 2;
        assert!(
            avg_probes * 8 < linear_baseline,
            "sparse index beats linear scan: avg {avg_probes} vs baseline {linear_baseline}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_seal_faults_are_recovered_on_retry() {
        let dir = tmp_dir("sealfault");
        let active = build_journal(&dir, 30);
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        store.set_fault_plan(
            &FaultPlan::new()
                .at(0, Fault::SegmentDiskFull)
                .at(1, Fault::SegmentShortWrite),
        );
        let first = store.adopt_sealed(active).unwrap();
        let failures = store.stats().seal_failures;
        assert_eq!(failures, 2, "both injected write faults fired");
        // No torn temp file became a visible segment.
        assert!(arch_paths(&dir)
            .unwrap()
            .iter()
            .all(|(_, p)| scan_arch(&fs::read(p).unwrap(), 8).intact_len
                == fs::metadata(p).unwrap().len()));
        // Retry seals everything the faults skipped.
        let retried = store.adopt_sealed(active).unwrap();
        assert_eq!(retried, 2, "failed seals retried");
        assert!(first + retried >= 2);
        let sealed_max = store.sealed_max_epoch().unwrap();
        for e in 0..=sealed_max {
            assert!(store.lookup(e).unwrap().is_some(), "epoch {e} recovered");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_error_surfaces_and_store_recovers() {
        let dir = tmp_dir("readfault");
        let active = build_journal(&dir, 20);
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        store.adopt_sealed(active).unwrap();
        let sealed_max = store.sealed_max_epoch().unwrap();
        store.set_fault_plan(&FaultPlan::new().at(0, Fault::SegmentReadError));
        assert!(store.lookup(0).is_err(), "armed read fault fires");
        assert_eq!(store.stats().read_failures, 1);
        // The fault is consumed; the store serves normally afterwards.
        assert_eq!(
            store.lookup(sealed_max).unwrap().as_deref(),
            Some(body(sealed_max).as_slice())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_from_crashed_seal_is_cleaned_and_resealed() {
        let dir = tmp_dir("straytmp");
        let active = build_journal(&dir, 20);
        // Simulate a crash mid-seal: a half-written temp file on disk.
        fs::write(dir.join("arch-0000000001.tres.tmp"), b"half a segment").unwrap();
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        assert!(!dir.join("arch-0000000001.tres.tmp").exists());
        store.adopt_sealed(active).unwrap();
        assert!(store.lookup(0).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_archive_segment_is_resealed_from_journal() {
        let dir = tmp_dir("reseal");
        let active = build_journal(&dir, 24);
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        store.adopt_sealed(active).unwrap();
        let sealed_max = store.sealed_max_epoch().unwrap();
        let (_, first_path) = arch_paths(&dir).unwrap().into_iter().next().unwrap();
        drop(store);
        // Flip a byte in the middle of the first archive segment.
        let mut bytes = fs::read(&first_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&first_path, &bytes).unwrap();

        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        assert_eq!(store.stats().resealed_segments, 1);
        for e in 0..=sealed_max {
            assert_eq!(
                store.lookup(e).unwrap().as_deref(),
                Some(body(e).as_slice()),
                "epoch {e} rebuilt from journal"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_without_journal_keeps_intact_prefix() {
        let dir = tmp_dir("prefix");
        let active = build_journal(&dir, 24);
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        store.adopt_sealed(active).unwrap();
        let (first_seq, first_path) = arch_paths(&dir).unwrap().into_iter().next().unwrap();
        drop(store);
        // Remove the journal source, then corrupt the archive tail.
        fs::remove_file(dir.join(crate::journal::segment_name(first_seq))).unwrap();
        let mut bytes = fs::read(&first_path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        fs::write(&first_path, &bytes).unwrap();

        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        assert!(store.stats().corrupt_tail_bytes > 0);
        assert_eq!(store.stats().resealed_segments, 0);
        // The first records of the damaged segment still serve.
        assert_eq!(
            store.lookup(0).unwrap().as_deref(),
            Some(body(0).as_slice())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_fully_aged_segments() {
        let dir = tmp_dir("compact");
        let active = build_journal(&dir, 40);
        let mut store = SegmentStore::open(&dir, SegmentStoreConfig::default()).unwrap();
        store.adopt_sealed(active).unwrap();
        let before = store.segment_count();
        let sealed_max = store.sealed_max_epoch().unwrap();
        let dropped = store.compact(sealed_max).unwrap();
        assert!(dropped > 0, "aged segments removed");
        assert!(store.segment_count() < before);
        assert!(store.lookup(sealed_max).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
