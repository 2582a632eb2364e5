//! The public archive of past key updates.
//!
//! §3: "keep a list of old key updates (whose release time has passed) at a
//! publicly accessible place" — so a receiver who missed a broadcast can
//! still decrypt (§6 notes full resilience to missing updates as future
//! work; the archive is the paper's interim answer).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use parking_lot::{Mutex, RwLock};
use tre_core::KeyUpdate;
use tre_pairing::Curve;

use crate::journal::{segment_paths, Journal, JournalConfig, JournalStats, ReplayReport};
use crate::segments::{SegmentStore, SegmentStoreConfig, SegmentStoreStats};

/// The on-disk backing of a durable archive: the append-only journal
/// (write path, source of truth) and the epoch-indexed segment store
/// (where sealed history lives).
#[derive(Debug)]
struct Durable {
    journal: Mutex<Journal>,
    segments: Mutex<SegmentStore>,
}

/// One update held in RAM: its canonical body bytes and the journal
/// segment that holds it (0 for an in-memory archive).
#[derive(Debug)]
struct TailRecord {
    seq: u64,
    body: Vec<u8>,
}

/// Thread-safe archive of published updates, indexed by epoch.
///
/// Each update is held once. By default the archive is purely
/// in-memory and keeps every update in RAM. [`UpdateArchive::open_durable`]
/// backs it with an append-only [`Journal`]: every publish hits stable
/// storage *before* it is visible to readers, sealed journal segments
/// move into the [`SegmentStore`] and leave RAM, and a restarted server
/// recovers its complete archive from disk. Every read goes through one
/// reader that merges sealed records with the RAM tail by epoch.
#[derive(Debug)]
pub struct UpdateArchive<const L: usize> {
    curve: Curve<L>,
    /// Epochs whose journal segment is not sealed yet (all of them when
    /// in-memory).
    tail: RwLock<BTreeMap<u64, TailRecord>>,
    durable: Option<Durable>,
}

impl<const L: usize> UpdateArchive<L> {
    /// An empty, in-memory archive of updates over `curve`.
    pub fn new(curve: &Curve<L>) -> Self {
        Self {
            curve: curve.clone(),
            tail: RwLock::new(BTreeMap::new()),
            durable: None,
        }
    }

    /// Opens a journal-backed archive at `dir`, replaying any existing
    /// records: the returned archive already contains every update that
    /// survived on disk (torn tails truncated, corrupt records
    /// quarantined — see [`Journal::open`]), and all subsequent
    /// [`publish`](Self::publish) calls append to the journal before
    /// acknowledging.
    ///
    /// Only records of journal segments that are not sealed are loaded
    /// into RAM. Those whose body no longer decodes as a [`KeyUpdate`]
    /// (curve mismatch, partial corruption that slipped framing) are
    /// dropped and counted in the report's `quarantined_records`. Sealed
    /// history is served from its segment files and never decoded here.
    ///
    /// # Errors
    /// Propagates journal / filesystem errors.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        curve: &'static Curve<L>,
        config: JournalConfig,
    ) -> io::Result<(Self, ReplayReport)> {
        let (journal, _, mut report) = Journal::open(&dir, config)?;
        let mut segments = SegmentStore::open(&dir, SegmentStoreConfig::default())?;
        // Adopt whatever the previous life sealed but never archived —
        // this is also where a kill -9 mid-rotation heals.
        let _ = segments.adopt_sealed(journal.active_segment());
        let mut tail = BTreeMap::new();
        for (seq, _) in segment_paths(dir.as_ref())? {
            if segments.has_segment(seq) {
                continue;
            }
            // Re-read after `Journal::open` repaired the segment.
            for (epoch, body) in segments.journal_records(seq) {
                if KeyUpdate::read_body(curve, &body).is_ok() {
                    tail.insert(epoch, TailRecord { seq, body });
                } else {
                    report.records -= 1;
                    report.quarantined_records += 1;
                }
            }
        }
        let archive = Self {
            curve: curve.clone(),
            tail: RwLock::new(tail),
            durable: Some(Durable {
                journal: Mutex::new(journal),
                segments: Mutex::new(segments),
            }),
        };
        report.latest_epoch = archive.latest_epoch();
        Ok((archive, report))
    }

    /// Whether publishes are journaled to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Journal counters, when durable.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.durable.as_ref().map(|d| d.journal.lock().stats())
    }

    /// Segment-store counters, when durable.
    pub fn segment_stats(&self) -> Option<SegmentStoreStats> {
        self.durable.as_ref().map(|d| d.segments.lock().stats())
    }

    /// Records held by sealed archive segments (0 when in-memory) —
    /// the linear-scan baseline for the probe-count experiments.
    pub fn sealed_records(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.segments.lock().total_records())
    }

    /// Arms segment-scoped I/O faults from `plan` on the underlying
    /// [`SegmentStore`] (no-op for an in-memory archive). See
    /// [`SegmentStore::set_fault_plan`].
    pub fn set_segment_fault_plan(&self, plan: &crate::faults::FaultPlan) {
        if let Some(d) = &self.durable {
            d.segments.lock().set_fault_plan(plan);
        }
    }

    /// Forces any buffered journal appends to stable storage (no-op for
    /// an in-memory archive or when nothing is pending).
    ///
    /// # Errors
    /// Propagates the underlying fsync error.
    pub fn sync(&self) -> io::Result<()> {
        match &self.durable {
            Some(d) => d.journal.lock().sync(),
            None => Ok(()),
        }
    }

    /// Seals the active journal segment and starts a new one.
    ///
    /// # Errors
    /// Propagates filesystem errors; errors on an in-memory archive never
    /// occur (no-op).
    pub fn rotate_journal(&self) -> io::Result<()> {
        if let Some(d) = &self.durable {
            let active = {
                let mut j = d.journal.lock();
                j.rotate()?;
                j.active_segment()
            };
            self.seal_rotated(d, active);
        }
        Ok(())
    }

    /// Indexes every rotated-out journal segment below `active` as an
    /// archive segment and drops the RAM copies of the records it now
    /// holds. A failed seal keeps its records in RAM; the next rotation
    /// retries it.
    fn seal_rotated(&self, d: &Durable, active: u64) {
        let mut store = d.segments.lock();
        let _ = store.adopt_sealed(active);
        self.tail
            .write()
            .retain(|_, r| r.seq >= active || !store.has_segment(r.seq));
    }

    /// Drops journal records older than `horizon` from sealed segments,
    /// and archive segments wholly below it (records still in RAM keep
    /// serving until their segment seals; the paper's archive is
    /// conceptually unbounded, so retention is an operator decision).
    /// Returns journal records dropped; 0 for an in-memory archive.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn compact_journal(&self, horizon: u64) -> io::Result<u64> {
        match &self.durable {
            Some(d) => {
                let dropped = d.journal.lock().compact(horizon)?;
                d.segments.lock().compact(horizon)?;
                Ok(dropped)
            }
            None => Ok(0),
        }
    }

    /// Publishes an update for `epoch` (idempotent — re-publishing the same
    /// epoch overwrites, which is harmless since updates are deterministic).
    ///
    /// On a durable archive the update is appended to the journal **before**
    /// it becomes visible to readers, so an acknowledged publish survives a
    /// crash (under `FsyncPolicy::EveryRecord`; `EveryN` bounds the loss
    /// window to N-1 records).
    ///
    /// # Panics
    /// If the journal append fails: serving an update that is not durable
    /// would silently break the recovery guarantee, so the server crashes
    /// instead.
    pub fn publish(&self, epoch: u64, update: KeyUpdate<L>) {
        let mut body = Vec::new();
        update.write_body(&self.curve, &mut body);
        let Some(d) = &self.durable else {
            self.tail.write().insert(epoch, TailRecord { seq: 0, body });
            return;
        };
        let (rotated, active) = {
            let mut j = d.journal.lock();
            let before = j.active_segment();
            j.append(epoch, &body)
                .expect("journal append failed: refusing to ack a non-durable update");
            let seq = j.active_segment();
            // Tracked under the journal lock, so no rotation can seal
            // this segment before its record is in the tail.
            self.tail.write().insert(epoch, TailRecord { seq, body });
            (seq != before, seq)
        };
        if rotated {
            self.seal_rotated(d, active);
        }
    }

    /// Fetches the stored update for `epoch`, if any.
    ///
    /// No release-time check happens here: the server only ever *stores*
    /// an update once its epoch has been reached ([`crate::TimeServer`]
    /// refuses to sign future epochs), so presence in the archive already
    /// implies the release time has passed. Callers that accept archives
    /// from untrusted sources must enforce their own clock check — this
    /// is a `get_unchecked` in that sense.
    pub fn get(&self, epoch: u64) -> Option<KeyUpdate<L>> {
        let found = self.range(epoch, epoch).pop().map(|(_, u)| u);
        if tre_obs::is_enabled() {
            let outcome = if found.is_some() { "hit" } else { "miss" };
            tre_obs::event("archive.fetch", &format!("epoch={epoch} {outcome}"));
        }
        found
    }

    /// The most recent archived epoch.
    pub fn latest_epoch(&self) -> Option<u64> {
        // The segment lock spans the tail read, as in `read`.
        let store = self.durable.as_ref().map(|d| d.segments.lock());
        let sealed = store.as_ref().and_then(|s| s.sealed_max_epoch());
        sealed.max(self.tail.read().keys().next_back().copied())
    }

    /// Number of archived records: sealed ones plus those in RAM. This is
    /// the number of epochs unless an epoch was re-published after the
    /// segment holding its first copy sealed.
    pub fn len(&self) -> usize {
        let store = self.durable.as_ref().map(|d| d.segments.lock());
        let sealed = store.as_ref().map_or(0, |s| s.total_records());
        sealed as usize + self.tail.read().len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All updates in the inclusive epoch range (for catch-up after an
    /// outage), decoded. Materialises the whole span — the serving path
    /// should prefer [`read_range_chunk_raw`](Self::read_range_chunk_raw).
    pub fn range(&self, from: u64, to: u64) -> Vec<(u64, KeyUpdate<L>)> {
        let (mut out, mut next) = (Vec::new(), Some(from));
        // A read stops early only at a segment read error, which takes
        // that segment out of the store, so this ends.
        while let Some(start) = next {
            let records;
            (records, next) = self.read(start, to, usize::MAX);
            out.extend(records.into_iter().filter_map(|(e, body)| {
                KeyUpdate::read_body(&self.curve, &body)
                    .ok()
                    .map(|u| (e, u))
            }));
        }
        out
    }

    /// Bounded chunk of the inclusive epoch range `[from, to]`: at most
    /// `max` *canonical body byte strings* in ascending epoch order, each
    /// epoch once, plus the epoch to resume from when the range has more
    /// (`None` when this chunk finishes it). A segment read failure ends
    /// the chunk before the failed segment, possibly empty, with the
    /// resume epoch pointing at it; from then on its records are served
    /// from its journal segment (see [`read`](Self::read)). `curve` is
    /// unused: the archive knows its curve.
    ///
    /// This is the serving path for deep catch-up replays: bytes ship as
    /// stored, with no decode. Decoding a body costs a point
    /// decompression (a field sqrt), which at archive scale turns one
    /// replay into hundreds of milliseconds of shard-thread CPU. Updates
    /// are self-authenticating, so receivers — who verify every update
    /// against the server key anyway — reject anything mangled.
    pub fn read_range_chunk_raw(
        &self,
        _curve: &Curve<L>,
        from: u64,
        to: u64,
        max: usize,
    ) -> (Vec<(u64, Vec<u8>)>, Option<u64>) {
        self.read(from, to, max)
    }

    /// The one reader behind every lookup: merges the sealed records and
    /// the RAM tail by epoch. The segment lock is held across both, and
    /// records leave the tail only under it, so a sealing publish can
    /// never hide (or double) an epoch for a concurrent read.
    /// A sealed segment that fails to read leaves the store, and its
    /// journal copy moves into the tail until the next rotation reseals
    /// it, so an error that recurs costs one stopped chunk.
    fn read(&self, from: u64, to: u64, max: usize) -> (Vec<(u64, Vec<u8>)>, Option<u64>) {
        if max == 0 || from > to {
            return (Vec::new(), None);
        }
        // Held until the tail is read (see above).
        let mut store = self.durable.as_ref().map(|d| d.segments.lock());
        let (mut out, mut horizon) = (Vec::new(), None);
        if let Some(store) = store
            .as_deref_mut()
            .filter(|s| s.sealed_max_epoch().is_some_and(|m| from <= m))
        {
            let failed;
            (out, failed) = store.read_range_partial(from, to, max);
            // The first epoch the sealed read did not cover — at a failed
            // segment, or past a full chunk. The merge stops before it.
            horizon = match failed {
                Some((resume, seq, _)) => {
                    let mut tail = self.tail.write();
                    for (epoch, body) in store.evict(seq) {
                        tail.insert(epoch, TailRecord { seq, body });
                    }
                    Some(resume)
                }
                None => out.get(max - 1).map(|(e, _)| e + 1),
            };
        }
        out.extend(
            self.tail
                .read()
                .range(from..=to)
                .take_while(|(e, _)| horizon.is_none_or(|h| **e < h))
                .take(max)
                .map(|(e, r)| (*e, r.body.clone())),
        );
        // Stable: a sealed copy of an epoch wins over a RAM one.
        out.sort_by_key(|(e, _)| *e);
        out.dedup_by_key(|(e, _)| *e);
        out.truncate(max);
        let next = match out.last() {
            Some((last, _)) if out.len() >= max => (*last < to).then(|| last + 1),
            _ => horizon.filter(|h| *h <= to),
        };
        (out, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_core::{ReleaseTag, ServerKeyPair};
    use tre_pairing::toy64;

    fn update(server: &ServerKeyPair<8>, e: u64) -> KeyUpdate<8> {
        server.issue_update(toy64(), &ReleaseTag::time(format!("epoch/{e}")))
    }

    #[test]
    fn publish_get_roundtrip() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let archive = UpdateArchive::new(curve);
        assert!(archive.is_empty());
        assert_eq!(archive.get(3), None);
        archive.publish(3, update(&server, 3));
        assert_eq!(archive.len(), 1);
        assert!(archive.get(3).unwrap().verify(curve, server.public()));
        assert_eq!(archive.latest_epoch(), Some(3));
    }

    #[test]
    fn range_catchup() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let archive = UpdateArchive::new(curve);
        for e in 0..10 {
            archive.publish(e, update(&server, e));
        }
        let caught_up = archive.range(4, 7);
        assert_eq!(caught_up.len(), 4);
        assert_eq!(caught_up[0].0, 4);
        assert_eq!(caught_up[3].0, 7);
        assert_eq!(archive.range(20, 30).len(), 0);
    }

    #[test]
    fn concurrent_access() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let archive = std::sync::Arc::new(UpdateArchive::new(curve));
        let mut handles = vec![];
        for t in 0..4u64 {
            let a = archive.clone();
            let u = update(&server, t);
            handles.push(std::thread::spawn(move || {
                a.publish(t, u);
                a.get(t).is_some()
            }));
        }
        for h in handles {
            assert!(h.join().unwrap());
        }
        assert_eq!(archive.len(), 4);
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tre-archive-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_archive_survives_reopen() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let dir = tmp_dir("reopen");
        {
            let (archive, report) =
                UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
            assert!(archive.is_durable());
            assert_eq!(report.records, 0);
            for e in 0..6 {
                archive.publish(e, update(&server, e));
            }
            assert_eq!(archive.journal_stats().unwrap().appends, 6);
        }
        // "Restart": a fresh process opening the same directory sees the
        // complete archive, and every replayed update still verifies.
        let (archive, report) =
            UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
        assert_eq!(report.records, 6);
        assert_eq!(report.latest_epoch, Some(5));
        assert_eq!(archive.latest_epoch(), Some(5));
        for e in 0..6 {
            let u = archive.get(e).expect("replayed epoch present");
            assert!(u.verify(curve, server.public()), "replayed update verifies");
        }
        assert_eq!(archive.range(0, 5).len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_archive_is_idempotent_across_republish() {
        let curve = toy64();
        let mut rng = rand::thread_rng();
        let server = ServerKeyPair::generate(curve, &mut rng);
        let dir = tmp_dir("idem");
        {
            let (archive, _) =
                UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
            let u = update(&server, 7);
            archive.publish(7, u.clone());
            archive.publish(7, u); // duplicate append — harmless
        }
        let (archive, report) =
            UpdateArchive::open_durable(&dir, curve, JournalConfig::default()).unwrap();
        assert_eq!(report.records, 2, "journal keeps both appends");
        assert_eq!(archive.len(), 1, "tail deduplicates by epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_archive_durability_hooks_are_noops() {
        let archive: UpdateArchive<8> = UpdateArchive::new(toy64());
        assert!(!archive.is_durable());
        assert!(archive.journal_stats().is_none());
        archive.sync().unwrap();
        archive.rotate_journal().unwrap();
        assert_eq!(archive.compact_journal(100).unwrap(), 0);
    }
}
