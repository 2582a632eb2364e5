//! The durable archive's one read path: sealed segments and the
//! unsealed RAM tail merged by epoch. A seal that fails while a later
//! one succeeds, or a segment read error mid-range, must never drop,
//! duplicate or reorder an epoch, and a segment that can no longer be
//! read is served from its journal segment; at 100k epochs RAM holds at
//! most one journal segment's records.

use std::path::PathBuf;

use tre_core::{KeyUpdate, ReleaseTag, ServerKeyPair};
use tre_pairing::toy64;
use tre_server::{Fault, FaultPlan, FsyncPolicy, JournalConfig, UpdateArchive};
use tre_server::{RECORD_HEADER_LEN, RECORD_TRAILER_LEN};

/// A fresh durable archive with `max_segment_bytes` journal segments,
/// plus one signed update to publish under every epoch.
fn open(name: &str, max_segment_bytes: u64) -> (PathBuf, UpdateArchive<8>, KeyUpdate<8>) {
    let dir = std::env::temp_dir().join(format!("tre-reader-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = JournalConfig {
        fsync: FsyncPolicy::OnClose,
        max_segment_bytes,
    };
    let (archive, _) = UpdateArchive::open_durable(&dir, toy64(), config).unwrap();
    let keys = ServerKeyPair::generate(toy64(), &mut rand::thread_rng());
    let update = keys.issue_update(toy64(), &ReleaseTag::time("archive-reader"));
    (dir, archive, update)
}

/// Walks `[from, to]` through the chunked raw reader, `chunk` records
/// at a time, and returns the epochs in the order served. A read error
/// may stop one chunk before it yields anything, but never two in a row
/// at the same epoch.
fn chunked_epochs(archive: &UpdateArchive<8>, from: u64, to: u64, chunk: usize) -> Vec<u64> {
    let (mut epochs, mut next, mut stopped) = (Vec::new(), Some(from), None);
    while let Some(start) = next {
        let (records, more) = archive.read_range_chunk_raw(toy64(), start, to, chunk);
        if records.is_empty() && more == Some(start) {
            assert_ne!(stopped, Some(start), "stalled at {start}");
            stopped = Some(start);
        }
        epochs.extend(records.iter().map(|(e, _)| *e));
        next = more;
    }
    epochs
}

#[test]
fn failed_seals_never_hide_epochs_from_the_chunked_reader() {
    let (dir, archive, update) = open("sealfail", 1024);
    let faults = FaultPlan::new().at(0, Fault::SegmentDiskFull);
    archive.set_segment_fault_plan(&faults.at(1, Fault::SegmentDiskFull));
    for e in 0..80u64 {
        archive.publish(e, update.clone());
        let all: Vec<u64> = (0..=e).collect();
        assert_eq!(chunked_epochs(&archive, 0, e, 5), all, "after epoch {e}");
    }
    let stats = archive.segment_stats().unwrap();
    assert_eq!(stats.seal_failures, 2, "both injected seal faults fired");
    assert!(archive.get(0).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_errors_stop_the_chunk_and_fall_back_to_the_journal_segment() {
    let (dir, archive, update) = open("readfail", 1024);
    let n = 80u64;
    for e in 0..n {
        archive.publish(e, update.clone());
    }
    let stats = archive.segment_stats().unwrap();
    assert!(stats.segments_sealed >= 3, "several sealed segments");
    // Seals are the only I/O so far, so op `seals + 1` is the second
    // read of the next chunk: the first segment reads, the second fails.
    let seals = stats.segments_sealed + stats.seal_failures;
    archive.set_segment_fault_plan(&FaultPlan::new().at(seals + 1, Fault::SegmentReadError));

    let (first, resume) = archive.read_range_chunk_raw(toy64(), 0, n - 1, n as usize);
    let first: Vec<u64> = first.iter().map(|(e, _)| *e).collect();
    let resume = resume.expect("the chunk stopped early");
    assert!(resume > 0, "the first segment was served");
    assert_eq!(
        first,
        (0..resume).collect::<Vec<_>>(),
        "stops at the failure"
    );
    assert_eq!(archive.segment_stats().unwrap().read_failures, 1);
    let rest = chunked_epochs(&archive, resume, n - 1, n as usize);
    assert_eq!(rest, (resume..n).collect::<Vec<_>>(), "resumes there");

    // Every read of the oldest segment now fails, not just one.
    let oldest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tres"))
        .min()
        .unwrap();
    std::fs::remove_file(&oldest).unwrap();
    let all: Vec<u64> = (0..n).collect();
    assert_eq!(chunked_epochs(&archive, 0, n - 1, 7), all);
    assert_eq!(archive.segment_stats().unwrap().read_failures, 2);
    for e in 0..n {
        assert_eq!(archive.get(e).as_ref(), Some(&update), "get({e})");
    }
    assert_eq!(archive.len() as u64, n);
    // The next rotation reseals both failed segments from the journal.
    let mut e = n;
    while !oldest.exists() {
        archive.publish(e, update.clone());
        e += 1;
        assert!(e < 2 * n, "segment never resealed");
    }
    assert_eq!(
        chunked_epochs(&archive, 0, e - 1, 7),
        (0..e).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hundred_thousand_epochs_keep_one_segment_in_ram() {
    let max_segment_bytes = 32 * 1024;
    let (dir, archive, update) = open("100k", max_segment_bytes);
    let mut body = Vec::new();
    update.write_body(toy64(), &mut body);
    let record_len = (RECORD_HEADER_LEN + body.len() + RECORD_TRAILER_LEN) as u64;
    let per_segment = max_segment_bytes.div_ceil(record_len);

    let n = 100_000u64;
    for e in 0..n {
        archive.publish(e, update.clone());
        let in_ram = archive.len() as u64 - archive.sealed_records();
        assert!(in_ram <= per_segment, "epoch {e}: {in_ram} records in RAM");
    }
    assert_eq!(archive.len() as u64, n);
    for e in 0..n {
        assert_eq!(archive.get(e).as_ref(), Some(&update), "get({e})");
    }
    let all: Vec<u64> = (0..n).collect();
    assert_eq!(chunked_epochs(&archive, 0, n - 1, 256), all);
    let _ = std::fs::remove_dir_all(&dir);
}
