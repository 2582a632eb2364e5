//! Golden metric names: the sorted `(name, kind)` list every stats
//! struct and the `tred` daemon composite put on `/metrics`.
//!
//! Dashboards, alerts and `tretop` key on these names, so a rename or a
//! kind change is a breaking change to the operator surface. Each list
//! below is what `Registry::render_prometheus` emits after one export;
//! when a list changes on purpose, update the literal in the same change.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tre::obs::{LatencyHistogram, Registry};
use tre::prelude::*;
use tre::server::{
    ClientHealth, CommitteeStats, FeedStats, JournalConfig, JournalStats, NetStats, ProxyStats,
    RelayStats, SegmentStoreStats, SupervisorStats, TraceSink, Tred, TredConfig, TredStats,
    UpdateArchive,
};

/// `(name, kind)` of every `# TYPE` line of the exposition, sorted.
fn exposed(registry: &Registry) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = registry
        .render_prometheus()
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            (name.to_string(), kind.to_string())
        })
        .collect();
    out.sort();
    out
}

/// Exports into a fresh registry and checks the result against `want`;
/// on a mismatch the message carries the actual list as a literal.
fn check(what: &str, export: impl FnOnce(&mut Registry), want: &[(&str, &str)]) {
    let mut registry = Registry::new();
    export(&mut registry);
    let got = exposed(&registry);
    let want: Vec<(String, String)> = want
        .iter()
        .map(|(n, k)| (n.to_string(), k.to_string()))
        .collect();
    if got != want {
        let literal: String = got
            .iter()
            .map(|(n, k)| format!("    (\"{n}\", \"{k}\"),\n"))
            .collect();
        panic!("{what}: exported names changed; now:\n{literal}");
    }
}

#[test]
fn stats_struct_names_are_stable() {
    check(
        "TredStats",
        |r| TredStats::default().export_into(r, "tred"),
        TRED_STATS,
    );
    check(
        "FeedStats",
        |r| FeedStats::default().export_into(r, "feed"),
        FEED_STATS,
    );
    check(
        "RelayStats",
        |r| RelayStats::default().export_into(r, "trerelay"),
        RELAY_STATS,
    );
    check(
        "JournalStats",
        |r| JournalStats::default().export_into(r, "journal"),
        JOURNAL_STATS,
    );
    check(
        "SegmentStoreStats",
        |r| SegmentStoreStats::default().export_into(r, "segments"),
        SEGMENT_STORE_STATS,
    );
    check(
        "NetStats",
        |r| NetStats::default().export_into(r, "tre_net"),
        NET_STATS,
    );
    check(
        "ProxyStats",
        |r| ProxyStats::default().export_into(r, "proxy"),
        PROXY_STATS,
    );
    check(
        "SupervisorStats",
        |r| SupervisorStats::default().export_into(r, "sup"),
        SUPERVISOR_STATS,
    );
    check(
        "ClientHealth",
        |r| ClientHealth::default().export_into(r, "tre_client"),
        CLIENT_HEALTH,
    );
    // One member in each per-member map, so the hand-exported member
    // series show up beside the declared scalars.
    let committee = CommitteeStats {
        shares_rejected: BTreeMap::from([(2, 1)]),
        share_arrival: BTreeMap::from([(2, LatencyHistogram::default())]),
        ..CommitteeStats::default()
    };
    check(
        "CommitteeStats",
        |r| committee.export_into(r, "committee"),
        COMMITTEE_STATS,
    );
}

/// The whole daemon over a journal-backed archive with tracing on: the
/// serving counters, the subscriber gauge, the journal and segment-store
/// counters and the trace sink, exactly as `tred --journal DIR
/// --telemetry ADDR` serves them.
#[test]
fn tred_composite_names_are_stable() {
    let curve = tre::pairing::toy64();
    let dir = std::env::temp_dir().join(format!("tre-metric-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = JournalConfig {
        max_segment_bytes: 600,
        ..JournalConfig::default()
    };
    let (archive, _) = UpdateArchive::open_durable(&dir, curve, config).unwrap();
    let mut rng = rand::thread_rng();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let server = TimeServer::recover(
        curve,
        keys,
        SimClock::new(),
        Granularity::Seconds,
        Arc::new(archive),
    );
    let sink = TraceSink::new();
    let tred = Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig::default(),
        sink.clone(),
    )
    .unwrap();
    // Epoch 0 is due at boot; once its broadcast is stamped the sink
    // holds the two origin-side stage histograms and nothing else.
    let start = Instant::now();
    while sink.epoch_trace(0).is_none_or(|t| t.stamps[2].is_none())
        && start.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        sink.epoch_trace(0).is_some_and(|t| t.stamps[2].is_some()),
        "epoch 0 broadcast"
    );
    // What a telemetry endpoint captures: one handle, shareable across
    // the endpoint's threads.
    fn shareable<T: Clone + Send + Sync>(t: T) -> T {
        t
    }
    let metrics = shareable(tred.metrics());
    check(
        "Tred composite",
        |r| metrics.export_into(r, "tred"),
        TRED_COMPOSITE,
    );
    tred.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

const TRED_STATS: &[(&str, &str)] = &[
    ("tred_broadcasts", "counter"),
    ("tred_catch_up_clipped", "counter"),
    ("tred_catch_up_replies", "counter"),
    ("tred_catch_up_requests", "counter"),
    ("tred_catch_up_shed", "counter"),
    ("tred_connections", "counter"),
    ("tred_evicted", "counter"),
    ("tred_frames_abandoned", "counter"),
    ("tred_frames_dropped", "counter"),
    ("tred_frames_enqueued", "counter"),
    ("tred_frames_in_flight", "gauge"),
    ("tred_frames_offered", "counter"),
    ("tred_frames_written", "counter"),
    ("tred_wire_errors", "counter"),
];
const FEED_STATS: &[(&str, &str)] = &[
    ("feed_busy_seen", "counter"),
    ("feed_bytes_received", "counter"),
    ("feed_catch_up_requests", "counter"),
    ("feed_reconnects", "counter"),
    ("feed_shares_decoded", "counter"),
    ("feed_traces_decoded", "counter"),
    ("feed_updates_decoded", "counter"),
    ("feed_wire_errors", "counter"),
];
const RELAY_STATS: &[(&str, &str)] = &[
    ("trerelay_duplicates_skipped", "counter"),
    ("trerelay_epochs_relayed", "counter"),
    ("trerelay_untagged_dropped", "counter"),
    ("trerelay_updates_rejected", "counter"),
    ("trerelay_verify_batches", "counter"),
];
const JOURNAL_STATS: &[(&str, &str)] = &[
    ("journal_appends", "counter"),
    ("journal_bytes_written", "counter"),
    ("journal_compacted_records", "counter"),
    ("journal_fsyncs", "counter"),
    ("journal_quarantined_bytes", "counter"),
    ("journal_quarantined_records", "counter"),
    ("journal_replayed_records", "counter"),
    ("journal_rotations", "counter"),
    ("journal_segments_removed", "counter"),
    ("journal_torn_tail_bytes", "counter"),
];
const SEGMENT_STORE_STATS: &[(&str, &str)] = &[
    ("segments_corrupt_tail_bytes", "counter"),
    ("segments_lookup_probes", "counter"),
    ("segments_lookups", "counter"),
    ("segments_range_reads", "counter"),
    ("segments_range_records", "counter"),
    ("segments_read_failures", "counter"),
    ("segments_records_sealed", "counter"),
    ("segments_resealed_segments", "counter"),
    ("segments_seal_failures", "counter"),
    ("segments_segments_dropped", "counter"),
    ("segments_segments_sealed", "counter"),
];
const NET_STATS: &[(&str, &str)] = &[
    ("tre_net_broadcast_bytes", "counter"),
    ("tre_net_broadcasts", "counter"),
    ("tre_net_lost", "counter"),
    ("tre_net_unicast_equivalent_bytes", "counter"),
];
const PROXY_STATS: &[(&str, &str)] = &[
    ("proxy_bytes_down", "counter"),
    ("proxy_bytes_up", "counter"),
    ("proxy_connections", "counter"),
    ("proxy_corrupted_bytes", "counter"),
    ("proxy_delayed_chunks", "counter"),
    ("proxy_resets", "counter"),
    ("proxy_stalled_chunks", "counter"),
    ("proxy_torn_frames", "counter"),
];
const SUPERVISOR_STATS: &[(&str, &str)] = &[
    ("sup_busy_sheds_seen", "counter"),
    ("sup_catch_up_resumes", "counter"),
    ("sup_catch_up_retries", "counter"),
    ("sup_disconnects_seen", "counter"),
    ("sup_gap_repairs", "counter"),
    ("sup_reconnect_attempts", "counter"),
    ("sup_reconnects", "counter"),
];
const CLIENT_HEALTH: &[(&str, &str)] = &[
    ("tre_client_accepted_updates", "counter"),
    ("tre_client_archive_attempts", "counter"),
    ("tre_client_archive_misses", "counter"),
    ("tre_client_decrypt_failures", "counter"),
    ("tre_client_duplicates_skipped", "counter"),
    ("tre_client_equivocations", "counter"),
    ("tre_client_invalid_streak", "gauge"),
    ("tre_client_missed_epochs", "counter"),
    ("tre_client_open_latency", "histogram"),
    ("tre_client_recovered_from_archive", "counter"),
    ("tre_client_rejected_updates", "counter"),
    ("tre_client_updates_received", "counter"),
];
const COMMITTEE_STATS: &[(&str, &str)] = &[
    ("committee_aggregation_pairings", "counter"),
    ("committee_epochs_aggregated", "counter"),
    ("committee_hello_mismatches", "counter"),
    ("committee_member_2_share_arrival_ms", "histogram"),
    ("committee_member_2_shares_rejected", "counter"),
    ("committee_misattributed_shares", "counter"),
    ("committee_quorum_latency", "histogram"),
    ("committee_quorum_timeouts", "counter"),
    ("committee_shares_admitted", "counter"),
    ("committee_shares_dropped", "counter"),
    ("committee_shares_received", "counter"),
    ("committee_verify_batches", "counter"),
];
const TRED_COMPOSITE: &[(&str, &str)] = &[
    ("tred_broadcasts", "counter"),
    ("tred_catch_up_clipped", "counter"),
    ("tred_catch_up_replies", "counter"),
    ("tred_catch_up_requests", "counter"),
    ("tred_catch_up_shed", "counter"),
    ("tred_connections", "counter"),
    ("tred_evicted", "counter"),
    ("tred_frames_abandoned", "counter"),
    ("tred_frames_dropped", "counter"),
    ("tred_frames_enqueued", "counter"),
    ("tred_frames_in_flight", "gauge"),
    ("tred_frames_offered", "counter"),
    ("tred_frames_written", "counter"),
    ("tred_journal_appends", "counter"),
    ("tred_journal_bytes_written", "counter"),
    ("tred_journal_compacted_records", "counter"),
    ("tred_journal_fsyncs", "counter"),
    ("tred_journal_quarantined_bytes", "counter"),
    ("tred_journal_quarantined_records", "counter"),
    ("tred_journal_replayed_records", "counter"),
    ("tred_journal_rotations", "counter"),
    ("tred_journal_segments_removed", "counter"),
    ("tred_journal_torn_tail_bytes", "counter"),
    ("tred_segments_corrupt_tail_bytes", "counter"),
    ("tred_segments_lookup_probes", "counter"),
    ("tred_segments_lookups", "counter"),
    ("tred_segments_range_reads", "counter"),
    ("tred_segments_range_records", "counter"),
    ("tred_segments_read_failures", "counter"),
    ("tred_segments_records_sealed", "counter"),
    ("tred_segments_resealed_segments", "counter"),
    ("tred_segments_seal_failures", "counter"),
    ("tred_segments_segments_dropped", "counter"),
    ("tred_segments_segments_sealed", "counter"),
    ("tred_subscribers", "gauge"),
    ("tred_trace_epochs_traced", "counter"),
    (
        "tred_trace_stage_journal_fsync_to_broadcast_us",
        "histogram",
    ),
    ("tred_trace_stage_publish_to_journal_fsync_us", "histogram"),
    ("tred_trace_traces_emitted", "counter"),
    ("tred_trace_traces_received", "counter"),
    ("tred_wire_errors", "counter"),
];
