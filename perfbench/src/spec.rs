//! What the benchmark measures and why: the workloads, the metrics, and
//! which end-to-end metric each per-layer metric should move. Printed
//! by `--workload describe`; `BENCHMARK.json` carries the same names.

pub struct Workload {
    pub name: &'static str,
    pub curve: &'static str,
    pub shape: &'static str,
    pub why: &'static str,
    /// The workload's own metrics: name, unit, meaning.
    pub metrics: &'static [(&'static str, &'static str, &'static str)],
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "deep_catchup",
        curve: "toy64",
        shape: "closed loop, 2 raw-socket connections; open-loop publisher at 20 epochs/s; \
                2560 archived epochs in about ten 24 KiB sealed segments plus a tail",
        why: "Storage reads, wire framing and event-loop writes do nearly all the work and \
              crypto does none; a membership-check change should leave it unchanged.",
        metrics: &[
            ("catchup_records_per_s", "records/s", "replayed records that passed the byte check, per second: median of one-second windows (goodput_per_s)"),
            ("catchup_range_p50_ms", "ms", "request written to the range's last frame parsed (op_p50_ms)"),
            ("catchup_range_p99_ms", "ms", "the same, p99"),
            ("deliver_p50_ms", "ms", "live epoch due to its frame read at a subscriber"),
            ("deliver_p99_ms", "ms", "the same, p99 (withheld below 1000 samples)"),
        ],
    },
    Workload {
        name: "live_release",
        curve: "toy64",
        shape: "open loop at 20 epochs/s, 2 subscriber connections, 2 ciphertexts per receiver per epoch",
        why: "The paper's per-epoch path: signing, durable publish with fsync, ticker wait and \
              broadcast, then single-update verify and decrypt at the receivers.",
        metrics: &[
            ("release_p50_ms", "ms", "epoch due to every ciphertext for it opened at a receiver (op_p50_ms)"),
            ("release_p99_ms", "ms", "the same, p99 (withheld below 1000 samples)"),
            ("deliver_p50_ms", "ms", "epoch due to its frame read at the subscriber"),
            ("deliver_p99_ms", "ms", "the same, p99 (withheld below 1000 samples)"),
            ("release_goodput", "ciphertexts/s", "ciphertexts opened correctly per second (goodput_per_s)"),
        ],
    },
    Workload {
        name: "recover_verify",
        curve: "mid96",
        shape: "closed loop, 1 connection; 256 archived epochs; gaps of 16, 32 and 64 epochs, \
                one of each per block of rounds in seeded order",
        why: "Crypto does nearly all the work (hash-to-G1, cofactor clearing, subgroup checks, \
              multi-pairing) at the paper-era size; serve-path changes should leave it unchanged.",
        metrics: &[
            ("recover_epochs_per_s", "epochs/s", "gap epochs fetched, verified and opened per second (goodput_per_s)"),
            ("recover_p50_ms", "ms", "per round; rounds are too few for a p99"),
            ("recover_ms_per_epoch", "ms", "a round's time over its gap, median over rounds (op_p50_ms)"),
        ],
    },
];

/// End-to-end metrics every workload prints (`--trace 0`). The failure
/// count travels in the result line's `attempted` and `failed` fields;
/// the report prints `fail_ratio` from them.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    (
        "setup_s",
        "s",
        "archive build, key generation and sealing; median of the set-ups in the run",
    ),
    ("peak_rss_mb", "MB", "VmHWM at the end of the run"),
    (
        "goodput_per_s",
        "1/s",
        "the workload's correct work items per second",
    ),
    (
        "op_p50_ms",
        "ms",
        "median per-operation latency: a catch-up range, a release, or one recovered epoch (a round's time over its gap)",
    ),
];

/// Per-layer metrics the traced run prints (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pairing.hash_to_g1_us", "us"),
    ("pairing.subgroup_check_us", "us"),
    ("pairing.pairing_us", "us"),
    ("pairing.h2c_iters_per_epoch", "count"),
    ("pairing.fp_muls_per_epoch", "count"),
    ("pairing.pairings_per_epoch", "count"),
    ("core.sign_us", "us"),
    ("core.verify_us", "us"),
    ("core.open_us", "us"),
    ("core.batch_verify_ms", "ms"),
    ("core.encrypt_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.frame_raw_ns", "ns"),
    ("archive.publish_p50_us", "us"),
    ("archive.publish_p99_us", "us"),
    ("archive.read_chunk_p50_us", "us"),
    ("archive.read_chunk_p99_us", "us"),
    ("archive.read_chunk_busy_p50_us", "us"),
    ("archive.sealed_reads_per_record", "ratio"),
    ("segments.probes_per_lookup", "count"),
    ("journal.fsyncs_per_epoch", "count"),
    ("evloop.cpu_us_per_record", "us"),
    ("evloop.cpu_ms_per_epoch", "ms"),
    ("tcp.ticker_wait_p50_ms", "ms"),
    ("tcp.replies_per_request", "count"),
    ("tcp.catch_up_shed", "count"),
    ("tcp.catch_up_clipped", "count"),
    ("tcp.evicted", "count"),
    ("tcp.wire_errors", "count"),
    ("client.bytes_per_read", "B"),
    ("client.reads_per_record", "count"),
    ("client.fetch_ms", "ms"),
    ("client.verify_ms", "ms"),
    ("client.open_ms", "ms"),
    ("client.residual_pct", "%"),
    ("loadgen.cpu_share", "ratio"),
    ("loadgen.lag_p95_ms", "ms"),
    ("cpu.daemon_s", "s"),
    ("cpu.loadgen_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Which end-to-end metric a per-layer metric should move, where.
pub const PREDICTIONS: &[(&str, &str)] = &[
    ("pairing.*", "recover_epochs_per_s and recover_p50_ms on recover_verify (most); release_p50_ms on live_release (some); nothing on deep_catchup"),
    ("core.sign_us", "deliver_p50_ms on live_release; setup_s everywhere"),
    ("core.verify_us, core.open_us", "release_p50_ms on live_release"),
    ("core.batch_verify_ms", "recover_epochs_per_s on recover_verify"),
    ("core.encrypt_us", "setup_s on live_release and recover_verify"),
    ("wire.encode_us, wire.decode_us", "deliver_p50_ms on live_release"),
    ("wire.frame_raw_ns", "catchup_records_per_s on deep_catchup"),
    ("archive.publish_p50_us, archive.publish_p99_us", "deliver_p99_ms on live_release"),
    ("archive.read_chunk_p50_us, archive.read_chunk_p99_us", "catchup_records_per_s on deep_catchup"),
    ("archive.read_chunk_busy_p50_us", "catchup_range_p99_ms on deep_catchup"),
    ("evloop.cpu_us_per_record", "catchup_records_per_s on deep_catchup"),
    ("evloop.cpu_ms_per_epoch, tcp.ticker_wait_p50_ms", "deliver_p50_ms on live_release"),
    ("tcp.replies_per_request, tcp.catch_up_shed, tcp.catch_up_clipped, tcp.evicted, tcp.wire_errors", "fail_ratio on every workload"),
    ("client.bytes_per_read, client.reads_per_record", "catchup_records_per_s on deep_catchup"),
    ("client.fetch_ms + client.verify_ms + client.open_ms", "add up to recover_p50_ms on recover_verify"),
];

/// Prints everything above.
pub fn describe() {
    for w in WORKLOADS {
        println!("workload {} (curve {}; {})", w.name, w.curve, w.shape);
        println!("  why: {}", w.why);
        for (name, unit, meaning) in w.metrics {
            println!("  {name} [{unit}]: {meaning}");
        }
    }
    println!("end-to-end metrics (every workload, --trace 0):");
    for (name, unit, meaning) in END_TO_END {
        println!("  {name} [{unit}]: {meaning}");
    }
    println!("per-layer metrics (--trace 1):");
    for (name, unit) in PER_LAYER {
        println!("  {name} [{unit}]");
    }
    print_predictions();
}

pub fn print_predictions() {
    println!("predictions (per-layer metric -> end-to-end metric it should move):");
    for (layer, e2e) in PREDICTIONS {
        println!("  {layer} -> {e2e}");
    }
}
