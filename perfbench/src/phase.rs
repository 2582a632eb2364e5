//! One measured phase of a workload, and the daemon-side counters and
//! CPU split around it.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

use tre_server::{JournalStats, SegmentStoreStats, TredStats};

use crate::net::{Daemon, Schedule};
use crate::stats::Samples;
use crate::sys::{CpuMark, CpuSplit};

/// Output mismatches: counted, the first few kept for the report.
#[derive(Debug, Default)]
pub struct Errors {
    pub count: u64,
    pub first: Vec<String>,
}

impl Errors {
    pub fn add(&mut self, what: impl Into<String>) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what.into());
        }
    }

    pub fn absorb(&mut self, other: Errors) {
        self.count += other.count;
        for e in other.first {
            if self.first.len() < 8 {
                self.first.push(e);
            }
        }
    }
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted and failed (shed, incomplete at the
    /// deadline, or wrong output).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Errors,
    /// Correct work items per second.
    pub goodput: f64,
    /// Per-operation latency, ms.
    pub op_ms: Samples,
    /// Human-readable end-to-end lines, under each workload's own metric
    /// names (see `spec::WORKLOADS`).
    pub lines: Vec<String>,
    /// Per-layer values measured in this phase.
    pub layer: BTreeMap<&'static str, f64>,
    pub cpu: CpuSplit,
}

/// Counter values of the daemon at one instant.
#[derive(Debug, Clone)]
pub struct DaemonMark {
    cpu: CpuMark,
    tred: [u64; 6],
    journal: JournalStats,
    segments: SegmentStoreStats,
}

fn tred_counters(s: &TredStats) -> [u64; 6] {
    [
        s.catch_up_requests.load(Relaxed),
        s.catch_up_replies.load(Relaxed),
        s.catch_up_shed.load(Relaxed),
        s.catch_up_clipped.load(Relaxed),
        s.evicted.load(Relaxed),
        s.wire_errors.load(Relaxed),
    ]
}

impl DaemonMark {
    pub fn now<const L: usize>(daemon: &Daemon<L>) -> Self {
        let archive = daemon.tred.archive();
        Self {
            cpu: CpuMark::now(),
            tred: tred_counters(&daemon.tred.stats()),
            journal: archive.journal_stats().unwrap_or_default(),
            segments: archive.segment_stats().unwrap_or_default(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills the phase's CPU split and the daemon-side per-layer values
/// from two marks. `live_epochs` is how many epochs the phase
/// published; `records_read` how many update frames the load generator
/// parsed; `reads`/`bytes` its own socket reads.
pub fn daemon_layers(
    phase: &mut Phase,
    before: &DaemonMark,
    after: &DaemonMark,
    live_epochs: u64,
    records_read: u64,
    reads: u64,
    bytes: u64,
) {
    let cpu = before.cpu.until(&after.cpu);
    phase.cpu = cpu;
    let d = |i: usize| after.tred[i].saturating_sub(before.tred[i]) as f64;
    let (requests, replies) = (d(0), d(1));
    let sealed = after.segments.range_records - before.segments.range_records;
    let fsyncs = after.journal.fsyncs - before.journal.fsyncs;
    let appends = after.journal.appends - before.journal.appends;
    let l = &mut phase.layer;
    l.insert(
        "evloop.cpu_us_per_record",
        ratio(cpu.serve_s * 1e6, replies),
    );
    l.insert(
        "evloop.cpu_ms_per_epoch",
        ratio(cpu.daemon_s * 1e3, live_epochs as f64),
    );
    l.insert("tcp.replies_per_request", ratio(replies, requests));
    l.insert("tcp.catch_up_shed", d(2));
    l.insert("tcp.catch_up_clipped", d(3));
    l.insert("tcp.evicted", d(4));
    l.insert("tcp.wire_errors", d(5));
    l.insert(
        "archive.sealed_reads_per_record",
        ratio(sealed as f64, replies),
    );
    l.insert(
        "journal.fsyncs_per_epoch",
        ratio(fsyncs as f64, appends as f64),
    );
    l.insert("client.bytes_per_read", ratio(bytes as f64, reads as f64));
    l.insert(
        "client.reads_per_record",
        ratio(reads as f64, records_read as f64),
    );
    l.insert("loadgen.cpu_share", ratio(cpu.loadgen_s, cpu.process_s));
    l.insert("cpu.daemon_s", cpu.daemon_s);
    l.insert("cpu.loadgen_s", cpu.loadgen_s);
}

/// Epoch due → the program's publish stamp, in ms (traced daemon only).
pub fn ticker_wait_ms<const L: usize>(daemon: &Daemon<L>, sched: &Schedule) -> Samples {
    let mut out = Samples::new();
    if let Some(sink) = &daemon.sink {
        for e in sched.first..sched.first + sched.count {
            if let Some(ns) = sink.publish_ns(e) {
                out.push(ns.saturating_sub(sched.due_ns(e)) as f64 / 1e6);
            }
        }
    }
    out
}

/// The CPU split as a report line.
pub fn cpu_line(cpu: &CpuSplit, wall: Duration) -> String {
    format!(
        "cpu: daemon {:.2} s (serve threads {:.2} s), load generator {:.2} s, process {:.2} s over {:.1} s wall",
        cpu.daemon_s,
        cpu.serve_s,
        cpu.loadgen_s,
        cpu.process_s,
        wall.as_secs_f64()
    )
}
