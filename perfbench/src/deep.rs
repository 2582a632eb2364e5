//! `deep_catchup`: two raw-socket connections replay seeded archive
//! ranges back to back (closed loop) while an open-loop publisher makes
//! a new epoch due 20 times a second. Frames are parsed and compared
//! byte for byte; no curve arithmetic happens on the client side.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tre_core::keys::ServerKeyPair;
use tre_pairing::{toy64, CurveToy64};
use tre_server::UpdateArchive;
use tre_wire::{TAG_BUSY, TAG_KEY_UPDATE, TAG_TELEMETRY};

use crate::net::{
    body_of, check_conservation, epoch_of_body, open_archive, sign_epochs, subscribe, Conn, Daemon,
    Pacer, Schedule,
};
use crate::phase::{cpu_line, daemon_layers, ticker_wait_ms, DaemonMark, Errors, Phase};
use crate::probe::ProbeInput;
use crate::spans::Tracer;
use crate::stats::Samples;

const L: usize = 8;
/// Archived epochs before the timed phase (about ten sealed segments
/// plus an unsealed tail).
const HISTORY: u64 = 2560;
/// Live epochs per second.
const RATE: f64 = 20.0;
const CONNS: usize = 2;
/// Deep ranges start anywhere below the recent window.
const DEEP_SPAN: u64 = 1024;
/// Recent ranges lie in the newest `RECENT_WINDOW` archived epochs.
const RECENT_SPAN: u64 = 128;
const RECENT_WINDOW: u64 = 256;
/// One range in this many is traced, with its reads and parses.
const DETAIL_EVERY: u64 = 64;
/// How long a range may run past the deadline before it counts as
/// incomplete.
const GRACE: Duration = Duration::from_secs(5);

fn curve() -> &'static CurveToy64 {
    toy64()
}

pub struct Setup {
    keys: ServerKeyPair<L>,
    archive: Arc<UpdateArchive<L>>,
    /// Canonical body of every epoch the run can see: history, then the
    /// live epochs the daemon will sign.
    bodies: Vec<Vec<u8>>,
    live: u64,
}

pub fn setup(dir: &Path, seed: u64, seconds: f64) -> io::Result<Setup> {
    let curve = curve();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let live = (RATE * seconds).round() as u64;
    let updates = sign_epochs(curve, &keys, 0, (HISTORY + live) as usize);
    let archive = open_archive(dir, curve)?;
    for (e, u) in updates.iter().take(HISTORY as usize).enumerate() {
        archive.publish(e as u64, u.clone());
    }
    let bodies = updates.iter().map(|u| body_of(curve, u)).collect();
    Ok(Setup {
        keys,
        archive,
        bodies,
        live,
    })
}

/// The `i`-th range of a connection: three deep spans, then one recent.
fn range(rng: &mut StdRng, i: u64) -> (u64, u64) {
    if i % 4 == 3 {
        let from = HISTORY - RECENT_WINDOW + rng.next_u64() % (RECENT_WINDOW - RECENT_SPAN + 1);
        (from, from + RECENT_SPAN - 1)
    } else {
        let from = rng.next_u64() % (HISTORY - RECENT_WINDOW - DEEP_SPAN + 1);
        (from, from + DEEP_SPAN - 1)
    }
}

fn conn_rng(seed: u64, conn: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x5eed_0000 + conn as u64))
}

/// The range mix the read-chunk probes replay.
pub fn probe_ranges(seed: u64, n: u64) -> Vec<(u64, u64)> {
    let mut rng = conn_rng(seed, 0);
    (0..n).map(|i| range(&mut rng, i)).collect()
}

struct Current {
    from: u64,
    to: u64,
    next: u64,
    sent: Instant,
    bad: bool,
    span: crate::spans::SpanId,
}

#[derive(Default)]
struct ConnOut {
    attempted: u64,
    failed: u64,
    records_ok: u64,
    records_read: u64,
    range_ms: Samples,
    deliver_ms: Samples,
    errors: Errors,
    reads: u64,
    bytes: u64,
    /// Completion time and size of every correct range.
    done: Vec<(Instant, u64)>,
    lag_ms: Samples,
}

fn drive(
    s: &Setup,
    sched: Schedule,
    mut pacer: Option<Pacer>,
    mut rng: StdRng,
    deadline: Instant,
    tracer: &Tracer,
    mut conn: Conn,
) -> ConnOut {
    let curve = curve();
    let mut out = ConnOut::default();
    let mut issued = 0u64;
    let mut live_seen = vec![false; sched.count as usize];
    let mut cur: Option<Current> = None;
    let live_end = sched.last_due() + Duration::from_secs(2);
    loop {
        if let Some(p) = pacer.as_mut() {
            p.poll();
        }
        let now = Instant::now();
        if cur.is_none() {
            if now < deadline {
                let (from, to) = range(&mut rng, issued);
                if let Err(e) = conn.request(curve, from, to) {
                    out.errors.add(format!("request: {e}"));
                    break;
                }
                out.attempted += 1;
                // Only every `DETAIL_EVERY`-th range is traced: at
                // hundreds of thousands of records a second, a span per
                // read would swamp the recorder.
                let span = if issued.is_multiple_of(DETAIL_EVERY) {
                    tracer.begin("client.range", None, issued)
                } else {
                    None
                };
                issued += 1;
                cur = Some(Current {
                    from,
                    to,
                    next: from,
                    sent: Instant::now(),
                    bad: false,
                    span,
                });
            } else {
                let schedule_done = pacer.as_ref().is_none_or(|p| p.next_due().is_none());
                if schedule_done && (live_seen.iter().all(|s| *s) || now > live_end) {
                    break;
                }
            }
        } else if now > deadline + GRACE {
            out.failed += 1;
            break;
        }
        let budget = pacer.as_ref().map_or(Duration::from_millis(50), |p| {
            p.wait_budget(Duration::from_millis(50))
        });
        let parent = cur.as_ref().and_then(|c| c.span);
        let child = |name| parent.and_then(|_| tracer.begin(name, parent, issued));
        let read = child("tcp.read");
        let got = conn.fill(budget);
        tracer.end(read);
        if let Err(e) = got {
            out.errors.add(format!("read: {e}"));
            break;
        }
        let t_read = Instant::now();
        let parse = child("wire.parse");
        let drained = conn.drain(|f| match f.tag {
            TAG_KEY_UPDATE => {
                out.records_read += 1;
                let Some(e) = epoch_of_body(f.body) else {
                    out.errors.add("update frame with an unreadable tag");
                    return;
                };
                if sched.contains(e) {
                    let slot = &mut live_seen[(e - sched.first) as usize];
                    if *slot {
                        out.errors.add(format!("live epoch {e} delivered twice"));
                    }
                    *slot = true;
                    if f.body != s.bodies[e as usize].as_slice() {
                        out.errors.add(format!("live epoch {e}: body differs"));
                    }
                    out.deliver_ms
                        .push(t_read.duration_since(sched.due(e)).as_secs_f64() * 1e3);
                    return;
                }
                match cur.as_mut() {
                    Some(c) if e == c.next => {
                        if f.body != s.bodies[e as usize].as_slice() {
                            out.errors.add(format!("replayed epoch {e}: body differs"));
                            c.bad = true;
                        }
                        c.next += 1;
                        if c.next > c.to {
                            let c = cur.take().expect("current range");
                            tracer.end(c.span);
                            if c.bad {
                                out.failed += 1;
                            } else {
                                out.records_ok += c.to - c.from + 1;
                                out.range_ms
                                    .push(t_read.duration_since(c.sent).as_secs_f64() * 1e3);
                                out.done.push((t_read, c.to - c.from + 1));
                            }
                        }
                    }
                    _ => out.errors.add(format!(
                        "replayed epoch {e} out of order (expected {:?})",
                        cur.as_ref().map(|c| c.next)
                    )),
                }
            }
            TAG_BUSY => {
                // Shed by admission control: a failed operation, not
                // wrong output.
                if let Some(c) = cur.take() {
                    tracer.end(c.span);
                    out.failed += 1;
                }
            }
            TAG_TELEMETRY => {}
            other => out.errors.add(format!("unexpected frame type {other:#x}")),
        });
        tracer.end(parse);
        if let Err(e) = drained {
            out.errors.add(format!("frame stream: {e}"));
            break;
        }
        if conn.eof {
            // Evicted or dropped: the range in flight is lost; carry on
            // with a fresh connection.
            if let Some(c) = cur.take() {
                tracer.end(c.span);
                out.failed += 1;
            }
            out.reads += conn.reads;
            out.bytes += conn.bytes;
            match Conn::open(curve, conn.addr) {
                Ok(c) => conn = c,
                Err(e) => {
                    out.errors.add(format!("reconnect: {e}"));
                    break;
                }
            }
        }
    }
    out.reads += conn.reads;
    out.bytes += conn.bytes;
    if let Some(p) = pacer {
        out.lag_ms = p.lag_ms;
    }
    out
}

pub fn phase(s: &Setup, seed: u64, seconds: f64, tracer: &Tracer) -> io::Result<Phase> {
    let curve = curve();
    let daemon = Daemon::start(
        curve,
        s.keys.clone(),
        Arc::clone(&s.archive),
        HISTORY,
        tracer.is_on(),
    )?;
    let before = DaemonMark::now(&daemon);
    let mut conns = subscribe(&daemon, curve, CONNS)?;
    let (c1, c0) = (conns.pop().expect("conn"), conns.pop().expect("conn"));
    let sched = Schedule::new(RATE, HISTORY, s.live);
    let deadline = sched.t0 + Duration::from_secs_f64(seconds);
    let pacer = Pacer::new(daemon.clock.clone(), sched);
    let (a, b, threads) = std::thread::scope(|scope| {
        let other = std::thread::Builder::new()
            .name("loadgen-1".into())
            .spawn_scoped(scope, || {
                drive(s, sched, None, conn_rng(seed, 1), deadline, tracer, c1)
            })
            .expect("spawn load-generator thread");
        // Sample the thread census while both connections run.
        let threads = crate::sys::loadgen_thread_count();
        let a = drive(
            s,
            sched,
            Some(pacer),
            conn_rng(seed, 0),
            deadline,
            tracer,
            c0,
        );
        (
            a,
            other.join().expect("load-generator thread panicked"),
            threads,
        )
    });
    let after = DaemonMark::now(&daemon);
    let wall = sched.t0.elapsed();

    let mut p = Phase::default();
    let mut range_ms = a.range_ms.clone();
    range_ms.extend(&b.range_ms);
    let mut deliver_ms = a.deliver_ms.clone();
    deliver_ms.extend(&b.deliver_ms);
    p.attempted = a.attempted + b.attempted;
    p.failed = a.failed + b.failed;
    let records = a.records_ok + b.records_ok;
    // Throughput is the median over one-second windows of the timed
    // phase, each range counted in the window it completed in, so a
    // short stall elsewhere on the machine does not move it.
    let windows = seconds.floor().max(1.0) as usize;
    let mut per_window = vec![0u64; windows];
    for (t, n) in a.done.iter().chain(&b.done) {
        let w = t.duration_since(sched.t0).as_secs_f64() as usize;
        if w < windows {
            per_window[w] += n;
        }
    }
    let mut window_rate = Samples::new();
    per_window.iter().for_each(|n| window_rate.push(*n as f64));
    p.goodput = window_rate.median().unwrap_or(0.0);
    p.op_ms = range_ms.clone();
    p.errors.absorb(a.errors);
    p.errors.absorb(b.errors);
    if threads > crate::sys::nproc() || CONNS > crate::sys::nproc() {
        p.errors.add(format!(
            "load generator ran {threads} threads / {CONNS} connections, more than nproc = {}",
            crate::sys::nproc()
        ));
    }
    let mut ticker = ticker_wait_ms(&daemon, &sched);
    let mut lag = a.lag_ms;
    daemon_layers(
        &mut p,
        &before,
        &after,
        sched.count,
        a.records_read + b.records_read,
        a.reads + b.reads,
        a.bytes + b.bytes,
    );
    if let Err(e) = check_conservation(&daemon) {
        p.errors.add(e);
    }
    daemon.tred.shutdown();

    p.layer
        .insert("tcp.ticker_wait_p50_ms", ticker.median().unwrap_or(0.0));
    p.layer
        .insert("loadgen.lag_p95_ms", lag.tail(95.0).unwrap_or(0.0));
    p.lines = vec![
        format!(
            "catchup_records_per_s = {:.0} records/s (median of {windows} one-second windows; {records} records in {} ranges)",
            p.goodput,
            range_ms.len()
        ),
        format!(
            "archive: {} sealed segments holding {} records, {} epochs in all",
            s.archive.segment_stats().map_or(0, |st| st.segments_sealed),
            s.archive.sealed_records(),
            s.archive.len()
        ),
        format!(
            "one-second windows, records: {}",
            per_window
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("catchup_range_p50_ms, catchup_range_p99_ms: {}", range_ms.describe(99.0, "ms")),
        format!("deliver_p50_ms, deliver_p99_ms: {}", deliver_ms.describe(99.0, "ms")),
        format!("loadgen lag: {}", lag.describe(99.0, "ms")),
        format!(
            "connections: {CONNS}, load-generator threads seen: {threads} (nproc {})",
            crate::sys::nproc()
        ),
        cpu_line(&p.cpu, wall),
    ];
    Ok(p)
}

pub fn probe_input(s: &Setup, seed: u64) -> ProbeInput<'_, L> {
    ProbeInput {
        curve: curve(),
        keys: &s.keys,
        archive: &s.archive,
        ranges: probe_ranges(seed, 64),
        rate: RATE,
        batch: 64,
        seed,
    }
}
