//! `live_release`: the benchmark makes a new epoch due 20 times a
//! second (open loop). Two subscribers, each a receiver holding
//! ciphertexts sealed for every upcoming epoch, decode, verify and open
//! each update as it arrives.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tre_core::keys::{KeyUpdate, ServerKeyPair, UserKeyPair};
use tre_core::session::{Receiver, Sender};
use tre_core::tre::Ciphertext;
use tre_pairing::{toy64, CurveToy64};
use tre_server::UpdateArchive;
use tre_wire::{TAG_KEY_UPDATE, TAG_TELEMETRY};

use crate::net::{
    check_conservation, epoch_of_body, open_archive, par_map, sign_epochs, subscribe, Conn, Daemon,
    Pacer, Schedule, GRANULARITY,
};
use crate::phase::{cpu_line, daemon_layers, ticker_wait_ms, DaemonMark, Errors, Phase};
use crate::probe::ProbeInput;
use crate::spans::Tracer;
use crate::stats::Samples;

const L: usize = 8;
/// Archived epochs before the timed phase.
const HISTORY: u64 = 64;
const RATE: f64 = 20.0;
const RECEIVERS: usize = 2;
/// Ciphertexts each receiver holds per epoch.
const PER_EPOCH: usize = 2;
/// How long after its due time an epoch may take to be released.
const GRACE: Duration = Duration::from_secs(3);

fn curve() -> &'static CurveToy64 {
    toy64()
}

struct Sealed {
    ct: Ciphertext<L>,
    plaintext: Vec<u8>,
}

pub struct Setup {
    keys: ServerKeyPair<L>,
    archive: Arc<UpdateArchive<L>>,
    users: Vec<UserKeyPair<L>>,
    /// Per receiver: epoch → its sealed ciphertexts.
    sealed: Vec<HashMap<u64, Vec<Sealed>>>,
    live: u64,
}

pub fn setup(dir: &Path, seed: u64, seconds: f64) -> io::Result<Setup> {
    let curve = curve();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let live = (RATE * seconds).round() as u64;
    let archive = open_archive(dir, curve)?;
    for (e, u) in sign_epochs(curve, &keys, 0, HISTORY as usize)
        .into_iter()
        .enumerate()
    {
        archive.publish(e as u64, u);
    }
    let users: Vec<UserKeyPair<L>> = (0..RECEIVERS)
        .map(|_| UserKeyPair::generate(curve, keys.public(), &mut rng))
        .collect();
    let mut sealed = Vec::new();
    for (r, user) in users.iter().enumerate() {
        let sender = Sender::new(curve, keys.public(), user.public())
            .map_err(|e| io::Error::other(format!("sender: {e}")))?;
        let per_epoch = par_map(live as usize, |i| {
            let e = HISTORY + i as u64;
            let mut rng = StdRng::seed_from_u64(seed ^ ((r as u64) << 48) ^ e.wrapping_mul(0x9e37));
            (0..PER_EPOCH)
                .map(|_| {
                    let mut plaintext = vec![0u8; 32];
                    rng.fill_bytes(&mut plaintext);
                    let ct = sender.encrypt(&GRANULARITY.tag_for_epoch(e), &plaintext, &mut rng);
                    Sealed { ct, plaintext }
                })
                .collect::<Vec<_>>()
        });
        sealed.push(
            per_epoch
                .into_iter()
                .enumerate()
                .map(|(i, v)| (HISTORY + i as u64, v))
                .collect(),
        );
    }
    Ok(Setup {
        keys,
        archive,
        users,
        sealed,
        live,
    })
}

#[derive(Default)]
struct RecvOut {
    released: u64,
    opened: u64,
    deliver_ms: Samples,
    release_ms: Samples,
    errors: Errors,
    records: u64,
    reads: u64,
    bytes: u64,
    last_release: Option<Instant>,
    lag_ms: Samples,
}

fn drive(
    s: &Setup,
    sched: Schedule,
    mut pacer: Option<Pacer>,
    r: usize,
    tracer: &Tracer,
    mut conn: Conn,
) -> RecvOut {
    let curve = curve();
    let mut out = RecvOut::default();
    let mut receiver = Receiver::new(curve, *s.keys.public(), s.users[r].clone());
    let mut seen = vec![false; sched.count as usize];
    let end = sched.last_due() + GRACE;
    loop {
        if let Some(p) = pacer.as_mut() {
            p.poll();
        }
        let schedule_done = pacer.as_ref().is_none_or(|p| p.next_due().is_none());
        if schedule_done && (seen.iter().all(|s| *s) || Instant::now() > end) {
            break;
        }
        let budget = pacer.as_ref().map_or(Duration::from_millis(50), |p| {
            p.wait_budget(Duration::from_millis(50))
        });
        let got = tracer.time("tcp.read", None, r as u64, || conn.fill(budget));
        if let Err(e) = got {
            out.errors.add(format!("read: {e}"));
            break;
        }
        let t_read = Instant::now();
        let drained = conn.drain(|f| {
            match f.tag {
                TAG_KEY_UPDATE => {}
                TAG_TELEMETRY => return,
                other => {
                    out.errors.add(format!("unexpected frame type {other:#x}"));
                    return;
                }
            }
            out.records += 1;
            let Some(e) = epoch_of_body(f.body).filter(|e| sched.contains(*e)) else {
                out.errors.add("update for an epoch outside the schedule");
                return;
            };
            let slot = &mut seen[(e - sched.first) as usize];
            if *slot {
                out.errors.add(format!("epoch {e} delivered twice"));
                return;
            }
            *slot = true;
            let due = sched.due(e);
            out.deliver_ms
                .push(t_read.duration_since(due).as_secs_f64() * 1e3);
            let root = tracer.begin_at("client.release", None, e, due);
            let update = tracer.time("wire.decode", root, e, || {
                KeyUpdate::read_body(curve, f.body)
            });
            let verified = match update {
                Ok(u) => tracer.time("core.verify", root, e, || receiver.observe_update(u)),
                Err(err) => {
                    out.errors.add(format!("epoch {e}: decode failed: {err}"));
                    tracer.end(root);
                    return;
                }
            };
            if verified != Ok(true) {
                out.errors
                    .add(format!("epoch {e}: update did not verify ({verified:?})"));
                tracer.end(root);
                return;
            }
            let mut ok = true;
            for sealed in &s.sealed[r][&e] {
                let opened = tracer.time("core.open", root, e, || receiver.open(&sealed.ct));
                if opened.as_deref() == Ok(sealed.plaintext.as_slice()) {
                    out.opened += 1;
                } else {
                    out.errors.add(format!("epoch {e}: plaintext differs"));
                    ok = false;
                }
            }
            tracer.end(root);
            if ok {
                let now = Instant::now();
                out.released += 1;
                out.release_ms
                    .push(now.duration_since(due).as_secs_f64() * 1e3);
                out.last_release = Some(now);
            }
        });
        if let Err(e) = drained {
            out.errors.add(format!("frame stream: {e}"));
            break;
        }
        if conn.eof {
            out.errors.add("subscriber connection closed by the daemon");
            break;
        }
    }
    out.reads = conn.reads;
    out.bytes = conn.bytes;
    if let Some(p) = pacer {
        out.lag_ms = p.lag_ms;
    }
    out
}

pub fn phase(s: &Setup, _seed: u64, _seconds: f64, tracer: &Tracer) -> io::Result<Phase> {
    let curve = curve();
    let daemon = Daemon::start(
        curve,
        s.keys.clone(),
        Arc::clone(&s.archive),
        HISTORY,
        tracer.is_on(),
    )?;
    let before = DaemonMark::now(&daemon);
    let mut conns = subscribe(&daemon, curve, RECEIVERS)?;
    let (c1, c0) = (conns.pop().expect("conn"), conns.pop().expect("conn"));
    let sched = Schedule::new(RATE, HISTORY, s.live);
    let pacer = Pacer::new(daemon.clock.clone(), sched);
    let (a, b, threads) = std::thread::scope(|scope| {
        let other = std::thread::Builder::new()
            .name("loadgen-1".into())
            .spawn_scoped(scope, || drive(s, sched, None, 1, tracer, c1))
            .expect("spawn load-generator thread");
        let threads = crate::sys::loadgen_thread_count();
        let a = drive(s, sched, Some(pacer), 0, tracer, c0);
        (
            a,
            other.join().expect("load-generator thread panicked"),
            threads,
        )
    });
    let after = DaemonMark::now(&daemon);
    let wall = sched.t0.elapsed();

    let mut p = Phase::default();
    p.attempted = sched.count * RECEIVERS as u64;
    p.failed = p.attempted - (a.released + b.released);
    let mut deliver = a.deliver_ms.clone();
    deliver.extend(&b.deliver_ms);
    let mut release = a.release_ms.clone();
    release.extend(&b.release_ms);
    let last = [a.last_release, b.last_release].into_iter().flatten().max();
    let span = last.map_or(0.0, |t| t.duration_since(sched.t0).as_secs_f64());
    let opened = a.opened + b.opened;
    p.goodput = if span > 0.0 {
        opened as f64 / span
    } else {
        0.0
    };
    p.op_ms = release.clone();
    p.errors.absorb(a.errors);
    p.errors.absorb(b.errors);
    if threads > crate::sys::nproc() || RECEIVERS > crate::sys::nproc() {
        p.errors.add(format!(
            "load generator ran {threads} threads / {RECEIVERS} connections, more than nproc = {}",
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
        a.records + b.records,
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
            "release_goodput = {:.1} ciphertexts/s ({opened} opened; {} of {} (epoch, receiver) releases)",
            p.goodput,
            a.released + b.released,
            p.attempted
        ),
        format!("deliver_p50_ms, deliver_p99_ms: {}", deliver.describe(99.0, "ms")),
        format!("release_p50_ms, release_p99_ms: {}", release.describe(99.0, "ms")),
        format!("loadgen lag: {}", lag.describe(99.0, "ms")),
        format!(
            "connections: {RECEIVERS}, load-generator threads seen: {threads} (nproc {})",
            crate::sys::nproc()
        ),
        cpu_line(&p.cpu, wall),
    ];
    Ok(p)
}

pub fn probe_input(s: &Setup, seed: u64) -> ProbeInput<'_, L> {
    let top = s.archive.latest_epoch().unwrap_or(HISTORY - 1);
    let ranges = (0..64)
        .map(|i| {
            let from = (i * 7) % (top / 2).max(1);
            (from, (from + 63).min(top))
        })
        .collect();
    ProbeInput {
        curve: curve(),
        keys: &s.keys,
        archive: &s.archive,
        ranges,
        rate: RATE,
        batch: 64,
        seed,
    }
}
