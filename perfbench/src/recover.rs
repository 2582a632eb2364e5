//! `recover_verify`: at mid96, a fresh receiver that was offline for a
//! seeded gap reconnects, fetches the gap over TCP catch-up,
//! batch-verifies it and opens one queued ciphertext per epoch. One
//! connection, closed loop. Rounds come in blocks of three — one of each
//! gap size, in seeded order — and the block in progress at the
//! deadline completes, so every run does the same mix of work.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tre_core::keys::{KeyUpdate, ServerKeyPair, UserKeyPair};
use tre_core::session::{Receiver, Sender};
use tre_core::tre::Ciphertext;
use tre_pairing::{mid96, CurveMid96};
use tre_server::UpdateArchive;
use tre_wire::{TAG_BUSY, TAG_KEY_UPDATE, TAG_TELEMETRY};

use crate::net::{
    check_conservation, epoch_of_body, open_archive, par_map, sign_epochs, subscribe, Conn, Daemon,
    GRANULARITY,
};
use crate::phase::{cpu_line, daemon_layers, DaemonMark, Errors, Phase};
use crate::probe::ProbeInput;
use crate::spans::Tracer;
use crate::stats::Samples;

const L: usize = 16;
/// Archived epochs.
const HISTORY: u64 = 256;
/// Offline gaps, one of each per block of rounds.
const GAPS: [u64; 3] = [16, 32, 64];
/// How long one fetch may stall before the round counts as failed.
const FETCH_TIMEOUT: Duration = Duration::from_secs(20);
/// Largest share of a round the fetch, verify and open parts may leave
/// unaccounted for.
const MAX_RESIDUAL: f64 = 0.05;

fn curve() -> &'static CurveMid96 {
    mid96()
}

pub struct Setup {
    keys: ServerKeyPair<L>,
    archive: Arc<UpdateArchive<L>>,
    user: UserKeyPair<L>,
    /// One ciphertext per archived epoch, with its plaintext.
    sealed: Vec<(Ciphertext<L>, Vec<u8>)>,
}

pub fn setup(dir: &Path, seed: u64, _seconds: f64) -> io::Result<Setup> {
    let curve = curve();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let user = UserKeyPair::generate(curve, keys.public(), &mut rng);
    let archive = open_archive(dir, curve)?;
    for (e, u) in sign_epochs(curve, &keys, 0, HISTORY as usize)
        .into_iter()
        .enumerate()
    {
        archive.publish(e as u64, u);
    }
    let sender = Sender::new(curve, keys.public(), user.public())
        .map_err(|e| io::Error::other(format!("sender: {e}")))?;
    let sealed = par_map(HISTORY as usize, |i| {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        let mut plaintext = vec![0u8; 32];
        rng.fill_bytes(&mut plaintext);
        let ct = sender.encrypt(&GRANULARITY.tag_for_epoch(i as u64), &plaintext, &mut rng);
        (ct, plaintext)
    });
    Ok(Setup {
        keys,
        archive,
        user,
        sealed,
    })
}

/// Round `i`'s gap `[from, to]`.
fn gap(rng: &mut StdRng, order: &mut [usize; 3], i: u64) -> (u64, u64) {
    if i.is_multiple_of(3) {
        // A fresh seeded order of the three gap sizes for each block.
        for k in (1..3).rev() {
            order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
        }
    }
    let g = GAPS[order[(i % 3) as usize]];
    let from = rng.next_u64() % (HISTORY - g + 1);
    (from, from + g - 1)
}

/// One round's part times, ms.
#[derive(Debug, Default, Clone, Copy)]
struct Parts {
    fetch: f64,
    verify: f64,
    batch: f64,
    open: f64,
    round: f64,
    epochs: f64,
}

enum Fetch {
    Done(Vec<KeyUpdate<L>>),
    Shed,
    Failed(String),
}

/// Fetches `[from, to]` on a fresh connection and decodes every update.
fn fetch(
    addr: std::net::SocketAddr,
    from: u64,
    to: u64,
    tracer: &Tracer,
    parent: crate::spans::SpanId,
    stats: &mut (u64, u64, u64),
) -> Fetch {
    let curve = curve();
    let conn = Conn::open(curve, addr).and_then(|mut c| c.request(curve, from, to).map(|_| c));
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => return Fetch::Failed(format!("connect: {e}")),
    };
    let mut updates: Vec<KeyUpdate<L>> = Vec::new();
    let mut problem: Option<Fetch> = None;
    let mut last_data = Instant::now();
    while updates.len() < (to - from + 1) as usize && problem.is_none() {
        let got = tracer.time("tcp.read", parent, from, || {
            conn.fill(Duration::from_millis(100))
        });
        match got {
            Ok(0) if conn.eof => return Fetch::Failed("connection closed mid-fetch".into()),
            Ok(0) if last_data.elapsed() > FETCH_TIMEOUT => {
                return Fetch::Failed("fetch stalled".into())
            }
            Ok(_) => last_data = Instant::now(),
            Err(e) => return Fetch::Failed(format!("read: {e}")),
        }
        let drained = conn.drain(|f| match f.tag {
            TAG_KEY_UPDATE => {
                stats.2 += 1;
                let expected = from + updates.len() as u64;
                if epoch_of_body(f.body) != Some(expected) {
                    problem = Some(Fetch::Failed(format!("expected epoch {expected} next")));
                    return;
                }
                match tracer.time("wire.decode", parent, expected, || {
                    KeyUpdate::read_body(curve, f.body)
                }) {
                    Ok(u) => updates.push(u),
                    Err(e) => problem = Some(Fetch::Failed(format!("epoch {expected}: {e}"))),
                }
            }
            TAG_BUSY => problem = Some(Fetch::Shed),
            TAG_TELEMETRY => {}
            other => problem = Some(Fetch::Failed(format!("unexpected frame {other:#x}"))),
        });
        if let Err(e) = drained {
            return Fetch::Failed(format!("frame stream: {e}"));
        }
    }
    stats.0 += conn.reads;
    stats.1 += conn.bytes;
    problem.unwrap_or(Fetch::Done(updates))
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
    // The daemon is up before the clock starts.
    drop(subscribe(&daemon, curve, 1)?);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2ec0_7e2f);
    let mut order = [0usize, 1, 2];
    let mut errors = Errors::default();
    let (mut attempted, mut failed, mut epochs_ok) = (0u64, 0u64, 0u64);
    let mut parts: Vec<Parts> = Vec::new();
    let mut io_stats = (0u64, 0u64, 0u64);
    let threads = crate::sys::loadgen_thread_count();
    if threads > crate::sys::nproc() {
        errors.add(format!(
            "load generator ran {threads} threads, more than nproc = {}",
            crate::sys::nproc()
        ));
    }
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut end = t0;
    let mut i = 0u64;
    while Instant::now() < deadline || !i.is_multiple_of(3) {
        let (from, to) = gap(&mut rng, &mut order, i);
        attempted += 1;
        let root = tracer.begin("client.round", None, i);
        let t_round = Instant::now();
        let f = tracer.begin("client.fetch", root, i);
        let fetched = fetch(daemon.addr(), from, to, tracer, f, &mut io_stats);
        tracer.end(f);
        let t_fetched = Instant::now();
        let updates = match fetched {
            Fetch::Done(u) => u,
            Fetch::Shed => {
                failed += 1;
                tracer.end(root);
                i += 1;
                continue;
            }
            Fetch::Failed(why) => {
                failed += 1;
                errors.add(format!("round {i} [{from}, {to}]: {why}"));
                tracer.end(root);
                i += 1;
                continue;
            }
        };
        let v = tracer.begin("client.verify", root, i);
        // A fresh receiver: no cached verifications.
        let mut receiver = Receiver::new(curve, *s.keys.public(), s.user.clone());
        let t_batch = Instant::now();
        let valid = tracer.time("core.batch_verify", v, i, || {
            KeyUpdate::batch_verify_prepared(curve, receiver.prepared_server(), &updates, 1)
        });
        let batch_ms = t_batch.elapsed().as_secs_f64() * 1e3;
        tracer.end(v);
        let t_verified = Instant::now();
        let o = tracer.begin("client.open", root, i);
        let mut ok = valid;
        if !valid {
            errors.add(format!("round {i}: gap [{from}, {to}] did not verify"));
        }
        for (k, u) in updates.into_iter().enumerate() {
            if !ok {
                break;
            }
            let e = from + k as u64;
            let (ct, plaintext) = &s.sealed[e as usize];
            let opened = receiver
                .admit_verified(u)
                .and_then(|_| tracer.time("core.open", o, e, || receiver.open(ct)));
            if opened.as_deref() != Ok(plaintext.as_slice()) {
                errors.add(format!("round {i}: epoch {e} plaintext differs"));
                ok = false;
            }
        }
        tracer.end(o);
        let t_done = Instant::now();
        tracer.end(root);
        if !ok {
            failed += 1;
        } else {
            epochs_ok += to - from + 1;
            end = t_done;
            let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
            parts.push(Parts {
                fetch: ms(t_round, t_fetched),
                verify: ms(t_fetched, t_verified),
                batch: batch_ms,
                open: ms(t_verified, t_done),
                round: ms(t_round, t_done),
                epochs: (to - from + 1) as f64,
            });
        }
        i += 1;
    }
    let after = DaemonMark::now(&daemon);
    let wall = t0.elapsed();

    let mut p = Phase {
        attempted,
        failed,
        errors,
        ..Phase::default()
    };
    let span = end.duration_since(t0).as_secs_f64();
    p.goodput = if span > 0.0 {
        epochs_ok as f64 / span
    } else {
        0.0
    };
    let sample = |f: fn(&Parts) -> f64| {
        let mut s = Samples::new();
        parts.iter().for_each(|x| s.push(f(x)));
        s
    };
    let mut round = sample(|x| x.round);
    let (mut fetch_ms, mut verify_ms, mut open_ms, mut batch) = (
        sample(|x| x.fetch),
        sample(|x| x.verify),
        sample(|x| x.open),
        sample(|x| x.batch),
    );
    let mut residual = sample(|x| (x.round - x.fetch - x.verify - x.open) / x.round);
    // The operation is one recovered epoch: a round's time over its gap.
    // Every round then contributes to the median, not only those of the
    // middle gap size.
    p.op_ms = sample(|x| x.round / x.epochs);
    daemon_layers(
        &mut p, &before, &after, 0, io_stats.2, io_stats.0, io_stats.1,
    );
    if let Err(e) = check_conservation(&daemon) {
        p.errors.add(e);
    }
    daemon.tred.shutdown();
    let worst_residual = parts
        .iter()
        .map(|x| ((x.round - x.fetch - x.verify - x.open) / x.round).abs())
        .fold(0.0, f64::max);
    if worst_residual > MAX_RESIDUAL {
        p.errors.add(format!(
            "round parts leave {:.1}% of a round unaccounted for (limit {:.0}%)",
            worst_residual * 100.0,
            MAX_RESIDUAL * 100.0
        ));
    }
    let med = |s: &mut Samples| s.median().unwrap_or(0.0);
    p.layer.insert("client.fetch_ms", med(&mut fetch_ms));
    p.layer.insert("client.verify_ms", med(&mut verify_ms));
    p.layer.insert("client.open_ms", med(&mut open_ms));
    p.layer.insert("core.batch_verify_ms", med(&mut batch));
    p.layer
        .insert("client.residual_pct", med(&mut residual) * 100.0);
    p.lines = vec![
        format!(
            "recover_epochs_per_s = {:.2} epochs/s ({epochs_ok} epochs in {} rounds over {span:.2} s)",
            p.goodput,
            round.len()
        ),
        format!("recover_p50_ms (per round): {}", round.describe(99.0, "ms")),
        format!(
            "recover_ms_per_epoch (round time / gap): {}",
            p.op_ms.clone().describe(99.0, "ms")
        ),
        format!(
            "round parts (p50): fetch {:.1} ms + verify {:.1} ms + open {:.1} ms; residual p50 {:.2}% (limit {:.0}%)",
            med(&mut fetch_ms),
            med(&mut verify_ms),
            med(&mut open_ms),
            med(&mut residual) * 100.0,
            MAX_RESIDUAL * 100.0
        ),
        format!(
            "connections: 1 at a time, load-generator threads seen: {threads} (nproc {})",
            crate::sys::nproc()
        ),
        cpu_line(&p.cpu, wall),
    ];
    Ok(p)
}

pub fn probe_input(s: &Setup, seed: u64) -> ProbeInput<'_, L> {
    let ranges = (0..32)
        .map(|i| {
            let from = (i * 5) % (HISTORY - 64);
            (from, from + 63)
        })
        .collect();
    ProbeInput {
        curve: curve(),
        keys: &s.keys,
        archive: &s.archive,
        ranges,
        rate: 20.0,
        batch: 0,
        seed,
    }
}
