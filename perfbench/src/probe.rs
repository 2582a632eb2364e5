//! Layer probes for the traced run: each layer's public functions timed
//! from outside on the workload's own keys, tags, signatures and
//! archive, after the daemon has shut down.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tre_core::keys::{KeyUpdate, ServerKeyPair, UserKeyPair};
use tre_core::session::{Receiver, Sender};
use tre_pairing::Curve;
use tre_server::{SegmentStore, SegmentStoreConfig, UpdateArchive};
use tre_wire::{frame_raw_body, peek_frame, Wire, TAG_KEY_UPDATE};

use crate::net::{body_of, open_archive, GRANULARITY};
use crate::spans::Tracer;
use crate::stats::Samples;

/// Where a workload's archive lives inside its set-up directory.
pub const ARCHIVE_DIR: &str = "archive";

/// Samples per timed crypto call.
const REPS: usize = 16;
/// Publishes in the publish-latency probe (p99 needs 1000).
const PUBLISHES: usize = 1200;
/// Chunk reads in the read-latency probe.
const CHUNK_READS: usize = 2000;
/// How long the read-under-publish probe runs.
const BUSY_FOR: Duration = Duration::from_secs(1);

/// What a workload hands the probes.
pub struct ProbeInput<'a, const L: usize> {
    pub curve: &'static Curve<L>,
    pub keys: &'a ServerKeyPair<L>,
    pub archive: &'a Arc<UpdateArchive<L>>,
    /// The workload's catch-up range mix.
    pub ranges: Vec<(u64, u64)>,
    /// The workload's publish rate, epochs/s.
    pub rate: f64,
    /// Batch size for the batch-verify probe; 0 when the workload
    /// measures batch verification itself.
    pub batch: usize,
    pub seed: u64,
}

fn time_us<T>(tracer: &Tracer, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = tracer.time(name, None, id, f);
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Runs every probe; `dir` is scratch space for throwaway stores.
pub fn run<const L: usize>(
    inp: &ProbeInput<'_, L>,
    dir: &std::path::Path,
    tracer: &Tracer,
    out: &mut BTreeMap<&'static str, f64>,
) -> std::io::Result<()> {
    let curve = inp.curve;
    let top = inp.archive.latest_epoch().unwrap_or(0);
    let epochs: Vec<u64> = (0..REPS as u64).map(|i| (i * 37) % (top + 1)).collect();
    let updates: Vec<KeyUpdate<L>> = epochs
        .iter()
        .map(|e| inp.archive.get(*e).expect("archived epoch"))
        .collect();
    let mut rng = StdRng::seed_from_u64(inp.seed ^ 0x9b0b);
    let med = |mut s: Samples| s.median().unwrap_or(0.0);

    // pairing: hash-to-G1, the subgroup check on decode, one prepared
    // pairing lane.
    let prep = curve.prepare(inp.keys.public().s_g());
    let (mut h2c, mut sub, mut pair) = (Samples::new(), Samples::new(), Samples::new());
    for (u, e) in updates.iter().zip(&epochs) {
        let (h, us) = time_us(tracer, "pairing.hash_to_g1", *e, || {
            curve.hash_to_g1(u.tag().h1_domain(), u.tag().value())
        });
        h2c.push(us);
        let bytes = curve.g1_to_bytes(u.sig());
        let (_, us) = time_us(tracer, "pairing.subgroup_check", *e, || {
            curve.g1_from_bytes_checked(&bytes)
        });
        sub.push(us);
        let (_, us) = time_us(tracer, "pairing.pairing", *e, || {
            curve.pairing_prepared(&prep, &h)
        });
        pair.push(us);
    }
    out.insert("pairing.hash_to_g1_us", med(h2c));
    out.insert("pairing.subgroup_check_us", med(sub));
    out.insert("pairing.pairing_us", med(pair));

    // core: sign, seal, verify, open — and the op counts of verifying
    // and opening one epoch.
    let user = UserKeyPair::generate(curve, inp.keys.public(), &mut rng);
    let sender = Sender::new(curve, inp.keys.public(), user.public()).expect("valid user key");
    let prepared = inp.keys.public().prepare(curve);
    let (mut sign, mut enc, mut ver, mut open) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let mut cts = Vec::new();
    for e in &epochs {
        let tag = GRANULARITY.tag_for_epoch(*e);
        let (_, us) = time_us(tracer, "core.sign", *e, || {
            inp.keys.issue_update(curve, &tag)
        });
        sign.push(us);
        let (ct, us) = time_us(tracer, "core.encrypt", *e, || {
            sender.encrypt(&tag, b"probe", &mut rng)
        });
        enc.push(us);
        cts.push(ct);
    }
    let mut receiver = Receiver::new(curve, *inp.keys.public(), user.clone());
    for ((u, ct), e) in updates.iter().zip(&cts).zip(&epochs) {
        let (ok, us) = time_us(tracer, "core.verify", *e, || {
            u.verify_prepared(curve, &prepared)
        });
        assert!(ok, "archived update for epoch {e} does not verify");
        ver.push(us);
        receiver.admit_verified(u.clone()).expect("admit");
        let (pt, us) = time_us(tracer, "core.open", *e, || receiver.open(ct));
        assert_eq!(pt.as_deref(), Ok(&b"probe"[..]), "probe plaintext");
        open.push(us);
    }
    out.insert("core.sign_us", med(sign));
    out.insert("core.encrypt_us", med(enc));
    out.insert("core.verify_us", med(ver));
    out.insert("core.open_us", med(open));
    let mut counted = Receiver::new(curve, *inp.keys.public(), user);
    tre_obs::enable();
    for (u, ct) in updates.iter().zip(&cts) {
        let _ = counted.observe_update(u.clone());
        let _ = counted.open(ct);
    }
    let ops = tre_obs::finish().total_ops();
    let per = REPS as f64;
    out.insert("pairing.h2c_iters_per_epoch", ops.h2c_iters as f64 / per);
    out.insert("pairing.fp_muls_per_epoch", ops.fp_muls as f64 / per);
    out.insert("pairing.pairings_per_epoch", ops.pairings as f64 / per);
    if inp.batch > 0 {
        let batch: Vec<KeyUpdate<L>> = inp
            .archive
            .range(0, inp.batch as u64 - 1)
            .into_iter()
            .map(|(_, u)| u)
            .collect();
        let (ok, us) = time_us(tracer, "core.batch_verify", 0, || {
            KeyUpdate::batch_verify_prepared(curve, &prepared, &batch, 1)
        });
        assert!(ok, "archived batch does not verify");
        out.insert("core.batch_verify_ms", us / 1e3);
    }

    // wire: encode, decode, raw framing of stored bodies.
    let (mut encode, mut decode) = (Samples::new(), Samples::new());
    for (u, e) in updates.iter().zip(&epochs) {
        let (frame, us) = time_us(tracer, "wire.encode", *e, || u.wire_bytes(curve));
        encode.push(us);
        let (_, us) = time_us(tracer, "wire.decode", *e, || {
            let (_, body, _) = peek_frame(&frame).expect("frame").expect("whole frame");
            KeyUpdate::read_body(curve, body).expect("decodes")
        });
        decode.push(us);
    }
    out.insert("wire.encode_us", med(encode));
    out.insert("wire.decode_us", med(decode));
    let bodies: Vec<Vec<u8>> = updates.iter().map(|u| body_of(curve, u)).collect();
    let mut framed = Vec::with_capacity(1 << 20);
    let rounds = 20_000 / bodies.len();
    let span = tracer.begin("wire.frame_raw", None, 0);
    let t = Instant::now();
    for _ in 0..rounds {
        framed.clear();
        for b in &bodies {
            frame_raw_body(TAG_KEY_UPDATE, b, &mut framed);
        }
        std::hint::black_box(&framed);
    }
    tracer.end(span);
    out.insert(
        "wire.frame_raw_ns",
        t.elapsed().as_secs_f64() * 1e9 / (rounds * bodies.len()) as f64,
    );

    // archive: durable publish latency on a scratch archive with the
    // workload's settings.
    {
        let scratch = dir.join("probe-publish");
        let archive = open_archive(&scratch, curve)?;
        let mut publish = Samples::new();
        for i in 0..PUBLISHES {
            let u = updates[i % updates.len()].clone();
            let (_, us) = time_us(tracer, "archive.publish", i as u64, || {
                archive.publish(i as u64, u)
            });
            publish.push(us);
        }
        out.insert("archive.publish_p50_us", publish.median().unwrap_or(0.0));
        out.insert("archive.publish_p99_us", publish.tail(99.0).unwrap_or(0.0));
        drop(archive);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    // archive: chunk reads over the workload's range mix, idle and then
    // beside a publisher at the workload's rate.
    let chunk = tre_server::CatchUpConfig::default().chunk;
    // One span around each loop: the reads are too many to span singly.
    let read_chunks = |name: &'static str, until: &dyn Fn(usize) -> bool| {
        let span = tracer.begin(name, None, 0);
        let mut s = Samples::new();
        'outer: loop {
            for (from, to) in &inp.ranges {
                let mut next = Some(*from);
                while let Some(f) = next {
                    let t = Instant::now();
                    let (_, more) = inp.archive.read_range_chunk_raw(curve, f, *to, chunk);
                    s.push(t.elapsed().as_secs_f64() * 1e6);
                    next = more;
                    if until(s.len()) {
                        break 'outer;
                    }
                }
            }
        }
        tracer.end(span);
        s
    };
    let mut idle = read_chunks("archive.read_chunk", &|n| n >= CHUNK_READS);
    out.insert("archive.read_chunk_p50_us", idle.median().unwrap_or(0.0));
    out.insert("archive.read_chunk_p99_us", idle.tail(99.0).unwrap_or(0.0));
    let period = Duration::from_secs_f64(1.0 / inp.rate);
    let stop = Instant::now() + BUSY_FOR;
    let busy = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("loadgen-publish".into())
            .spawn_scoped(scope, || {
                let mut e = top + 1;
                let mut due = Instant::now();
                while Instant::now() < stop {
                    let u = inp.keys.issue_update(curve, &GRANULARITY.tag_for_epoch(e));
                    inp.archive.publish(e, u);
                    e += 1;
                    due += period;
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
            })
            .expect("spawn publisher thread");
        read_chunks("archive.read_chunk_busy", &|_| Instant::now() >= stop)
    });
    out.insert("archive.read_chunk_busy_p50_us", med(busy));

    // segments: point-lookup probes, through a second read-only view of
    // the sealed segments.
    let mut store = SegmentStore::open(dir.join(ARCHIVE_DIR), SegmentStoreConfig::default())?;
    let sealed_top = store.sealed_max_epoch().unwrap_or(0);
    for i in 0..256u64 {
        let e = (i * 97) % (sealed_top + 1);
        tracer.time("segments.lookup", None, e, || store.lookup(e))?;
    }
    let stats = store.stats();
    out.insert(
        "segments.probes_per_lookup",
        if stats.lookups > 0 {
            stats.lookup_probes as f64 / stats.lookups as f64
        } else {
            0.0
        },
    );
    Ok(())
}
