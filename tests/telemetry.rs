//! The live telemetry plane, end to end: a traced `tred` daemon exposes
//! its unified registry over the minimal HTTP exposition endpoint while
//! a chaos proxy batters the broadcast path, and the scraped counters
//! must stay *consistent* throughout:
//!
//! * every scrape parses back through `Registry::parse_prometheus` and
//!   counters are monotone non-decreasing across scrapes;
//! * the delivery-conservation identity (`frames_offered` equals
//!   written + abandoned + evicted + dropped + in-flight) never
//!   over-resolves mid-run and balances exactly at quiescence;
//! * on a clean rig, the per-epoch stage deltas telescope to the
//!   end-to-end latency (attribution conservation), and the decoded
//!   wire trace carries the right epoch and hop count.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tre::obs::Registry;
use tre::prelude::*;
use tre::server::{
    ChaosProxy, DaemonMetrics, Fault, FaultPlan, HealthSnapshot, SupervisedFeed, SupervisorConfig,
    TcpFeed, TelemetryServer, TelemetrySnapshot, TraceSink, Tred, TredConfig,
};

const DEADLINE: Duration = Duration::from_secs(30);

/// Real-time socket rigs take turns (see `live_tcp.rs`).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Minimal HTTP/1.1 GET over a plain socket: `(status, body)`.
fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(2000)))?;
    stream.set_write_timeout(Some(Duration::from_millis(2000)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// The exposition plane a `tred --telemetry` process runs, rebuilt for
/// the in-process rig: the daemon's one export, on every request.
fn serve_telemetry(metrics: DaemonMetrics<8>) -> TelemetryServer {
    let snapshot: TelemetrySnapshot = Arc::new(move || {
        let mut registry = Registry::new();
        metrics.export_into(&mut registry, "tred");
        (registry, HealthSnapshot::default())
    });
    TelemetryServer::bind("127.0.0.1:0", snapshot).expect("bind exposition endpoint")
}

/// One consistency probe of a scraped registry against the previous
/// scrape: counters monotone, resolution never exceeds what was offered.
fn check_scrape(registry: &Registry, previous: &mut Vec<(String, u64)>) {
    let offered = registry.counter("tred_frames_offered");
    let resolved = registry.counter("tred_frames_written")
        + registry.counter("tred_frames_abandoned")
        + registry.counter("tred_evicted")
        + registry.counter("tred_frames_dropped");
    assert!(
        resolved <= offered,
        "scrape over-resolved: {resolved} resolved of {offered} offered"
    );
    for (name, before) in previous.iter() {
        let now = registry.counter(name);
        assert!(
            now >= *before,
            "counter {name} went backwards: {before} -> {now}"
        );
    }
    *previous = registry
        .counters()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
}

#[test]
fn telemetry_endpoint_stays_consistent_during_chaos() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const EPOCHS: u64 = 6;
    const CLIENTS: usize = 3;
    let curve = tre::pairing::toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let sink = TraceSink::new();
    let tred = Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig::default(),
        sink.clone(),
    )
    .unwrap();
    let spk = *tred.public_key();
    let telemetry = serve_telemetry(tred.metrics());
    let http = telemetry.local_addr().to_string();

    let plan = FaultPlan::new()
        .at(
            40,
            Fault::LatencySpike {
                delay_ms: 20,
                for_ms: 100,
            },
        )
        .at(160, Fault::TornFrame { for_ms: 80 })
        .at(290, Fault::ConnReset);
    let proxy = ChaosProxy::bind("127.0.0.1:0", tred.local_addr(), &plan, 18).unwrap();

    let feed: TcpFeed<8> = TcpFeed::new(curve, proxy.local_addr()).with_clock(clock.clone());
    let mut feed = SupervisedFeed::new(feed, Granularity::Seconds, SupervisorConfig::default(), 18);
    feed.set_trace_sink(sink.clone());
    let mut clients: Vec<ReceiverClient<8>> = (0..CLIENTS)
        .map(|_| {
            ReceiverClient::new(curve, spk, UserKeyPair::generate(curve, &spk, &mut rng))
                .with_trace_sink(sink.clone())
        })
        .collect();
    let subs: Vec<_> = clients.iter().map(|_| feed.subscribe()).collect();
    let start = Instant::now();
    while tred.subscriber_count() < CLIENTS && start.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(tred.subscriber_count(), CLIENTS, "subscribers bridged");

    let g = Granularity::Seconds;
    for (i, c) in clients.iter_mut().enumerate() {
        let sender = Sender::new(curve, &spk, c.public_key()).unwrap();
        for epoch in 1..=EPOCHS {
            let ct = sender.encrypt(
                &g.tag_for_epoch(epoch),
                format!("m-{i}-{epoch}").as_bytes(),
                &mut rng,
            );
            c.receive_ciphertext(ct, 0);
        }
    }

    // Drive one epoch per 50ms, scraping the endpoint throughout the
    // fault windows and checking every scrape for consistency.
    let mut previous = Vec::new();
    let mut scrapes = 0u32;
    for _ in 1..=EPOCHS {
        clock.advance(1);
        let slice = Instant::now();
        while slice.elapsed() < Duration::from_millis(50) {
            for (c, sub) in clients.iter_mut().zip(&subs) {
                c.pump(&mut feed, *sub);
            }
            let (status, body) = http_get(&http, "/metrics").expect("scrape during chaos");
            assert_eq!(status, 200, "exposition endpoint up during faults");
            let registry = Registry::parse_prometheus(&body).expect("scrape parses");
            check_scrape(&registry, &mut previous);
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert!(scrapes >= EPOCHS as u32, "scraped throughout the run");

    // Settle: faults clear, supervision repairs, everyone converges.
    let start = Instant::now();
    while clients.iter().any(|c| c.opened().len() < EPOCHS as usize) && start.elapsed() < DEADLINE {
        for (c, sub) in clients.iter_mut().zip(&subs) {
            c.pump(&mut feed, *sub);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        clients.iter().all(|c| c.opened().len() == EPOCHS as usize),
        "all clients settled through the chaos"
    );

    // Quiescent scrape: probes healthy, the conservation identity
    // balances exactly, and the trace plane saw every epoch.
    let (status, _) = http_get(&http, "/healthz").unwrap();
    assert_eq!(status, 200, "/healthz");
    let (status, _) = http_get(&http, "/readyz").unwrap();
    assert_eq!(status, 200, "/readyz");
    let (status, json) = http_get(&http, "/metrics.json").unwrap();
    assert_eq!(status, 200, "/metrics.json");
    assert!(json.contains("tred_frames_offered"), "JSON view exports");

    let (_, body) = http_get(&http, "/metrics").unwrap();
    let registry = Registry::parse_prometheus(&body).unwrap();
    let offered = registry.counter("tred_frames_offered");
    let resolved = registry.counter("tred_frames_written")
        + registry.counter("tred_frames_abandoned")
        + registry.counter("tred_evicted")
        + registry.counter("tred_frames_dropped");
    assert_eq!(
        offered, resolved,
        "frame conservation balances at quiescence (in-flight 0)"
    );
    assert_eq!(registry.gauge("tred_frames_in_flight"), 0, "nothing stuck");
    assert!(
        registry.counter("tred_trace_epochs_traced") >= EPOCHS,
        "every epoch traced"
    );
    assert!(
        registry.counter("tred_trace_traces_emitted") >= EPOCHS,
        "trailers emitted on the wire"
    );

    telemetry.shutdown();
    proxy.shutdown();
    tred.shutdown();
}

#[test]
fn stage_attribution_conserves_on_a_clean_live_rig() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const EPOCHS: u64 = 4;
    const CLIENTS: usize = 2;
    let curve = tre::pairing::toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let sink = TraceSink::new();
    let tred = Tred::bind_traced(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig::default(),
        sink.clone(),
    )
    .unwrap();
    let spk = *tred.public_key();

    let feed: TcpFeed<8> = TcpFeed::new(curve, tred.local_addr()).with_clock(clock.clone());
    let mut feed = SupervisedFeed::new(feed, Granularity::Seconds, SupervisorConfig::default(), 7);
    feed.set_trace_sink(sink.clone());
    let mut clients: Vec<ReceiverClient<8>> = (0..CLIENTS)
        .map(|_| {
            ReceiverClient::new(curve, spk, UserKeyPair::generate(curve, &spk, &mut rng))
                .with_trace_sink(sink.clone())
        })
        .collect();
    let subs: Vec<_> = clients.iter().map(|_| feed.subscribe()).collect();
    let start = Instant::now();
    while tred.subscriber_count() < CLIENTS && start.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(tred.subscriber_count(), CLIENTS, "subscribers bridged");

    // Every client holds one sealed message per epoch, epoch 0 included
    // (due at boot, so it reaches late connectors via catch-up).
    let g = Granularity::Seconds;
    for (i, c) in clients.iter_mut().enumerate() {
        let sender = Sender::new(curve, &spk, c.public_key()).unwrap();
        for epoch in 0..=EPOCHS {
            let ct = sender.encrypt(
                &g.tag_for_epoch(epoch),
                format!("m-{i}-{epoch}").as_bytes(),
                &mut rng,
            );
            c.receive_ciphertext(ct, 0);
        }
    }

    for _ in 1..=EPOCHS {
        clock.advance(1);
        let slice = Instant::now();
        while slice.elapsed() < Duration::from_millis(30) {
            for (c, sub) in clients.iter_mut().zip(&subs) {
                c.pump(&mut feed, *sub);
            }
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    let want = (EPOCHS + 1) as usize;
    let start = Instant::now();
    while clients.iter().any(|c| c.opened().len() < want) && start.elapsed() < DEADLINE {
        for (c, sub) in clients.iter_mut().zip(&subs) {
            c.pump(&mut feed, *sub);
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(
        clients.iter().all(|c| c.opened().len() == want),
        "all clients opened every epoch"
    );

    // Attribution conservation: every stage stamped, and the per-stage
    // deltas telescope to the end-to-end latency. Each delta is floored
    // to whole µs, so the sum may undershoot by at most 1µs/transition.
    for epoch in 0..=EPOCHS {
        let trace = sink.epoch_trace(epoch).expect("epoch traced");
        let deltas = trace.stage_deltas_us();
        assert!(
            deltas.iter().all(Option::is_some),
            "epoch {epoch}: missing stage stamp: {deltas:?}"
        );
        let sum: u64 = deltas.iter().map(|d| d.unwrap()).sum();
        let e2e = trace.end_to_end_us().unwrap();
        assert!(
            sum <= e2e && e2e - sum <= 5,
            "epoch {epoch}: stage deltas do not telescope: {sum}µs vs {e2e}µs end-to-end"
        );

        // The wire trace context survived to the feed: right epoch,
        // single-daemon origin, and at most one process boundary (live
        // broadcast = 0 hops; a connect-race catch-up replay = 1).
        let ctx = feed.trace_for(epoch).expect("trailer decoded");
        assert_eq!(ctx.epoch, epoch);
        assert_eq!(ctx.origin, 0, "single daemon origin");
        assert!(ctx.hops <= 1, "clean rig crosses at most one boundary");
    }

    // The stage histograms carry one sample per epoch for every
    // transition — the exported table is complete, not ragged.
    let hists = sink.stage_histograms();
    for name in [
        "publish_to_journal_fsync",
        "journal_fsync_to_broadcast",
        "broadcast_to_first_byte",
        "first_byte_to_verified",
        "verified_to_decrypted",
        "end_to_end",
    ] {
        assert_eq!(
            hists[name].count(),
            EPOCHS + 1,
            "histogram {name} has one sample per epoch"
        );
    }

    tred.shutdown();
}
