//! What every workload shares: the daemon under test, the raw-socket
//! client, the open-loop epoch pacer, and parallel set-up helpers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tre_core::keys::{KeyUpdate, ServerKeyPair};
use tre_core::TreError;
use tre_pairing::Curve;
use tre_server::{
    now_ns, Granularity, JournalConfig, SimClock, TimeServer, TraceSink, Tred, TredConfig,
    UpdateArchive,
};
use tre_wire::{peek_frame, CatchUpRequest, Hello, Wire};

use crate::stats::Samples;

/// Journal segment size: small enough that every workload's history
/// spans many sealed segments. Everything else runs at the program's
/// defaults.
const SEGMENT_BYTES: u64 = 24 << 10;

/// The epoch schedule all workloads use.
pub const GRANULARITY: Granularity = Granularity::Seconds;

/// A durable archive with the program's journal defaults (fsync every
/// record) and the benchmark's segment size.
pub fn open_archive<const L: usize>(
    dir: &Path,
    curve: &'static Curve<L>,
) -> io::Result<Arc<UpdateArchive<L>>> {
    let config = JournalConfig {
        max_segment_bytes: SEGMENT_BYTES,
        ..JournalConfig::default()
    };
    let (archive, _) = UpdateArchive::open_durable(dir, curve, config)?;
    Ok(Arc::new(archive))
}

/// Maps `f` over `0..n` on at most two threads (this one and one
/// helper), keeping the order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let split = n / 2;
    std::thread::scope(|s| {
        let upper = std::thread::Builder::new()
            .name("loadgen-setup".into())
            .spawn_scoped(s, || (split..n).map(&f).collect::<Vec<T>>())
            .expect("spawn set-up thread");
        let mut out: Vec<T> = (0..split).map(&f).collect();
        out.extend(upper.join().expect("set-up thread panicked"));
        out
    })
}

/// Signs epochs `first..first + n` with the program's signer.
pub fn sign_epochs<const L: usize>(
    curve: &'static Curve<L>,
    keys: &ServerKeyPair<L>,
    first: u64,
    n: usize,
) -> Vec<KeyUpdate<L>> {
    par_map(n, |i| {
        keys.issue_update(curve, &GRANULARITY.tag_for_epoch(first + i as u64))
    })
}

/// The canonical record body the archive stores for an update.
pub fn body_of<const L: usize>(curve: &Curve<L>, update: &KeyUpdate<L>) -> Vec<u8> {
    let mut body = Vec::new();
    update.write_body(curve, &mut body);
    body
}

/// The epoch an update body is for, read from its tag without curve
/// arithmetic.
pub fn epoch_of_body(body: &[u8]) -> Option<u64> {
    let (tag, _) = tre_core::ReleaseTag::from_bytes(body)?;
    GRANULARITY.epoch_of_tag(&tag)
}

/// The daemon under test, in this process, with default settings.
pub struct Daemon<const L: usize> {
    pub tred: Tred<L>,
    pub clock: SimClock,
    pub sink: Option<TraceSink>,
}

impl<const L: usize> Daemon<L> {
    /// Boots `tred` over `archive`, with the clock just before epoch
    /// `next_epoch` falls due. `traced` attaches the program's own
    /// epoch trace sink (publish stamps) — the traced run only.
    pub fn start(
        curve: &'static Curve<L>,
        keys: ServerKeyPair<L>,
        archive: Arc<UpdateArchive<L>>,
        next_epoch: u64,
        traced: bool,
    ) -> io::Result<Self> {
        let clock = SimClock::new();
        clock.set(GRANULARITY.epoch_start(next_epoch) - 1);
        let server = TimeServer::recover(curve, keys, clock.clone(), GRANULARITY, archive);
        let (tred, sink) = if traced {
            let sink = TraceSink::new();
            let tred = Tred::bind_traced(
                "127.0.0.1:0",
                curve,
                server,
                TredConfig::default(),
                sink.clone(),
            )?;
            (tred, Some(sink))
        } else {
            let tred = Tred::bind("127.0.0.1:0", curve, server, TredConfig::default())?;
            (tred, None)
        };
        Ok(Self { tred, clock, sink })
    }

    pub fn addr(&self) -> SocketAddr {
        self.tred.local_addr()
    }
}

/// The open-loop epoch schedule: epoch `first + k` falls due at
/// `t0 + k·period`, for `k < count`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub t0: Instant,
    /// `now_ns()` at `t0`, to line up with the program's trace stamps.
    pub t0_ns: u64,
    pub period: Duration,
    pub first: u64,
    pub count: u64,
}

impl Schedule {
    pub fn new(rate_per_s: f64, first: u64, count: u64) -> Self {
        Self {
            t0: Instant::now(),
            t0_ns: now_ns(),
            period: Duration::from_secs_f64(1.0 / rate_per_s),
            first,
            count,
        }
    }

    /// Whether `epoch` is one of the scheduled epochs.
    pub fn contains(&self, epoch: u64) -> bool {
        epoch >= self.first && epoch - self.first < self.count
    }

    /// When `epoch` was due.
    pub fn due(&self, epoch: u64) -> Instant {
        self.t0 + self.period * (epoch - self.first) as u32
    }

    /// [`Schedule::due`] on the program's trace clock.
    pub fn due_ns(&self, epoch: u64) -> u64 {
        self.t0_ns + (self.period * (epoch - self.first) as u32).as_nanos() as u64
    }

    /// When the last scheduled epoch was due.
    pub fn last_due(&self) -> Instant {
        self.due(self.first + self.count.max(1) - 1)
    }
}

/// Drives a [`Schedule`]: advances the daemon's clock at each due time
/// (open loop — it never waits on any receiver).
pub struct Pacer {
    clock: SimClock,
    pub sched: Schedule,
    next: u64,
    /// How late each advance ran, in ms.
    pub lag_ms: Samples,
}

impl Pacer {
    pub fn new(clock: SimClock, sched: Schedule) -> Self {
        Self {
            clock,
            sched,
            next: 0,
            lag_ms: Samples::new(),
        }
    }

    /// Makes every epoch that is due by now due at the daemon.
    pub fn poll(&mut self) {
        while let Some(due) = self.next_due() {
            let now = Instant::now();
            if now < due {
                break;
            }
            self.clock.advance(GRANULARITY.seconds());
            self.lag_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            self.next += 1;
        }
    }

    /// The next due time, `None` once the schedule is done.
    pub fn next_due(&self) -> Option<Instant> {
        (self.next < self.sched.count).then(|| self.sched.due(self.sched.first + self.next))
    }

    /// How long a reader may block before the next due time (capped).
    pub fn wait_budget(&self, cap: Duration) -> Duration {
        self.next_due().map_or(cap, |d| {
            d.saturating_duration_since(Instant::now()).min(cap)
        })
    }
}

/// One frame taken off a [`Conn`].
pub struct Frame<'a> {
    pub tag: u8,
    pub body: &'a [u8],
}

/// A raw subscriber socket: sends `Hello`, then parses the frame stream
/// itself (no program client code), counting its own reads.
pub struct Conn {
    pub addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    pub reads: u64,
    pub bytes: u64,
    pub eof: bool,
}

const READ_CHUNK: usize = 64 << 10;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` is readable or `timeout` passes, with the
/// kernel's high-resolution timer (socket receive timeouts round up to
/// scheduler ticks, which would make the open-loop schedule run late).
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out locals for the
    // duration of the call; nfds is 1 and a null sigmask keeps the
    // thread's signal mask.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

impl Conn {
    pub fn open<const L: usize>(curve: &Curve<L>, addr: SocketAddr) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&<Hello as Wire<L>>::wire_bytes(&Hello::current(), curve))?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            addr,
            stream,
            buf: Vec::with_capacity(4 * READ_CHUNK),
            start: 0,
            reads: 0,
            bytes: 0,
            eof: false,
        })
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    pub fn request<const L: usize>(
        &mut self,
        curve: &Curve<L>,
        from: u64,
        to: u64,
    ) -> io::Result<()> {
        let req = CatchUpRequest { from, to };
        self.write_all(&<CatchUpRequest as Wire<L>>::wire_bytes(&req, curve))
    }

    /// One `read` into the buffer, waiting at most `timeout`. Returns
    /// the bytes read; 0 on timeout or end of stream (then `eof` is
    /// set).
    pub fn fill(&mut self, timeout: Duration) -> io::Result<usize> {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let mut waited = false;
        let got = loop {
            match self.stream.read(&mut self.buf[len..]) {
                Ok(0) => {
                    self.eof = true;
                    break Ok(0);
                }
                Ok(n) => break Ok(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if waited || !wait_readable(&self.stream, timeout) {
                        break Ok(0);
                    }
                    waited = true;
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                    self.eof = true;
                    break Ok(0);
                }
                Err(e) => break Err(e),
            }
        };
        let got = match got {
            Ok(n) => n,
            Err(e) => {
                self.buf.truncate(len);
                return Err(e);
            }
        };
        self.buf.truncate(len + got);
        if got > 0 {
            self.reads += 1;
            self.bytes += got as u64;
        }
        Ok(got)
    }

    /// Hands every complete buffered frame to `f`, in order.
    pub fn drain(&mut self, mut f: impl FnMut(Frame<'_>)) -> Result<(), TreError> {
        loop {
            let Some((header, body, rest)) = peek_frame(&self.buf[self.start..])? else {
                return Ok(());
            };
            let used = self.buf.len() - self.start - rest.len();
            f(Frame {
                tag: header.type_tag,
                body,
            });
            self.start += used;
        }
    }
}

/// Opens `n` subscriber connections and waits (bounded) until the
/// daemon has registered every one, so none misses the first epoch.
pub fn subscribe<const L: usize>(
    daemon: &Daemon<L>,
    curve: &Curve<L>,
    n: usize,
) -> io::Result<Vec<Conn>> {
    let conns = (0..n)
        .map(|_| Conn::open(curve, daemon.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.tred.subscriber_count() < n {
        if Instant::now() > deadline {
            return Err(io::Error::other("daemon did not register the subscribers"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(conns)
}

/// Waits (bounded) for the daemon to resolve every frame it offered,
/// then checks the delivery-conservation identity
/// `offered == written + abandoned + evicted + dropped + in_flight`
/// with nothing left in flight.
pub fn check_conservation<const L: usize>(daemon: &Daemon<L>) -> Result<(), String> {
    use std::sync::atomic::Ordering::Relaxed;
    let stats = daemon.tred.stats();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.in_flight() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let written = stats.frames_written.load(Relaxed);
    let abandoned = stats.frames_abandoned.load(Relaxed);
    let evicted = stats.evicted.load(Relaxed);
    let dropped = stats.frames_dropped.load(Relaxed);
    let offered = stats.frames_offered.load(Relaxed);
    let in_flight = stats.in_flight();
    if in_flight == 0 && offered == written + abandoned + evicted + dropped {
        Ok(())
    } else {
        Err(format!(
            "delivery conservation: offered {offered} != written {written} + abandoned \
             {abandoned} + evicted {evicted} + dropped {dropped} + in_flight {in_flight}"
        ))
    }
}
