//! Hand-rolled readiness reactor: epoll on Linux via raw syscalls, wake
//! tokens over a self-pipe, and a deterministic simulated poller driven by
//! the virtual clock.
//!
//! The serving front end parks on [`EventSource::wait`] instead of spinning
//! on a condition variable with a fallback poll interval: producers (the
//! network, shard workers, the load generator) wake it through [`Waker`]
//! tokens, so an idle front end burns **zero** wakeups. The same event loop
//! runs under two sources:
//!
//! * [`EpollPoller`] — a real poller owning registered sockets and a wake
//!   pipe. epoll is reached through direct syscalls (the vendored-stub
//!   policy forbids new crates, including `libc`); connection I/O itself
//!   goes through non-blocking `std::net` types.
//! * [`SimPoller`] — a scripted, single-threaded source on a
//!   [`VirtualClock`]: connections, payload bytes, and wake tokens are
//!   delivered at exact virtual times, so the whole
//!   admission→batch→execute→respond pipeline is testable tick by tick
//!   with zero real sleeps and no sockets.
//!
//! Both sources account their behavior in [`ReactorStats`] (polls, wake
//! deliveries, spurious wakeups, accept/read/write counts, and the wake →
//! dispatch latency the discrete-event calibration consumes).

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::clock::{Clock, VirtualClock};
use crate::error::ServeError;
use crate::Result;

/// Identity of a registered event producer: a connection, a listener, or a
/// wake channel. Tokens below [`FIRST_CONN_TOKEN`] are reserved for wake
/// channels; connection tokens are assigned from there upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// Wake token: a shard worker finished a batch.
pub const WAKE_COMPLETION: Token = Token(1);
/// Wake token: shutdown / drain requested.
pub const WAKE_SHUTDOWN: Token = Token(2);
/// Wake token: the load generator admitted work or closed the front end.
pub const WAKE_ARRIVAL: Token = Token(3);
/// First token value handed to accepted connections.
pub const FIRST_CONN_TOKEN: u64 = 16;

/// One readiness event out of [`EventSource::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoEvent {
    /// A new connection was accepted and registered under this token.
    Accepted(Token),
    /// A connection has bytes (or EOF) to read.
    Readable(Token),
    /// A connection that previously hit a partial write can make progress.
    Writable(Token),
    /// A wake token fired.
    Wake(Token),
}

/// Result of draining one connection's read side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// Bytes appended to the caller's buffer.
    pub bytes: usize,
    /// Whether the peer closed its write side (EOF observed).
    pub closed: bool,
}

/// Thread-safe handle that wakes a parked [`EventSource::wait`].
///
/// Wakes are *remembered*: waking before the loop parks makes the next
/// `wait` return immediately, so the check-then-park race of condition
/// variables cannot lose a notification.
#[derive(Debug, Clone)]
pub struct Waker {
    sink: Arc<dyn WakeSink>,
    token: Token,
}

impl Waker {
    /// Delivers this waker's token to the owning event source.
    pub fn wake(&self) {
        self.sink.wake(self.token.0);
    }

    /// The token `wait` will report for this waker.
    pub fn token(&self) -> Token {
        self.token
    }
}

trait WakeSink: fmt::Debug + Send + Sync {
    fn wake(&self, token: u64);
}

/// A readiness event source the serving loop parks on.
///
/// Implementations: [`EpollPoller`] (real sockets and threads) and
/// [`SimPoller`] (scripted events on a virtual clock). The serving loop is
/// written once against this trait, so the deterministic tests drive the
/// byte-identical pipeline the network listener does.
pub trait EventSource: fmt::Debug {
    /// Parks until an event arrives or `timeout_s` **simulated** seconds
    /// pass (`None` parks indefinitely). Events are appended to `out`
    /// (cleared first). Returning with `out` empty means the timeout
    /// elapsed — or, when [`EventSource::supports_quiescence`] is true and
    /// no timeout was given, that the script is exhausted and no event can
    /// ever arrive (quiescence).
    ///
    /// # Errors
    ///
    /// Fails on poller syscall errors; never on timeouts.
    fn wait(&mut self, timeout_s: Option<f64>, out: &mut Vec<IoEvent>) -> Result<()>;

    /// Whether an empty untimed [`EventSource::wait`] proves no event can
    /// ever arrive again. True only for scripted sources ([`SimPoller`]):
    /// a live poller may legitimately return an empty batch (e.g. a stale
    /// wake-pipe byte whose token was already drained by an earlier poll),
    /// so the serving loop must park again instead of exiting.
    fn supports_quiescence(&self) -> bool {
        false
    }

    /// A cloneable wake handle delivering `token` to this source.
    fn waker(&self, token: Token) -> Waker;

    /// Drains the readable side of connection `conn`, appending to `buf`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors other than "would block" (reported as `closed`
    /// where they imply a dead peer).
    fn read(&mut self, conn: Token, buf: &mut Vec<u8>) -> Result<ReadResult>;

    /// Writes as much of `data` as the connection accepts right now,
    /// returning the count (short counts mean backpressure; pair with
    /// [`EventSource::set_writable_interest`]).
    ///
    /// # Errors
    ///
    /// Fails on hard I/O errors (the caller should close the connection).
    fn write(&mut self, conn: Token, data: &[u8]) -> Result<usize>;

    /// Arms (or disarms) writable notifications for `conn` after a partial
    /// write.
    ///
    /// # Errors
    ///
    /// Fails on poller registration errors.
    fn set_writable_interest(&mut self, conn: Token, on: bool) -> Result<()>;

    /// Closes and deregisters a connection (idempotent).
    fn close(&mut self, conn: Token);

    /// Stops accepting new connections (drain mode).
    fn stop_accepting(&mut self);

    /// Shared statistics registry of this source.
    fn stats(&self) -> Arc<ReactorStats>;
}

/// Recovers a poisoned reactor lock instead of panicking, counting the
/// recovery in `stats`. A poisoned lock here means a producer thread died
/// mid-update; every critical section in this module performs a single
/// coherent step (push/take/insert), so the state behind the lock is
/// usable as-is and killing the serving loop over it would turn one dead
/// producer into a dead server.
fn lock_recover<'a, T>(
    result: std::sync::LockResult<MutexGuard<'a, T>>,
    stats: &ReactorStats,
) -> MutexGuard<'a, T> {
    result.unwrap_or_else(|poisoned| {
        stats.record_lock_recovery();
        poisoned.into_inner()
    })
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Atomic counters describing reactor behavior; shared between the event
/// source, its wakers, and the metrics snapshot.
#[derive(Debug, Default)]
pub struct ReactorStats {
    polls: AtomicU64,
    timeouts: AtomicU64,
    wakeups: AtomicU64,
    spurious_wakeups: AtomicU64,
    accepts: AtomicU64,
    accept_errors: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    lock_recoveries: AtomicU64,
    wake_latency_sum_bits: AtomicU64,
    wake_latency_count: AtomicU64,
}

impl ReactorStats {
    /// A zeroed registry.
    pub fn new() -> Self {
        ReactorStats::default()
    }

    fn record_poll(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
    }

    fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    fn record_wakeups(&self, n: u64) {
        self.wakeups.fetch_add(n, Ordering::Relaxed);
    }

    /// One wake delivery that produced no actionable work (recorded by the
    /// driving loop, which alone can judge "actionable").
    pub fn record_spurious_wakeup(&self) {
        self.spurious_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    fn record_accept(&self) {
        self.accepts.fetch_add(1, Ordering::Relaxed);
    }

    /// One failed accept the loop survived (`ECONNABORTED`, fd
    /// exhaustion, per-connection setup). Public so the quiescence
    /// contract tests can pin the counter's propagation through every
    /// server loop's metrics snapshot.
    pub fn record_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    fn record_lock_recovery(&self) {
        self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    fn record_wake_latency(&self, latency_s: f64) {
        let mut cur = self.wake_latency_sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + latency_s).to_bits();
            match self.wake_latency_sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.wake_latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> ReactorStatsSnapshot {
        let count = self.wake_latency_count.load(Ordering::Relaxed);
        let sum = f64::from_bits(self.wake_latency_sum_bits.load(Ordering::Relaxed));
        ReactorStatsSnapshot {
            polls: self.polls.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            spurious_wakeups: self.spurious_wakeups.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            lock_recoveries: self.lock_recoveries.load(Ordering::Relaxed),
            mean_wake_latency_s: if count == 0 { 0.0 } else { sum / count as f64 },
        }
    }
}

/// Immutable view of a [`ReactorStats`] registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReactorStatsSnapshot {
    /// `wait` calls.
    pub polls: u64,
    /// `wait` calls that returned on timeout with no events.
    pub timeouts: u64,
    /// Wake tokens delivered.
    pub wakeups: u64,
    /// Wake deliveries that produced no actionable work.
    pub spurious_wakeups: u64,
    /// Connections accepted.
    pub accepts: u64,
    /// Accept-path failures survived without aborting the loop
    /// (ECONNABORTED races, fd exhaustion, per-connection setup errors).
    #[serde(default)]
    pub accept_errors: u64,
    /// Read drains that moved bytes (or observed EOF).
    pub reads: u64,
    /// Write attempts that moved bytes.
    pub writes: u64,
    /// Poisoned reactor locks recovered instead of panicking: a producer
    /// thread died mid-update and the serving loop carried on with the
    /// state it left behind (every protected update is single-step, so
    /// the state is always coherent).
    #[serde(default)]
    pub lock_recoveries: u64,
    /// Mean wake → dispatch latency in simulated seconds (the constant the
    /// DES calibration consumes; 0 for the virtual/simulated sources).
    pub mean_wake_latency_s: f64,
}

// ---------------------------------------------------------------------------
// Raw epoll syscalls (Linux, no libc)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    //! Minimal epoll shim over raw syscalls. Only the three epoll entry
    //! points are hand-rolled; descriptor I/O stays on `std` types.

    use std::io;

    pub const EPOLL_CLOEXEC: usize = 0o200_0000;
    pub const EPOLL_CTL_ADD: usize = 1;
    pub const EPOLL_CTL_DEL: usize = 2;
    pub const EPOLL_CTL_MOD: usize = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel `struct epoll_event`: packed on x86_64, natural elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_PWAIT2: usize = 441;
        pub const CLOSE: usize = 3;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EPOLL_PWAIT2: usize = 441;
        pub const CLOSE: usize = 57;
    }

    /// Raw 6-argument syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for the requested syscall
    /// number (live pointers, correct lengths, owned descriptors).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// Raw 6-argument syscall.
    ///
    /// # Safety
    ///
    /// See the x86_64 variant.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            in("x8") n,
            options(nostack),
        );
        ret
    }

    /// Unsupported architecture: report `ENOSYS` so [`super::EpollPoller`]
    /// construction fails cleanly (the simulated poller still works).
    ///
    /// # Safety
    ///
    /// Trivially safe (no kernel entry); `unsafe` only to keep the same
    /// signature as the real per-arch syscall stubs.
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    unsafe fn syscall6(
        _n: usize,
        _a: usize,
        _b: usize,
        _c: usize,
        _d: usize,
        _e: usize,
        _f: usize,
    ) -> isize {
        -38 // -ENOSYS
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    pub fn epoll_create1() -> io::Result<i32> {
        // SAFETY: no pointers; EPOLL_CLOEXEC is a valid flag.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    pub fn epoll_ctl(epfd: i32, op: usize, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; `epfd`/`fd` are descriptors the
        // caller owns; `op` is one of the EPOLL_CTL_* constants.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op,
                fd as usize,
                std::ptr::addr_of_mut!(ev) as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Waits on `epfd`; `timeout_ns: None` blocks indefinitely. Prefers
    /// `epoll_pwait2` (nanosecond timeouts) and falls back to millisecond
    /// `epoll_pwait` on kernels without it.
    pub fn epoll_wait(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ns: Option<u64>,
        pwait2_broken: &mut bool,
    ) -> io::Result<usize> {
        debug_assert!(!events.is_empty());
        loop {
            let ret = if *pwait2_broken {
                let ms: isize = match timeout_ns {
                    None => -1,
                    Some(ns) => ns.div_ceil(1_000_000).min(i32::MAX as u64) as isize,
                };
                // SAFETY: the events buffer is live for the duration of
                // the call and its length is passed alongside.
                unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT,
                        epfd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        ms as usize,
                        0,
                        8,
                    )
                }
            } else {
                let ts = timeout_ns.map(|ns| Timespec {
                    tv_sec: (ns / 1_000_000_000) as i64,
                    tv_nsec: (ns % 1_000_000_000) as i64,
                });
                let ts_ptr = ts
                    .as_ref()
                    .map_or(0usize, |t| std::ptr::addr_of!(*t) as usize);
                // SAFETY: the events buffer and optional timespec are live
                // for the duration of the call.
                unsafe {
                    syscall6(
                        nr::EPOLL_PWAIT2,
                        epfd as usize,
                        events.as_mut_ptr() as usize,
                        events.len(),
                        ts_ptr,
                        0,
                        8,
                    )
                }
            };
            match check(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.raw_os_error() == Some(38) && !*pwait2_broken => {
                    *pwait2_broken = true; // ENOSYS: retry with epoll_pwait
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    pub fn close(fd: i32) {
        // SAFETY: the caller owns `fd` and never uses it again.
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }
}

// ---------------------------------------------------------------------------
// EpollPoller
// ---------------------------------------------------------------------------

/// Reserved epoll user-data value for the wake pipe.
const DATA_WAKE: u64 = u64::MAX;
/// Reserved epoll user-data value for the listener.
const DATA_LISTEN: u64 = u64::MAX - 1;

#[derive(Debug)]
struct PipeWakeSink {
    /// Write end of the self-pipe; one byte per wake batch kicks epoll.
    tx: UnixStream,
    /// Tokens delivered since the last drain (deduplicated).
    pending: Mutex<Vec<u64>>,
    /// Earliest undrained wake, as nanoseconds since `origin`
    /// (`u64::MAX` = none): the wake → dispatch latency measurement.
    earliest_ns: AtomicU64,
    origin: Instant,
    stats: Arc<ReactorStats>,
}

impl WakeSink for PipeWakeSink {
    fn wake(&self, token: u64) {
        let stamp = self.origin.elapsed().as_nanos() as u64;
        self.earliest_ns.fetch_min(stamp, Ordering::Relaxed);
        {
            let mut pending = lock_recover(self.pending.lock(), &self.stats);
            if !pending.contains(&token) {
                pending.push(token);
            }
        }
        // A full pipe already guarantees a pending readable event.
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// One registered connection.
#[derive(Debug)]
struct EpollConn {
    stream: TcpStream,
    want_write: bool,
}

/// The real readiness poller: epoll over a wake pipe, an optional TCP
/// listener, and accepted connections.
///
/// Timeouts are given in **simulated** seconds and divided by the
/// constructor's `speedup` (the same convention as
/// [`crate::clock::RealClock`]), so the serving loop's deadline arithmetic
/// is identical under both clock domains.
#[derive(Debug)]
pub struct EpollPoller {
    epfd: i32,
    wake_rx: UnixStream,
    sink: Arc<PipeWakeSink>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, EpollConn>,
    next_conn: u64,
    speedup: f64,
    pwait2_broken: bool,
    stats: Arc<ReactorStats>,
}

impl EpollPoller {
    /// A poller with only its wake pipe registered; [`EpollPoller::listen`]
    /// adds the listener. `speedup` maps simulated seconds to real time
    /// for `wait` timeouts.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a non-finite/non-positive
    /// speedup and [`ServeError::Io`] if epoll is unavailable.
    pub fn new(speedup: f64) -> Result<Self> {
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(ServeError::Config {
                detail: format!("poller speedup must be finite and > 0, got {speedup}"),
            });
        }
        let epfd = sys::epoll_create1().map_err(ServeError::from_io("epoll_create1"))?;
        let (rx, tx) = match UnixStream::pair() {
            Ok(p) => p,
            Err(e) => {
                sys::close(epfd);
                return Err(ServeError::from_io("wake pipe")(e));
            }
        };
        let setup = (|| -> std::io::Result<()> {
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            sys::epoll_ctl(
                epfd,
                sys::EPOLL_CTL_ADD,
                raw_fd(&rx),
                sys::EPOLLIN,
                DATA_WAKE,
            )
        })();
        if let Err(e) = setup {
            sys::close(epfd);
            return Err(ServeError::from_io("wake pipe registration")(e));
        }
        let stats = Arc::new(ReactorStats::new());
        Ok(EpollPoller {
            epfd,
            wake_rx: rx,
            sink: Arc::new(PipeWakeSink {
                tx,
                pending: Mutex::new(Vec::new()),
                earliest_ns: AtomicU64::new(u64::MAX),
                origin: Instant::now(),
                stats: Arc::clone(&stats),
            }),
            listener: None,
            conns: HashMap::new(),
            next_conn: FIRST_CONN_TOKEN,
            speedup,
            pwait2_broken: false,
            stats,
        })
    }

    /// Registers a bound TCP listener; accepted connections surface as
    /// [`IoEvent::Accepted`].
    ///
    /// # Errors
    ///
    /// Fails on non-blocking setup or epoll registration errors.
    pub fn listen(&mut self, listener: TcpListener) -> Result<()> {
        listener
            .set_nonblocking(true)
            .map_err(ServeError::from_io("listener nonblocking"))?;
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            raw_fd(&listener),
            sys::EPOLLIN,
            DATA_LISTEN,
        )
        .map_err(ServeError::from_io("listener registration"))?;
        self.listener = Some(listener);
        Ok(())
    }

    fn accept_ready(&mut self, out: &mut Vec<IoEvent>) -> Result<()> {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return Ok(());
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Post-accept setup failures only cost this one
                    // connection (the stream drops, sending RST); the
                    // listener keeps serving everyone else.
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.record_accept_error();
                        continue;
                    }
                    let token = self.next_conn;
                    self.next_conn += 1;
                    if sys::epoll_ctl(
                        self.epfd,
                        sys::EPOLL_CTL_ADD,
                        raw_fd(&stream),
                        sys::EPOLLIN | sys::EPOLLRDHUP,
                        token,
                    )
                    .is_err()
                    {
                        self.stats.record_accept_error();
                        continue;
                    }
                    self.conns.insert(
                        token,
                        EpollConn {
                            stream,
                            want_write: false,
                        },
                    );
                    self.stats.record_accept();
                    out.push(IoEvent::Accepted(Token(token)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {
                    // Client connected and RST before we accepted — Linux
                    // surfaces this on accept(); skip to the next pending
                    // connection rather than killing the server.
                    self.stats.record_accept_error();
                }
                Err(_) => {
                    // Everything else (EMFILE/ENFILE fd exhaustion, EPROTO,
                    // ENETDOWN, ...) is transient relative to the server's
                    // lifetime: stop this accept round and retry on the next
                    // poll instead of propagating a fatal error out of
                    // wait(). Level-triggered epoll re-reports the listener
                    // while a connection is still pending.
                    self.stats.record_accept_error();
                    return Ok(());
                }
            }
        }
    }

    fn drain_wakes(&mut self, out: &mut Vec<IoEvent>) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        let tokens: Vec<u64> = {
            let mut pending = lock_recover(self.sink.pending.lock(), &self.stats);
            std::mem::take(&mut *pending)
        };
        // Consume the latency stamp only when tokens were actually drained:
        // wake() stamps before pushing, so the earliest stamp belongs to one
        // of the tokens taken above. Swapping unconditionally would let a
        // wake() racing between the swap and the token take leave its stamp
        // behind to inflate an unrelated later poll's measurement (which
        // feeds the DES dispatch-overhead calibration).
        if !tokens.is_empty() {
            let stamp = self.sink.earliest_ns.swap(u64::MAX, Ordering::Relaxed);
            if stamp != u64::MAX {
                let real_ns = self.sink.origin.elapsed().as_nanos() as u64;
                let real_s = real_ns.saturating_sub(stamp) as f64 * 1e-9;
                self.stats.record_wake_latency(real_s * self.speedup);
            }
        }
        self.stats.record_wakeups(tokens.len() as u64);
        out.extend(tokens.into_iter().map(|t| IoEvent::Wake(Token(t))));
    }
}

impl EventSource for EpollPoller {
    fn wait(&mut self, timeout_s: Option<f64>, out: &mut Vec<IoEvent>) -> Result<()> {
        out.clear();
        self.stats.record_poll();
        let timeout_ns = timeout_s.map(|t| {
            let real_s = (t.max(0.0) / self.speedup).min(3600.0);
            (real_s * 1e9) as u64
        });
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let n = sys::epoll_wait(self.epfd, &mut events, timeout_ns, &mut self.pwait2_broken)
            .map_err(ServeError::from_io("epoll_wait"))?;
        if n == 0 {
            self.stats.record_timeout();
            return Ok(());
        }
        for ev in &events[..n] {
            let data = ev.data; // copy out of the (possibly packed) struct
            let flags = ev.events;
            match data {
                DATA_WAKE => self.drain_wakes(out),
                DATA_LISTEN => self.accept_ready(out)?,
                token => {
                    if flags & sys::EPOLLOUT != 0 {
                        out.push(IoEvent::Writable(Token(token)));
                    }
                    if flags & !sys::EPOLLOUT != 0 {
                        // readable, hangup, or error: all surface through a
                        // read drain (EOF / broken pipe on the std stream).
                        out.push(IoEvent::Readable(Token(token)));
                    }
                }
            }
        }
        Ok(())
    }

    fn waker(&self, token: Token) -> Waker {
        Waker {
            sink: self.sink.clone(),
            token,
        }
    }

    fn read(&mut self, conn: Token, buf: &mut Vec<u8>) -> Result<ReadResult> {
        let Some(c) = self.conns.get_mut(&conn.0) else {
            return Ok(ReadResult {
                bytes: 0,
                closed: true,
            });
        };
        let mut chunk = [0u8; 4096];
        let mut total = 0usize;
        let mut closed = false;
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Reset / broken peer: report as closed so the loop
                    // reaps the connection.
                    closed = true;
                    break;
                }
            }
        }
        if total > 0 || closed {
            self.stats.record_read();
        }
        Ok(ReadResult {
            bytes: total,
            closed,
        })
    }

    fn write(&mut self, conn: Token, data: &[u8]) -> Result<usize> {
        let Some(c) = self.conns.get_mut(&conn.0) else {
            return Err(ServeError::Io {
                detail: format!("write on unknown connection token {}", conn.0),
            });
        };
        let mut written = 0usize;
        while written < data.len() {
            match c.stream.write(&data[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::from_io("conn write")(e)),
            }
        }
        if written > 0 {
            self.stats.record_write();
        }
        Ok(written)
    }

    fn set_writable_interest(&mut self, conn: Token, on: bool) -> Result<()> {
        let Some(c) = self.conns.get_mut(&conn.0) else {
            return Ok(());
        };
        if c.want_write == on {
            return Ok(());
        }
        let mut events = sys::EPOLLIN | sys::EPOLLRDHUP;
        if on {
            events |= sys::EPOLLOUT;
        }
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            raw_fd(&c.stream),
            events,
            conn.0,
        )
        .map_err(ServeError::from_io("conn re-registration"))?;
        c.want_write = on;
        Ok(())
    }

    fn close(&mut self, conn: Token) {
        if let Some(c) = self.conns.remove(&conn.0) {
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, raw_fd(&c.stream), 0, 0);
            // dropping the stream closes the descriptor
        }
    }

    fn stop_accepting(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, raw_fd(&listener), 0, 0);
        }
    }

    fn stats(&self) -> Arc<ReactorStats> {
        self.stats.clone()
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

fn raw_fd<T: std::os::fd::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

// ---------------------------------------------------------------------------
// SimPoller
// ---------------------------------------------------------------------------

/// A scripted event, ordered by (virtual time, insertion sequence).
#[derive(Debug)]
struct ScriptEvent {
    at_s: f64,
    seq: u64,
    kind: ScriptKind,
}

#[derive(Debug)]
enum ScriptKind {
    Connect { token: u64 },
    Deliver { token: u64, bytes: Vec<u8> },
    PeerClose { token: u64 },
    Wake { token: u64 },
}

impl PartialEq for ScriptEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at_s.total_cmp(&other.at_s).is_eq() && self.seq == other.seq
    }
}

impl Eq for ScriptEvent {}

impl PartialOrd for ScriptEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScriptEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at_s
            .total_cmp(&self.at_s)
            .then(other.seq.cmp(&self.seq))
    }
}

/// One simulated connection's byte streams.
#[derive(Debug, Default)]
struct SimConn {
    inbox: Vec<u8>,
    output: Vec<u8>,
    peer_closed: bool,
    want_write: bool,
    open: bool,
}

#[derive(Debug, Default)]
struct SimState {
    script: BinaryHeap<ScriptEvent>,
    seq: u64,
    pending_wakes: Vec<u64>,
    conns: BTreeMap<u64, SimConn>,
    next_conn: u64,
    accepting: bool,
    /// Max bytes a single `write` accepts (`None` = unlimited) — lets
    /// tests exercise the partial-write / writable-interest path
    /// deterministically.
    write_cap: Option<usize>,
}

#[derive(Debug)]
struct SimWakeSink {
    state: Arc<Mutex<SimState>>,
    stats: Arc<ReactorStats>,
}

impl WakeSink for SimWakeSink {
    fn wake(&self, token: u64) {
        let mut st = lock_recover(self.state.lock(), &self.stats);
        if !st.pending_wakes.contains(&token) {
            st.pending_wakes.push(token);
        }
    }
}

/// Deterministic event source on a [`VirtualClock`].
///
/// Tests script connections, payload bytes, peer closes, and future wake
/// tokens at exact virtual times; `wait` advances the clock to the next
/// scripted instant (or the caller's timeout, whichever is earlier) and
/// delivers everything due. No sockets, no real sleeps, no flakes: two
/// runs of the same script produce bit-identical event streams.
#[derive(Debug)]
pub struct SimPoller {
    clock: Arc<VirtualClock>,
    state: Arc<Mutex<SimState>>,
    stats: Arc<ReactorStats>,
}

/// Cloneable handle for scheduling events into a [`SimPoller`] while the
/// serving loop holds it mutably (used by the simulated batch executor to
/// schedule completion wakes).
#[derive(Debug, Clone)]
pub struct SimHandle {
    state: Arc<Mutex<SimState>>,
    stats: Arc<ReactorStats>,
}

impl SimHandle {
    /// Schedules `token` to fire at virtual time `at_s`.
    pub fn wake_at(&self, at_s: f64, token: Token) {
        let mut st = lock_recover(self.state.lock(), &self.stats);
        let seq = st.seq;
        st.seq += 1;
        st.script.push(ScriptEvent {
            at_s,
            seq,
            kind: ScriptKind::Wake { token: token.0 },
        });
    }
}

impl SimPoller {
    /// A poller on `clock` with an empty script.
    pub fn new(clock: Arc<VirtualClock>) -> Self {
        SimPoller {
            clock,
            state: Arc::new(Mutex::new(SimState {
                next_conn: FIRST_CONN_TOKEN,
                accepting: true,
                ..SimState::default()
            })),
            stats: Arc::new(ReactorStats::new()),
        }
    }

    /// The poller's virtual clock.
    pub fn clock(&self) -> Arc<VirtualClock> {
        self.clock.clone()
    }

    /// A scheduling handle usable while the poller is mutably borrowed.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            state: self.state.clone(),
            stats: self.stats.clone(),
        }
    }

    fn push_event(&self, at_s: f64, kind: ScriptKind) {
        let mut st = lock_recover(self.state.lock(), &self.stats);
        let seq = st.seq;
        st.seq += 1;
        st.script.push(ScriptEvent { at_s, seq, kind });
    }

    /// Scripts a client connecting at virtual time `at_s`; the token is
    /// assigned now so payload bytes can be scripted against it.
    pub fn connect_at(&self, at_s: f64) -> Token {
        let token = {
            let mut st = lock_recover(self.state.lock(), &self.stats);
            let t = st.next_conn;
            st.next_conn += 1;
            t
        };
        self.push_event(at_s, ScriptKind::Connect { token });
        Token(token)
    }

    /// Scripts `bytes` arriving on `conn` at virtual time `at_s`.
    pub fn send_at(&self, at_s: f64, conn: Token, bytes: impl Into<Vec<u8>>) {
        self.push_event(
            at_s,
            ScriptKind::Deliver {
                token: conn.0,
                bytes: bytes.into(),
            },
        );
    }

    /// Scripts the peer closing its write side at virtual time `at_s`.
    pub fn close_at(&self, at_s: f64, conn: Token) {
        self.push_event(at_s, ScriptKind::PeerClose { token: conn.0 });
    }

    /// Everything the server has written to `conn` so far.
    pub fn output_of(&self, conn: Token) -> Vec<u8> {
        let st = lock_recover(self.state.lock(), &self.stats);
        st.conns
            .get(&conn.0)
            .map(|c| c.output.clone())
            .unwrap_or_default()
    }

    /// Whether the loop holds `conn` open: accepted and not closed by the
    /// loop since (a peer's hang-up alone does not close it).
    pub fn is_open(&self, conn: Token) -> bool {
        let st = lock_recover(self.state.lock(), &self.stats);
        st.conns.get(&conn.0).is_some_and(|c| c.open)
    }

    /// Caps single-write acceptance at `cap` bytes to exercise the
    /// partial-write path (the remainder arms writable interest and
    /// flushes on the next poll).
    pub fn set_write_cap(&self, cap: Option<usize>) {
        lock_recover(self.state.lock(), &self.stats).write_cap = cap;
    }
}

impl EventSource for SimPoller {
    fn wait(&mut self, timeout_s: Option<f64>, out: &mut Vec<IoEvent>) -> Result<()> {
        out.clear();
        self.stats.record_poll();
        let mut st = lock_recover(self.state.lock(), &self.stats);

        // 1. Pending wake tokens fire immediately, without advancing time.
        if !st.pending_wakes.is_empty() {
            let tokens = std::mem::take(&mut st.pending_wakes);
            self.stats.record_wakeups(tokens.len() as u64);
            self.stats.record_wake_latency(0.0);
            out.extend(tokens.into_iter().map(|t| IoEvent::Wake(Token(t))));
            return Ok(());
        }

        // 2. Connections with armed writable interest: level-triggered,
        // like epoll, so each wait reports them until interest is dropped
        // (the simulated peer always has room for another capped write).
        out.extend(
            st.conns
                .iter()
                .filter(|(_, c)| c.open && c.want_write)
                .map(|(&t, _)| IoEvent::Writable(Token(t))),
        );
        if !out.is_empty() {
            return Ok(());
        }

        // 3. Advance to the next scripted instant within the timeout. An
        // instant can yield nothing (its bytes or hang-up land on a
        // connection the loop has closed); untimed, go on to the next one,
        // since an empty untimed wait must mean the script is exhausted.
        let deadline_s = timeout_s.map(|t| self.clock.now() + t.max(0.0));
        loop {
            let next_at = st.script.peek().map(|e| e.at_s);
            let due = match (next_at, deadline_s) {
                (Some(at), Some(d)) if at > d => None,
                (Some(at), _) => Some(at),
                (None, _) => None,
            };
            let Some(at) = due else {
                match deadline_s {
                    Some(d) => {
                        self.clock.advance_to(d);
                        self.stats.record_timeout();
                    }
                    None => {
                        // No script, no timeout: quiescent. The caller treats
                        // an empty untimed wait as end-of-input.
                        self.stats.record_timeout();
                    }
                }
                return Ok(());
            };
            self.clock.advance_to(at);
            let now = self.clock.now();
            while st.script.peek().is_some_and(|e| e.at_s <= now) {
                let Some(ev) = st.script.pop() else { break };
                match ev.kind {
                    ScriptKind::Connect { token } => {
                        if st.accepting {
                            st.conns.insert(
                                token,
                                SimConn {
                                    open: true,
                                    ..SimConn::default()
                                },
                            );
                            self.stats.record_accept();
                            out.push(IoEvent::Accepted(Token(token)));
                        }
                    }
                    ScriptKind::Deliver { token, bytes } => {
                        if let Some(c) = st.conns.get_mut(&token) {
                            if c.open {
                                c.inbox.extend_from_slice(&bytes);
                                out.push(IoEvent::Readable(Token(token)));
                            }
                        }
                    }
                    ScriptKind::PeerClose { token } => {
                        if let Some(c) = st.conns.get_mut(&token) {
                            c.peer_closed = true;
                            out.push(IoEvent::Readable(Token(token)));
                        }
                    }
                    ScriptKind::Wake { token } => {
                        self.stats.record_wakeups(1);
                        self.stats.record_wake_latency(0.0);
                        out.push(IoEvent::Wake(Token(token)));
                    }
                }
            }
            if !out.is_empty() || deadline_s.is_some() {
                return Ok(());
            }
        }
    }

    fn waker(&self, token: Token) -> Waker {
        Waker {
            sink: Arc::new(SimWakeSink {
                state: self.state.clone(),
                stats: self.stats.clone(),
            }),
            token,
        }
    }

    fn read(&mut self, conn: Token, buf: &mut Vec<u8>) -> Result<ReadResult> {
        let mut st = lock_recover(self.state.lock(), &self.stats);
        let Some(c) = st.conns.get_mut(&conn.0) else {
            return Ok(ReadResult {
                bytes: 0,
                closed: true,
            });
        };
        let bytes = c.inbox.len();
        buf.append(&mut c.inbox);
        let closed = c.peer_closed;
        if bytes > 0 || closed {
            self.stats.record_read();
        }
        Ok(ReadResult { bytes, closed })
    }

    fn write(&mut self, conn: Token, data: &[u8]) -> Result<usize> {
        let mut st = lock_recover(self.state.lock(), &self.stats);
        let cap = st.write_cap.unwrap_or(usize::MAX);
        let Some(c) = st.conns.get_mut(&conn.0) else {
            return Err(ServeError::Io {
                detail: format!("write on unknown simulated connection {}", conn.0),
            });
        };
        if !c.open {
            return Err(ServeError::Io {
                detail: format!("write on closed simulated connection {}", conn.0),
            });
        }
        let n = data.len().min(cap);
        c.output.extend_from_slice(&data[..n]);
        if n > 0 {
            self.stats.record_write();
        }
        Ok(n)
    }

    fn set_writable_interest(&mut self, conn: Token, on: bool) -> Result<()> {
        let mut st = lock_recover(self.state.lock(), &self.stats);
        if let Some(c) = st.conns.get_mut(&conn.0) {
            c.want_write = on;
        }
        Ok(())
    }

    fn close(&mut self, conn: Token) {
        let mut st = lock_recover(self.state.lock(), &self.stats);
        if let Some(c) = st.conns.get_mut(&conn.0) {
            // Keep the output buffer for post-run inspection.
            c.open = false;
        }
    }

    fn stop_accepting(&mut self) {
        lock_recover(self.state.lock(), &self.stats).accepting = false;
    }

    fn supports_quiescence(&self) -> bool {
        true
    }

    fn stats(&self) -> Arc<ReactorStats> {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn epoll_wake_tokens_are_remembered_across_park() {
        let mut p = EpollPoller::new(1.0).unwrap();
        let w = p.waker(WAKE_COMPLETION);
        // Wake BEFORE parking: the park must return immediately.
        w.wake();
        let mut out = Vec::new();
        p.wait(Some(5.0), &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Wake(WAKE_COMPLETION)]);
        let s = p.stats().snapshot();
        assert_eq!(s.wakeups, 1);
        assert_eq!(s.timeouts, 0);
    }

    #[test]
    fn epoll_same_token_coalesces_distinct_tokens_do_not() {
        let mut p = EpollPoller::new(1.0).unwrap();
        let a = p.waker(WAKE_ARRIVAL);
        let b = p.waker(WAKE_COMPLETION);
        a.wake();
        a.wake();
        b.wake();
        let mut out = Vec::new();
        p.wait(Some(5.0), &mut out).unwrap();
        assert_eq!(out.len(), 2, "one event per distinct token: {out:?}");
        assert!(out.contains(&IoEvent::Wake(WAKE_ARRIVAL)));
        assert!(out.contains(&IoEvent::Wake(WAKE_COMPLETION)));
    }

    #[test]
    fn epoll_timeout_elapses_without_events() {
        let mut p = EpollPoller::new(1000.0).unwrap(); // 1 sim s = 1 real ms
        let mut out = Vec::new();
        let t0 = Instant::now();
        p.wait(Some(2.0), &mut out).unwrap();
        assert!(out.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert_eq!(p.stats().snapshot().timeouts, 1);
    }

    #[test]
    fn epoll_wake_from_another_thread_unparks() {
        let mut p = EpollPoller::new(1.0).unwrap();
        let w = p.waker(WAKE_ARRIVAL);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            w.wake();
        });
        let mut out = Vec::new();
        p.wait(Some(10.0), &mut out).unwrap();
        h.join().unwrap();
        assert_eq!(out, vec![IoEvent::Wake(WAKE_ARRIVAL)]);
        let s = p.stats().snapshot();
        assert!(s.mean_wake_latency_s > 0.0, "latency measured: {s:?}");
    }

    #[test]
    fn idle_poller_observes_zero_wakeups() {
        // A waker is registered but never fired — a shard worker with
        // nothing to report — and the poller parks for 20 ms of real time:
        // a correct reactor wakes exactly zero times.
        let window = Duration::from_millis(20);
        let mut poller = EpollPoller::new(1.0).unwrap();
        let _idle_shard = poller.waker(WAKE_COMPLETION);
        let mut out = Vec::new();
        let start = Instant::now();
        while start.elapsed() < window {
            let left = window.saturating_sub(start.elapsed());
            poller.wait(Some(left.as_secs_f64()), &mut out).unwrap();
        }
        assert_eq!(
            poller.stats.snapshot().wakeups,
            0,
            "an idle reactor must not wake"
        );
    }

    #[test]
    fn only_the_scripted_source_claims_quiescence() {
        // The serving loop exits on an empty untimed wait only when the
        // source guarantees no further event is possible. Epoll cannot: a
        // wake() racing a concurrent drain can leave a stale self-pipe byte
        // whose tokens were already delivered, making the next wait return
        // empty on a still-live server.
        let epoll = EpollPoller::new(1.0).unwrap();
        assert!(!epoll.supports_quiescence());
        let sim = SimPoller::new(Arc::new(VirtualClock::new()));
        assert!(sim.supports_quiescence());
    }

    #[test]
    fn epoll_stale_wake_byte_yields_empty_batch_not_tokens() {
        // Reproduce the wake/drain race outcome deterministically: tokens
        // already drained, byte still in the pipe. The poller must report
        // an empty (spurious) batch, never invent or double-deliver wakes.
        let mut p = EpollPoller::new(1.0).unwrap();
        let w = p.waker(WAKE_ARRIVAL);
        w.wake();
        {
            // Drain the token list out-of-band, leaving the pipe byte.
            let mut pending = p.sink.pending.lock().unwrap();
            assert_eq!(std::mem::take(&mut *pending), vec![WAKE_ARRIVAL.0]);
        }
        let mut out = Vec::new();
        p.wait(Some(1.0), &mut out).unwrap();
        assert!(
            out.is_empty(),
            "stale byte must not produce events: {out:?}"
        );
        // A fresh wake afterwards still gets through.
        w.wake();
        p.wait(Some(1.0), &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Wake(WAKE_ARRIVAL)]);
    }

    #[test]
    fn sim_script_delivers_in_time_order_and_advances_clock() {
        let clock = Arc::new(VirtualClock::new());
        let mut p = SimPoller::new(clock.clone());
        let c = p.connect_at(1.0);
        p.send_at(2.0, c, b"hello".to_vec());
        p.close_at(3.0, c);

        let mut out = Vec::new();
        p.wait(None, &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Accepted(c)]);
        assert_eq!(clock.now(), 1.0);

        p.wait(None, &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Readable(c)]);
        assert_eq!(clock.now(), 2.0);
        let mut buf = Vec::new();
        let r = p.read(c, &mut buf).unwrap();
        assert_eq!((r.bytes, r.closed), (5, false));
        assert_eq!(buf, b"hello");

        p.wait(None, &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Readable(c)]);
        assert_eq!(clock.now(), 3.0);
        let r = p.read(c, &mut buf).unwrap();
        assert!(r.closed);

        // Script exhausted: an untimed wait reports quiescence (empty).
        p.wait(None, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn an_untimed_wait_passes_instants_that_land_on_closed_connections() {
        // The loop closed `gone`, whose peer still writes: an untimed wait
        // must not come back empty (read as quiescence) while `live`'s
        // bytes are still scripted.
        let clock = Arc::new(VirtualClock::new());
        let mut p = SimPoller::new(clock.clone());
        let (gone, live) = (p.connect_at(0.0), p.connect_at(0.0));
        p.send_at(1.0, gone, b"late".to_vec());
        p.send_at(2.0, gone, b"later".to_vec());
        p.send_at(3.0, live, b"q".to_vec());
        let mut out = Vec::new();
        p.wait(None, &mut out).unwrap();
        assert_eq!(out.len(), 2, "{out:?}");
        p.close(gone);
        // Timed, an empty instant still returns at once, as a timeout does.
        p.wait(Some(10.0), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(clock.now(), 1.0);
        p.wait(None, &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Readable(live)]);
        assert_eq!(clock.now(), 3.0);
    }

    #[test]
    fn sim_timeout_advances_clock_without_consuming_later_events() {
        let clock = Arc::new(VirtualClock::new());
        let mut p = SimPoller::new(clock.clone());
        let c = p.connect_at(10.0);
        let mut out = Vec::new();
        p.wait(Some(4.0), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(clock.now(), 4.0);
        p.wait(Some(100.0), &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Accepted(c)]);
        assert_eq!(clock.now(), 10.0);
    }

    #[test]
    fn sim_wakes_fire_before_time_advances() {
        let clock = Arc::new(VirtualClock::new());
        let mut p = SimPoller::new(clock.clone());
        p.connect_at(5.0);
        let w = p.waker(WAKE_COMPLETION);
        w.wake();
        let mut out = Vec::new();
        p.wait(Some(10.0), &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Wake(WAKE_COMPLETION)]);
        assert_eq!(clock.now(), 0.0, "a pending wake must not advance time");
    }

    #[test]
    fn sim_write_cap_exercises_partial_writes() {
        let clock = Arc::new(VirtualClock::new());
        let mut p = SimPoller::new(clock);
        let c = p.connect_at(0.0);
        let mut out = Vec::new();
        p.wait(None, &mut out).unwrap();
        p.set_write_cap(Some(3));
        assert_eq!(p.write(c, b"abcdefghi").unwrap(), 3);
        p.set_writable_interest(c, true).unwrap();
        // Level-triggered: writable again on every wait until disarmed.
        for rest in [&b"defghi"[..], b"ghi"] {
            p.wait(Some(1.0), &mut out).unwrap();
            assert_eq!(out, vec![IoEvent::Writable(c)]);
            assert_eq!(p.write(c, rest).unwrap(), 3);
        }
        assert_eq!(p.output_of(c), b"abcdefghi");
    }

    #[test]
    fn sim_handle_schedules_future_wakes() {
        let clock = Arc::new(VirtualClock::new());
        let mut p = SimPoller::new(clock.clone());
        let h = p.handle();
        h.wake_at(7.5, WAKE_COMPLETION);
        let mut out = Vec::new();
        p.wait(None, &mut out).unwrap();
        assert_eq!(out, vec![IoEvent::Wake(WAKE_COMPLETION)]);
        assert_eq!(clock.now(), 7.5);
    }
}
