//! The connection core under the three server loops (DESIGN.md §9): one
//! event-dispatch loop, one transport path, one reactor-thread spawner.
//!
//! [`crate::ServerLoop`], [`crate::HttpServerLoop`] and
//! [`crate::FabricServerLoop`] are codecs plus batching state; what they
//! have in common lives here, once:
//!
//! * [`Conns`] owns every connection's output buffer, EOF flag,
//!   writable-interest flag, count of responses owed, and the one reusable
//!   read scratch. It is the only code that reads, writes, re-arms or
//!   closes a connection on the [`EventSource`]; what *done* means stays
//!   with the protocol ([`ConnState::done`]), and a failed connection is
//!   reported to the caller exactly once (the `true` out of
//!   [`Conns::flush`]).
//! * [`drive`] is the loop contract: quiescence only on a scripted
//!   source, re-park on a spurious empty batch, `WAKE_SHUTDOWN` →
//!   `stop_accepting` → drain, spurious-wake accounting, and the exit-time
//!   re-step. The protocols plug in through [`Front`].
//! * [`spawn_reactor`] builds the epoll poller, clock, metrics and
//!   completion waker of a network front end and runs a loop on a
//!   dedicated thread.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;

use crate::clock::RealClock;
use crate::error::ServeError;
use crate::fabric::MAX_FRAME_PAYLOAD;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{
    EpollPoller, EventSource, IoEvent, ReadResult, Token, Waker, WAKE_COMPLETION, WAKE_SHUTDOWN,
};
use crate::runtime::Runtime;
use crate::server::ServeHandle;
use crate::Result;

/// Cap on one connection's unsent output. A peer that stops reading is
/// failed once its backlog would pass this, instead of growing server
/// memory without limit. Twice the frame cap, so a maximal `Execute`
/// frame always fits behind a partly-written one.
const MAX_CONN_OUT_BYTES: usize = 2 * MAX_FRAME_PAYLOAD;

/// Deadline expiry is strict (`now > deadline`), so deadline-driven
/// wakeups aim this far past the deadline (simulated seconds). Waking at
/// exactly `deadline` would shed nothing and respin on a zero timeout.
const DEADLINE_SLOP_S: f64 = 1e-9;

/// The earliest timed obligation of a loop iteration, accumulated into
/// the relative timeout of the next [`EventSource::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct WakeAt(f64);

impl WakeAt {
    /// Nothing timed: park until a socket or wake token fires.
    pub(crate) fn never() -> Self {
        WakeAt(f64::INFINITY)
    }

    /// Wake exactly at `t_s` (a batch flush window closing).
    pub(crate) fn at(&mut self, t_s: Option<f64>) {
        if let Some(t) = t_s {
            self.0 = self.0.min(t);
        }
    }

    /// Wake a hair past the strict deadline `deadline_s`.
    pub(crate) fn after(&mut self, deadline_s: Option<f64>) {
        self.at(deadline_s.map(|d| d + DEADLINE_SLOP_S));
    }

    /// The timeout relative to `now` (`None` = park indefinitely).
    pub(crate) fn timeout(self, now: f64) -> Option<f64> {
        self.0.is_finite().then(|| (self.0 - now).max(0.0))
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Per-protocol connection state: the decoder the table feeds, and the
/// one question it asks.
pub(crate) trait ConnState {
    /// Takes the bytes just read from the peer.
    fn feed(&mut self, bytes: &[u8]);

    /// Whether nothing more can happen on the connection, given that its
    /// output buffer is empty. `drained`: the peer has sent EOF and no
    /// response is owed.
    fn done(&self, drained: bool) -> bool {
        drained
    }
}

/// One connection: the protocol's state plus the transport state the
/// table manages.
#[derive(Debug)]
pub(crate) struct Conn<S> {
    pub(crate) state: S,
    out: Vec<u8>,
    peer_closed: bool,
    want_write: bool,
    /// Admitted requests whose responses the connection still owes.
    owed: usize,
    /// The output cap was hit: the next flush fails the connection.
    overflowed: bool,
}

impl<S> Conn<S> {
    /// Buffers `bytes` for the next [`Conns::flush`]. Past
    /// [`MAX_CONN_OUT_BYTES`] nothing is buffered and the connection is
    /// marked to fail.
    pub(crate) fn queue(&mut self, bytes: &[u8]) {
        if self.out.len() + bytes.len() > MAX_CONN_OUT_BYTES {
            self.overflowed = true;
        } else {
            self.out.extend_from_slice(bytes);
        }
    }
}

/// The connection table of one [`drive`] run, bound to its event source:
/// every live connection keyed by reactor token, the one read scratch,
/// and whether the loop is draining.
#[derive(Debug)]
pub(crate) struct Conns<'s, S> {
    /// For what is not per-connection transport: [`EventSource::stats`],
    /// and the fabric's best-effort `Shutdown` write on exit.
    pub(crate) source: &'s mut dyn EventSource,
    /// Shutdown was requested: refuse new work, flush partial batches.
    pub(crate) draining: bool,
    table: BTreeMap<u64, Conn<S>>,
    scratch: Vec<u8>,
}

impl<'s, S: ConnState> Conns<'s, S> {
    fn new(source: &'s mut dyn EventSource) -> Self {
        Conns {
            source,
            draining: false,
            table: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Registers a freshly accepted connection.
    fn insert(&mut self, t: Token, state: S) {
        let conn = Conn {
            state,
            out: Vec::new(),
            peer_closed: false,
            want_write: false,
            owed: 0,
            overflowed: false,
        };
        self.table.insert(t.0, conn);
    }

    /// The connection `t`, if it is still open.
    pub(crate) fn get_mut(&mut self, t: Token) -> Option<&mut Conn<S>> {
        self.table.get_mut(&t.0)
    }

    /// The protocol state of `t`, if the connection is still open.
    pub(crate) fn state_mut(&mut self, t: Token) -> Option<&mut S> {
        self.get_mut(t).map(|c| &mut c.state)
    }

    /// Drains the readable side of `t` into its protocol state and notes
    /// EOF; `None` for a connection the table no longer holds.
    fn read(&mut self, t: Token) -> Result<Option<ReadResult>> {
        self.scratch.clear();
        let rr = self.source.read(t, &mut self.scratch)?;
        let Some(c) = self.table.get_mut(&t.0) else {
            return Ok(None);
        };
        c.peer_closed |= rr.closed;
        c.state.feed(&self.scratch);
        Ok(Some(rr))
    }

    /// `t` was admitted a request: it stays open until the response is
    /// [`Conns::settle`]d, even past the peer's EOF.
    pub(crate) fn owe(&mut self, t: Token) {
        if let Some(c) = self.get_mut(t) {
            c.owed += 1;
        }
    }

    /// One owed response of `t` is about to be sent (or is moot).
    pub(crate) fn settle(&mut self, t: Token) {
        if let Some(c) = self.get_mut(t) {
            c.owed = c.owed.saturating_sub(1);
        }
    }

    /// [`Conn::queue`] followed by [`Conns::flush`].
    pub(crate) fn send(&mut self, t: Token, bytes: &[u8]) -> bool {
        if let Some(c) = self.get_mut(t) {
            c.queue(bytes);
        }
        self.flush(t)
    }

    /// Writes as much buffered output as the transport accepts: a partial
    /// write arms writable interest, a full drain disarms it, and a
    /// connection with nothing left to do is reaped. Returns `true` when
    /// the connection failed (hard write error or output cap) — it is
    /// closed and forgotten by then, so a failure is reported once.
    pub(crate) fn flush(&mut self, t: Token) -> bool {
        let Some(c) = self.table.get_mut(&t.0) else {
            return false;
        };
        let mut failed = c.overflowed;
        if !failed && !c.out.is_empty() {
            match self.source.write(t, &c.out) {
                Ok(n) => {
                    c.out.drain(..n);
                }
                Err(_) => failed = true,
            }
        }
        if failed {
            self.close(t);
            return true;
        }
        let want = !c.out.is_empty();
        if want != c.want_write && self.source.set_writable_interest(t, want).is_ok() {
            c.want_write = want;
        }
        self.reap(t);
        false
    }

    /// Closes the connection if its output is flushed and the protocol
    /// says its story is over.
    fn reap(&mut self, t: Token) {
        let done = |c: &Conn<S>| c.out.is_empty() && c.state.done(c.peer_closed && c.owed == 0);
        if self.table.get(&t.0).is_some_and(done) {
            self.close(t);
        }
    }

    /// Whether some connection still has output its peer has not taken.
    fn unflushed(&self) -> bool {
        self.table.values().any(|c| !c.out.is_empty())
    }

    /// Asserts, in a debug build, what holds after every front pass: no
    /// connection holds more unsent output than [`MAX_CONN_OUT_BYTES`]. A
    /// release build checks nothing.
    fn check_step(&self) {
        for (t, c) in &self.table {
            let held = c.out.len();
            debug_assert!(
                held <= MAX_CONN_OUT_BYTES,
                "connection {t} holds {held} unsent bytes"
            );
        }
    }

    /// Closes and forgets a connection (idempotent). Requests it has in
    /// flight still execute and are counted; their responses are dropped.
    pub(crate) fn close(&mut self, t: Token) {
        self.source.close(t);
        self.table.remove(&t.0);
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// What a protocol front end plugs into [`drive`]. `B` is whatever
/// executes its batches (in-process [`crate::Shards`] or a
/// [`crate::FabricShardEngine`]).
pub(crate) trait Front<B: ?Sized> {
    /// The protocol's per-connection state.
    type Conn: ConnState;

    /// Relative timeout of the next wait: the earliest timed obligation,
    /// or `None` to park until a socket or wake token fires.
    fn next_timeout(&self, backend: &B) -> Option<f64>;

    /// The state a freshly accepted connection starts in.
    fn accept(&self) -> Self::Conn;

    /// `t`'s state was just fed what its peer sent (`eof`: and the peer
    /// closed): decode and serve whatever is complete.
    ///
    /// # Errors
    ///
    /// Fatal backend failures (per-connection errors only drop that
    /// connection).
    fn readable(
        &mut self,
        conns: &mut Conns<'_, Self::Conn>,
        backend: &mut B,
        t: Token,
        eof: bool,
    ) -> Result<()>;

    /// A write-ready flush failed `t` (it is closed by now).
    fn failed(&mut self, _conns: &mut Conns<'_, Self::Conn>, _t: Token) {}

    /// The post-event step: deliver completions, shed, dispatch. Returns
    /// whether anything moved.
    ///
    /// # Errors
    ///
    /// Fatal backend failures.
    fn step(&mut self, conns: &mut Conns<'_, Self::Conn>, backend: &mut B) -> Result<bool>;

    /// Whether nothing is queued or in flight.
    fn idle(&self, backend: &B) -> bool;

    /// Last words before [`drive`] returns.
    fn exit(&mut self, _conns: &mut Conns<'_, Self::Conn>, _backend: &mut B) {}
}

/// Runs `front` on `source` until shutdown (a [`WAKE_SHUTDOWN`] token
/// followed by a full drain) or — on a scripted source — until the script
/// is exhausted and no work remains.
///
/// # Errors
///
/// Poller failures and whatever the front's hooks report as fatal.
pub(crate) fn drive<B: ?Sized, F: Front<B>>(
    source: &mut dyn EventSource,
    front: &mut F,
    backend: &mut B,
) -> Result<()> {
    let stats = source.stats();
    let can_quiesce = source.supports_quiescence();
    let mut conns = Conns::new(source);
    let mut events: Vec<IoEvent> = Vec::new();
    loop {
        let timeout = front.next_timeout(backend);
        conns.source.wait(timeout, &mut events)?;
        // Only a scripted source proves end-of-input with an empty
        // untimed wait; a live poller can return an empty batch
        // spuriously (stale wake-pipe byte) and must be re-parked.
        let quiescent = can_quiesce && events.is_empty() && timeout.is_none();
        let mut had_wake = false;
        let mut progress = false;
        for &event in &events {
            match event {
                IoEvent::Accepted(t) => {
                    conns.insert(t, front.accept());
                    progress = true;
                }
                IoEvent::Readable(t) => {
                    if let Some(rr) = conns.read(t)? {
                        front.readable(&mut conns, backend, t, rr.closed)?;
                        conns.check_step();
                        conns.reap(t);
                        progress |= rr.bytes > 0 || rr.closed;
                    }
                }
                IoEvent::Writable(t) => {
                    if conns.flush(t) {
                        front.failed(&mut conns, t);
                    }
                    progress = true;
                }
                IoEvent::Wake(t) => {
                    had_wake = true;
                    if t == WAKE_SHUTDOWN && !conns.draining {
                        conns.draining = true;
                        conns.source.stop_accepting();
                        progress = true;
                    }
                }
            }
        }
        progress |= front.step(&mut conns, backend)?;
        conns.check_step();
        if had_wake && !progress {
            stats.record_spurious_wakeup();
        }
        // A drain also waits for every reply to be written: exiting drops
        // the connections, and with them whatever a slow reader has not
        // taken yet. A peer that stops reading holds the drain until its
        // write fails or its backlog passes the output cap.
        if ((conns.draining && !conns.unflushed()) || quiescent)
            && front.idle(backend)
            // `idle` is the front's own count of queued and in-flight work,
            // and a step can leave work behind that the count does not
            // cover: a fabric supervisor deadline that passed while the
            // step ran, or a simulated fabric reply that the step's own
            // sends made due at once. (In-process shards leave nothing: a
            // batch is in flight until the loop drains its completion.)
            // Step once more; if anything moved, go round again instead of
            // exiting with it unserved.
            && !front.step(&mut conns, backend)?
        {
            front.exit(&mut conns, backend);
            return Ok(());
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor thread
// ---------------------------------------------------------------------------

/// What a reactor thread's body runs on.
#[derive(Debug)]
pub(crate) struct Reactor {
    pub(crate) poller: EpollPoller,
    pub(crate) clock: Arc<RealClock>,
    pub(crate) metrics: Arc<Metrics>,
    /// `poller`'s [`WAKE_COMPLETION`] waker, for in-process shard threads.
    pub(crate) completion: Waker,
}

/// Serves `listener` from a dedicated thread named `name`: an
/// [`EpollPoller`] owns the listener and every accepted connection, the
/// clock compresses simulated seconds by `speedup`, and `body` runs a
/// server loop to completion. The handle's shutdown returns the run's
/// metrics with the reactor's stats attached.
///
/// # Errors
///
/// Poller construction, listener registration, or thread spawn failures
/// (clock validation and `body`'s own errors, execution errors among them,
/// surface at shutdown).
pub(crate) fn spawn_reactor<F>(
    rt: &Arc<Runtime>,
    name: &str,
    listener: TcpListener,
    speedup: f64,
    body: F,
) -> Result<ServeHandle>
where
    F: FnOnce(&Runtime, &mut Reactor) -> Result<()> + Send + 'static,
{
    let addr = listener
        .local_addr()
        .map_err(ServeError::from_io("local_addr"))?;
    let mut poller = EpollPoller::new(speedup)?;
    poller.listen(listener)?;
    let shutdown = poller.waker(WAKE_SHUTDOWN);
    let completion = poller.waker(WAKE_COMPLETION);
    let rt = Arc::clone(rt);
    let join = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || -> Result<MetricsSnapshot> {
            let mut reactor = Reactor {
                poller,
                clock: Arc::new(RealClock::accelerated(speedup)?),
                metrics: Arc::new(Metrics::new()),
                completion,
            };
            body(&rt, &mut reactor)?;
            let stats = reactor.poller.stats().snapshot();
            Ok(reactor.metrics.snapshot_with_reactor(stats))
        })
        .map_err(ServeError::from_io("spawn reactor thread"))?;
    Ok(ServeHandle {
        addr,
        shutdown,
        join,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::ReactorStats;
    use std::collections::VecDeque;

    /// A scripted source: one event batch per `wait` (an exhausted script
    /// yields empty batches), writes capped per call by `write_caps` (an
    /// exhausted list accepts everything), every transport call recorded.
    #[derive(Debug, Default)]
    struct Stub {
        script: VecDeque<Vec<IoEvent>>,
        quiesces: bool,
        write_caps: VecDeque<usize>,
        /// Writes fail hard once this many have been served.
        writes_left: Option<usize>,
        waits: usize,
        stops: usize,
        interest: Vec<(Token, bool)>,
        closed: Vec<Token>,
        stats: Arc<ReactorStats>,
    }

    impl EventSource for Stub {
        fn wait(&mut self, _timeout_s: Option<f64>, out: &mut Vec<IoEvent>) -> Result<()> {
            self.waits += 1;
            assert!(self.waits < 100, "loop never exits");
            *out = self.script.pop_front().unwrap_or_default();
            Ok(())
        }
        fn supports_quiescence(&self) -> bool {
            self.quiesces
        }
        fn waker(&self, _token: Token) -> crate::reactor::Waker {
            unimplemented!("the stub is woken by its script")
        }
        fn read(&mut self, _conn: Token, buf: &mut Vec<u8>) -> Result<ReadResult> {
            buf.extend_from_slice(b"ping");
            Ok(ReadResult {
                bytes: 4,
                closed: false,
            })
        }
        fn write(&mut self, _conn: Token, data: &[u8]) -> Result<usize> {
            if self.writes_left == Some(0) {
                return Err(ServeError::Io {
                    detail: "broken pipe".to_string(),
                });
            }
            self.writes_left = self.writes_left.map(|n| n - 1);
            Ok(self
                .write_caps
                .pop_front()
                .unwrap_or(usize::MAX)
                .min(data.len()))
        }
        fn set_writable_interest(&mut self, conn: Token, on: bool) -> Result<()> {
            self.interest.push((conn, on));
            Ok(())
        }
        fn close(&mut self, conn: Token) {
            self.closed.push(conn);
        }
        fn stop_accepting(&mut self) {
            self.stops += 1;
        }
        fn stats(&self) -> Arc<ReactorStats> {
            Arc::clone(&self.stats)
        }
    }

    /// Connection state that keeps what it was fed and is never done on
    /// its own.
    #[derive(Debug, Default)]
    struct Open(Vec<u8>);

    impl ConnState for Open {
        fn feed(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
        fn done(&self, _drained: bool) -> bool {
            false
        }
    }

    /// A front with nothing queued whose `step` reports progress on the
    /// calls numbered in `surfaces` (1-based) — a completion surfacing.
    #[derive(Debug, Default)]
    struct Probe {
        steps: usize,
        surfaces: Vec<usize>,
        exits: usize,
        failed: Vec<Token>,
    }

    impl Front<()> for Probe {
        type Conn = Open;

        fn next_timeout(&self, _backend: &()) -> Option<f64> {
            None
        }
        fn accept(&self) -> Open {
            Open::default()
        }
        /// Echoes what was read.
        fn readable(
            &mut self,
            conns: &mut Conns<'_, Open>,
            _: &mut (),
            t: Token,
            _eof: bool,
        ) -> Result<()> {
            let echo = std::mem::take(&mut conns.state_mut(t).unwrap().0);
            assert!(!conns.send(t, &echo));
            Ok(())
        }
        fn failed(&mut self, _conns: &mut Conns<'_, Open>, t: Token) {
            self.failed.push(t);
        }
        fn step(&mut self, _conns: &mut Conns<'_, Open>, _: &mut ()) -> Result<bool> {
            self.steps += 1;
            Ok(self.surfaces.contains(&self.steps))
        }
        fn idle(&self, _backend: &()) -> bool {
            true
        }
        fn exit(&mut self, _conns: &mut Conns<'_, Open>, _: &mut ()) {
            self.exits += 1;
        }
    }

    const SHUTDOWN: IoEvent = IoEvent::Wake(WAKE_SHUTDOWN);

    /// A front that answers every read with a maximal frame's worth of
    /// bytes and never holds work.
    #[derive(Debug)]
    struct Flood;

    impl Front<()> for Flood {
        type Conn = Open;

        fn next_timeout(&self, _backend: &()) -> Option<f64> {
            None
        }
        fn accept(&self) -> Open {
            Open::default()
        }
        fn readable(
            &mut self,
            conns: &mut Conns<'_, Open>,
            _: &mut (),
            t: Token,
            _eof: bool,
        ) -> Result<()> {
            conns.send(t, &vec![0; MAX_FRAME_PAYLOAD + 12]);
            Ok(())
        }
        fn step(&mut self, _conns: &mut Conns<'_, Open>, _: &mut ()) -> Result<bool> {
            Ok(false)
        }
        fn idle(&self, _backend: &()) -> bool {
            true
        }
    }

    #[test]
    fn empty_untimed_batch_exits_only_a_quiescing_source() {
        let mut scripted = Stub {
            quiesces: true,
            ..Stub::default()
        };
        drive(&mut scripted, &mut Probe::default(), &mut ()).unwrap();
        assert_eq!(scripted.waits, 1, "script exhausted, nothing queued: exit");

        // A live poller's empty batch is spurious: park again, and leave
        // only on the shutdown token.
        let mut live = Stub {
            script: VecDeque::from([vec![], vec![], vec![SHUTDOWN]]),
            ..Stub::default()
        };
        let mut front = Probe::default();
        drive(&mut live, &mut front, &mut ()).unwrap();
        assert_eq!((live.waits, front.exits), (3, 1));
    }

    #[test]
    fn completion_in_the_exit_time_redrain_postpones_the_exit() {
        let mut source = Stub {
            quiesces: true,
            ..Stub::default()
        };
        // Step 1 is the iteration's own; step 2 is the re-drain before
        // exit, and it surfaces a completion.
        let mut front = Probe {
            surfaces: vec![2],
            ..Probe::default()
        };
        drive(&mut source, &mut front, &mut ()).unwrap();
        assert_eq!(source.waits, 2, "one more iteration, not an exit");
        assert_eq!((front.steps, front.exits), (4, 1));
    }

    #[test]
    fn shutdown_twice_stops_accepting_once_and_idle_wakes_are_spurious() {
        let mut source = Stub {
            script: VecDeque::from([
                vec![IoEvent::Wake(WAKE_COMPLETION)],
                vec![SHUTDOWN, SHUTDOWN],
            ]),
            ..Stub::default()
        };
        // The completion wake finds nothing to deliver; the re-drain after
        // the shutdown batch surfaces one and costs an extra round.
        let mut front = Probe {
            surfaces: vec![3],
            ..Probe::default()
        };
        drive(&mut source, &mut front, &mut ()).unwrap();
        assert_eq!(source.stops, 1);
        assert_eq!(source.stats.snapshot().spurious_wakeups, 1);
        assert_eq!(source.waits, 3);
    }

    #[test]
    fn a_write_ready_flush_that_fails_reports_the_connection_once() {
        let t = Token(16);
        let mut source = Stub {
            script: VecDeque::from([
                vec![IoEvent::Accepted(t), IoEvent::Readable(t)],
                vec![IoEvent::Writable(t)],
                vec![IoEvent::Writable(t), SHUTDOWN],
            ]),
            // The echo is cut short; the write-ready retry hits a dead pipe.
            write_caps: VecDeque::from([1]),
            writes_left: Some(1),
            ..Stub::default()
        };
        let mut front = Probe::default();
        drive(&mut source, &mut front, &mut ()).unwrap();
        assert_eq!(front.failed, [t], "the stale Writable finds no connection");
        assert_eq!(source.closed, [t]);
        assert_eq!(source.interest, [(t, true)]);
    }

    #[test]
    fn drive_fails_a_peer_that_never_reads_at_the_output_cap() {
        // Every write takes nothing: the second reply would pass the cap,
        // so the connection fails there, once, and the loop's per-pass
        // check never sees a backlog over it.
        let t = Token(16);
        let mut source = Stub {
            script: VecDeque::from([
                vec![IoEvent::Accepted(t)],
                vec![IoEvent::Readable(t)],
                vec![IoEvent::Readable(t)],
                vec![IoEvent::Readable(t), SHUTDOWN],
            ]),
            write_caps: VecDeque::from(vec![0; 16]),
            ..Stub::default()
        };
        drive(&mut source, &mut Flood, &mut ()).unwrap();
        assert_eq!(source.closed, [t]);
    }

    #[test]
    fn short_write_arms_writable_interest_and_the_full_write_disarms_it() {
        let mut source = Stub {
            write_caps: VecDeque::from([3]),
            ..Stub::default()
        };
        let mut conns = Conns::new(&mut source);
        let t = Token(16);
        conns.insert(t, Open::default());
        assert!(!conns.send(t, b"0123456789"));
        assert_eq!(conns.get_mut(t).unwrap().out, b"3456789");
        assert!(!conns.flush(t));
        assert!(conns.get_mut(t).unwrap().out.is_empty());
        assert!(!conns.flush(t), "nothing buffered: no write, no re-arm");
        assert_eq!(source.interest, [(t, true), (t, false)]);
    }

    #[test]
    fn a_peer_that_never_reads_is_failed_at_the_output_cap_exactly_once() {
        let mut source = Stub {
            write_caps: VecDeque::from(vec![0; 16]),
            ..Stub::default()
        };
        let mut conns = Conns::new(&mut source);
        let (stuck, other) = (Token(16), Token(17));
        conns.insert(stuck, Open::default());
        conns.insert(other, Open::default());
        assert!(!conns.send(other, b"hello"));

        let chunk = vec![0u8; MAX_FRAME_PAYLOAD + 12];
        assert!(chunk.len() <= MAX_CONN_OUT_BYTES, "a maximal frame fits");
        let mut failures = 0;
        for _ in 0..8 {
            failures += usize::from(conns.send(stuck, &chunk));
            let buffered = conns.get_mut(stuck).map_or(0, |c| c.out.len());
            assert!(buffered <= MAX_CONN_OUT_BYTES);
        }
        assert_eq!(failures, 1, "failed once, then forgotten");
        assert!(conns.get_mut(stuck).is_none());
        assert_eq!(conns.get_mut(other).unwrap().out, b"hello");
        assert_eq!(source.closed, [stuck]);
    }
}
