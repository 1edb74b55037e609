//! Distributed shard fabric (DESIGN.md §13): LUT shard workers as
//! separate OS processes speaking a length-prefixed, CRC-checked binary
//! frame protocol over sockets registered with the [`EventSource`]
//! reactor.
//!
//! The front end keeps the line protocol of [`crate::codec`] toward
//! clients (now with an optional table token for routing) and speaks
//! [`Frame`]s toward shard workers. Tables are placed on shards by the
//! consistent-hash [`crate::supervisor::Supervisor`]; a dead worker
//! (EOF — which covers `kill -9` — or a protocol timeout) has its tables
//! re-replicated to the consistent-hash successor while its queued and
//! in-flight requests are re-routed rather than dropped.
//!
//! [`FabricServerLoop`] is the third codec on the crate's connection core
//! (`conn.rs`: the event loop, the transport path and the reactor-thread
//! spawner are shared with the line and HTTP front ends), so the same
//! state machine runs under the deterministic [`crate::SimPoller`] (with
//! [`SimShardEngine`] standing in for worker processes) and under the
//! real epoll reactor with [`ProcessShardEngine`] and actual child
//! processes spawned by [`Runtime::serve_fabric`].
//!
//! ## Frame format
//!
//! ```text
//! magic 0xAB 0x1E | version u8 | kind u8 | payload_len u32 LE
//! payload (payload_len bytes)
//! crc32-IEEE u32 LE over header + payload
//! ```
//!
//! The first magic byte is deliberately non-ASCII so a connection's first
//! byte classifies it: `0xAB` → shard worker, anything else → line-protocol
//! client. Like [`crate::HttpParser`], a [`FrameDecoder`] that observes a
//! framing violation is *poisoned*: it yields exactly one error and then
//! `Ok(None)` forever — the stream is no longer framed, so the connection
//! must be closed, never re-parsed.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pimdl_engine::fabric::FabricConfig;
use pimdl_engine::pipeline::PimDlEngine;
use pimdl_sim::{LutWorkload, NetworkModel, PlatformConfig};

use crate::clock::Clock;
use crate::codec::{self, ErrorKind, LineBuffer};
use crate::conn::{self, ConnState, Conns, Front, WakeAt};
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{EventSource, SimHandle, Token, WAKE_COMPLETION};
use crate::request::Request;
use crate::runtime::Runtime;
use crate::server::{fallback_tag, ServeHandle};
use crate::shard::{ReplicaModel, ServiceModel};
use crate::supervisor::{LoadOrder, Supervisor, TableState};
use crate::Result;

// ---------------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------------

/// Frame magic. The first byte is non-ASCII on purpose: it disambiguates
/// shard-worker connections from line-protocol clients on a shared
/// listener by their very first byte.
pub const FRAME_MAGIC: [u8; 2] = [0xAB, 0x1E];
/// Protocol version carried in every frame header.
pub const FRAME_VERSION: u8 = 1;
/// Hard per-frame payload cap (1 MiB): bounds decoder buffering against
/// corrupt or hostile length fields.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;
/// Cap on the request count in an `Execute` frame; a batch is at most
/// [`pimdl_engine::scheduler::MAX_BATCH`] requests, so a larger count is a
/// corrupt or hostile frame.
pub const MAX_EXECUTE_REQUESTS: usize = 1024;
const _: () = assert!(pimdl_engine::scheduler::MAX_BATCH <= MAX_EXECUTE_REQUESTS);
/// Cap on the per-request index count in an `Execute` frame (the full
/// `u16` index space — indices address LUT rows and travel as `u16`).
pub const MAX_REQUEST_INDICES: usize = 1 << 16;
/// Cap on the flag count in an `ExecDone` frame (one flag per request).
pub const MAX_EXEC_FLAGS: usize = MAX_EXECUTE_REQUESTS;

const HEADER_LEN: usize = 8;
const TRAILER_LEN: usize = 4;

const KIND_HELLO: u8 = 1;
const KIND_LOAD_TABLE: u8 = 2;
const KIND_TABLE_READY: u8 = 3;
const KIND_EXECUTE: u8 = 4;
const KIND_EXEC_DONE: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// CRC32 (IEEE 802.3 polynomial, reflected) of `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A fatal framing error. Any [`FrameError`] poisons its decoder: the
/// byte stream is no longer framed and the connection must be closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// What was malformed.
    pub detail: String,
}

impl FrameError {
    fn new(detail: impl Into<String>) -> Self {
        FrameError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fabric frame error: {}", self.detail)
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Io {
            detail: e.to_string(),
        }
    }
}

/// One fabric protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → front end: first frame on a shard connection.
    Hello {
        /// The worker's shard id (assigned at spawn).
        shard_id: u32,
    },
    /// Front end → worker: build the table deterministically from `seed`.
    LoadTable {
        /// Table name.
        table: String,
        /// Deterministic build seed ([`ReplicaModel::build`]).
        seed: u64,
    },
    /// Worker → front end: the table is resident and routable.
    TableReady {
        /// Table name.
        table: String,
    },
    /// Front end → worker: execute a batch against a resident table.
    Execute {
        /// Correlation id echoed in the matching [`Frame::ExecDone`].
        batch_id: u64,
        /// Simulated service time of this batch (the worker sleeps it,
        /// scaled by the runtime speedup).
        service_s: f64,
        /// Target table.
        table: String,
        /// The batch's requests, verbatim.
        requests: Vec<Request>,
    },
    /// Worker → front end: batch finished; per-request correctness flags
    /// in dispatch order.
    ExecDone {
        /// Echoed correlation id.
        batch_id: u64,
        /// Whether each request's PIM result matched its host checksum.
        flags: Vec<bool>,
    },
    /// Front end → worker: drain and exit.
    Shutdown,
}

fn put_str(out: &mut Vec<u8>, s: &str) -> std::result::Result<(), FrameError> {
    let len = u16::try_from(s.len())
        .map_err(|_| FrameError::new(format!("string of {} bytes exceeds u16 length", s.len())))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_count(out: &mut Vec<u8>, n: usize) -> std::result::Result<(), FrameError> {
    let n =
        u32::try_from(n).map_err(|_| FrameError::new(format!("count {n} exceeds u32 range")))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::LoadTable { .. } => KIND_LOAD_TABLE,
            Frame::TableReady { .. } => KIND_TABLE_READY,
            Frame::Execute { .. } => KIND_EXECUTE,
            Frame::ExecDone { .. } => KIND_EXEC_DONE,
            Frame::Shutdown => KIND_SHUTDOWN,
        }
    }

    /// Encodes the frame (header + payload + CRC trailer), ready to write.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when a string or collection exceeds the wire
    /// format's length fields, or the payload exceeds
    /// [`MAX_FRAME_PAYLOAD`].
    pub fn encode(&self) -> std::result::Result<Vec<u8>, FrameError> {
        let mut payload = Vec::new();
        match self {
            Frame::Hello { shard_id } => payload.extend_from_slice(&shard_id.to_le_bytes()),
            Frame::LoadTable { table, seed } => {
                put_str(&mut payload, table)?;
                payload.extend_from_slice(&seed.to_le_bytes());
            }
            Frame::TableReady { table } => put_str(&mut payload, table)?,
            Frame::Execute {
                batch_id,
                service_s,
                table,
                requests,
            } => {
                payload.extend_from_slice(&batch_id.to_le_bytes());
                payload.extend_from_slice(&service_s.to_bits().to_le_bytes());
                put_str(&mut payload, table)?;
                put_count(&mut payload, requests.len())?;
                for r in requests {
                    payload.extend_from_slice(&r.id.to_le_bytes());
                    payload.extend_from_slice(&r.arrival_s.to_bits().to_le_bytes());
                    payload.extend_from_slice(&r.deadline_s.to_bits().to_le_bytes());
                    payload.extend_from_slice(&r.expected_checksum.to_bits().to_le_bytes());
                    put_count(&mut payload, r.indices.len())?;
                    for &i in &r.indices {
                        payload.extend_from_slice(&i.to_le_bytes());
                    }
                }
            }
            Frame::ExecDone { batch_id, flags } => {
                payload.extend_from_slice(&batch_id.to_le_bytes());
                put_count(&mut payload, flags.len())?;
                payload.extend(flags.iter().map(|&f| u8::from(f)));
            }
            Frame::Shutdown => {}
        }
        if payload.len() > MAX_FRAME_PAYLOAD {
            return Err(FrameError::new(format!(
                "payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap",
                payload.len()
            )));
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(FRAME_VERSION);
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        Ok(out)
    }
}

/// Bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| FrameError::new("payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> std::result::Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> std::result::Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> std::result::Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> std::result::Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str_(&mut self) -> std::result::Result<String, FrameError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::new("string field is not UTF-8"))
    }

    fn finish(&self) -> std::result::Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::new(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> std::result::Result<Frame, FrameError> {
    let mut c = Cursor::new(payload);
    let frame = match kind {
        KIND_HELLO => Frame::Hello { shard_id: c.u32()? },
        KIND_LOAD_TABLE => Frame::LoadTable {
            table: c.str_()?,
            seed: c.u64()?,
        },
        KIND_TABLE_READY => Frame::TableReady { table: c.str_()? },
        KIND_EXECUTE => {
            let batch_id = c.u64()?;
            let service_s = c.f64()?;
            let table = c.str_()?;
            let n = c.u32()? as usize;
            if n > MAX_EXECUTE_REQUESTS {
                return Err(FrameError::new(format!(
                    "request count {n} exceeds MAX_EXECUTE_REQUESTS"
                )));
            }
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                let id = c.u64()?;
                let arrival_s = c.f64()?;
                let deadline_s = c.f64()?;
                let expected_checksum = c.f64()?;
                let k = c.u32()? as usize;
                if k > MAX_REQUEST_INDICES {
                    return Err(FrameError::new(format!(
                        "index count {k} exceeds MAX_REQUEST_INDICES"
                    )));
                }
                let raw = c.take(k * 2)?;
                let indices = raw
                    .chunks_exact(2)
                    .map(|p| u16::from_le_bytes([p[0], p[1]]))
                    .collect();
                requests.push(Request {
                    id,
                    arrival_s,
                    deadline_s,
                    indices,
                    expected_checksum,
                });
            }
            Frame::Execute {
                batch_id,
                service_s,
                table,
                requests,
            }
        }
        KIND_EXEC_DONE => {
            let batch_id = c.u64()?;
            let n = c.u32()? as usize;
            if n > MAX_EXEC_FLAGS {
                return Err(FrameError::new(format!(
                    "flag count {n} exceeds MAX_EXEC_FLAGS"
                )));
            }
            let raw = c.take(n)?;
            let flags = raw.iter().map(|&b| b != 0).collect();
            Frame::ExecDone { batch_id, flags }
        }
        KIND_SHUTDOWN => Frame::Shutdown,
        other => return Err(FrameError::new(format!("unknown frame kind {other}"))),
    };
    c.finish()?;
    Ok(frame)
}

/// Incremental frame decoder: push transport chunks as they arrive, pop
/// complete frames. Mirrors [`crate::HttpParser`]'s poisoning contract:
/// the first framing violation yields exactly one `Err`, and every
/// subsequent call returns `Ok(None)` — the caller must close the
/// connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    poisoned: bool,
    reported: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends transport bytes (ignored once poisoned — the stream is
    /// dead, buffering it would be unbounded).
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    fn fail(
        &mut self,
        detail: impl Into<String>,
    ) -> std::result::Result<Option<Frame>, FrameError> {
        self.poisoned = true;
        self.reported = true;
        self.buf.clear();
        Err(FrameError::new(detail))
    }

    /// Pops the next complete frame, if the buffer holds one.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on the *first* framing violation (bad magic,
    /// unsupported version, oversized payload, CRC mismatch, malformed
    /// payload); the decoder is then poisoned and every later call
    /// returns `Ok(None)`.
    pub fn next_frame(&mut self) -> std::result::Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Ok(None);
        }
        if !self.buf.is_empty() && self.buf[0] != FRAME_MAGIC[0] {
            return self.fail(format!("bad frame magic byte 0x{:02X}", self.buf[0]));
        }
        if self.buf.len() >= 2 && self.buf[1] != FRAME_MAGIC[1] {
            return self.fail(format!("bad frame magic byte 0x{:02X}", self.buf[1]));
        }
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let version = self.buf[2];
        if version != FRAME_VERSION {
            return self.fail(format!(
                "unsupported frame version {version} (expected {FRAME_VERSION})"
            ));
        }
        let kind = self.buf[3];
        let len = u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return self.fail(format!(
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
            ));
        }
        let total = HEADER_LEN + len + TRAILER_LEN;
        if self.buf.len() < total {
            return Ok(None);
        }
        let crc_got = u32::from_le_bytes([
            self.buf[HEADER_LEN + len],
            self.buf[HEADER_LEN + len + 1],
            self.buf[HEADER_LEN + len + 2],
            self.buf[HEADER_LEN + len + 3],
        ]);
        let crc_want = crc32(&self.buf[..HEADER_LEN + len]);
        if crc_got != crc_want {
            return self.fail(format!(
                "frame CRC mismatch (got 0x{crc_got:08X}, computed 0x{crc_want:08X})"
            ));
        }
        let frame = match decode_payload(kind, &self.buf[HEADER_LEN..HEADER_LEN + len]) {
            Ok(f) => f,
            Err(e) => return self.fail(e.detail),
        };
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Shard engines
// ---------------------------------------------------------------------------

/// How the fabric loop's shard side is realized.
///
/// The loop writes encoded frames to shard connections through the
/// [`EventSource`] either way; the engine hook is where a simulated
/// backend intercepts them. [`ProcessShardEngine`] does nothing (real
/// workers answer over their sockets); [`SimShardEngine`] executes
/// batches inline and schedules the reply bytes on the virtual clock.
pub trait FabricShardEngine: fmt::Debug {
    /// Observes a frame the loop just sent to shard connection `token`.
    ///
    /// # Errors
    ///
    /// Simulated execution failures (fatal: they indicate a bug, not a
    /// flaky peer).
    fn on_send(&mut self, token: Token, frame: &Frame, now_s: f64) -> Result<()>;

    /// Reply bytes that have "arrived" from shards by `now_s` (simulated
    /// backends only; process backends return nothing — real replies
    /// arrive as readable socket events).
    fn due_replies(&mut self, now_s: f64) -> Vec<(Token, Vec<u8>)>;

    /// Drops all state held for a dead shard connection.
    fn forget(&mut self, token: Token);
}

/// The production engine: shard workers are real processes, so sending is
/// just socket I/O and replies arrive through the reactor.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProcessShardEngine;

impl FabricShardEngine for ProcessShardEngine {
    fn on_send(&mut self, _token: Token, _frame: &Frame, _now_s: f64) -> Result<()> {
        Ok(())
    }

    fn due_replies(&mut self, _now_s: f64) -> Vec<(Token, Vec<u8>)> {
        Vec::new()
    }

    fn forget(&mut self, _token: Token) {}
}

/// Deterministic in-process stand-in for shard worker processes: executes
/// `LoadTable`/`Execute` frames inline, then schedules the encoded reply
/// (`TableReady` after `load_delay_s`, `ExecDone` after the batch's
/// service time) on the virtual clock, waking the loop through
/// [`WAKE_COMPLETION`]. Replies flow through the same [`FrameDecoder`]
/// path real sockets feed.
#[derive(Debug)]
pub struct SimShardEngine<'a> {
    rt: &'a Runtime,
    handle: SimHandle,
    load_delay_s: f64,
    network: NetworkModel,
    replicas: BTreeMap<(u64, String), Arc<ReplicaModel>>,
    /// (due, insertion seq, shard conn, encoded reply) — sorted on drain
    /// so equal-time replies pop in send order, keeping runs bit-identical.
    pending: Vec<(f64, u64, Token, Vec<u8>)>,
    seq: u64,
}

impl<'a> SimShardEngine<'a> {
    /// An engine building replicas through `rt` (same engine and LUT
    /// shape as the front end's oracles), delivering `TableReady` after
    /// `load_delay_s` simulated seconds.
    pub fn new(rt: &'a Runtime, handle: SimHandle, load_delay_s: f64) -> Self {
        SimShardEngine {
            rt,
            handle,
            load_delay_s,
            network: NetworkModel::zero(),
            replicas: BTreeMap::new(),
            pending: Vec::new(),
            seq: 0,
        }
    }

    /// Prices both socket crossings of every round trip with `network`
    /// (typically [`NetworkModel::calibrate`]d from loopback RTTs measured
    /// by [`measure_loopback_rtt`]): a reply becomes due at
    /// `now + cost(request frame) + service + cost(reply frame)` instead
    /// of `now + service`. The default is [`NetworkModel::zero`], which
    /// keeps the fabric DES identical to the in-process DES.
    #[must_use]
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// One-way cost of `frame` under the configured network model. Skips
    /// the re-encode entirely on the (default) free network.
    fn one_way_cost_s(&self, frame: &Frame) -> Result<f64> {
        if self.network.link_latency_s == 0.0 && self.network.per_byte_s == 0.0 {
            return Ok(0.0);
        }
        Ok(self.network.frame_cost_s(frame.encode()?.len()))
    }

    fn push_reply(&mut self, due_s: f64, token: Token, bytes: Vec<u8>) {
        self.pending.push((due_s, self.seq, token, bytes));
        self.seq += 1;
        self.handle.wake_at(due_s, WAKE_COMPLETION);
    }
}

impl<'a> FabricShardEngine for SimShardEngine<'a> {
    fn on_send(&mut self, token: Token, frame: &Frame, now_s: f64) -> Result<()> {
        match frame {
            Frame::LoadTable { table, seed } => {
                let in_cost = self.one_way_cost_s(frame)?;
                let replica = self.rt.build_replica(*seed)?;
                self.replicas.insert((token.0, table.clone()), replica);
                let reply = Frame::TableReady {
                    table: table.clone(),
                }
                .encode()?;
                let out_cost = self.network.frame_cost_s(reply.len());
                let due = now_s + in_cost + self.load_delay_s + out_cost;
                self.push_reply(due, token, reply);
                Ok(())
            }
            Frame::Execute {
                batch_id,
                service_s,
                table,
                requests,
            } => {
                let Some(replica) = self.replicas.get(&(token.0, table.clone())) else {
                    return Err(ServeError::Io {
                        detail: format!("simulated shard got Execute for unloaded table {table:?}"),
                    });
                };
                let in_cost = self.one_way_cost_s(frame)?;
                let flags = replica.execute_batch(requests)?;
                let reply = Frame::ExecDone {
                    batch_id: *batch_id,
                    flags,
                }
                .encode()?;
                let out_cost = self.network.frame_cost_s(reply.len());
                let due = now_s + in_cost + service_s.max(0.0) + out_cost;
                self.push_reply(due, token, reply);
                Ok(())
            }
            Frame::Shutdown => {
                self.forget(token);
                Ok(())
            }
            Frame::Hello { .. } | Frame::TableReady { .. } | Frame::ExecDone { .. } => {
                Err(ServeError::Io {
                    detail: "front end sent a shard-to-host frame".to_string(),
                })
            }
        }
    }

    fn due_replies(&mut self, now_s: f64) -> Vec<(Token, Vec<u8>)> {
        self.pending
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let cut = self
            .pending
            .iter()
            .position(|p| p.0 > now_s + 1e-12)
            .unwrap_or(self.pending.len());
        self.pending
            .drain(..cut)
            .map(|(_, _, t, b)| (t, b))
            .collect()
    }

    fn forget(&mut self, token: Token) {
        self.pending.retain(|p| p.2 != token);
        self.replicas.retain(|(t, _), _| *t != token.0);
    }
}

// ---------------------------------------------------------------------------
// Worker spec
// ---------------------------------------------------------------------------

/// Everything a shard worker process needs to rebuild replicas: the
/// platform model and the LUT workload shape. Passed to the worker as a
/// JSON argv argument (table seeds travel in `LoadTable` frames).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Simulated PIM platform the replicas execute on.
    pub platform: PlatformConfig,
    /// Per-request functional LUT query shape.
    pub lut: LutWorkload,
}

fn valid_table_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

// ---------------------------------------------------------------------------
// FabricServerLoop
// ---------------------------------------------------------------------------

/// A queued query: the validated request plus where its response goes.
#[derive(Debug)]
struct PendingReq {
    req: Request,
    conn: Token,
    tag: String,
    table: String,
}

/// A batch dispatched to a shard and not yet acknowledged.
#[derive(Debug)]
struct InflightBatch {
    shard: u32,
    items: Vec<PendingReq>,
}

#[derive(Debug)]
pub(crate) enum ConnKind {
    /// No bytes seen yet; the first byte classifies the peer.
    Unknown,
    /// Line-protocol client.
    Client(LineBuffer),
    /// Shard worker speaking frames.
    Shard { decoder: FrameDecoder },
}

impl ConnState for ConnKind {
    /// The first byte classifies the peer; lines or frames from then on.
    fn feed(&mut self, bytes: &[u8]) {
        if let (ConnKind::Unknown, Some(&first)) = (&*self, bytes.first()) {
            *self = if first == FRAME_MAGIC[0] {
                ConnKind::Shard {
                    decoder: FrameDecoder::new(),
                }
            } else {
                ConnKind::Client(LineBuffer::new())
            };
        }
        match self {
            ConnKind::Unknown => {}
            ConnKind::Client(lines) => lines.push(bytes),
            ConnKind::Shard { decoder } => decoder.push(bytes),
        }
    }

    /// A client (or a peer that never spoke) is done once drained; a shard
    /// connection only ever ends through death bookkeeping.
    fn done(&self, drained: bool) -> bool {
        drained && !matches!(self, ConnKind::Shard { .. })
    }
}

/// The fabric serving event loop: line-protocol clients with table
/// routing on one side, framed shard workers on the other, the
/// consistent-hash [`Supervisor`] deciding placement and liveness in
/// between — driven entirely by an [`EventSource`], so the identical
/// state machine runs under the real poller and the deterministic
/// simulated one.
///
/// Queries queue per table (FIFO, bounded by the runtime's
/// `queue_capacity` across all tables) and dispatch as batches of up to
/// `max_batch` when full, when the oldest has waited `max_wait_s`, or on
/// drain — but only to a table's resident shard, at most one in-flight
/// batch per shard. A dead shard's in-flight batches are re-queued at the
/// front of their table queues (zero lost requests) while the supervisor
/// re-replicates its tables to the consistent-hash successor; queries for
/// terminally lost tables are error-responded, never silently dropped.
#[derive(Debug)]
pub struct FabricServerLoop<'a> {
    cfg: crate::runtime::ServeConfig,
    service: &'a ServiceModel,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    sup: Supervisor,
    /// Host-side oracle replicas (one per table) for request validation
    /// and reference checksums.
    oracles: BTreeMap<String, Arc<ReplicaModel>>,
    queues: BTreeMap<String, VecDeque<PendingReq>>,
    queued_total: usize,
    inflight: BTreeMap<u64, InflightBatch>,
    /// Shard connections that failed I/O and await death bookkeeping.
    pending_dead: Vec<Token>,
    next_batch_id: u64,
    next_req_id: u64,
    default_table: String,
    /// Latched `true` the first time every table routes (all workers
    /// hello'd and loaded). [`FabricHandle::wait_all_ready`] observes it.
    all_ready: Arc<AtomicBool>,
}

impl<'a> FabricServerLoop<'a> {
    /// A loop serving `tables` (name, build-seed pairs; the first is the
    /// default route for queries without a table token) over `fabric`'s
    /// shard fleet, using `rt` for oracles and service times.
    ///
    /// # Errors
    ///
    /// Fabric/supervisor configuration validation, invalid or duplicate
    /// table names, or oracle replica construction failures.
    pub fn new(
        rt: &'a Runtime,
        fabric: FabricConfig,
        tables: &[(String, u64)],
        clock: Arc<dyn Clock>,
        metrics: Arc<Metrics>,
    ) -> Result<Self> {
        fabric.validate()?;
        let Some((first, _)) = tables.first() else {
            return Err(ServeError::Config {
                detail: "fabric needs at least one table".to_string(),
            });
        };
        let mut oracles = BTreeMap::new();
        for (name, seed) in tables {
            if !valid_table_name(name) {
                return Err(ServeError::Config {
                    detail: format!("table name {name:?} must be 1-64 chars of [A-Za-z0-9._-]"),
                });
            }
            if oracles
                .insert(name.clone(), rt.build_replica(*seed)?)
                .is_some()
            {
                return Err(ServeError::Config {
                    detail: format!("duplicate fabric table {name:?}"),
                });
            }
        }
        let sup = Supervisor::new(
            fabric.num_shards,
            fabric.vnodes,
            fabric.hello_timeout_s,
            clock.now(),
            tables,
        )?;
        Ok(FabricServerLoop {
            cfg: *rt.config(),
            service: rt.service_model(),
            clock,
            metrics,
            sup,
            oracles,
            queues: BTreeMap::new(),
            queued_total: 0,
            inflight: BTreeMap::new(),
            pending_dead: Vec::new(),
            next_batch_id: 0,
            next_req_id: 0,
            default_table: first.clone(),
            all_ready: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Shares the all-tables-ready latch with an observer (the run loop
    /// latches it `true` the first time every table routes; Relaxed —
    /// the flag carries no associated published state).
    #[must_use]
    pub fn with_ready_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.all_ready = flag;
        self
    }

    /// The placement/liveness supervisor (exposed so tests can check
    /// residency and shard states after a run).
    pub fn supervisor(&self) -> &Supervisor {
        &self.sup
    }

    /// Queries currently queued across all tables.
    pub fn queued(&self) -> usize {
        self.queued_total
    }

    /// Reference gathers the front end's oracles have run, over all tables
    /// (see [`ReplicaModel::reference_gathers`]).
    pub fn reference_gathers(&self) -> u64 {
        self.oracles.values().map(|o| o.reference_gathers()).sum()
    }

    /// Runs until shutdown (a [`crate::reactor::WAKE_SHUTDOWN`] token
    /// followed by a full drain) or — for the simulated transport — until
    /// the script is exhausted and no work remains. Live shards get a
    /// [`Frame::Shutdown`] on the way out.
    ///
    /// # Errors
    ///
    /// Poller failures and fatal engine failures. Per-connection I/O
    /// errors only drop that connection (for shard connections, after
    /// death bookkeeping and re-replication).
    pub fn run(
        &mut self,
        source: &mut dyn EventSource,
        engine: &mut dyn FabricShardEngine,
    ) -> Result<()> {
        conn::drive(source, self, engine)
    }

    fn shard_busy(&self, shard: u32) -> bool {
        self.inflight.values().any(|b| b.shard == shard)
    }
}

impl<'e> Front<dyn FabricShardEngine + 'e> for FabricServerLoop<'_> {
    type Conn = ConnKind;

    /// The earliest of the batch flush window (only for tables whose shard
    /// could take the batch), queued-request deadlines, and the
    /// supervisor's protocol deadlines.
    fn next_timeout(&self, _engine: &(dyn FabricShardEngine + 'e)) -> Option<f64> {
        let mut wake = WakeAt::never();
        for (table, q) in &self.queues {
            let Some(front) = q.front() else { continue };
            if self
                .sup
                .route(table)
                .is_some_and(|(shard, _)| !self.shard_busy(shard))
            {
                wake.at(Some(front.req.arrival_s + self.cfg.policy.max_wait_s));
            }
            for p in q {
                wake.after(Some(p.req.deadline_s));
            }
        }
        wake.after(self.sup.next_deadline_s());
        wake.timeout(self.clock.now())
    }

    fn accept(&self) -> ConnKind {
        ConnKind::Unknown
    }

    /// Parses lines (clients) or frames (shards).
    fn readable(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut (dyn FabricShardEngine + 'e),
        t: Token,
        eof: bool,
    ) -> Result<()> {
        match conns.state_mut(t) {
            Some(ConnKind::Client(_)) => self.pump_client_lines(conns, t)?,
            Some(ConnKind::Shard { .. }) => {
                self.pump_shard_frames(conns, engine, t)?;
                if eof {
                    // EOF from a worker — including one that was
                    // `kill -9`ed mid-batch.
                    self.conn_failed(conns, t);
                }
            }
            // A peer that never spoke: the table reaps it at EOF.
            Some(ConnKind::Unknown) | None => {}
        }
        Ok(())
    }

    fn failed(&mut self, conns: &mut Conns<'_, ConnKind>, t: Token) {
        self.conn_failed(conns, t);
    }

    /// Protocol timeouts, simulated replies, then death bookkeeping and
    /// dispatch to a fixpoint (a dispatch can fail a shard connection,
    /// whose re-queued batches want another dispatch).
    fn step(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut (dyn FabricShardEngine + 'e),
    ) -> Result<bool> {
        let mut progress = false;
        for shard in self.sup.expired(self.clock.now()) {
            self.shard_died(conns, engine, shard)?;
            progress = true;
        }
        progress |= self.deliver_sim_replies(conns, engine)?;
        loop {
            let dead = self.reap_dead(conns, engine)?;
            progress |= self.pump(conns, engine)? || dead;
            if self.pending_dead.is_empty() && !dead {
                break;
            }
        }
        // Relaxed on purpose: the latch is a monotonic flag guarding no
        // other memory — observers act through sockets, not shared state
        // published alongside the store.
        if !self.all_ready.load(Ordering::Relaxed) && self.sup.all_tables_ready() {
            self.all_ready.store(true, Ordering::Relaxed);
        }
        Ok(progress)
    }

    fn idle(&self, _engine: &(dyn FabricShardEngine + 'e)) -> bool {
        self.queued_total == 0 && self.inflight.is_empty()
    }

    /// Best-effort `Shutdown` frames to every live shard on exit.
    fn exit(&mut self, conns: &mut Conns<'_, ConnKind>, engine: &mut (dyn FabricShardEngine + 'e)) {
        let now = self.clock.now();
        for t in self.sup.live_tokens() {
            if let Ok(bytes) = Frame::Shutdown.encode() {
                let _ = engine.on_send(t, &Frame::Shutdown, now);
                let _ = conns.source.write(t, &bytes);
            }
        }
    }
}

impl<'a> FabricServerLoop<'a> {
    /// Pops and serves every complete client line. An oversized line
    /// (framing lost) drops the connection, as in `ServerLoop`.
    fn pump_client_lines(&mut self, conns: &mut Conns<'_, ConnKind>, t: Token) -> Result<()> {
        loop {
            let Some(ConnKind::Client(lines)) = conns.state_mut(t) else {
                return Ok(());
            };
            match lines.pop_line() {
                Ok(Some(line)) => self.handle_query_line(conns, t, &line)?,
                Ok(None) => return Ok(()),
                Err(_) => {
                    self.conn_failed(conns, t);
                    return Ok(());
                }
            }
        }
    }

    /// One client query: parse, route to a table, validate against the
    /// table's oracle, and enqueue — or refuse with an `E` line. Mirrors
    /// `ServerLoop::handle_line`'s refusal order.
    fn handle_query_line(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        t: Token,
        line: &[u8],
    ) -> Result<()> {
        let q = match codec::parse_query(line) {
            Ok(q) => q,
            Err(_) => {
                self.send(
                    conns,
                    t,
                    &codec::encode_error(&fallback_tag(line), ErrorKind::Invalid),
                );
                return Ok(());
            }
        };
        if conns.draining {
            self.send(conns, t, &codec::encode_error(&q.tag, ErrorKind::Shutdown));
            return Ok(());
        }
        let table = q
            .table
            .clone()
            .unwrap_or_else(|| self.default_table.clone());
        let Some(oracle) = self.oracles.get(&table) else {
            self.send(conns, t, &codec::encode_error(&q.tag, ErrorKind::Invalid));
            return Ok(());
        };
        if self.sup.table_state(&table) == Some(TableState::Lost) {
            self.send(conns, t, &codec::encode_error(&q.tag, ErrorKind::Shutdown));
            return Ok(());
        }
        let now = self.clock.now();
        let id = self.next_req_id;
        self.next_req_id += 1;
        if oracle.validate_indices(&q.indices).is_err() {
            self.send(conns, t, &codec::encode_error(&q.tag, ErrorKind::Invalid));
            return Ok(());
        }
        self.metrics.record_submitted();
        if self.queued_total >= self.cfg.queue_capacity {
            self.metrics.record_rejected();
            self.send(conns, t, &codec::encode_error(&q.tag, ErrorKind::Rejected));
            return Ok(());
        }
        // Refused requests never get here: the reference gather is the
        // request's most expensive step.
        let req = oracle.request_from_valid(id, now, now + self.cfg.deadline_s, q.indices)?;
        conns.owe(t);
        self.queues
            .entry(table.clone())
            .or_default()
            .push_back(PendingReq {
                req,
                conn: t,
                tag: q.tag,
                table,
            });
        self.queued_total += 1;
        self.metrics.observe_queue_depth(self.queued_total);
        Ok(())
    }

    /// Pops and handles every complete shard frame. A framing violation
    /// poisons the decoder; the shard is treated as failed.
    fn pump_shard_frames(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
        t: Token,
    ) -> Result<()> {
        loop {
            let Some(ConnKind::Shard { decoder }) = conns.state_mut(t) else {
                return Ok(());
            };
            match decoder.next_frame() {
                Ok(Some(frame)) => self.handle_shard_frame(conns, engine, t, frame)?,
                Ok(None) => return Ok(()),
                Err(_) => {
                    self.conn_failed(conns, t);
                    return Ok(());
                }
            }
        }
    }

    /// One frame from a shard connection. Protocol violations (frames
    /// from the wrong state, unknown ids) fail the connection — the shard
    /// is no longer trustworthy.
    fn handle_shard_frame(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
        t: Token,
        frame: Frame,
    ) -> Result<()> {
        let now = self.clock.now();
        match frame {
            Frame::Hello { shard_id } => match self.sup.on_hello(shard_id, t, now) {
                Ok(orders) => {
                    for o in orders {
                        self.send_load(conns, engine, &o)?;
                    }
                }
                Err(_) => self.conn_failed(conns, t),
            },
            Frame::TableReady { table } => {
                let Some(shard) = self.sup.shard_by_token(t) else {
                    self.conn_failed(conns, t);
                    return Ok(());
                };
                if self.sup.on_table_ready(shard, &table, now).is_err() {
                    self.conn_failed(conns, t);
                }
            }
            Frame::ExecDone { batch_id, flags } => {
                let Some(shard) = self.sup.shard_by_token(t) else {
                    self.conn_failed(conns, t);
                    return Ok(());
                };
                let valid = self
                    .inflight
                    .get(&batch_id)
                    .is_some_and(|b| b.shard == shard && b.items.len() == flags.len());
                if !valid {
                    self.conn_failed(conns, t);
                    return Ok(());
                }
                let Some(batch) = self.inflight.remove(&batch_id) else {
                    return Ok(());
                };
                for (item, correct) in batch.items.into_iter().zip(flags) {
                    self.metrics.record_completed(now - item.req.arrival_s);
                    let bytes = codec::encode_result(
                        &item.tag,
                        correct,
                        item.req.expected_checksum.to_bits(),
                    );
                    self.respond_to_pending(conns, &item, bytes);
                }
            }
            Frame::LoadTable { .. } | Frame::Execute { .. } | Frame::Shutdown => {
                self.conn_failed(conns, t);
            }
        }
        Ok(())
    }

    /// Sends a `LoadTable` order to its shard, if that shard has hello'd
    /// (otherwise its own `Hello` will re-collect the order).
    fn send_load(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
        order: &LoadOrder,
    ) -> Result<()> {
        let Some(token) = self.sup.token_of(order.shard) else {
            return Ok(());
        };
        let frame = Frame::LoadTable {
            table: order.table.clone(),
            seed: order.seed,
        };
        self.send_frame(conns, engine, token, &frame)
    }

    /// Encodes and sends a frame to a shard connection, giving the engine
    /// its interception hook first.
    fn send_frame(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
        t: Token,
        frame: &Frame,
    ) -> Result<()> {
        let bytes = frame.encode()?;
        engine.on_send(t, frame, self.clock.now())?;
        self.send(conns, t, &bytes);
        Ok(())
    }

    /// Feeds simulated shard replies due by now through the same decoder
    /// path real socket reads use. Returns whether anything arrived.
    fn deliver_sim_replies(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
    ) -> Result<bool> {
        let replies = engine.due_replies(self.clock.now());
        if replies.is_empty() {
            return Ok(false);
        }
        for (t, bytes) in replies {
            let Some(ConnKind::Shard { decoder }) = conns.state_mut(t) else {
                continue;
            };
            decoder.push(&bytes);
            self.pump_shard_frames(conns, engine, t)?;
        }
        Ok(true)
    }

    /// Sheds expired queued requests, error-drains lost tables, and
    /// dispatches due batches to free resident shards. Returns whether
    /// anything moved.
    fn pump(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
    ) -> Result<bool> {
        let now = self.clock.now();
        let mut progress = false;
        let tables: Vec<String> = self.queues.keys().cloned().collect();
        for table in &tables {
            // Deadline shedding (strict `now > deadline`, as everywhere).
            while let Some(q) = self.queues.get_mut(table) {
                let Some(pos) = q.iter().position(|p| p.req.expired(now)) else {
                    break;
                };
                let Some(item) = q.remove(pos) else { break };
                self.queued_total -= 1;
                self.metrics.record_deadline_exceeded();
                let bytes = codec::encode_error(&item.tag, ErrorKind::Deadline);
                self.respond_to_pending(conns, &item, bytes);
                progress = true;
            }

            let Some((shard, token)) = self.sup.route(table) else {
                if self.sup.table_state(table) == Some(TableState::Lost) {
                    // No shard can ever serve this again: error-respond
                    // rather than strand the clients, and book each as
                    // refused so the ledger still closes.
                    while let Some(item) = self.queues.get_mut(table).and_then(VecDeque::pop_front)
                    {
                        self.queued_total -= 1;
                        self.metrics.record_rejected();
                        let bytes = codec::encode_error(&item.tag, ErrorKind::Shutdown);
                        self.respond_to_pending(conns, &item, bytes);
                        progress = true;
                    }
                }
                continue;
            };
            if self.shard_busy(shard) {
                continue;
            }
            let (q_len, oldest_arrival) = match self.queues.get(table) {
                Some(q) => match q.front() {
                    Some(front) => (q.len(), front.req.arrival_s),
                    None => continue,
                },
                None => continue,
            };
            let max_batch = self.cfg.policy.max_batch;
            let due = q_len >= max_batch
                || now + 1e-12 >= oldest_arrival + self.cfg.policy.max_wait_s
                || conns.draining;
            if !due {
                continue;
            }
            let n = q_len.min(max_batch);
            let mut items = Vec::with_capacity(n);
            if let Some(q) = self.queues.get_mut(table) {
                for _ in 0..n {
                    if let Some(item) = q.pop_front() {
                        items.push(item);
                    }
                }
            }
            self.queued_total -= items.len();
            let service_s = self.service.batch_service_s(items.len())?;
            let batch_id = self.next_batch_id;
            self.next_batch_id += 1;
            let frame = Frame::Execute {
                batch_id,
                service_s,
                table: table.clone(),
                requests: items.iter().map(|p| p.req.clone()).collect(),
            };
            self.metrics.record_batch(items.len());
            self.metrics.record_shard_wakeup();
            self.inflight
                .insert(batch_id, InflightBatch { shard, items });
            self.send_frame(conns, engine, token, &frame)?;
            progress = true;
        }
        Ok(progress)
    }

    /// Death bookkeeping for one shard: the supervisor re-places its
    /// tables, its in-flight batches re-queue at the *front* of their
    /// table queues (zero lost requests, original order preserved, no
    /// double submission accounting), and re-replication orders go out to
    /// ready successors.
    fn shard_died(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
        shard: u32,
    ) -> Result<()> {
        let token = self.sup.token_of(shard);
        let orders = self.sup.mark_dead(shard, self.clock.now());
        if let Some(t) = token {
            engine.forget(t);
            conns.close(t);
        }
        let mut ids: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, b)| b.shard == shard)
            .map(|(&id, _)| id)
            .collect();
        // Re-queue newest batch first so the oldest batch ends up at the
        // very front of its queue.
        ids.sort_unstable();
        for id in ids.into_iter().rev() {
            let Some(batch) = self.inflight.remove(&id) else {
                continue;
            };
            for item in batch.items.into_iter().rev() {
                self.queues
                    .entry(item.table.clone())
                    .or_default()
                    .push_front(item);
                self.queued_total += 1;
            }
        }
        for o in orders {
            self.send_load(conns, engine, &o)?;
        }
        Ok(())
    }

    /// Processes shard connections that failed I/O since the last pass.
    fn reap_dead(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        engine: &mut dyn FabricShardEngine,
    ) -> Result<bool> {
        let mut progress = false;
        while let Some(t) = self.pending_dead.pop() {
            if let Some(shard) = self.sup.shard_by_token(t) {
                self.shard_died(conns, engine, shard)?;
                progress = true;
            }
        }
        Ok(progress)
    }

    /// Fails a connection: shard connections queue for death bookkeeping,
    /// everything else just closes (a no-op when the transport already
    /// closed it on a write failure).
    fn conn_failed(&mut self, conns: &mut Conns<'_, ConnKind>, t: Token) {
        if self.sup.shard_by_token(t).is_some() && !self.pending_dead.contains(&t) {
            self.pending_dead.push(t);
        }
        conns.close(t);
    }

    /// Queues `bytes` on `t` and flushes as far as the transport allows.
    fn send(&mut self, conns: &mut Conns<'_, ConnKind>, t: Token, bytes: &[u8]) {
        if conns.send(t, bytes) {
            self.conn_failed(conns, t);
        }
    }

    /// Delivers a response for a tracked (queued or in-flight) request to
    /// its client connection, settling what it is owed. Responses to
    /// connections that have since dropped are discarded — the work was
    /// still executed and counted.
    fn respond_to_pending(
        &mut self,
        conns: &mut Conns<'_, ConnKind>,
        item: &PendingReq,
        bytes: Vec<u8>,
    ) {
        conns.settle(item.conn);
        self.send(conns, item.conn, &bytes);
    }
}

// ---------------------------------------------------------------------------
// Runtime::serve_fabric — the multi-process front end
// ---------------------------------------------------------------------------

/// Handle to a running shard fabric: the bound address, a shutdown
/// trigger, the reactor thread's final metrics, and the worker child
/// processes (exposed so fault-injection tests can kill one).
#[derive(Debug)]
pub struct FabricHandle {
    reactor: ServeHandle,
    children: Mutex<Vec<Child>>,
    all_ready: Arc<AtomicBool>,
}

impl FabricHandle {
    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Blocks until every table has become routable at least once (all
    /// workers hello'd and finished their initial loads), polling the
    /// loop's latch. Call this before [`Self::kill_worker`]: EOF-driven
    /// death detection needs the victim to have *connected* — a worker
    /// killed before its `Hello` leaves no socket to close, and only the
    /// (virtual-time) hello timeout would ever reclaim its tables.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if `timeout` (real time) elapses first.
    pub fn wait_all_ready(&self, timeout: Duration) -> Result<()> {
        let start = Instant::now();
        while !self.all_ready.load(Ordering::Relaxed) {
            if start.elapsed() > timeout {
                return Err(ServeError::Io {
                    detail: format!(
                        "fabric tables not all ready within {:.1}s",
                        timeout.as_secs_f64()
                    ),
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Kills worker `idx` with SIGKILL and reaps it — the fault-injection
    /// tests' `kill -9`. The supervisor sees the EOF and re-replicates.
    /// Wait on [`Self::wait_all_ready`] first if the test relies on
    /// EOF-driven detection rather than the hello timeout.
    ///
    /// # Errors
    ///
    /// Unknown index, or kill/wait failures.
    pub fn kill_worker(&self, idx: usize) -> Result<()> {
        let mut kids = self
            .children
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(child) = kids.get_mut(idx) else {
            return Err(ServeError::Config {
                detail: format!("no fabric worker {idx}"),
            });
        };
        child
            .kill()
            .map_err(ServeError::from_io("kill fabric worker"))?;
        child
            .wait()
            .map_err(ServeError::from_io("reap fabric worker"))?;
        Ok(())
    }

    /// Signals drain, waits for in-flight work to finish, reaps the
    /// worker processes, and returns the run's metrics (with the
    /// reactor's stats attached).
    ///
    /// # Errors
    ///
    /// Propagates reactor-loop failures.
    pub fn shutdown(self) -> Result<MetricsSnapshot> {
        let result = self.reactor.shutdown();
        let mut kids = self
            .children
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Workers exit on their Shutdown frame or the closed socket; the
        // kill is a belt-and-braces reap for ones that never connected.
        kill_all(&mut kids);
        result
    }
}

fn kill_all(children: &mut Vec<Child>) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

impl Runtime {
    /// Serves the line protocol (with table routing) on `listener` from a
    /// dedicated reactor thread, executing batches on `fabric.num_shards`
    /// worker *processes* spawned from `worker_argv` (program plus leading
    /// arguments; the worker's address, shard id, speedup, and
    /// [`WorkerSpec`] JSON are appended). `tables` are (name, build-seed)
    /// pairs placed by consistent hashing; the first is the default route.
    ///
    /// # Errors
    ///
    /// Configuration validation, poller construction, listener
    /// registration, or worker spawn failures (already-spawned workers are
    /// killed before returning).
    pub fn serve_fabric(
        self: &Arc<Self>,
        listener: TcpListener,
        speedup: f64,
        fabric: FabricConfig,
        tables: Vec<(String, u64)>,
        worker_argv: Vec<String>,
    ) -> Result<FabricHandle> {
        fabric.validate()?;
        let Some(program) = worker_argv.first() else {
            return Err(ServeError::Config {
                detail: "serve_fabric needs a worker argv (program + args)".to_string(),
            });
        };
        let addr = listener
            .local_addr()
            .map_err(ServeError::from_io("local_addr"))?;
        let spec = WorkerSpec {
            platform: self.service_model().engine().platform().clone(),
            lut: self.config().lut,
        };
        let spec_json = serde_json::to_string(&spec).map_err(|e| ServeError::Config {
            detail: format!("encode worker spec: {e}"),
        })?;
        let mut children: Vec<Child> = Vec::with_capacity(fabric.num_shards);
        for shard in 0..fabric.num_shards {
            let spawned = Command::new(program)
                .args(&worker_argv[1..])
                .arg(addr.to_string())
                .arg(shard.to_string())
                .arg(format!("{speedup}"))
                .arg(&spec_json)
                .stdin(Stdio::null())
                .spawn();
            match spawned {
                Ok(child) => children.push(child),
                Err(e) => {
                    kill_all(&mut children);
                    return Err(ServeError::Io {
                        detail: format!("spawn fabric worker {shard}: {e}"),
                    });
                }
            }
        }

        let all_ready = Arc::new(AtomicBool::new(false));
        let ready_flag = Arc::clone(&all_ready);
        // No in-process shard threads: the workers are the child processes.
        let run = move |rt: &Runtime, r: &mut conn::Reactor| {
            let (clock, metrics) = (Arc::clone(&r.clock), Arc::clone(&r.metrics));
            FabricServerLoop::new(rt, fabric, &tables, clock, metrics)?
                .with_ready_flag(ready_flag)
                .run(&mut r.poller, &mut ProcessShardEngine)
        };
        match conn::spawn_reactor(self, "pimdl-serve-fabric", listener, speedup, run) {
            Ok(reactor) => Ok(FabricHandle {
                reactor,
                children: Mutex::new(children),
                all_ready,
            }),
            Err(e) => {
                kill_all(&mut children);
                Err(e)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// Longest real-time sleep a worker will take for one batch, regardless
/// of the simulated service time (keeps a mis-calibrated cost model from
/// wedging a worker).
const MAX_WORKER_SLEEP_S: f64 = 60.0;

/// Entry point of a shard worker process: connects to the front end,
/// sends `Hello`, then serves `LoadTable`/`Execute` frames (building
/// replicas deterministically from their seeds and sleeping each batch's
/// service time scaled by `speedup`) until `Shutdown` or EOF.
///
/// Blocking std-only I/O on purpose: the worker is a leaf process, and a
/// blocked read *is* its idle state.
///
/// # Errors
///
/// Invalid arguments/spec, connection failures, framing violations, or
/// execution failures. EOF from the front end is a clean exit.
pub fn shard_worker_main(addr: &str, shard_id: u32, speedup: f64, spec_json: &str) -> Result<()> {
    if !speedup.is_finite() || speedup <= 0.0 {
        return Err(ServeError::Config {
            detail: format!("worker speedup must be finite and > 0, got {speedup}"),
        });
    }
    let spec: WorkerSpec = serde_json::from_str(spec_json).map_err(|e| ServeError::Config {
        detail: format!("decode worker spec: {e}"),
    })?;
    spec.platform.validate().map_err(|e| ServeError::Config {
        detail: format!("worker spec: {e}"),
    })?;
    ReplicaModel::check_workload(&spec.lut).map_err(|e| ServeError::Config {
        detail: format!("worker spec: {e}"),
    })?;
    let engine = PimDlEngine::new(spec.platform);
    let mut stream =
        TcpStream::connect(addr).map_err(ServeError::from_io("connect fabric front end"))?;
    let _ = stream.set_nodelay(true);
    let hello = Frame::Hello { shard_id }.encode()?;
    stream
        .write_all(&hello)
        .map_err(ServeError::from_io("send Hello"))?;

    let mut decoder = FrameDecoder::new();
    let mut replicas: BTreeMap<String, ReplicaModel> = BTreeMap::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(ServeError::from_io("read fabric frame"))?;
        if n == 0 {
            return Ok(()); // front end went away: clean exit
        }
        decoder.push(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Err(e) => return Err(e.into()),
                Ok(Some(Frame::LoadTable { table, seed })) => {
                    let replica = ReplicaModel::build(&engine, spec.lut, seed)?;
                    replicas.insert(table.clone(), replica);
                    let out = Frame::TableReady { table }.encode()?;
                    stream
                        .write_all(&out)
                        .map_err(ServeError::from_io("send TableReady"))?;
                }
                Ok(Some(Frame::Execute {
                    batch_id,
                    service_s,
                    table,
                    requests,
                })) => {
                    let Some(replica) = replicas.get(&table) else {
                        return Err(ServeError::Io {
                            detail: format!("Execute for unloaded table {table:?}"),
                        });
                    };
                    let flags = replica.execute_batch(&requests)?;
                    if service_s.is_finite() && service_s > 0.0 {
                        let real_s = (service_s / speedup).min(MAX_WORKER_SLEEP_S);
                        std::thread::sleep(Duration::from_secs_f64(real_s));
                    }
                    let out = Frame::ExecDone { batch_id, flags }.encode()?;
                    stream
                        .write_all(&out)
                        .map_err(ServeError::from_io("send ExecDone"))?;
                }
                Ok(Some(Frame::Shutdown)) => return Ok(()),
                Ok(Some(other)) => {
                    return Err(ServeError::Io {
                        detail: format!("worker got unexpected frame {other:?}"),
                    });
                }
            }
        }
    }
}

/// Worker-process entry behind a worker argv: parses the four operands
/// [`Runtime::serve_fabric`] appends to it — `<addr> <shard_id> <speedup>
/// <worker-spec-json>` — and hands them to [`shard_worker_main`]. The
/// `fabric_shard` binary and `serve_demo`'s self-exec worker mode call
/// this.
///
/// # Errors
///
/// The outer `Err` is a malformed argv (a usage error: nothing was
/// started); the inner result is the worker's own.
pub fn worker_entry(args: &[String]) -> std::result::Result<Result<()>, String> {
    let [addr, shard_id, speedup, spec_json] = args else {
        return Err(format!(
            "need <addr> <shard_id> <speedup> <worker-spec-json>, got {} operands",
            args.len()
        ));
    };
    let shard_id: u32 = shard_id
        .parse()
        .map_err(|e| format!("bad shard id {shard_id:?}: {e}"))?;
    let speedup: f64 = speedup
        .parse()
        .map_err(|e| format!("bad speedup {speedup:?}: {e}"))?;
    Ok(shard_worker_main(addr, shard_id, speedup, spec_json))
}

// ---------------------------------------------------------------------------
// Loopback calibration
// ---------------------------------------------------------------------------

/// Measures the mean round-trip time of echoing `payload_bytes` over a
/// real loopback TCP connection (`iters` round trips after a short
/// warm-up). Two measurements at different sizes feed
/// [`pimdl_sim::NetworkModel::calibrate`], giving the DES a
/// machine-specific network cost model.
///
/// # Errors
///
/// `iters == 0`, or socket failures.
pub fn measure_loopback_rtt(payload_bytes: usize, iters: usize) -> Result<f64> {
    if iters == 0 {
        return Err(ServeError::Config {
            detail: "loopback RTT needs iters >= 1".to_string(),
        });
    }
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(ServeError::from_io("bind loopback"))?;
    let addr = listener
        .local_addr()
        .map_err(ServeError::from_io("local_addr"))?;
    let echo = std::thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        }
    });
    let run = (|| -> Result<f64> {
        let mut s = TcpStream::connect(addr).map_err(ServeError::from_io("connect loopback"))?;
        let _ = s.set_nodelay(true);
        let payload = vec![0xA5u8; payload_bytes.max(1)];
        let mut back = vec![0u8; payload.len()];
        for _ in 0..2 {
            s.write_all(&payload)
                .map_err(ServeError::from_io("loopback write"))?;
            s.read_exact(&mut back)
                .map_err(ServeError::from_io("loopback read"))?;
        }
        let start = Instant::now();
        for _ in 0..iters {
            s.write_all(&payload)
                .map_err(ServeError::from_io("loopback write"))?;
            s.read_exact(&mut back)
                .map_err(ServeError::from_io("loopback read"))?;
        }
        Ok(start.elapsed().as_secs_f64() / iters as f64)
    })();
    let _ = echo.join();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { shard_id: 7 },
            Frame::LoadTable {
                table: "bert.ffn1".to_string(),
                seed: 0xDEAD_BEEF,
            },
            Frame::TableReady {
                table: "bert.ffn1".to_string(),
            },
            Frame::Execute {
                batch_id: 42,
                service_s: 1.5e-3,
                table: "bert.ffn1".to_string(),
                requests: vec![Request {
                    id: 9,
                    arrival_s: 0.25,
                    deadline_s: f64::INFINITY,
                    indices: vec![0, 3, 1, 2],
                    expected_checksum: -12.5,
                }],
            },
            Frame::ExecDone {
                batch_id: 42,
                flags: vec![true, false, true],
            },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        let mut decoder = FrameDecoder::new();
        for frame in sample_frames() {
            let bytes = frame.encode().unwrap();
            decoder.push(&bytes);
            assert_eq!(decoder.next_frame().unwrap(), Some(frame));
            assert_eq!(decoder.pending(), 0);
        }
        assert_eq!(decoder.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_delivery_round_trips() {
        let mut decoder = FrameDecoder::new();
        let frames = sample_frames();
        let mut out = Vec::new();
        for frame in &frames {
            for &b in &frame.encode().unwrap() {
                decoder.push(&[b]);
                while let Some(f) = decoder.next_frame().unwrap() {
                    out.push(f);
                }
            }
        }
        assert_eq!(out, frames);
    }

    #[test]
    fn truncated_frames_wait_instead_of_erroring() {
        let bytes = sample_frames()[3].encode().unwrap();
        for cut in 0..bytes.len() {
            let mut d = FrameDecoder::new();
            d.push(&bytes[..cut]);
            assert_eq!(d.next_frame().unwrap(), None, "cut at {cut}");
            d.push(&bytes[cut..]);
            assert!(d.next_frame().unwrap().is_some(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_crc_poisons_with_exactly_one_error() {
        let mut bytes = sample_frames()[1].encode().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        let e = d.next_frame().unwrap_err();
        assert!(e.detail.contains("CRC"), "{e}");
        // Poisoned: even a pristine frame afterwards yields nothing.
        d.push(&sample_frames()[0].encode().unwrap());
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn payload_corruption_fails_the_crc() {
        let mut bytes = sample_frames()[3].encode().unwrap();
        bytes[HEADER_LEN + 2] ^= 0x40;
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn version_mismatch_is_fatal() {
        let mut bytes = sample_frames()[0].encode().unwrap();
        bytes[2] = FRAME_VERSION + 1;
        // Re-stamp the CRC so only the version is wrong.
        let crc_at = bytes.len() - TRAILER_LEN;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        let e = d.next_frame().unwrap_err();
        assert!(e.detail.contains("version"), "{e}");
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn bad_magic_is_fatal_on_the_first_byte() {
        let mut d = FrameDecoder::new();
        d.push(b"GET / HTTP/1.1\r\n");
        assert!(d.next_frame().is_err());
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_field_is_fatal_before_buffering() {
        let mut bytes = vec![FRAME_MAGIC[0], FRAME_MAGIC[1], FRAME_VERSION, KIND_SHUTDOWN];
        bytes.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        let e = d.next_frame().unwrap_err();
        assert!(e.detail.contains("cap"), "{e}");
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_fatal() {
        // Unknown kind with a valid CRC.
        let mut bytes = vec![FRAME_MAGIC[0], FRAME_MAGIC[1], FRAME_VERSION, 99];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        assert!(d.next_frame().unwrap_err().detail.contains("kind"));

        // Shutdown with a stray payload byte, CRC re-stamped.
        let mut bytes = vec![FRAME_MAGIC[0], FRAME_MAGIC[1], FRAME_VERSION, KIND_SHUTDOWN];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0xFF);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.push(&bytes);
        assert!(d.next_frame().unwrap_err().detail.contains("trailing"));
    }

    #[test]
    fn crc_matches_the_ieee_reference_vector() {
        // The classic check value for CRC-32/IEEE ("123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn worker_spec_round_trips_json() {
        let spec = WorkerSpec {
            platform: PlatformConfig::upmem(),
            lut: LutWorkload {
                n: 8,
                cb: 8,
                ct: 16,
                f: 32,
            },
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkerSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.platform, spec.platform);
        assert_eq!(back.lut, spec.lut);
    }

    #[test]
    fn worker_refuses_an_out_of_range_platform_before_connecting() {
        let spec = WorkerSpec {
            platform: PlatformConfig::upmem(),
            lut: LutWorkload::new(8, 8, 16, 32).unwrap(),
        };
        let json = serde_json::to_string(&spec)
            .unwrap()
            .replace("\"num_pes\":1024", &format!("\"num_pes\":{}", usize::MAX));
        // Port 1 refuses connections: only a refusal before connecting is
        // a Config error naming the field.
        match shard_worker_main("127.0.0.1:1", 0, 1.0, &json) {
            Err(ServeError::Config { detail }) => assert!(detail.contains("num_pes"), "{detail}"),
            other => panic!("expected a platform refusal, got {other:?}"),
        }
    }

    #[test]
    fn worker_refuses_a_zero_lut_dimension_before_connecting() {
        let spec = WorkerSpec {
            platform: PlatformConfig::upmem(),
            lut: LutWorkload::new(8, 8, 16, 32).unwrap(),
        };
        let json = serde_json::to_string(&spec).unwrap();
        for (field, old) in [("n", 8), ("cb", 8), ("ct", 16), ("f", 32)] {
            let edited = json.replacen(&format!("\"{field}\":{old}"), &format!("\"{field}\":0"), 1);
            assert_ne!(edited, json, "{field}");
            // Port 1 refuses connections: a Config error is a refusal
            // before connecting.
            match shard_worker_main("127.0.0.1:1", 0, 1.0, &edited) {
                Err(ServeError::Config { detail }) => {
                    assert!(detail.contains("zero dimension"), "{detail}")
                }
                other => panic!("{field} = 0: expected a spec refusal, got {other:?}"),
            }
        }
        // A shape that loads but is too large to build is refused there too.
        let wide = json.replacen("\"f\":32", &format!("\"f\":{}", 1u64 << 40), 1);
        match shard_worker_main("127.0.0.1:1", 0, 1.0, &wide) {
            Err(ServeError::Config { detail }) => assert!(detail.contains("table"), "{detail}"),
            other => panic!("expected a spec refusal, got {other:?}"),
        }
    }

    #[test]
    fn worker_entry_rejects_malformed_argv() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(worker_entry(&argv(&["only-three", "args", "here"])).is_err());
        assert!(worker_entry(&argv(&["127.0.0.1:1", "not-a-number", "1.0", "{}"])).is_err());
        assert!(worker_entry(&argv(&["127.0.0.1:1", "0", "fast", "{}"])).is_err());
        // A well-formed argv reaches the worker, whose own refusals (here
        // a zero speedup, checked before anything connects) are its result.
        assert!(matches!(
            worker_entry(&argv(&["127.0.0.1:1", "0", "0", "{}"])),
            Ok(Err(ServeError::Config { .. }))
        ));
    }

    #[test]
    fn loopback_rtt_is_positive_and_scales_sanely() {
        let small = measure_loopback_rtt(64, 8).unwrap();
        assert!(small > 0.0 && small < 1.0, "implausible RTT {small}");
        assert!(measure_loopback_rtt(64, 0).is_err());
    }
}
