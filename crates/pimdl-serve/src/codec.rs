//! Line-delimited wire protocol for the serving front end.
//!
//! One request / response per `\n`-terminated line, ASCII only, so the
//! protocol is inspectable with `nc` and trivially scriptable in the
//! deterministic tests:
//!
//! ```text
//! client → server:  Q <tag> <i1>,<i2>,...,<ik> [table]\n
//! server → client:  R <tag> ok|bad <checksum-bits-hex>\n
//!                   E <tag> rejected|deadline|invalid|shutdown\n
//! ```
//!
//! `<tag>` is an opaque client-chosen identifier echoed back verbatim, so
//! clients can pipeline. The checksum is the f64 host-reference checksum's
//! IEEE-754 bit pattern in hex — exact, no float formatting ambiguity.
//! The optional trailing `[table]` names the LUT table the query targets
//! (the shard-fabric front end routes on it, DESIGN.md §13); queries
//! without it go to the server's default table.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use crate::error::ServeError;
use crate::Result;

/// Longest accepted line in bytes (a flood-control guard; the benchmark's
/// largest query, 32 rows × 192 codebooks of 1-2 digit indices, is about
/// 14.5 KB).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Why the server refused to answer a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The admission queue was full.
    Rejected,
    /// The request's deadline expired before service.
    Deadline,
    /// The query line failed to parse.
    Invalid,
    /// The server is draining and no longer takes queries.
    Shutdown,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Rejected => "rejected",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "rejected" => ErrorKind::Rejected,
            "deadline" => ErrorKind::Deadline,
            "invalid" => ErrorKind::Invalid,
            "shutdown" => ErrorKind::Shutdown,
            _ => return None,
        })
    }
}

/// A parsed server → client line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// A completed query (`R` line).
    Result {
        /// The client's tag, echoed.
        tag: String,
        /// Whether the PIM result matched the host reference checksum.
        correct: bool,
        /// IEEE-754 bits of the checksum the server computed.
        checksum_bits: u64,
    },
    /// A refused query (`E` line).
    Error {
        /// The client's tag, echoed.
        tag: String,
        /// Refusal reason.
        kind: ErrorKind,
    },
}

/// A parsed client → server query line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Opaque client identifier, echoed in the response.
    pub tag: String,
    /// LUT row indices to execute.
    pub indices: Vec<u16>,
    /// Target LUT table (fabric routing); `None` means the default table.
    pub table: Option<String>,
}

fn valid_tag(tag: &str) -> bool {
    !tag.is_empty()
        && tag.len() <= 64
        && tag
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

/// Encodes a query line (includes the trailing `\n`, ready to write).
pub fn encode_query(tag: &str, indices: &[u16]) -> Vec<u8> {
    encode_query_for(tag, indices, None)
}

/// Encodes a query line targeting a named table (fabric routing); `None`
/// produces the plain three-field form.
pub fn encode_query_for(tag: &str, indices: &[u16], table: Option<&str>) -> Vec<u8> {
    let idx = indices
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    match table {
        Some(t) => format!("Q {tag} {idx} {t}\n").into_bytes(),
        None => format!("Q {tag} {idx}\n").into_bytes(),
    }
}

/// Longest prefix of untrusted text an error detail quotes: a bad line
/// can be up to [`MAX_LINE_BYTES`] long, and its error needs only enough
/// to recognise it.
const DETAIL_PREFIX: usize = 32;

/// A bounded rendering of untrusted text for an error detail: at most
/// [`DETAIL_PREFIX`] bytes, escaped, then the total length when cut.
fn preview(text: &str) -> String {
    let cut = text.floor_char_boundary(DETAIL_PREFIX);
    if cut == text.len() {
        format!("{text:?}")
    } else {
        format!("{:?}... ({} bytes)", &text[..cut], text.len())
    }
}

/// Parses a `Q` line (already stripped of its newline).
///
/// The index field is read in one byte pass: ASCII `<i1>,<i2>,...`, each
/// index a non-empty run of decimal digits whose value is at most 65535
/// (leading zeros allowed, as `u16::from_str` allows them). No sign, no
/// whitespace, no empty index.
///
/// # Errors
///
/// Returns [`ServeError::Io`] on malformed syntax, a bad tag or table
/// name, or an index field outside that grammar. Each error's detail
/// quotes at most a short prefix of the offending text.
pub fn parse_query(line: &[u8]) -> Result<Query> {
    let text = std::str::from_utf8(line).map_err(|_| ServeError::Io {
        detail: "query line is not UTF-8".into(),
    })?;
    let mut parts = text.splitn(4, ' ');
    let (kind, tag, rest) = (parts.next(), parts.next(), parts.next());
    let (Some("Q"), Some(tag), Some(rest)) = (kind, tag, rest) else {
        return Err(ServeError::Io {
            detail: format!("malformed query line: {}", preview(text)),
        });
    };
    if !valid_tag(tag) {
        return Err(ServeError::Io {
            detail: format!("invalid query tag: {}", preview(tag)),
        });
    }
    let table = match parts.next() {
        // Table names share the tag charset (they also travel in fabric
        // frames and metrics labels).
        Some(t) if valid_tag(t) => Some(t.to_string()),
        Some(t) => {
            return Err(ServeError::Io {
                detail: format!("invalid table name in query {tag}: {}", preview(t)),
            });
        }
        None => None,
    };
    let indices = parse_indices(rest.as_bytes()).ok_or_else(|| ServeError::Io {
        detail: format!("unparsable indices in query {tag}: {}", preview(rest)),
    })?;
    Ok(Query {
        tag: tag.to_string(),
        indices,
        table,
    })
}

/// The index field `<i1>,<i2>,...` of a query, or `None` outside the
/// grammar [`parse_query`] states. Sized from the field length: every
/// index but the last takes at least two bytes with its comma.
fn parse_indices(field: &[u8]) -> Option<Vec<u16>> {
    let mut indices = Vec::with_capacity(field.len() / 2 + 1);
    let mut index: Option<u16> = None;
    for &b in field {
        if b == b',' {
            indices.push(index.take()?);
        } else if b.is_ascii_digit() {
            let digit = u16::from(b - b'0');
            index = Some(index.unwrap_or(0).checked_mul(10)?.checked_add(digit)?);
        } else {
            return None;
        }
    }
    indices.push(index?);
    Some(indices)
}

/// Encodes an `R` result line (includes the `\n`).
pub fn encode_result(tag: &str, correct: bool, checksum_bits: u64) -> Vec<u8> {
    let verdict = if correct { "ok" } else { "bad" };
    format!("R {tag} {verdict} {checksum_bits:016x}\n").into_bytes()
}

/// Encodes an `E` error line (includes the `\n`).
pub fn encode_error(tag: &str, kind: ErrorKind) -> Vec<u8> {
    format!("E {tag} {}\n", kind.as_str()).into_bytes()
}

/// Parses a server → client line (already stripped of its newline).
///
/// # Errors
///
/// Returns [`ServeError::Io`] on malformed lines.
pub fn parse_server_msg(line: &[u8]) -> Result<ServerMsg> {
    let text = std::str::from_utf8(line).map_err(|_| ServeError::Io {
        detail: "server line is not UTF-8".into(),
    })?;
    let fields: Vec<&str> = text.split(' ').collect();
    match fields.as_slice() {
        ["R", tag, verdict, bits] if matches!(*verdict, "ok" | "bad") => {
            let checksum_bits = u64::from_str_radix(bits, 16).map_err(|_| ServeError::Io {
                detail: format!("bad checksum bits in result line: {text:?}"),
            })?;
            Ok(ServerMsg::Result {
                tag: (*tag).to_string(),
                correct: *verdict == "ok",
                checksum_bits,
            })
        }
        ["E", tag, kind] => match ErrorKind::parse(kind) {
            Some(kind) => Ok(ServerMsg::Error {
                tag: (*tag).to_string(),
                kind,
            }),
            None => Err(ServeError::Io {
                detail: format!("unknown error kind in line: {text:?}"),
            }),
        },
        _ => Err(ServeError::Io {
            detail: format!("malformed server line: {text:?}"),
        }),
    }
}

/// Incremental line splitter over a byte stream: push chunks as they
/// arrive, pop complete lines (newline stripped, trailing `\r` trimmed).
///
/// Popping a line only advances a read offset, so it costs the line's
/// length whatever is buffered behind it; the consumed prefix is dropped
/// by [`push`](Self::push) once it is at least half the buffer, so a
/// compaction moves no more bytes than it drops.
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the first byte not yet returned in a line.
    start: usize,
    /// End of the bytes already searched for a newline (`>= start`).
    scanned: usize,
}

impl LineBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        LineBuffer::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete line, if any.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] once the pending partial line exceeds
    /// [`MAX_LINE_BYTES`] (the caller should drop the connection).
    pub fn pop_line(&mut self) -> Result<Option<Vec<u8>>> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let end = self.scanned + rel;
                let line = &self.buf[self.start..end];
                let line = line.strip_suffix(b"\r").unwrap_or(line).to_vec();
                self.start = end + 1;
                self.scanned = self.start;
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.pending() > MAX_LINE_BYTES {
                    return Err(ServeError::Io {
                        detail: format!(
                            "line exceeds {MAX_LINE_BYTES} bytes ({} pending)",
                            self.pending()
                        ),
                    });
                }
                Ok(None)
            }
        }
    }

    /// Bytes buffered but not yet returned as a line.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// A minimal blocking client for the line protocol, used by the example
/// and the loopback tests.
#[derive(Debug)]
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    /// Connects to a serving listener.
    ///
    /// # Errors
    ///
    /// Propagates connect / handle-duplication failures.
    pub fn connect(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(ServeError::from_io("connect"))?;
        let writer = stream
            .try_clone()
            .map_err(ServeError::from_io("clone stream"))?;
        Ok(LineClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one query line.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, tag: &str, indices: &[u16]) -> Result<()> {
        self.send_to(tag, indices, None)
    }

    /// Sends one query line targeting a named table (fabric routing).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_to(&mut self, tag: &str, indices: &[u16], table: Option<&str>) -> Result<()> {
        self.writer
            .write_all(&encode_query_for(tag, indices, table))
            .map_err(ServeError::from_io("send query"))
    }

    /// Blocks until the next server message arrives.
    ///
    /// # Errors
    ///
    /// Fails on EOF before a full line or on a malformed line.
    pub fn recv(&mut self) -> Result<ServerMsg> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(ServeError::from_io("recv"))?;
        if n == 0 {
            return Err(ServeError::Io {
                detail: "server closed the connection".into(),
            });
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        parse_server_msg(trimmed.as_bytes())
    }

    /// Sends a query and waits for its reply (assumes no pipelining on
    /// this connection).
    ///
    /// # Errors
    ///
    /// Propagates send/recv failures.
    pub fn query(&mut self, tag: &str, indices: &[u16]) -> Result<ServerMsg> {
        self.send(tag, indices)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trips() {
        let line = encode_query("req-7", &[1, 2, 300]);
        assert_eq!(line, b"Q req-7 1,2,300\n");
        let q = parse_query(&line[..line.len() - 1]).unwrap();
        assert_eq!(q.tag, "req-7");
        assert_eq!(q.indices, vec![1, 2, 300]);
        assert_eq!(q.table, None);
    }

    #[test]
    fn table_routed_query_round_trips() {
        let line = encode_query_for("req-8", &[4, 5], Some("bert.ffn1"));
        assert_eq!(line, b"Q req-8 4,5 bert.ffn1\n");
        let q = parse_query(&line[..line.len() - 1]).unwrap();
        assert_eq!(q.tag, "req-8");
        assert_eq!(q.indices, vec![4, 5]);
        assert_eq!(q.table.as_deref(), Some("bert.ffn1"));
    }

    #[test]
    fn malformed_queries_are_rejected() {
        for bad in [
            &b"R x ok 0"[..],
            b"Q",
            b"Q tag",
            b"Q tag ",
            b"Q tag 1,a,3",
            b"Q tag 99999999",
            b"Q bad tag 1",
            b"Q \xff 1",
            b"Q tag 1,2 bad~table",
            b"Q tag 1,2 table extra",
            b"Q tag +1",
            b"Q tag 1,\t2",
            b"Q tag 1,,2",
            b"Q tag ,1",
            b"Q tag 1,",
            b"Q tag 65536",
        ] {
            assert!(parse_query(bad).is_err(), "accepted {bad:?}");
        }
        let q = parse_query(b"Q tag 0,007,65535").unwrap();
        assert_eq!(q.indices, vec![0, 7, 65535]);
    }

    #[test]
    fn parse_errors_quote_a_bounded_prefix() {
        // A near-cap bad line: every detail stays short whichever field
        // is at fault.
        let long = vec![b'7'; 60_000];
        let lines = [
            [&b"Q tag 1,"[..], &long, b"x"].concat(),
            [&b"Q "[..], &long, b" 1"].concat(),
            [&b"Q tag 1 "[..], &long, b"~"].concat(),
            [&b"X "[..], &long].concat(),
        ];
        for line in &lines {
            let ServeError::Io { detail } = parse_query(line).unwrap_err() else {
                panic!("parse errors are Io errors");
            };
            assert!(detail.len() < 160, "{} byte detail", detail.len());
        }
    }
    #[test]
    fn server_messages_round_trip() {
        let bits = 1.25f64.to_bits();
        let r = encode_result("t1", true, bits);
        assert_eq!(
            parse_server_msg(&r[..r.len() - 1]).unwrap(),
            ServerMsg::Result {
                tag: "t1".into(),
                correct: true,
                checksum_bits: bits
            }
        );
        let e = encode_error("t2", ErrorKind::Deadline);
        assert_eq!(
            parse_server_msg(&e[..e.len() - 1]).unwrap(),
            ServerMsg::Error {
                tag: "t2".into(),
                kind: ErrorKind::Deadline
            }
        );
        assert!(parse_server_msg(b"R t1 maybe 0").is_err());
        assert!(parse_server_msg(b"E t2 what").is_err());
    }

    #[test]
    fn line_buffer_splits_partial_chunks() {
        let mut lb = LineBuffer::new();
        lb.push(b"Q a 1\r\nQ b");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"Q a 1");
        assert_eq!(lb.pop_line().unwrap(), None);
        lb.push(b" 2\nQ c 3\n");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"Q b 2");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"Q c 3");
        assert_eq!(lb.pop_line().unwrap(), None);
        assert_eq!(lb.pending(), 0);
    }

    #[test]
    fn line_buffer_interleaves_partial_chunks() {
        // Lines pushed in pieces that straddle line ends, popped between
        // pushes, with whole lines left buffered behind the one popped.
        let lines: Vec<Vec<u8>> = (0..40)
            .map(|i| format!("Q t{i} {}", "1,".repeat(i * 7) + "9").into_bytes())
            .collect();
        let stream: Vec<u8> = lines
            .iter()
            .flat_map(|l| [&l[..], b"\n"].concat())
            .collect();
        let mut lb = LineBuffer::new();
        let mut popped = Vec::new();
        for (k, piece) in stream.chunks(37).enumerate() {
            lb.push(piece);
            // Pop at most one line per push for a while, so a backlog
            // builds up; then drain.
            let want = if k < 20 { 1 } else { usize::MAX };
            for _ in 0..want {
                match lb.pop_line().unwrap() {
                    Some(line) => popped.push(line),
                    None => break,
                }
            }
        }
        while let Some(line) = lb.pop_line().unwrap() {
            popped.push(line);
        }
        assert_eq!(popped, lines);
        assert_eq!(lb.pending(), 0);
    }

    #[test]
    fn line_buffer_caps_runaway_lines() {
        let mut lb = LineBuffer::new();
        lb.push(&vec![b'x'; MAX_LINE_BYTES + 1]);
        assert!(lb.pop_line().is_err());
    }

    #[test]
    fn line_buffer_cap_counts_only_the_partial_line() {
        // Popped lines, even ones still in the buffer's storage, do not
        // count against the cap: only the pending partial line does.
        let mut lb = LineBuffer::new();
        let line = [vec![b'x'; MAX_LINE_BYTES - 1], b"\n".to_vec()].concat();
        lb.push(&line);
        lb.push(&line);
        lb.push(&vec![b'y'; MAX_LINE_BYTES]);
        assert_eq!(lb.pop_line().unwrap().unwrap().len(), MAX_LINE_BYTES - 1);
        assert_eq!(lb.pop_line().unwrap().unwrap().len(), MAX_LINE_BYTES - 1);
        assert_eq!(lb.pop_line().unwrap(), None);
        assert_eq!(lb.pending(), MAX_LINE_BYTES);
        lb.push(b"y");
        assert!(lb.pop_line().is_err());
    }
}
