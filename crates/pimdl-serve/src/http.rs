//! Minimal hand-rolled HTTP/1.1 for the serving front end (std-only).
//!
//! The wire format the multi-tenant registry speaks:
//!
//! ```text
//! POST /v1/models/{name}/infer     body: "i1,i2,...,ik" (CSV of LUT indices)
//! GET  /healthz                    liveness probe
//! GET  /metrics                    Prometheus text format (chunked)
//! ```
//!
//! The pieces here are deliberately transport-agnostic: [`HttpParser`] is
//! an incremental byte-stream state machine (push chunks, pop complete
//! requests), and the response writers return byte vectors — so the same
//! code runs under the real [`crate::reactor::EpollPoller`] and the
//! deterministic [`crate::reactor::SimPoller`] with zero divergence.
//!
//! Parsing is strict where it guards resources (header/body caps → 431 /
//! 413, unsupported request bodies → 501, unknown versions → 505) and
//! lenient where real clients vary (bare-LF line endings, case-insensitive
//! header names, whitespace around `Content-Length`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use crate::codec;
use crate::error::ServeError;
use crate::Result;

/// Default cap on the request head (request line + headers) in bytes;
/// exceeding it yields `431 Request Header Fields Too Large`.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Default cap on a request body in bytes; exceeding it yields
/// `413 Content Too Large`.
pub const MAX_BODY_BYTES: usize = 256 * 1024;
/// Cap on the number of header fields per request.
pub const MAX_HEADER_FIELDS: usize = 64;
/// Cap on a single chunk in a chunked response the client reads; a
/// server announcing more is framing garbage, not a bigger buffer.
pub const MAX_CLIENT_CHUNK_BYTES: usize = 1024 * 1024;
/// Cap on a response body the client buffers, whether announced via
/// Content-Length or accumulated across chunks.
pub const MAX_CLIENT_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Parser resource limits (the flood-control half of the state machine).
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Max bytes in the request head before `431`.
    pub max_header_bytes: usize,
    /// Max declared `Content-Length` before `413`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_header_bytes: MAX_HEADER_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub target: String,
    /// Whether the request was HTTP/1.1 (`false` = HTTP/1.0).
    pub http11: bool,
    /// Header fields in arrival order (names lower-cased, values trimmed).
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection stays open after this exchange:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// A request the parser refused: the status to answer with and whether the
/// connection can recover (`false` = the byte stream is unframed past this
/// point, so the server must close after responding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpParseError {
    /// HTTP status to reply with (400/413/431/501/505).
    pub status: u16,
    /// Human-readable refusal cause (becomes the response body).
    pub detail: String,
}

impl HttpParseError {
    fn new(status: u16, detail: impl Into<String>) -> Self {
        HttpParseError {
            status,
            detail: detail.into(),
        }
    }
}

#[derive(Debug)]
enum ParseState {
    /// Collecting the request head.
    Head,
    /// Head parsed; waiting for `need` more body bytes.
    Body { head: HttpRequest, need: usize },
    /// A fatal framing error was reported; no further requests come out.
    Poisoned,
}

/// Incremental HTTP/1.1 request parser: push transport chunks as they
/// arrive, pop complete requests. One parser per connection; pipelined
/// requests pop in order.
#[derive(Debug)]
pub struct HttpParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for the head terminator (so repeated
    /// pushes of a slow-trickling head stay linear, not quadratic).
    scanned: usize,
    limits: HttpLimits,
    state: ParseState,
}

impl Default for HttpParser {
    fn default() -> Self {
        HttpParser::new(HttpLimits::default())
    }
}

impl HttpParser {
    /// A parser enforcing `limits`.
    pub fn new(limits: HttpLimits) -> Self {
        HttpParser {
            buf: Vec::new(),
            scanned: 0,
            limits,
            state: ParseState::Head,
        }
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a popped request.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete request, if the buffer holds one.
    ///
    /// # Errors
    ///
    /// Returns [`HttpParseError`] when the stream is malformed or exceeds
    /// a limit. Every parse error here is *fatal for the connection*: the
    /// stream is no longer framed, so the caller should write the error
    /// response and close. Subsequent calls return `Ok(None)`.
    pub fn next_request(&mut self) -> std::result::Result<Option<HttpRequest>, HttpParseError> {
        loop {
            match &mut self.state {
                ParseState::Poisoned => return Ok(None),
                ParseState::Head => {
                    let Some(head_end) = self.find_head_end() else {
                        if self.buf.len() > self.limits.max_header_bytes {
                            self.state = ParseState::Poisoned;
                            return Err(HttpParseError::new(
                                431,
                                format!(
                                    "request head exceeds {} bytes",
                                    self.limits.max_header_bytes
                                ),
                            ));
                        }
                        return Ok(None);
                    };
                    if head_end > self.limits.max_header_bytes {
                        self.state = ParseState::Poisoned;
                        return Err(HttpParseError::new(
                            431,
                            format!(
                                "request head exceeds {} bytes",
                                self.limits.max_header_bytes
                            ),
                        ));
                    }
                    let head_bytes: Vec<u8> = self.buf.drain(..head_end).collect();
                    self.scanned = 0;
                    match parse_head(&head_bytes, &self.limits) {
                        Ok((head, need)) => {
                            if need == 0 {
                                self.state = ParseState::Head;
                                return Ok(Some(head));
                            }
                            self.state = ParseState::Body { head, need };
                        }
                        Err(e) => {
                            self.state = ParseState::Poisoned;
                            return Err(e);
                        }
                    }
                }
                ParseState::Body { head, need } => {
                    if self.buf.len() < *need {
                        return Ok(None);
                    }
                    let need = *need;
                    let mut req = std::mem::replace(
                        head,
                        HttpRequest {
                            method: String::new(),
                            target: String::new(),
                            http11: true,
                            headers: Vec::new(),
                            body: Vec::new(),
                        },
                    );
                    req.body = self.buf.drain(..need).collect();
                    self.scanned = 0;
                    self.state = ParseState::Head;
                    return Ok(Some(req));
                }
            }
        }
    }

    /// Index one past the head terminator (`\r\n\r\n` or `\n\n`), scanning
    /// only bytes not already scanned.
    fn find_head_end(&mut self) -> Option<usize> {
        // Back up to re-examine a terminator split across pushes.
        let from = self.scanned.saturating_sub(3);
        for i in from..self.buf.len() {
            if self.buf[i] != b'\n' {
                continue;
            }
            if i >= 1 && self.buf[i - 1] == b'\n' {
                return Some(i + 1);
            }
            if i >= 3 && self.buf[i - 1] == b'\r' && self.buf[i - 2] == b'\n' {
                return Some(i + 1);
            }
        }
        self.scanned = self.buf.len();
        None
    }
}

/// Parses a complete head, returning the request (no body yet) and the
/// declared body length.
fn parse_head(
    head: &[u8],
    limits: &HttpLimits,
) -> std::result::Result<(HttpRequest, usize), HttpParseError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpParseError::new(400, "request head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpParseError::new(400, "empty request head"))?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpParseError::new(
                400,
                format!("malformed request line: {request_line:?}"),
            ))
        }
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpParseError::new(
            400,
            format!("malformed method: {method:?}"),
        ));
    }
    if !target.starts_with('/') {
        return Err(HttpParseError::new(
            400,
            format!("request target must be absolute-path: {target:?}"),
        ));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return Err(HttpParseError::new(
                505,
                format!("unsupported protocol version: {version:?}"),
            ))
        }
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        if headers.len() >= MAX_HEADER_FIELDS {
            return Err(HttpParseError::new(
                431,
                format!("more than {MAX_HEADER_FIELDS} header fields"),
            ));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpParseError::new(
                400,
                format!("malformed header line: {line:?}"),
            ));
        };
        let name = name.trim();
        let value = value.trim();
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(HttpParseError::new(
                400,
                format!("malformed header name: {name:?}"),
            ));
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpParseError::new(
                501,
                "request transfer-encoding is not supported; send Content-Length",
            ));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| HttpParseError::new(400, format!("bad Content-Length: {value:?}")))?;
            if let Some(prev) = content_length {
                if prev != parsed {
                    return Err(HttpParseError::new(
                        400,
                        "conflicting Content-Length fields",
                    ));
                }
            }
            content_length = Some(parsed);
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }
    let need = content_length.unwrap_or(0);
    if need > limits.max_body_bytes {
        return Err(HttpParseError::new(
            413,
            format!(
                "declared body of {need} bytes exceeds the {}-byte limit",
                limits.max_body_bytes
            ),
        ));
    }
    Ok((
        HttpRequest {
            method: method.to_string(),
            target: target.to_string(),
            http11,
            headers,
            body: Vec::new(),
        },
        need,
    ))
}

// ---------------------------------------------------------------------------
// Response writing
// ---------------------------------------------------------------------------

/// Canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Encodes a complete response with a `Content-Length` body.
pub fn encode_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        status_reason(status),
        body.len(),
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Encodes the head of a chunked streaming response; follow with
/// [`encode_chunk`] calls and finish with [`CHUNKED_END`].
pub fn encode_chunked_head(status: u16, content_type: &str, keep_alive: bool) -> Vec<u8> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {conn}\r\n\r\n",
        status_reason(status),
    )
    .into_bytes()
}

/// Encodes one body chunk (empty input encodes to nothing — the empty
/// chunk is the terminator, emitted by [`CHUNKED_END`]).
pub fn encode_chunk(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The chunked-stream terminator (zero-length chunk).
pub const CHUNKED_END: &[u8] = b"0\r\n\r\n";

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Where a request goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/models/{name}/infer`.
    Infer {
        /// Registered model name.
        model: String,
    },
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// Known path, wrong method → 405.
    MethodNotAllowed,
    /// Unknown path → 404.
    NotFound,
}

/// Routes a (method, target) pair. The query string is ignored.
pub fn route(method: &str, target: &str) -> Route {
    let path = target.split(['?', '#']).next().unwrap_or(target);
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segs.as_slice() {
        ["healthz"] => match method {
            "GET" | "HEAD" => Route::Healthz,
            _ => Route::MethodNotAllowed,
        },
        ["metrics"] => match method {
            "GET" | "HEAD" => Route::Metrics,
            _ => Route::MethodNotAllowed,
        },
        ["v1", "models", model, "infer"] if codec::valid_name(model) => match method {
            "POST" => Route::Infer {
                model: (*model).to_string(),
            },
            _ => Route::MethodNotAllowed,
        },
        _ => Route::NotFound,
    }
}

/// Parses an infer body: a CSV of LUT indices, whitespace-tolerant.
///
/// # Errors
///
/// Returns a human-readable description for non-UTF-8, empty, or
/// unparsable input (the server answers 400 with it).
pub fn parse_infer_body(body: &[u8]) -> std::result::Result<Vec<u16>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "infer body is not UTF-8 text".to_string())?;
    let mut indices = Vec::new();
    for piece in text.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let idx: u16 = piece
            .parse()
            .map_err(|_| format!("unparsable LUT index {piece:?}"))?;
        indices.push(idx);
    }
    if indices.is_empty() {
        return Err("infer body carries no indices".to_string());
    }
    Ok(indices)
}

/// Renders the infer success body: one JSON object per response.
pub fn infer_result_body(correct: bool, checksum_bits: u64) -> Vec<u8> {
    format!("{{\"correct\":{correct},\"checksum_bits\":\"{checksum_bits:016x}\"}}\n").into_bytes()
}

/// Parses an infer success body produced by [`infer_result_body`].
///
/// # Errors
///
/// Returns [`ServeError::Io`] when the body does not match the emitted
/// shape.
pub fn parse_infer_result(body: &[u8]) -> Result<(bool, u64)> {
    let text = std::str::from_utf8(body).map_err(|_| ServeError::Io {
        detail: "infer result is not UTF-8".to_string(),
    })?;
    let malformed = || ServeError::Io {
        detail: format!("malformed infer result body: {text:?}"),
    };
    let correct = if text.contains("\"correct\":true") {
        true
    } else if text.contains("\"correct\":false") {
        false
    } else {
        return Err(malformed());
    };
    let bits_at = text.find("\"checksum_bits\":\"").ok_or_else(malformed)?;
    let hex = &text[bits_at + "\"checksum_bits\":\"".len()..];
    let hex = hex.split('"').next().ok_or_else(malformed)?;
    let bits = u64::from_str_radix(hex, 16).map_err(|_| malformed())?;
    Ok((correct, bits))
}

// ---------------------------------------------------------------------------
// Blocking client (tests, demo)
// ---------------------------------------------------------------------------

/// One response as seen by [`HttpClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header fields (names lower-cased).
    pub headers: Vec<(String, String)>,
    /// Decoded body (chunked transfer-encoding is reassembled).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A minimal blocking keep-alive HTTP/1.1 client, used by the loopback
/// tests and the demo (the serving loop itself never uses it).
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
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
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Issues one request and blocks for its response (keep-alive: the
    /// connection stays usable for the next call).
    ///
    /// # Errors
    ///
    /// Propagates socket failures and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse> {
        self.send(method, target, headers, body)?;
        self.read_response()
    }

    /// Sends a request without waiting for the response (pipelining);
    /// pair with [`HttpClient::read_response`].
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<()> {
        let mut msg = format!("{method} {target} HTTP/1.1\r\nHost: pimdl\r\n");
        for (n, v) in headers {
            msg.push_str(&format!("{n}: {v}\r\n"));
        }
        if !body.is_empty() || method == "POST" {
            msg.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        msg.push_str("\r\n");
        let mut bytes = msg.into_bytes();
        bytes.extend_from_slice(body);
        self.writer
            .write_all(&bytes)
            .map_err(ServeError::from_io("send request"))
    }

    /// Blocks for the next pipelined response.
    ///
    /// # Errors
    ///
    /// As [`read_response`].
    pub fn read_response(&mut self) -> Result<ClientResponse> {
        read_response(&mut self.reader)
    }
}

fn read_line(reader: &mut impl BufRead) -> Result<String> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(ServeError::from_io("read response line"))?;
    if n == 0 {
        return Err(ServeError::Io {
            detail: "server closed the connection".to_string(),
        });
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Reads one response off `reader` — a socket, or bytes a test captured
/// (`&[u8]` is a [`BufRead`]).
///
/// # Errors
///
/// Fails on EOF, malformed status/header lines, or bad chunk framing.
pub fn read_response(reader: &mut impl BufRead) -> Result<ClientResponse> {
    let status_line = read_line(reader)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ServeError::Io {
            detail: format!("malformed status line: {status_line:?}"),
        })?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::Io {
                detail: format!("malformed response header: {line:?}"),
            });
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().ok();
        }
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        headers.push((name, value));
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(reader)?;
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| ServeError::Io {
                detail: format!("bad chunk size: {size_line:?}"),
            })?;
            if size > MAX_CLIENT_CHUNK_BYTES {
                return Err(ServeError::Io {
                    detail: format!("chunk of {size} bytes exceeds MAX_CLIENT_CHUNK_BYTES"),
                });
            }
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            reader
                .read_exact(&mut chunk)
                .map_err(ServeError::from_io("read chunk"))?;
            if size == 0 {
                break;
            }
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
            if body.len() > MAX_CLIENT_BODY_BYTES {
                return Err(ServeError::Io {
                    detail: "chunked body exceeds MAX_CLIENT_BODY_BYTES".to_string(),
                });
            }
        }
    } else if let Some(len) = content_length {
        if len > MAX_CLIENT_BODY_BYTES {
            return Err(ServeError::Io {
                detail: format!("body of {len} bytes exceeds MAX_CLIENT_BODY_BYTES"),
            });
        }
        body = vec![0u8; len];
        reader
            .read_exact(&mut body)
            .map_err(ServeError::from_io("read body"))?;
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_all(p: &mut HttpParser, bytes: &[u8]) -> Vec<HttpRequest> {
        p.push(bytes);
        let mut out = Vec::new();
        while let Ok(Some(r)) = p.next_request() {
            out.push(r);
        }
        out
    }

    #[test]
    fn parses_a_simple_get() {
        let mut p = HttpParser::default();
        let reqs = push_all(&mut p, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].target, "/healthz");
        assert!(reqs[0].http11);
        assert!(reqs[0].keep_alive());
        assert_eq!(reqs[0].header("host"), Some("x"));
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn parses_post_with_body_split_across_pushes() {
        let mut p = HttpParser::default();
        p.push(b"POST /v1/models/m/infer HTTP/1.1\r\nContent-Le");
        assert_eq!(p.next_request().unwrap(), None);
        p.push(b"ngth: 5\r\n\r\nab");
        assert_eq!(p.next_request().unwrap(), None);
        p.push(b"cde");
        let r = p.next_request().unwrap().unwrap();
        assert_eq!(r.body, b"abcde");
        assert_eq!(r.method, "POST");
    }

    #[test]
    fn pipelined_requests_pop_in_order() {
        let mut p = HttpParser::default();
        let reqs = push_all(
            &mut p,
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n",
        );
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].target, "/a");
        assert_eq!(reqs[0].body, b"hi");
        assert_eq!(reqs[1].target, "/b");
    }

    #[test]
    fn bare_lf_heads_are_tolerated() {
        let mut p = HttpParser::default();
        let reqs = push_all(&mut p, b"GET /metrics HTTP/1.1\nHost: y\n\n");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].target, "/metrics");
    }

    #[test]
    fn malformed_request_line_is_a_fatal_400() {
        let mut p = HttpParser::default();
        p.push(b"NOT A REQUEST LINE AT ALL\r\n\r\n");
        let e = p.next_request().unwrap_err();
        assert_eq!(e.status, 400);
        // Poisoned: later bytes never produce requests.
        p.push(b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap(), None);
    }

    #[test]
    fn oversized_head_is_431() {
        let mut p = HttpParser::new(HttpLimits {
            max_header_bytes: 64,
            max_body_bytes: 1024,
        });
        p.push(b"GET / HTTP/1.1\r\n");
        p.push(&[b'a'; 100]);
        let e = p.next_request().unwrap_err();
        assert_eq!(e.status, 431);
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let mut p = HttpParser::new(HttpLimits {
            max_header_bytes: 1024,
            max_body_bytes: 10,
        });
        p.push(b"POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
        let e = p.next_request().unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn transfer_encoding_requests_are_501() {
        let mut p = HttpParser::default();
        p.push(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err().status, 501);
    }

    #[test]
    fn unknown_version_is_505() {
        let mut p = HttpParser::default();
        p.push(b"GET / HTTP/2.0\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err().status, 505);
    }

    #[test]
    fn conflicting_content_lengths_are_400() {
        let mut p = HttpParser::default();
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n");
        assert_eq!(p.next_request().unwrap_err().status, 400);
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let mk = |head: &[u8]| {
            let mut p = HttpParser::default();
            p.push(head);
            p.next_request().unwrap().unwrap()
        };
        assert!(!mk(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(!mk(b"GET / HTTP/1.0\r\n\r\n").keep_alive());
        assert!(mk(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive());
    }

    #[test]
    fn routes_cover_the_api_surface() {
        assert_eq!(
            route("POST", "/v1/models/bert-a/infer"),
            Route::Infer {
                model: "bert-a".to_string()
            }
        );
        assert_eq!(
            route("GET", "/v1/models/bert-a/infer"),
            Route::MethodNotAllowed
        );
        assert_eq!(route("GET", "/healthz"), Route::Healthz);
        assert_eq!(route("POST", "/healthz"), Route::MethodNotAllowed);
        assert_eq!(route("GET", "/metrics?debug=1"), Route::Metrics);
        assert_eq!(route("GET", "/nope"), Route::NotFound);
        assert_eq!(route("POST", "/v1/models//infer"), Route::NotFound);
        assert_eq!(route("POST", "/v1/models/bad name/infer"), Route::NotFound);
    }

    #[test]
    fn infer_body_round_trips() {
        assert_eq!(parse_infer_body(b"1, 2,3\n").unwrap(), vec![1, 2, 3]);
        assert!(parse_infer_body(b"").is_err());
        assert!(parse_infer_body(b"1,x").is_err());
        assert!(parse_infer_body(&[0xff, 0xfe]).is_err());

        let body = infer_result_body(true, 0xdead_beef);
        let (correct, bits) = parse_infer_result(&body).unwrap();
        assert!(correct);
        assert_eq!(bits, 0xdead_beef);
        assert!(parse_infer_result(b"{}").is_err());
    }

    #[test]
    fn responses_frame_correctly() {
        let r = encode_response(200, "text/plain", b"ok\n", true);
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let head = encode_chunked_head(200, "text/plain", false);
        let text = String::from_utf8(head).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert_eq!(encode_chunk(b"abc"), b"3\r\nabc\r\n");
        assert!(encode_chunk(b"").is_empty());
        assert_eq!(CHUNKED_END, b"0\r\n\r\n");
    }
}
