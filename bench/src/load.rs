//! Load generators. One connection always; one client thread for a
//! closed loop, one sender plus one receiver thread for the open loop —
//! fixed, whatever the machine, so results compare across boxes. The
//! closed loop runs in bursts and reads the machine-speed reference
//! between them (see `reference.rs`). They
//! speak the wire formats themselves (no client code of the system under
//! test runs here) and check replies against expectations the caller
//! computed beforehand.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::reference::{Reference, Slice};
use crate::util::{child_pids, median, CpuSnap};

/// A reply that has not arrived after this long ends the run; every
/// request still outstanding then counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// What a load run observed, over its measured part.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// Requests sent (closed loop) or due (open loop).
    pub attempted: u64,
    /// Of those, answered correctly (and, for the checked sample, with the
    /// expected checksum bits).
    pub verified: u64,
    /// Latency of each verified request in steady state.
    pub latencies_ms: Vec<f64>,
    /// Closed loop: one slice per burst.
    pub slices: Vec<Slice>,
    /// Open loop: completion time of each verified request, seconds after
    /// the warm-up's end.
    pub done_at_s: Vec<f64>,
    /// Open loop: how long after its due time each request was sent.
    pub lateness_ms: Vec<f64>,
    /// CPU of the process tree over the measured bursts (closed loop), or
    /// between warm-up end and window end (open loop).
    pub cpu: CpuSnap,
}

/// One pre-generated line-protocol query: everything after the tag.
#[derive(Debug)]
pub struct LineQuery {
    /// ` <i1>,<i2>,... [table]\n`
    pub suffix: Vec<u8>,
    /// Expected checksum bits, for the checked 1-in-16 sample.
    pub expect_bits: Option<u64>,
}

/// One pre-generated HTTP request, fully encoded.
#[derive(Debug)]
pub struct HttpReq {
    pub bytes: Vec<u8>,
    pub expect_bits: Option<u64>,
}

fn connect(addr: SocketAddr) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// `R q<seq> ok <hex>` → `(seq, checksum bits)`; anything else (an `E`
/// line, a `bad` verdict, garbage) → the sequence number if one can be
/// read, and no bits.
fn parse_line_reply(line: &str) -> (Option<u64>, Option<u64>) {
    let mut f = line.trim_end().split(' ');
    let kind = f.next();
    let seq = f
        .next()
        .and_then(|t| t.strip_prefix('q'))
        .and_then(|s| s.parse().ok());
    let bits = match (kind, f.next(), f.next()) {
        (Some("R"), Some("ok"), Some(hex)) => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    };
    (seq, bits)
}

/// One burst of a closed loop.
#[derive(Default)]
struct Burst {
    attempted: u64,
    verified: u64,
    /// Latencies of the verified requests sent in steady state.
    latencies_ms: Vec<f64>,
    /// Verified replies that arrived while the burst was still sending,
    /// after the first, and the seconds from the first to the last of them:
    /// the steady-state rate, free of the fill and the drain.
    steady_ops: u64,
    steady_s: f64,
    /// A reply timed out or the server hung up.
    aborted: bool,
}

/// Keeps `outstanding` queries in flight on the connection, sending the
/// next as each reply arrives, for `send_for_s` seconds; then waits for
/// the rest, so the server is idle when it returns.
fn burst(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    pool: &[LineQuery],
    outstanding: usize,
    send_for_s: f64,
    seq: &mut u64,
) -> io::Result<Burst> {
    let t0 = Instant::now();
    let mut b = Burst::default();
    // seq → (send time, expected bits)
    let mut in_flight: HashMap<u64, (f64, Option<u64>)> = HashMap::new();
    let mut line_out = Vec::new();
    let mut send = |in_flight: &mut HashMap<u64, (f64, Option<u64>)>| -> io::Result<()> {
        let q = &pool[(*seq % pool.len() as u64) as usize];
        line_out.clear();
        write!(line_out, "Q q{seq}")?;
        line_out.extend_from_slice(&q.suffix);
        writer.write_all(&line_out)?;
        in_flight.insert(*seq, (t0.elapsed().as_secs_f64(), q.expect_bits));
        *seq += 1;
        Ok(())
    };
    for _ in 0..outstanding {
        send(&mut in_flight)?;
        b.attempted += 1;
    }
    let mut first_reply_s = None;
    let mut replies = 0usize;
    let mut line = String::new();
    while !in_flight.is_empty() {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            // Timed out or hung up: what is still in flight has failed.
            _ => {
                b.aborted = true;
                break;
            }
        }
        let now = t0.elapsed().as_secs_f64();
        replies += 1;
        let (reply_seq, bits) = parse_line_reply(&line);
        let ok = reply_seq
            .and_then(|s| in_flight.remove(&s))
            .is_some_and(|(sent, expect)| {
                let ok = bits.is_some() && expect.is_none_or(|e| Some(e) == bits);
                // The first `outstanding` requests went out at once into an
                // empty server: their latencies are the fill's.
                if ok && replies > outstanding {
                    b.latencies_ms.push((now - sent) * 1e3);
                }
                ok
            });
        b.verified += u64::from(ok);
        if now < send_for_s {
            match first_reply_s {
                None => first_reply_s = Some(now),
                Some(first) if ok => {
                    b.steady_ops += 1;
                    b.steady_s = now - first;
                }
                Some(_) => {}
            }
            send(&mut in_flight)?;
            b.attempted += 1;
        }
    }
    Ok(b)
}

/// Closed loop over the line protocol on one connection: a warm-up burst
/// of `warm_s` seconds, then measured bursts of `slice_s` seconds until
/// `measure_s` have passed, with the reference read between bursts, while
/// the server is idle.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[LineQuery],
    outstanding: usize,
    warm_s: f64,
    measure_s: f64,
    slice_s: f64,
) -> io::Result<LoadStats> {
    let (mut reader, mut writer) = connect(addr)?;
    let reference = Reference::global();
    let mut stats = LoadStats::default();
    let mut seq = 0u64;
    let mut run = |send_for_s: f64| {
        burst(
            &mut reader,
            &mut writer,
            pool,
            outstanding,
            send_for_s,
            &mut seq,
        )
    };
    let mut aborted = run(warm_s)?.aborted;
    // The fabric's workers, all started during set-up.
    let children = child_pids();
    let mut before = reference.read();
    let started = Instant::now();
    while !aborted && started.elapsed().as_secs_f64() < measure_s {
        let cpu0 = CpuSnap::of(&children);
        let b = run(slice_s)?;
        let cpu = CpuSnap::of(&children).since(cpu0);
        let after = reference.read();
        aborted = b.aborted;
        stats.cpu.own_s += cpu.own_s;
        stats.cpu.children_s += cpu.children_s;
        stats.attempted += b.attempted;
        stats.verified += b.verified;
        stats.slices.push(Slice {
            ops: b.steady_ops as f64,
            s_per_op: b.steady_s / b.steady_ops.max(1) as f64,
            // The burst's CPU is for all its requests, fill and drain too.
            cpu_us_per_op: cpu.total_s() * 1e6 / b.verified.max(1) as f64,
            p50_ms: median(&b.latencies_ms),
            before,
            after,
        });
        stats.latencies_ms.extend(b.latencies_ms);
        before = after;
    }
    Ok(stats)
}

/// Sends `Q warm-<k> ...` for each given suffix and waits for each reply,
/// returning whether all were correct. On the fabric this forces every
/// table to load before the clock starts; everywhere it is the "first
/// verified operation" that ends set-up.
pub fn line_warmup(addr: SocketAddr, queries: &[&LineQuery]) -> io::Result<bool> {
    let (mut reader, mut writer) = connect(addr)?;
    let mut all_ok = true;
    for (k, q) in queries.iter().enumerate() {
        let mut out = format!("Q q{k}").into_bytes();
        out.extend_from_slice(&q.suffix);
        writer.write_all(&out)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let (_, bits) = parse_line_reply(&line);
        all_ok &= bits.is_some() && q.expect_bits.is_none_or(|e| Some(e) == bits);
    }
    Ok(all_ok)
}

/// Reads one HTTP response with a `Content-Length` body; returns the
/// checksum bits of a `200` infer result that says `"correct":true`.
fn read_http_reply(reader: &mut BufReader<TcpStream>) -> io::Result<Option<u64>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let ok = line.split(' ').nth(1) == Some("200");
    let mut len = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((name, value)) = l.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::from(io::ErrorKind::InvalidData))?;
            }
        }
    }
    // Replies here are ~60 bytes; a length the server could never send is
    // refused rather than allocated.
    if len > 1 << 20 {
        return Err(io::ErrorKind::InvalidData.into());
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let text = String::from_utf8_lossy(&body);
    if !ok || !text.contains("\"correct\":true") {
        return Ok(None);
    }
    const KEY: &str = "\"checksum_bits\":\"";
    Ok(text.find(KEY).and_then(|at| {
        let hex = text[at + KEY.len()..].split('"').next()?;
        u64::from_str_radix(hex, 16).ok()
    }))
}

/// One blocking HTTP request/response (set-up's first verified operation).
pub fn http_once(addr: SocketAddr, req: &HttpReq) -> io::Result<bool> {
    let (mut reader, mut writer) = connect(addr)?;
    writer.write_all(&req.bytes)?;
    let bits = read_http_reply(&mut reader)?;
    Ok(bits.is_some() && req.expect_bits.is_none_or(|e| Some(e) == bits))
}

/// Open loop over one pipelined keep-alive HTTP connection: request `k`
/// (pool entry `k % pool.len()`) is sent at `due_s[k]` whatever the
/// server is doing; its latency runs from that due time, so a stall is
/// charged to every request it delays. HTTP answers in order, so reply
/// `k` belongs to request `k`.
pub fn open_loop_http(
    addr: SocketAddr,
    pool: &[HttpReq],
    due_s: &[f64],
    warm_s: f64,
    measure_s: f64,
) -> io::Result<LoadStats> {
    let (mut reader, mut writer) = connect(addr)?;
    let end_s = warm_s + measure_s;
    let t0 = Instant::now();
    let mut stats = LoadStats::default();

    let mut sender = |lateness_ms: &mut Vec<f64>| -> io::Result<CpuSnap> {
        let mut cpu0 = None;
        for (k, &due) in due_s.iter().enumerate() {
            let now = t0.elapsed().as_secs_f64();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            if due >= warm_s {
                if cpu0.is_none() {
                    cpu0 = Some(CpuSnap::now());
                }
                lateness_ms.push((t0.elapsed().as_secs_f64() - due).max(0.0) * 1e3);
            }
            writer.write_all(&pool[k % pool.len()].bytes)?;
        }
        let now = t0.elapsed().as_secs_f64();
        if end_s > now {
            std::thread::sleep(Duration::from_secs_f64(end_s - now));
        }
        Ok(CpuSnap::now().since(cpu0.unwrap_or_default()))
    };

    let mut lateness_ms = Vec::new();
    let sent = std::thread::scope(|s| {
        let tx = s.spawn(|| sender(&mut lateness_ms));
        for (k, &due) in due_s.iter().enumerate() {
            let Ok(bits) = read_http_reply(&mut reader) else {
                break; // timed out or hung up: the rest have failed
            };
            let now = t0.elapsed().as_secs_f64();
            let expect = pool[k % pool.len()].expect_bits;
            if due >= warm_s && bits.is_some() && expect.is_none_or(|e| Some(e) == bits) {
                stats.verified += 1;
                stats.latencies_ms.push((now - due) * 1e3);
                stats.done_at_s.push(now - warm_s);
            }
        }
        tx.join().expect("sender thread panicked")
    });
    stats.cpu = sent?;
    stats.attempted = due_s.iter().filter(|&&d| d >= warm_s).count() as u64;
    stats.lateness_ms = lateness_ms;
    Ok(stats)
}

/// Poisson arrival times at `rate_rps` over `[0, horizon_s)`.
pub fn poisson_due_times(
    rate_rps: f64,
    horizon_s: f64,
    rng: &mut pimdl_tensor::rng::DataRng,
) -> Vec<f64> {
    let mut t = 0.0f64;
    let mut due = Vec::new();
    loop {
        t += -f64::from(rng.uniform(1e-7, 1.0)).ln() / rate_rps;
        if t >= horizon_s {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_replies_parse_or_fail_closed() {
        assert_eq!(
            parse_line_reply("R q12 ok 00000000000000ff\n"),
            (Some(12), Some(255))
        );
        assert_eq!(
            parse_line_reply("R q12 bad 00000000000000ff\n"),
            (Some(12), None)
        );
        assert_eq!(parse_line_reply("E q7 rejected\n"), (Some(7), None));
        assert_eq!(parse_line_reply("garbage"), (None, None));
    }

    #[test]
    fn poisson_times_are_seeded_sorted_and_at_rate() {
        let mut a = pimdl_tensor::rng::DataRng::new(9);
        let mut b = pimdl_tensor::rng::DataRng::new(9);
        let x = poisson_due_times(500.0, 4.0, &mut a);
        assert_eq!(x, poisson_due_times(500.0, 4.0, &mut b));
        assert!(x.windows(2).all(|w| w[0] <= w[1]));
        assert!((1800..2200).contains(&x.len()), "{}", x.len());
    }
}
