//! The traffic generator: keep-alive connections that reconnect after the
//! server's idle close, an open-loop schedule timed from each request's
//! due time, and a closed-loop saturation mode.

use harvest_net::{parse_response, HttpLimits};
use harvest_simkit::SimRng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one scheduled request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /classify` with pool body `i`.
    Classify(usize),
    /// `POST /admin/swap` with artifact `i`.
    Swap(usize),
    /// `GET /metrics`.
    Scrape,
}

/// One parsed response.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// A keep-alive client connection. The server closes a connection that
/// stays quiet past its read deadline; the next request then reconnects
/// and the reconnect is counted.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pub reconnects: u64,
    opened: bool,
}

/// The response never started: the server had already closed the
/// connection, so the request was not accepted and may be resent.
fn unanswered(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
    )
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
            reconnects: 0,
            opened: false,
        }
    }

    fn open(&mut self) -> io::Result<()> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        if self.opened {
            self.reconnects += 1;
        }
        self.opened = true;
        self.stream = Some(s);
        Ok(())
    }

    /// Has the server closed this connection while it sat idle?
    fn closed_by_peer(s: &TcpStream) -> bool {
        let mut probe = [0u8; 1];
        if s.set_nonblocking(true).is_err() {
            return true;
        }
        let closed = match s.peek(&mut probe) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => e.kind() != io::ErrorKind::WouldBlock,
        };
        closed || s.set_nonblocking(false).is_err()
    }

    /// Send one request and read its response. A request that got no
    /// response byte on a reused connection is resent once on a fresh
    /// connection: the server had closed the idle connection, and it
    /// discards bytes that arrive after that close without accepting them.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        let reused = match &self.stream {
            Some(s) if !Self::closed_by_peer(s) => true,
            _ => {
                self.open()?;
                false
            }
        };
        match self.send_and_read(request) {
            Err(e) if reused && self.buf.is_empty() && unanswered(&e) => {
                self.open()?;
                self.send_and_read(request)
            }
            r => r,
        }
        .inspect_err(|_| self.stream = None)
    }

    fn send_and_read(&mut self, request: &[u8]) -> io::Result<Reply> {
        let s = self.stream.as_mut().expect("opened before use");
        self.buf.clear();
        s.write_all(request)?;
        let limits = HttpLimits::default();
        let mut chunk = [0u8; 8192];
        loop {
            match parse_response(&self.buf, &limits) {
                Ok(Some((status, consumed))) => {
                    let head = self
                        .buf
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .map_or(consumed, |p| p + 4);
                    let body = String::from_utf8_lossy(&self.buf[head..consumed]).into_owned();
                    return Ok(Reply { status, body });
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Err(if self.buf.is_empty() {
                    io::Error::new(io::ErrorKind::ConnectionAborted, "closed before responding")
                } else {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "response cut short")
                });
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Pull an unsigned number out of a flat JSON response body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pull a string value out of a flat JSON response body.
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    body[at..].split('"').next()
}

/// One request's fate.
#[derive(Clone, Debug)]
pub struct Sample {
    pub op: Op,
    /// When it was due, from phase start (the send time in closed loop).
    pub due: Duration,
    /// How late the generator itself was: the send time past the due
    /// time, counted only when a connection was free before it was due.
    pub lag: Duration,
    /// When the response was complete, from phase start.
    pub done: Duration,
    /// HTTP status, or 0 when the exchange failed on the transport.
    pub status: u16,
    pub body: String,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// The requests a phase sends, by op.
pub struct Payloads<'a> {
    pub classify: Vec<&'a [u8]>,
    pub swap: Vec<&'a [u8]>,
}

const SCRAPE: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: wirebench\r\n\r\n";

fn request<'a>(p: &Payloads<'a>, op: Op) -> &'a [u8] {
    match op {
        Op::Classify(i) => p.classify[i],
        Op::Swap(i) => p.swap[i],
        Op::Scrape => SCRAPE,
    }
}

pub fn run(
    conn: &mut Conn,
    p: &Payloads<'_>,
    op: Op,
    start: Instant,
    due: Duration,
    lag: Duration,
) -> Sample {
    let (status, body) = match conn.exchange(request(p, op)) {
        Ok(r) => (r.status, r.body),
        Err(e) => (0, e.to_string()),
    };
    Sample {
        op,
        due,
        lag,
        done: start.elapsed(),
        status,
        body,
    }
}

/// Operator operations at fixed periods inside a phase: swaps cycle
/// through `swaps` artifacts, scrapes repeat.
pub fn operator_ops(
    len: Duration,
    swap_every: Option<f64>,
    swaps: usize,
    scrape_every: Option<f64>,
) -> Vec<(Duration, Op)> {
    let mut ops = Vec::new();
    if let Some(every) = swap_every.filter(|_| swaps > 0) {
        let mut t = every / 2.0;
        let mut k = 0;
        while t < len.as_secs_f64() {
            ops.push((Duration::from_secs_f64(t), Op::Swap(k % swaps)));
            k += 1;
            t += every;
        }
    }
    if let Some(every) = scrape_every {
        let mut t = every / 4.0;
        while t < len.as_secs_f64() {
            ops.push((Duration::from_secs_f64(t), Op::Scrape));
            t += every;
        }
    }
    ops.sort_by_key(|(t, _)| *t);
    ops
}

/// A paced open-loop schedule: arrivals at `rate` with each gap jittered
/// by up to ±25 %, bodies drawn from the pool, both from `seed`.
pub fn open_schedule(seed: u64, rate: f64, len: Duration, pool: usize) -> Vec<(Duration, Op)> {
    let mut rng = SimRng::new(seed ^ 0x0a11_0c8e_d01e);
    let gap = 1.0 / rate;
    let mut t = rng.uniform(0.0, gap);
    let mut out = Vec::new();
    while t < len.as_secs_f64() {
        out.push((
            Duration::from_secs_f64(t),
            Op::Classify(rng.below(pool as u64) as usize),
        ));
        t += gap * rng.uniform(0.75, 1.25);
    }
    out
}

/// Open loop: each connection claims the next scheduled request, waits
/// until it is due, and sends it. When every connection is busy the
/// request goes out late and its latency, timed from the due time,
/// carries the wait.
pub fn open_loop(conns: &mut [Conn], p: &Payloads<'_>, schedule: &[(Duration, Op)]) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(due, op)) = schedule.get(i) else {
                            break;
                        };
                        let claimed = start.elapsed();
                        if claimed < due {
                            std::thread::sleep(due - claimed);
                        }
                        let lag = if claimed < due {
                            start.elapsed().saturating_sub(due)
                        } else {
                            Duration::ZERO
                        };
                        out.push(run(conn, p, op, start, due, lag));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    per_conn.into_iter().flatten().collect()
}

/// Closed loop: every connection sends its next classify as soon as the
/// previous answer lands, for `len`; operator ops from `ops` go out on
/// whichever connection comes free once they are due. Latency is timed
/// from the send.
pub fn closed_loop(
    conns: &mut [Conn],
    p: &Payloads<'_>,
    len: Duration,
    ops: &[(Duration, Op)],
    first_body: usize,
) -> Vec<Sample> {
    let next_op = AtomicUsize::new(0);
    let next_body = AtomicUsize::new(first_body);
    let start = Instant::now();
    let pool = p.classify.len();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next_op, next_body) = (&next_op, &next_body);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let now = start.elapsed();
                        if now >= len {
                            break;
                        }
                        let j = next_op.load(Ordering::SeqCst);
                        let op = match ops.get(j) {
                            Some(&(due, op))
                                if due <= now
                                    && next_op
                                        .compare_exchange(
                                            j,
                                            j + 1,
                                            Ordering::SeqCst,
                                            Ordering::SeqCst,
                                        )
                                        .is_ok() =>
                            {
                                op
                            }
                            _ => Op::Classify(next_body.fetch_add(1, Ordering::SeqCst) % pool),
                        };
                        out.push(run(conn, p, op, start, now, Duration::ZERO));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    per_conn.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fields_parse() {
        let b = r#"{"class":12,"batch":3,"degraded":false,"generation":4}"#;
        assert_eq!(json_u64(b, "class"), Some(12));
        assert_eq!(json_u64(b, "generation"), Some(4));
        assert_eq!(json_u64(b, "missing"), None);
        let s = r#"{"generation":1,"fingerprint":"0x00ab"}"#;
        assert_eq!(json_str(s, "fingerprint"), Some("0x00ab"));
    }

    #[test]
    fn schedules_repeat_per_seed() {
        let len = Duration::from_secs(2);
        let a = open_schedule(5, 40.0, len, 9);
        assert_eq!(a, open_schedule(5, 40.0, len, 9));
        assert_ne!(a, open_schedule(6, 40.0, len, 9));
        assert!((60..=100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
