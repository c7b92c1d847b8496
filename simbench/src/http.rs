//! A minimal HTTP/1.1 client: one request per connection, as the service
//! speaks (`Connection: close`), with chunked-body decoding and the
//! timing points the benchmark reports.

use crate::json::{self, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket timeout: a stalled server fails the request instead of the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// What one exchange produced. Times are offsets from `sent`, the
/// moment the client started connecting.
#[derive(Debug)]
pub struct Exchange {
    pub sent: Instant,
    /// HTTP status; `0` when the exchange failed below HTTP.
    pub status: u16,
    /// Connect returned.
    pub connected: Duration,
    /// Request fully written.
    pub written: Duration,
    /// The status line arrived.
    pub ttfb: Duration,
    /// The first `{"row": ...}` line arrived (streamed queries only).
    pub first_row: Option<Duration>,
    /// The final `{"done": ...}` line arrived (streamed queries only).
    pub done_at: Option<Duration>,
    /// The last byte arrived.
    pub total: Duration,
    /// Body bytes received (after de-chunking).
    pub body_bytes: usize,
    /// Decoded `row` values, in arrival order.
    pub rows: Vec<Json>,
    /// The `done` record of a streamed query.
    pub done: Option<Json>,
    /// An in-band `error` line, a non-JSON body line, or a transport
    /// failure.
    pub error: Option<String>,
    /// The body of a non-streamed (`Content-Length`) response.
    pub body: String,
}

impl Exchange {
    /// A 200 with no in-band error.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.error.is_none()
    }
}

/// `POST path` with a JSON or NDJSON body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Exchange {
    request(addr, "POST", path, body)
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> Exchange {
    request(addr, "GET", path, "")
}

/// The body of `query` for `POST /query`.
pub fn query_body(statement: &str, profile: bool) -> String {
    if profile {
        format!(
            "{{\"statement\": {}, \"options\": {{\"profile\": true}}}}",
            json::quote(statement)
        )
    } else {
        format!("{{\"statement\": {}}}", json::quote(statement))
    }
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Exchange {
    let sent = Instant::now();
    let mut ex = Exchange {
        sent,
        status: 0,
        connected: Duration::ZERO,
        written: Duration::ZERO,
        ttfb: Duration::ZERO,
        first_row: None,
        done_at: None,
        total: Duration::ZERO,
        body_bytes: 0,
        rows: Vec::new(),
        done: None,
        error: None,
        body: String::new(),
    };
    if let Err(e) = exchange(addr, method, path, body, &mut ex) {
        ex.error.get_or_insert(e);
    }
    ex.total = sent.elapsed();
    ex
}

fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    ex: &mut Exchange,
) -> Result<(), String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    ex.connected = ex.sent.elapsed();
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out).map_err(|e| e.to_string())?;
    ex.written = ex.sent.elapsed();

    let mut reader = Reader {
        stream,
        buf: Vec::with_capacity(64 * 1024),
        start: 0,
    };
    let status_line = reader.line()?;
    ex.ttfb = ex.sent.elapsed();
    ex.status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut chunked = false;
    let mut length: Option<usize> = None;
    loop {
        let line = reader.line()?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').unwrap_or((&line, ""));
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        } else if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().ok();
        }
    }

    if !chunked {
        let body = match length {
            Some(n) => reader.exact(n)?,
            None => reader.rest()?,
        };
        ex.body_bytes = body.len();
        ex.body = String::from_utf8(body).map_err(|e| e.to_string())?;
        return Ok(());
    }

    // Chunked NDJSON: decode chunks and split lines as they arrive, so
    // the first row is timed when it lands, not when the body ends.
    let mut pending: Vec<u8> = Vec::new();
    loop {
        let size_line = reader.line()?;
        let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            // Trailers (none expected) end with an empty line.
            while !reader.line()?.is_empty() {}
            break;
        }
        let data = reader.exact(size)?;
        if !reader.line()?.is_empty() {
            return Err("chunk not followed by CRLF".into());
        }
        ex.body_bytes += size;
        pending.extend_from_slice(&data);
        let mut from = 0;
        while let Some(nl) = pending[from..].iter().position(|&b| b == b'\n') {
            let line = &pending[from..from + nl];
            from += nl + 1;
            let at = ex.sent.elapsed();
            handle_line(line, at, ex);
        }
        pending.drain(..from);
    }
    if !pending.is_empty() {
        let at = ex.sent.elapsed();
        let rest = std::mem::take(&mut pending);
        handle_line(&rest, at, ex);
    }
    Ok(())
}

fn handle_line(line: &[u8], at: Duration, ex: &mut Exchange) {
    let text = match std::str::from_utf8(line) {
        Ok(t) => t.trim(),
        Err(_) => {
            ex.error.get_or_insert("non-UTF-8 body line".into());
            return;
        }
    };
    if text.is_empty() {
        return;
    }
    match json::parse(text) {
        Ok(Json::Obj(mut members)) if members.len() == 1 => {
            let (key, value) = members.pop().expect("one member");
            match key.as_str() {
                "row" => {
                    ex.first_row.get_or_insert(at);
                    ex.rows.push(value);
                }
                "done" => {
                    ex.done_at = Some(at);
                    ex.done = Some(value);
                }
                "error" => {
                    ex.error.get_or_insert(format!("in-band error: {}", text));
                }
                other => {
                    ex.error
                        .get_or_insert(format!("unexpected line key '{other}'"));
                }
            }
        }
        Ok(_) => {
            ex.error.get_or_insert(format!("unexpected line {text:?}"));
        }
        Err(e) => {
            ex.error
                .get_or_insert(format!("bad JSON line ({e}): {text:?}"));
        }
    }
}

/// Buffered reads with line and exact-length access.
struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Reader {
    fn fill(&mut self) -> Result<usize, String> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk).map_err(|e| e.to_string())?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// One CRLF- (or LF-) terminated line without its terminator.
    fn line(&mut self) -> Result<String, String> {
        loop {
            if let Some(nl) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let raw = &self.buf[self.start..self.start + nl];
                let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
                let line = String::from_utf8_lossy(raw).into_owned();
                self.start += nl + 1;
                return Ok(line);
            }
            if self.fill()? == 0 {
                return Err("connection closed mid-line".into());
            }
        }
    }

    fn exact(&mut self, n: usize) -> Result<Vec<u8>, String> {
        while self.buf.len() - self.start < n {
            if self.fill()? == 0 {
                return Err("connection closed mid-body".into());
            }
        }
        let out = self.buf[self.start..self.start + n].to_vec();
        self.start += n;
        Ok(out)
    }

    fn rest(&mut self) -> Result<Vec<u8>, String> {
        while self.fill()? > 0 {}
        let out = self.buf[self.start..].to_vec();
        self.start = self.buf.len();
        Ok(out)
    }
}
