//! The wire: a deliberately small HTTP/1.1 server (and client) over
//! `std::net`, one thread per connection, one request per connection.
//!
//! Routes:
//!
//! * `POST /jobs` — submit a job; the response is
//!   `Transfer-Encoding: chunked` NDJSON, one [`JobEvent`] per line and
//!   per HTTP chunk, each flushed as produced: clients see `accepted`
//!   before the run starts, and the result chunks as they are framed
//!   after it ends.
//! * `GET /metrics` — JSON counter snapshot from
//!   [`SimService::metrics`].
//! * `GET /healthz` — liveness probe.
//!
//! No keep-alive, no TLS, no compression: the protocol's integrity
//! guarantees live in the chunk frames (checksums, sequence numbers,
//! terminal events), not in transport features.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::api::{render_metrics, JobEvent};
use crate::service::SimService;

/// Largest accepted request body; a netlist megabytes beyond this is a
/// client error, not a server OOM.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Largest accepted message head (start line plus headers), on both sides
/// of the wire. The socket timeout never fires while bytes keep arriving,
/// so without this bound a peer streaming one endless header line grows a
/// buffer forever.
const MAX_HEAD_BYTES: u64 = 64 * 1024;

/// Per-connection socket timeout: a silent peer gets dropped instead of
/// pinning a connection thread.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

/// A running service endpoint. Dropping (or [`Server::shutdown`]) stops
/// accepting, wakes the accept loop and joins every connection thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// starts serving `service`.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<SimService>) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread =
            thread::Builder::new().name("parsim-accept".into()).spawn(move || {
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let svc = Arc::clone(&service);
                    match thread::Builder::new()
                        .name("parsim-conn".into())
                        .spawn(move || handle_connection(stream, &svc))
                    {
                        Ok(h) => conns.push(h),
                        Err(_) => continue,
                    }
                    conns.retain(|h| !h.is_finished());
                }
                for h in conns {
                    let _ = h.join();
                }
            })?;
        Ok(Server { addr: local, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (the real port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins all its threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn handle_connection(stream: TcpStream, service: &SimService) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let peer = stream.try_clone();
    let Ok(writer) = peer else { return };
    let mut reader = BufReader::new(stream);
    let mut writer = io::BufWriter::new(writer);
    match read_request(&mut reader) {
        Ok(req) => route(&req, service, &mut writer),
        Err((status, e)) => {
            let _ = write_simple(&mut writer, status, "text/plain", &format!("bad request: {e}\n"));
        }
    }
    let _ = writer.flush();
}

struct Request {
    method: String,
    path: String,
    body: String,
}

/// A message head: the start line and the `name: value` header fields.
struct Head {
    start: String,
    fields: Vec<(String, String)>,
}

impl Head {
    /// The last value of header `name` (case-insensitive), trimmed.
    fn field(&self, name: &str) -> Option<&str> {
        self.fields.iter().rev().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| &**v)
    }
}

/// Reads a message head through at most [`MAX_HEAD_BYTES`]; the error
/// carries the status to answer with (431 when the head does not fit).
fn read_head(reader: &mut impl BufRead) -> Result<Head, (u16, String)> {
    let mut head = reader.take(MAX_HEAD_BYTES);
    let mut next_line = || {
        let mut line = String::new();
        let read = head.read_line(&mut line);
        if head.limit() == 0 && !line.ends_with('\n') {
            return Err((431, format!("message head exceeds {MAX_HEAD_BYTES} bytes")));
        }
        read.map_err(|e| (400, e.to_string()))?;
        Ok(line.trim_end().to_owned())
    };
    let start = next_line()?;
    let mut fields = Vec::new();
    loop {
        let line = next_line()?;
        if line.is_empty() {
            return Ok(Head { start, fields });
        }
        if let Some((name, value)) = line.split_once(':') {
            fields.push((name.to_owned(), value.trim().to_owned()));
        }
    }
}

/// Parses one request; the error carries the status to answer with.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, (u16, String)> {
    let head = read_head(reader)?;
    let mut parts = head.start.split_whitespace();
    let method = parts.next().ok_or((400, "empty request line".into()))?.to_owned();
    let path = parts.next().ok_or((400, "missing path".into()))?.to_owned();
    let content_length: usize = match head.field("content-length") {
        Some(v) => v.parse().map_err(|_| (400, "unparseable content-length".into()))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err((400, format!("body of {content_length} bytes exceeds limit")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| (400, e.to_string()))?;
    let body = String::from_utf8(body).map_err(|_| (400, "body is not UTF-8".into()))?;
    Ok(Request { method, path, body })
}

fn route(req: &Request, service: &SimService, out: &mut impl Write) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => {
            let _ = stream_job(service, &req.body, out);
        }
        ("GET", "/metrics") => {
            let body = render_metrics(&service.metrics());
            let _ = write_simple(out, 200, "application/json", &body);
        }
        ("GET", "/healthz") => {
            let _ = write_simple(out, 200, "text/plain", "ok\n");
        }
        _ => {
            let _ = write_simple(out, 404, "text/plain", "not found\n");
        }
    }
}

/// Streams one job as chunked NDJSON, flushing after every event. A
/// client that disconnects mid-stream turns the writes into errors; the
/// job still runs to its terminal event (the sink swallows the failure),
/// which keeps quota/slot accounting consistent.
fn stream_job(service: &SimService, body: &str, out: &mut impl Write) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
    )?;
    out.flush()?;
    let mut broken = false;
    let mut buf = Vec::new();
    let mut sink = |event: JobEvent| {
        if broken {
            return;
        }
        let line = event.render();
        if write_chunk(out, &mut buf, &line).is_err() {
            broken = true;
        }
    };
    service.submit(body, &mut sink);
    if !broken {
        // Terminating zero-size chunk.
        write!(out, "0\r\n\r\n")?;
        out.flush()?;
    }
    Ok(())
}

/// Writes one NDJSON line as one HTTP chunk (size in hex, payload, CRLF),
/// assembled in `buf` so it leaves in one write.
fn write_chunk(out: &mut impl Write, buf: &mut Vec<u8>, line: &str) -> io::Result<()> {
    buf.clear();
    buf.reserve(line.len() + 24);
    let _ = write!(buf, "{:x}\r\n", line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.extend_from_slice(b"\n\r\n");
    out.write_all(buf)?;
    out.flush()
}

fn write_simple(out: &mut impl Write, status: u16, ctype: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    out.flush()
}

/// The client side: blocking helpers over `std::net`, used by the
/// integration tests and the E16 load generator.
pub mod client {
    use super::*;

    /// POSTs a job body to `/jobs` and collects the full event stream.
    /// Fails on transport errors; protocol-level failures arrive as a
    /// terminal [`JobEvent::Error`] in the returned stream.
    pub fn submit_job(addr: SocketAddr, body: &str) -> io::Result<Vec<JobEvent>> {
        let (status, payload) = request(addr, "POST", "/jobs", Some(body))?;
        if status != 200 {
            return Err(io::Error::other(format!("HTTP {status}: {payload}")));
        }
        payload
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                JobEvent::from_line(l)
                    .map_err(|e| io::Error::other(format!("bad event line `{l}`: {e}")))
            })
            .collect()
    }

    /// Issues one GET and returns `(status, body)`.
    pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
        request(addr, "GET", path, None)
    }

    fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
        stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: parsim\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let head = read_head(&mut reader).map_err(|(_, e)| io::Error::other(e))?;
        let status: u16 = head
            .start
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line `{}`", head.start)))?;
        let payload =
            if head.field("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
                read_chunked(&mut reader)?
            } else if let Some(len) = head.field("content-length").and_then(|v| v.parse().ok()) {
                let mut buf = vec![0u8; len];
                reader.read_exact(&mut buf)?;
                String::from_utf8(buf).map_err(|_| io::Error::other("body is not UTF-8"))?
            } else {
                let mut buf = String::new();
                reader.read_to_string(&mut buf)?;
                buf
            };
        Ok((status, payload))
    }

    /// Decodes a `Transfer-Encoding: chunked` body.
    fn read_chunked(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
        let mut out = String::new();
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| io::Error::other(format!("bad chunk size `{}`", size_line.trim())))?;
            if size == 0 {
                // Trailing CRLF after the zero chunk.
                let mut end = String::new();
                let _ = reader.read_line(&mut end);
                return Ok(out);
            }
            let mut buf = vec![0u8; size];
            reader.read_exact(&mut buf)?;
            out.push_str(
                std::str::from_utf8(&buf).map_err(|_| io::Error::other("chunk is not UTF-8"))?,
            );
            // CRLF after each chunk payload.
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
    }
}
