//! A streaming HTTP client for `POST /jobs`.
//!
//! `parsim_server::http::client::submit_job` returns only when the stream
//! has ended, so it cannot see when the first result chunk arrived. This
//! reader decodes the chunked response as it comes in and stamps both.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A hung server must fail the op, not the benchmark.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

/// One job's response as the client saw it.
#[derive(Debug)]
pub struct Streamed {
    /// The NDJSON event lines, in arrival order.
    pub lines: Vec<String>,
    /// Send → first `chunk` event line fully received.
    pub first_chunk_ns: u64,
    /// Send → last byte of the stream.
    pub total_ns: u64,
    /// Event-line bytes received.
    pub bytes: u64,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Connects, posts `body` and reads the event stream to its end. The
/// clock starts before the connect: that is when a caller starts waiting.
pub fn submit_streaming(addr: SocketAddr, body: &str) -> io::Result<Streamed> {
    let start = Instant::now();
    let elapsed = |s: Instant| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: parsim\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(bad(format!("unexpected status line `{}`", line.trim_end())));
    }
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        if line.trim_end().is_empty() {
            break;
        }
    }

    let mut out = Streamed { lines: Vec::new(), first_chunk_ns: 0, total_ns: 0, bytes: 0 };
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim_end(), 16)
            .map_err(|_| bad(format!("bad chunk size `{}`", line.trim_end())))?;
        // Payload plus its trailing CRLF (the last-chunk's is the final CRLF).
        let mut payload = vec![0u8; size + 2];
        reader.read_exact(&mut payload)?;
        if size == 0 {
            break;
        }
        payload.truncate(size);
        let text = String::from_utf8(payload).map_err(|_| bad("event line is not UTF-8"))?;
        out.bytes += text.len() as u64;
        if out.first_chunk_ns == 0 && text.contains("\"event\":\"chunk\"") {
            out.first_chunk_ns = elapsed(start);
        }
        out.lines.extend(text.lines().map(str::to_owned));
    }
    out.total_ns = elapsed(start);
    Ok(out)
}
