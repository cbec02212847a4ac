//! A closed-loop HTTP/1.1 client that times a chunked ndjson stream as it
//! arrives: when the first result line lands and when the terminating
//! chunk is read. The service's own `client::post_sweep` reads to EOF
//! before decoding, so it cannot see the first result.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One timed response.
#[derive(Debug, Clone, Default)]
pub struct Streamed {
    /// HTTP status code.
    pub status: u16,
    /// Decoded ndjson lines; for a non-chunked response, the body as one
    /// line.
    pub lines: Vec<String>,
    /// Whether the terminating zero-length chunk arrived.
    pub complete: bool,
    /// Seconds from connect to the moment line `first_index` was complete
    /// (`None` when the stream never carried that many lines).
    pub first_result_s: Option<f64>,
    /// Seconds from connect to the terminating chunk (or EOF).
    pub total_s: f64,
}

/// Sends `POST path` with `body` and reads the response, timing line
/// number `first_index` (0-based) as the first usable result.
pub fn post_timed(
    addr: SocketAddr,
    path: &str,
    body: &str,
    first_index: usize,
) -> std::io::Result<Streamed> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;

    let mut out = Streamed::default();
    let mut raw: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut buf = vec![0u8; 1 << 16];
    let mut body_start: Option<(usize, bool)> = None; // (offset, chunked)
    let mut cursor = 0usize;
    let mut pending: Vec<u8> = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if body_start.is_none() {
            let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
                continue;
            };
            let head = String::from_utf8_lossy(&raw[..end]).to_ascii_lowercase();
            out.status = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let chunked = head.contains("transfer-encoding: chunked");
            body_start = Some((end + 4, chunked));
            cursor = end + 4;
        }
        let Some((_, true)) = body_start else {
            continue;
        };
        // Decode every complete chunk available so far.
        while let Some(rel) = raw[cursor..].windows(2).position(|w| w == b"\r\n") {
            let size_text = std::str::from_utf8(&raw[cursor..cursor + rel]).unwrap_or("");
            let Ok(size) = usize::from_str_radix(size_text.trim(), 16) else {
                return Err(std::io::Error::other(format!(
                    "bad chunk size line {size_text:?}"
                )));
            };
            let data = cursor + rel + 2;
            if size == 0 {
                out.complete = true;
                break;
            }
            if raw.len() < data + size + 2 {
                break;
            }
            pending.extend_from_slice(&raw[data..data + size]);
            cursor = data + size + 2;
            while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=nl).collect();
                if line.len() > 1 {
                    out.lines
                        .push(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
                    if out.lines.len() == first_index + 1 {
                        out.first_result_s = Some(t0.elapsed().as_secs_f64());
                    }
                }
            }
        }
        if out.complete {
            break;
        }
    }
    out.total_s = t0.elapsed().as_secs_f64();
    if let Some((start, false)) = body_start {
        let text = String::from_utf8_lossy(&raw[start..]).into_owned();
        if !text.is_empty() {
            out.lines.push(text);
        }
        out.complete = true;
    }
    Ok(out)
}
