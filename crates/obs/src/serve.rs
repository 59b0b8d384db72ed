//! A minimal blocking metrics responder for `--metrics-listen`.
//!
//! This is deliberately not a web server: one thread, one connection at a
//! time, HTTP/1.0, connection-close semantics. It exists so an operator
//! (or a scraper) can `curl` the live pipeline without the workspace
//! growing an HTTP dependency.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Most request bytes we will read before answering; anything longer is
/// truncated (we only need the request line).
const MAX_REQUEST_BYTES: usize = 4096;

/// How long a single client may dawdle before we give up on it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound metrics endpoint. Construct with [`MetricsServer::bind`], then
/// hand a page-producing closure to [`MetricsServer::serve`].
#[derive(Debug)]
pub struct MetricsServer {
    listener: TcpListener,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9100`, or port 0 for an ephemeral
    /// port).
    pub fn bind(addr: &str) -> io::Result<MetricsServer> {
        Ok(MetricsServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve requests one at a time, calling `page` with the request path
    /// (`/metrics`, `/json`, …) to get `(content_type, body)` for each.
    /// Stops after `max_requests` when given (for tests and one-shot
    /// scrapes); otherwise loops until accept fails. Returns the number of
    /// requests answered. Per-client I/O errors are counted as served and
    /// do not abort the loop.
    pub fn serve<F>(&self, mut page: F, max_requests: Option<u64>) -> io::Result<u64>
    where
        F: FnMut(&str) -> (String, String),
    {
        let mut served = 0u64;
        loop {
            if let Some(max) = max_requests {
                if served >= max {
                    return Ok(served);
                }
            }
            let (stream, _peer) = self.listener.accept()?;
            let _ = Self::answer(stream, &mut page);
            served += 1;
        }
    }

    /// Answer one client.
    fn answer<F>(mut stream: TcpStream, page: &mut F) -> io::Result<()>
    where
        F: FnMut(&str) -> (String, String),
    {
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        let mut buf = vec![0u8; MAX_REQUEST_BYTES];
        let mut filled = 0usize;
        // Read until the end of the request line; HTTP/1.0 GETs are tiny,
        // so one read almost always suffices.
        while filled < buf.len() {
            let n = stream.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
            if buf[..filled].contains(&b'\n') {
                break;
            }
        }
        let (content_type, body) = page(request_path(&buf[..filled]));
        let header = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            content_type,
            body.len()
        );
        stream.write_all(header.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()
    }
}

/// Extract the path from an HTTP request line; malformed input maps to
/// `/metrics` (this endpoint answers everything with metrics anyway).
fn request_path(raw: &[u8]) -> &str {
    let line = match raw.iter().position(|&b| b == b'\n') {
        Some(end) => &raw[..end],
        None => raw,
    };
    let line = std::str::from_utf8(line).unwrap_or("");
    line.split_whitespace().nth(1).unwrap_or("/metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_path_parses_and_tolerates_garbage() {
        assert_eq!(request_path(b"GET /json HTTP/1.1\r\n"), "/json");
        assert_eq!(request_path(b"GET /metrics HTTP/1.0\n"), "/metrics");
        assert_eq!(request_path(b"\xff\xfe"), "/metrics");
        assert_eq!(request_path(b""), "/metrics");
    }

    #[test]
    fn serves_a_page_over_tcp() {
        let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            server.serve(
                |path| {
                    (
                        "text/plain; version=0.0.4".to_string(),
                        format!("page for {path}\n"),
                    )
                },
                Some(1),
            )
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain"));
        assert!(response.ends_with("page for /metrics\n"), "{response}");
        assert_eq!(handle.join().expect("join").expect("serve"), 1);
    }
}
