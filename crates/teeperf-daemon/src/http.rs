//! A deliberately minimal HTTP/1.1 layer over [`std::net`] — no external
//! dependencies, no keep-alive, no chunked encoding. Every exchange is one
//! request, one `Content-Length` response, `Connection: close`. That is
//! all the daemon's wire contract needs: the payloads are the stable
//! snapshot text format, and the transfer framing stays too small to hide
//! bugs in.
//!
//! Both halves live here — the server side ([`read_request`] /
//! [`Response::write_to`]) used by `teeperfd`, and the client side
//! ([`get`]) used by `teeperf top` and the tests — so a framing change
//! cannot drift between them.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Longest request head (request line + headers) the server will read;
/// the daemon's API has no legitimate request anywhere near this.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// How long the server waits for one whole request head. A client that
/// trickles bytes is dropped when it passes, however steadily it sends,
/// so it cannot hold the daemon's single-threaded loop.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// One parsed request line. The daemon routes on method + target only;
/// headers are read (to drain the head) and discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/snapshot` or `/flame.svg?pid=7`.
    pub target: String,
}

impl Request {
    /// The target's path without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        let (_, qs) = self.target.split_once('?')?;
        qs.split('&')
            .find_map(|pair| pair.split_once('=').filter(|(k, _)| *k == key))
            .map(|(_, v)| v)
    }

    /// The whole raw query string after `?`, if any — `/query` hands it
    /// verbatim to the window-spec parser, whose clause grammar *is* the
    /// query-string grammar.
    pub fn query_string(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, qs)| qs)
    }
}

/// Read one request head off `stream` (through the blank line); the body,
/// if any, is ignored — every daemon endpoint is body-less. The whole head
/// must arrive within 2 s and fit in 8 KiB.
///
/// # Errors
/// I/O failures, a missed deadline (`TimedOut`), an over-long head, and a
/// malformed request line all surface as errors; the caller drops the
/// connection.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut reader =
        BufReader::new(DeadlineReader { stream, deadline }).take(MAX_HEAD_BYTES as u64);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed request line {line:?}"),
            ))
        }
    };
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if header == "\r\n" || header == "\n" {
            break;
        }
        if n == 0 || !header.ends_with('\n') {
            // The stream ended, or the head filled the byte budget, before
            // the blank line: an over-long head is refused, a closed one
            // is served as read.
            if reader.limit() == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request head too large",
                ));
            }
            break;
        }
    }
    Ok(Request { method, target })
}

/// A stream whose every read waits at most until one shared deadline.
struct DeadlineReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request head not complete within the deadline",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// A complete response, written in one shot with `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Media type of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// A `200 OK` SVG response.
    pub fn svg(body: String) -> Response {
        Response {
            status: 200,
            content_type: "image/svg+xml",
            body: body.into_bytes(),
        }
    }

    /// A `404 Not Found` with a one-line explanation.
    pub fn not_found(reason: impl Into<String>) -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!("{}\n", reason.into()).into_bytes(),
        }
    }

    /// A `400 Bad Request` with a one-line explanation — a malformed
    /// window-query spec is the client's fault, not a missing resource.
    pub fn bad_request(reason: impl Into<String>) -> Response {
        Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: format!("{}\n", reason.into()).into_bytes(),
        }
    }

    /// The status line's reason phrase.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Error",
        }
    }

    /// Serialize status line, headers and body onto `stream`.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Blocking HTTP GET of `path` from `addr` (e.g. `127.0.0.1:7071`),
/// returning the status code and the body as text. The timeout bounds
/// connect, read and write individually.
///
/// # Errors
/// Connection or I/O failure, a non-HTTP reply, or a non-UTF-8 body.
pub fn get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&target, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_target_splits_path_and_query() {
        let r = Request {
            method: "GET".into(),
            target: "/flame.svg?pid=7&x=1".into(),
        };
        assert_eq!(r.path(), "/flame.svg");
        assert_eq!(r.query("pid"), Some("7"));
        assert_eq!(r.query("x"), Some("1"));
        assert_eq!(r.query("absent"), None);
        let plain = Request {
            method: "GET".into(),
            target: "/healthz".into(),
        };
        assert_eq!(plain.path(), "/healthz");
        assert_eq!(plain.query("pid"), None);
    }

    #[test]
    fn client_and_server_speak_to_each_other() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.path(), "/snapshot");
            Response::text("[live]\nepoch 0\n")
                .write_to(&mut stream)
                .unwrap();
        });
        let (status, body) = get(&addr.to_string(), "/snapshot", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "[live]\nepoch 0\n");
        server.join().unwrap();
    }
}
