//! Hand-rolled HTTP/1.1 framing over `std::io` streams.
//!
//! The daemon speaks just enough HTTP for its four endpoints: request
//! line + headers + `Content-Length` body in, fixed-length or chunked
//! response out (no TLS, no HTTP/2). Connections are keep-alive by
//! default per HTTP/1.1; [`read_request`] returns `Ok(None)` on a clean
//! close so connection loops terminate without an error.
//!
//! Both sides of the wire live here: the server half
//! ([`read_request_limited`], [`write_response`], chunked writers) and
//! the client half ([`write_request`], [`read_response`], chunked
//! readers) used by `cirgps-client`, so a request framed by one half is
//! by construction parseable by the other.

use std::io::{self, BufRead, Write};

/// Maximum accepted header-section size (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default maximum accepted request-body size (a predict request of
/// ~100k queries fits comfortably; anything bigger is a client bug).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Default maximum number of request headers.
pub const MAX_HEADERS: usize = 64;

/// Per-request ingress caps enforced by [`read_request_limited`].
///
/// The head-section byte cap is fixed (`16 KiB`); body size and header
/// count are tunable because legitimate workloads differ by orders of
/// magnitude (a full-chip sweep request vs. a health probe).
#[derive(Debug, Clone, Copy)]
pub struct IngressLimits {
    /// Reject bodies longer than this with [`RequestError::TooLarge`].
    pub max_body_bytes: usize,
    /// Reject requests with more headers than this.
    pub max_headers: usize,
}

impl Default for IngressLimits {
    fn default() -> Self {
        IngressLimits {
            max_body_bytes: MAX_BODY_BYTES,
            max_headers: MAX_HEADERS,
        }
    }
}

/// Why reading one request failed — each variant maps to a distinct
/// HTTP answer so hostile input is always shed with a *named* status
/// instead of a generic hangup.
#[derive(Debug)]
pub enum RequestError {
    /// Protocol violation (malformed line, bad header, non-HTTP bytes):
    /// answer `400` and close.
    Bad(String),
    /// Declared body exceeds the ingress cap: answer `413` and close
    /// (the body is unread, so the connection cannot be reused).
    TooLarge(String),
    /// The per-request wall-clock deadline expired while the request was
    /// still arriving (slow-loris): answer `408` and close.
    Timeout,
    /// Transport-level failure (peer reset, idle keep-alive expiry as
    /// [`io::ErrorKind::WouldBlock`]): drop the connection silently.
    Io(io::Error),
}

impl RequestError {
    fn from_io(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut => RequestError::Timeout,
            io::ErrorKind::InvalidData => RequestError::Bad(e.to_string()),
            _ => RequestError::Io(e),
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path + optional query string).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
}

/// Reads one `\n`-terminated line of at most `max` bytes. A longer line
/// errors *before* buffering it all (the cap on line length is what
/// bounds memory use per connection; `MAX_HEAD_BYTES` alone would not,
/// since it is only checked between lines).
fn read_line_bounded(stream: &mut impl BufRead, max: usize) -> io::Result<String> {
    let mut buf = Vec::with_capacity(128);
    let mut limited = io::Read::take(io::Read::by_ref(stream), max as u64 + 1);
    limited.read_until(b'\n', &mut buf)?;
    if buf.len() > max {
        return Err(bad_data(format!("line longer than {max} bytes")));
    }
    String::from_utf8(buf).map_err(|_| bad_data("non-UTF-8 header bytes".into()))
}

/// Reads one request off a buffered stream with explicit ingress caps.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly before
/// sending a request line (the keep-alive loop's exit).
///
/// # Errors
///
/// Every failure is classified by [`RequestError`]: protocol violations
/// as `Bad` (`400`), an oversized declared body as `TooLarge` (`413`), a
/// blown per-request read deadline as `Timeout` (`408`; the underlying
/// stream signals it with [`io::ErrorKind::TimedOut`]), and transport
/// failures as `Io`.
pub fn read_request_limited(
    stream: &mut impl BufRead,
    limits: &IngressLimits,
) -> Result<Option<Request>, RequestError> {
    let line = read_line_bounded(stream, MAX_HEAD_BYTES).map_err(RequestError::from_io)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_ascii_uppercase(), p.to_string(), v)
        }
        _ => {
            return Err(RequestError::Bad(format!(
                "malformed request line {line:?}"
            )))
        }
    };
    let _ = version;

    let mut content_length = 0usize;
    let mut close = false;
    let mut head_bytes = line.len();
    let mut headers = 0usize;
    loop {
        let header = read_line_bounded(stream, MAX_HEAD_BYTES).map_err(RequestError::from_io)?;
        if header.is_empty() {
            return Err(RequestError::Bad("connection closed mid-headers".into()));
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(RequestError::Bad("header section too large".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > limits.max_headers {
            return Err(RequestError::Bad(format!(
                "more than {} headers",
                limits.max_headers
            )));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(RequestError::Bad(format!("malformed header {header:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| RequestError::Bad(format!("bad content-length {value:?}")))?;
                if content_length > limits.max_body_bytes {
                    return Err(RequestError::TooLarge(format!(
                        "body of {content_length} bytes exceeds the {} byte limit",
                        limits.max_body_bytes
                    )));
                }
            }
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(RequestError::from_io)?;
    Ok(Some(Request {
        method,
        path,
        body,
        close,
    }))
}

/// Reads one request with the default [`IngressLimits`], collapsing the
/// typed [`RequestError`] back into `io::Error` (`Bad`/`TooLarge` →
/// [`io::ErrorKind::InvalidData`], `Timeout` →
/// [`io::ErrorKind::TimedOut`]). Kept for embedders and tests that do
/// not need per-status shedding; the daemon itself uses
/// [`read_request_limited`].
///
/// # Errors
///
/// I/O errors propagate; protocol violations surface as
/// [`io::ErrorKind::InvalidData`] and the connection should be dropped
/// after a `400`.
pub fn read_request(stream: &mut impl BufRead) -> io::Result<Option<Request>> {
    match read_request_limited(stream, &IngressLimits::default()) {
        Ok(req) => Ok(req),
        Err(RequestError::Bad(msg)) | Err(RequestError::TooLarge(msg)) => Err(bad_data(msg)),
        Err(RequestError::Timeout) => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "request deadline exceeded",
        )),
        Err(RequestError::Io(e)) => Err(e),
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// Serializes one fixed-length response, head and body, into a single
/// buffer. `extra_headers` go out verbatim after the standard ones (e.g.
/// `("retry-after", "3")` on `503`).
pub(crate) fn response_bytes(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut wire = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n",
        status_reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        wire.push_str(&format!("{name}: {value}\r\n"));
    }
    wire.push_str("\r\n");
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Writes one fixed-length response (see `response_bytes`) with a
/// single `write_all`. Separate small writes for the head and the body
/// would let Nagle's algorithm hold the body back until the client's
/// delayed ACK, adding tens of milliseconds to every keep-alive reply.
///
/// # Errors
///
/// Propagates stream I/O errors.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    stream.write_all(&response_bytes(status, content_type, extra_headers, body))?;
    stream.flush()
}

/// Writes the head of a `Transfer-Encoding: chunked` response. The body
/// must follow as zero or more [`write_chunk`] calls terminated by
/// [`finish_chunked`]. Used by streaming endpoints (`/v1/sweep`) whose
/// total length is unknown when the status line goes out.
///
/// # Errors
///
/// Propagates stream I/O errors.
pub fn write_chunked_head(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\n\r\n",
        status_reason(status)
    )
}

/// Writes one body chunk (`<hex len>\r\n<data>\r\n`). Empty payloads are
/// skipped — a zero-length chunk would terminate the body early.
///
/// # Errors
///
/// Propagates stream I/O errors.
pub fn write_chunk(stream: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")
}

/// Terminates a chunked body (`0\r\n\r\n`) and flushes the stream.
///
/// # Errors
///
/// Propagates stream I/O errors.
pub fn finish_chunked(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Writes one client request with a `Content-Length` body.
/// `extra_headers` go out verbatim after the standard ones.
///
/// # Errors
///
/// Propagates stream I/O errors.
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(body)?;
    stream.flush()
}

/// Status line + headers of a response, before the body is consumed.
#[derive(Debug)]
pub struct ResponseHead {
    /// Numeric status code.
    pub status: u16,
    /// Parsed `Retry-After` header in seconds, when present and numeric.
    pub retry_after: Option<u64>,
    /// Whether the body uses `Transfer-Encoding: chunked`.
    pub chunked: bool,
    /// Declared `Content-Length` (0 when absent or chunked).
    pub content_length: usize,
    /// Whether the server asked for `Connection: close`.
    pub close: bool,
}

/// One fully-read HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Parsed `Retry-After` header in seconds, when present and numeric.
    pub retry_after: Option<u64>,
    /// Body bytes (chunked bodies are reassembled).
    pub body: Vec<u8>,
    /// Whether the server asked for `Connection: close`.
    pub close: bool,
}

/// Reads a response's status line and headers, leaving the stream
/// positioned at the body. Streaming consumers follow with
/// [`read_chunk`] (chunked) or a sized read; buffered consumers use
/// [`read_response`] instead.
///
/// # Errors
///
/// I/O errors propagate; malformed status lines or headers surface as
/// [`io::ErrorKind::InvalidData`].
pub fn read_response_head(stream: &mut impl BufRead) -> io::Result<ResponseHead> {
    let line = read_line_bounded(stream, MAX_HEAD_BYTES)?;
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| bad_data(format!("bad status code in {line:?}")))?,
        _ => return Err(bad_data(format!("malformed status line {line:?}"))),
    };
    let mut head = ResponseHead {
        status,
        retry_after: None,
        chunked: false,
        content_length: 0,
        close: false,
    };
    let mut headers = 0usize;
    loop {
        let header = read_line_bounded(stream, MAX_HEAD_BYTES)?;
        if header.is_empty() {
            return Err(bad_data("connection closed mid-headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(bad_data(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad_data(format!("malformed header {header:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                head.content_length = value
                    .parse()
                    .map_err(|_| bad_data(format!("bad content-length {value:?}")))?;
            }
            "transfer-encoding" => {
                head.chunked = value.to_ascii_lowercase().contains("chunked");
            }
            "retry-after" => head.retry_after = value.parse().ok(),
            "connection" => head.close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    Ok(head)
}

/// Reads one chunk of a chunked body: `Ok(Some(data))` per chunk,
/// `Ok(None)` at the terminator (trailers are consumed and discarded).
/// `max` bounds a single chunk's size.
///
/// # Errors
///
/// I/O errors propagate; malformed chunk framing surfaces as
/// [`io::ErrorKind::InvalidData`].
pub fn read_chunk(stream: &mut impl BufRead, max: usize) -> io::Result<Option<Vec<u8>>> {
    let line = read_line_bounded(stream, 128)?;
    let size_text = line.trim().split(';').next().unwrap_or("");
    let size = usize::from_str_radix(size_text, 16)
        .map_err(|_| bad_data(format!("bad chunk size {size_text:?}")))?;
    if size > max {
        return Err(bad_data(format!("chunk of {size} bytes exceeds {max}")));
    }
    if size == 0 {
        loop {
            let trailer = read_line_bounded(stream, MAX_HEAD_BYTES)?;
            if trailer.trim_end().is_empty() {
                break;
            }
        }
        return Ok(None);
    }
    let mut data = vec![0u8; size];
    stream.read_exact(&mut data)?;
    let mut crlf = [0u8; 2];
    stream.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(bad_data("chunk not CRLF-terminated".into()));
    }
    Ok(Some(data))
}

/// Reads one full response, reassembling chunked bodies. `max_body`
/// bounds the total body size.
///
/// # Errors
///
/// I/O errors propagate; malformed framing or a body over `max_body`
/// surfaces as [`io::ErrorKind::InvalidData`].
pub fn read_response(stream: &mut impl BufRead, max_body: usize) -> io::Result<Response> {
    let head = read_response_head(stream)?;
    let mut body = Vec::new();
    if head.chunked {
        while let Some(chunk) = read_chunk(stream, max_body)? {
            if body.len() + chunk.len() > max_body {
                return Err(bad_data(format!("response body exceeds {max_body} bytes")));
            }
            body.extend_from_slice(&chunk);
        }
    } else {
        if head.content_length > max_body {
            return Err(bad_data(format!(
                "response body of {} bytes exceeds {max_body}",
                head.content_length
            )));
        }
        body = vec![0u8; head.content_length];
        stream.read_exact(&mut body)?;
    }
    Ok(Response {
        status: head.status,
        retry_after: head.retry_after,
        body,
        close: head.close,
    })
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_post_with_body_and_keepalive_sequencing() {
        let wire = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(&wire[..]);
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/v1/predict");
        assert_eq!(first.body, b"abcd");
        assert!(!first.close);
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(second.body.is_empty());
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn write_response_issues_exactly_one_write() {
        /// Counts `write` calls; each accepts the whole buffer.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let check = |extra: &[(&str, &str)], body: &[u8], want: &str| {
            let mut w = CountingWriter::default();
            write_response(&mut w, 200, "text/plain", extra, body).unwrap();
            assert_eq!(w.writes, 1, "one write per response");
            assert_eq!(String::from_utf8(w.bytes).unwrap(), want);
        };
        check(
            &[],
            b"",
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 0\r\n\r\n",
        );
        check(
            &[("retry-after", "3")],
            b"{}",
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 2\r\n\
             retry-after: 3\r\n\r\n{}",
        );
    }

    #[test]
    fn connection_close_is_reported() {
        let wire = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert!(req.close);
    }

    #[test]
    fn rejects_malformed_request_lines_and_oversized_bodies() {
        for wire in [
            &b"FROB\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
        ] {
            let err = read_request(&mut BufReader::new(wire)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{wire:?}");
        }
    }

    #[test]
    fn limited_read_classifies_oversized_and_overheaded_requests() {
        let limits = IngressLimits {
            max_body_bytes: 16,
            max_headers: 2,
        };
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
        match read_request_limited(&mut BufReader::new(&wire[..]), &limits) {
            Err(RequestError::TooLarge(msg)) => assert!(msg.contains("17"), "{msg}"),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let wire = b"GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        match read_request_limited(&mut BufReader::new(&wire[..]), &limits) {
            Err(RequestError::Bad(msg)) => assert!(msg.contains("headers"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
        // At the caps both requests pass.
        let wire = b"POST /x HTTP/1.1\r\na: 1\r\nContent-Length: 16\r\n\r\n0123456789abcdef";
        let req = read_request_limited(&mut BufReader::new(&wire[..]), &limits)
            .unwrap()
            .unwrap();
        assert_eq!(req.body.len(), 16);
    }

    #[test]
    fn unterminated_monster_line_is_rejected_without_buffering_it() {
        // A "request" that never sends '\n' must error at the line cap,
        // not accumulate until memory runs out.
        let monster = vec![b'A'; MAX_HEAD_BYTES * 4];
        let err = read_request(&mut BufReader::new(&monster[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than"), "{err}");
    }

    #[test]
    fn response_has_correct_framing() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            &[("retry-after", "1")],
            b"{\"error\":\"queue full\"}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("content-length: 22\r\n"), "{text}");
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(
            text.ends_with("\r\n\r\n{\"error\":\"queue full\"}"),
            "{text}"
        );

        let mut out = Vec::new();
        write_response(&mut out, 504, "application/json", &[], b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"),
            "{text}"
        );

        for (status, reason) in [(408, "Request Timeout"), (413, "Payload Too Large")] {
            let mut out = Vec::new();
            write_response(&mut out, status, "application/json", &[], b"{}").unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(
                text.starts_with(&format!("HTTP/1.1 {status} {reason}\r\n")),
                "{text}"
            );
        }
    }

    #[test]
    fn chunked_framing_round_trips() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "application/jsonl").unwrap();
        write_chunk(&mut out, b"hello\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut out, b"world\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("transfer-encoding: chunked\r\n"), "{text}");
        assert!(!text.contains("content-length"), "{text}");
        assert!(
            text.ends_with("6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n"),
            "{text}"
        );

        // The client half decodes what the server half wrote.
        let resp = read_response(&mut BufReader::new(&out[..]), 1 << 16).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hello\nworld\n");
    }

    #[test]
    fn client_request_is_parseable_by_the_server_half() {
        let mut out = Vec::new();
        write_request(
            &mut out,
            "POST",
            "/v1/predict",
            &[("connection", "close")],
            b"{\"task\":\"link\"}",
        )
        .unwrap();
        let req = read_request(&mut BufReader::new(&out[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.body, b"{\"task\":\"link\"}");
        assert!(req.close);
    }

    #[test]
    fn client_response_parsing_reads_retry_after_and_fixed_bodies() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            &[("retry-after", "7")],
            b"{\"error\":\"queue full\"}",
        )
        .unwrap();
        let resp = read_response(&mut BufReader::new(&out[..]), 1 << 16).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(7));
        assert_eq!(resp.body, b"{\"error\":\"queue full\"}");

        // Streaming head + chunk reads for the sweep path.
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "application/jsonl").unwrap();
        write_chunk(&mut out, b"line\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let mut r = BufReader::new(&out[..]);
        let head = read_response_head(&mut r).unwrap();
        assert!(head.chunked);
        assert_eq!(read_chunk(&mut r, 1 << 16).unwrap().unwrap(), b"line\n");
        assert!(read_chunk(&mut r, 1 << 16).unwrap().is_none());
    }

    #[test]
    fn oversized_response_bodies_are_rejected() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", &[], &[b'x'; 64]).unwrap();
        let err = read_response(&mut BufReader::new(&out[..]), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
