//! Hand-rolled HTTP/1.1: a strict, size-limited request parser and a
//! response writer, over any `Read`/`Write` pair.
//!
//! Like the in-tree JSON layer, this implements exactly the subset the
//! service needs — `GET`/`POST`, `Content-Length` bodies, no chunked
//! encoding, no keep-alive (every response carries `Connection: close`).
//! The parser is the outermost trust boundary of `batnet-serve`, so
//! every limit is explicit and every failure is a typed
//! [`ParseError`] the server maps to a 4xx and a metric — malformed
//! input must never panic, hang, or allocate without bound (the same
//! Lesson-3 contract the config parser upholds, one layer down).

use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Parser limits. Defaults are deliberately tight; uploads that need a
/// bigger body get it from [`Limits::with_max_body`].
#[derive(Clone, Debug)]
pub struct Limits {
    /// Longest accepted request line (method + target + version).
    pub max_request_line: usize,
    /// Longest accepted single header line.
    pub max_header_line: usize,
    /// Most accepted headers.
    pub max_headers: usize,
    /// Largest accepted `Content-Length`.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_request_line: 4096,
            max_header_line: 4096,
            max_headers: 64,
            max_body: 4 << 20,
        }
    }
}

impl Limits {
    /// Same limits with a different body cap.
    pub fn with_max_body(mut self, max_body: usize) -> Limits {
        self.max_body = max_body;
        self
    }
}

/// Why a request was rejected at the parse layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The request line is not `METHOD target HTTP/1.x`.
    BadRequestLine(String),
    /// A method we do not serve.
    UnsupportedMethod(String),
    /// The request line exceeded its limit.
    RequestLineTooLong,
    /// One header line exceeded its limit.
    HeaderTooLong,
    /// More headers than the limit.
    TooManyHeaders,
    /// A header line without a colon.
    BadHeader(String),
    /// `Content-Length` missing on POST, unparsable, or inconsistent.
    BadContentLength(String),
    /// Declared body larger than the limit.
    BodyTooLarge { declared: usize, limit: usize },
    /// The peer closed (or stopped sending) mid-request.
    Truncated,
    /// A socket read timed out — the watchdog's signal that the peer is
    /// feeding us bytes too slowly (slow-loris) or not at all.
    TimedOut,
    /// Any other I/O error while reading.
    Io(String),
}

impl ParseError {
    /// The HTTP status this rejection maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::RequestLineTooLong | ParseError::HeaderTooLong | ParseError::TooManyHeaders => 431,
            ParseError::BodyTooLarge { .. } => 413,
            ParseError::UnsupportedMethod(_) => 405,
            ParseError::TimedOut => 408,
            ParseError::Truncated | ParseError::Io(_) => 400,
            _ => 400,
        }
    }

    /// The rejection-accounting metric class (`serve.rejected.<class>`).
    pub fn metric_class(&self) -> &'static str {
        match self {
            ParseError::RequestLineTooLong
            | ParseError::HeaderTooLong
            | ParseError::TooManyHeaders
            | ParseError::BodyTooLarge { .. } => "too-large",
            ParseError::TimedOut => "watchdog",
            ParseError::Truncated => "truncated",
            _ => "malformed",
        }
    }

    /// Human-readable detail for the error response body.
    pub fn detail(&self) -> String {
        match self {
            ParseError::BadRequestLine(l) => format!("bad request line: {l:?}"),
            ParseError::UnsupportedMethod(m) => format!("unsupported method {m:?}"),
            ParseError::RequestLineTooLong => "request line too long".to_string(),
            ParseError::HeaderTooLong => "header line too long".to_string(),
            ParseError::TooManyHeaders => "too many headers".to_string(),
            ParseError::BadHeader(h) => format!("bad header: {h:?}"),
            ParseError::BadContentLength(v) => format!("bad content-length: {v}"),
            ParseError::BodyTooLarge { declared, limit } => {
                format!("body of {declared} bytes exceeds limit {limit}")
            }
            ParseError::Truncated => "request truncated".to_string(),
            ParseError::TimedOut => "request timed out".to_string(),
            ParseError::Io(e) => format!("read error: {e}"),
        }
    }
}

/// HTTP method (the served subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Read-only.
    Get,
    /// State-changing (uploads, shutdown).
    Post,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Decoded path (no query string).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers, lowercased keys, last value wins.
    pub headers: BTreeMap<String, String>,
    /// The body (empty for GET).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter with this name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one byte, distinguishing timeout / close / error.
fn read_byte(r: &mut impl Read) -> Result<Option<u8>, ParseError> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(ParseError::TimedOut)
            }
            Err(e) => return Err(ParseError::Io(e.to_string())),
        }
    }
}

/// Reads a CRLF- (or bare-LF-) terminated line of at most `limit`
/// bytes, excluding the terminator. `None` = clean EOF before any byte.
fn read_line(
    r: &mut impl Read,
    limit: usize,
    over: ParseError,
) -> Result<Option<String>, ParseError> {
    let mut line: Vec<u8> = Vec::with_capacity(80);
    loop {
        match read_byte(r)? {
            None => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(ParseError::Truncated)
                }
            }
            Some(b'\n') => {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            Some(b) => {
                if line.len() >= limit {
                    return Err(over);
                }
                line.push(b);
            }
        }
    }
}

/// Percent-decodes a URL component (`%XX` and `+` → space). Invalid
/// escapes pass through literally — rejecting them buys nothing here.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(&String::from_utf8_lossy(h), 16).ok()) {
                    Some(v) => {
                        out.push(v);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a URL component (unreserved characters pass through).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// Splits a request target into decoded path and query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), params)
}

/// Reads and validates one request. `Ok(None)` means the peer closed
/// before sending anything (an idle probe, not an error).
pub fn read_request(r: &mut impl Read, limits: &Limits) -> Result<Option<Request>, ParseError> {
    let line = match read_line(r, limits.max_request_line, ParseError::RequestLineTooLong)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::BadRequestLine(clip(&line))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequestLine(clip(&line)));
    }
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(ParseError::UnsupportedMethod(clip(other))),
    };
    let mut headers = BTreeMap::new();
    // Count header *lines*, not map entries: duplicate names overwrite
    // the same key, so a peer streaming one header line forever would
    // never grow the map — and never trip the limit or the watchdog.
    let mut header_lines = 0usize;
    loop {
        let hline = read_line(r, limits.max_header_line, ParseError::HeaderTooLong)?
            .ok_or(ParseError::Truncated)?;
        if hline.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > limits.max_headers {
            return Err(ParseError::TooManyHeaders);
        }
        let (k, v) = hline
            .split_once(':')
            .ok_or_else(|| ParseError::BadHeader(clip(&hline)))?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }
    let body = match headers.get("content-length") {
        None => Vec::new(),
        Some(v) => {
            let declared: usize = v
                .parse()
                .map_err(|_| ParseError::BadContentLength(clip(v)))?;
            if declared > limits.max_body {
                return Err(ParseError::BodyTooLarge {
                    declared,
                    limit: limits.max_body,
                });
            }
            let mut body = vec![0u8; declared];
            let mut got = 0;
            while got < declared {
                match r.read(&mut body[got..]) {
                    Ok(0) => return Err(ParseError::Truncated),
                    Ok(n) => got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return Err(ParseError::TimedOut)
                    }
                    Err(e) => return Err(ParseError::Io(e.to_string())),
                }
            }
            body
        }
    };
    let (path, query) = parse_target(target);
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Clips a string for inclusion in error messages.
fn clip(s: &str) -> String {
    const MAX: usize = 80;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// A response to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Retry-After`, …).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), "text/plain".to_string())],
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": ..., "status": ...}`.
    pub fn error(status: u16, detail: &str) -> Response {
        let mut body = batnet_obs::json::Writer::spaced();
        body.obj(|w| {
            w.field("status", status).field("error", detail);
        });
        Response::json(status, body.finish_line())
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, k: &str, v: impl ToString) -> Response {
        self.headers.push((k.to_string(), v.to_string()));
        self
    }

    /// The standard reason phrase for the served status codes.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            206 => "Partial Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes and writes the response. Write failures are returned
    /// (callers count them; the peer may have gone away, which is fine).
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nConnection: close\r\nContent-Length: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.body.len()
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        read_request(&mut &raw[..], &Limits::default())
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /query/reach?snapshot=N2&prefix=10.2.0.0%2F24&port=80 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/query/reach");
        assert_eq!(req.param("snapshot"), Some("N2"));
        assert_eq!(req.param("prefix"), Some("10.2.0.0/24"));
        assert_eq!(req.param("port"), Some("80"));
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
    }

    #[test]
    fn parses_post_body_exactly() {
        let req = parse(b"POST /snapshots/a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_garbage_request_line() {
        assert!(matches!(
            parse(b"\x01\x02 garbage\r\n\r\n"),
            Err(ParseError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET /\r\n\r\n"),
            Err(ParseError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/99\r\n\r\n"),
            Err(ParseError::BadRequestLine(_))
        ));
    }

    #[test]
    fn rejects_unsupported_method() {
        let e = parse(b"DELETE /x HTTP/1.1\r\n\r\n").unwrap_err();
        assert!(matches!(e, ParseError::UnsupportedMethod(_)));
        assert_eq!(e.status(), 405);
    }

    #[test]
    fn enforces_request_line_limit() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat(b'a').take(5000));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let e = read_request(&mut &raw[..], &Limits::default()).unwrap_err();
        assert_eq!(e, ParseError::RequestLineTooLong);
        assert_eq!(e.status(), 431);
        assert_eq!(e.metric_class(), "too-large");
    }

    #[test]
    fn enforces_header_limits() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(
            read_request(&mut &raw[..], &Limits::default()).unwrap_err(),
            ParseError::TooManyHeaders
        );

        // Duplicate header names collapse into one map entry, so the
        // limit must count lines received, not distinct names — else a
        // repeated-header stream pins a worker forever (slow-loris by
        // another name).
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for _ in 0..100 {
            raw.extend_from_slice(b"X-Same: v\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(
            read_request(&mut &raw[..], &Limits::default()).unwrap_err(),
            ParseError::TooManyHeaders
        );

        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat(b'v').take(8192));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            read_request(&mut &raw[..], &Limits::default()).unwrap_err(),
            ParseError::HeaderTooLong
        );
    }

    #[test]
    fn enforces_body_limit_without_reading_it() {
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let e = parse(raw).unwrap_err();
        assert!(matches!(e, ParseError::BodyTooLarge { .. }));
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn truncated_body_is_typed() {
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(parse(raw).unwrap_err(), ParseError::Truncated);
    }

    #[test]
    fn clean_eof_is_none_not_error() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn mid_line_eof_is_truncated() {
        assert_eq!(parse(b"GET /he").unwrap_err(), ParseError::Truncated);
    }

    #[test]
    fn percent_roundtrip() {
        let s = "10.0.0.0/8 and spaces+plus";
        assert_eq!(percent_decode(&percent_encode(s)), s);
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = Vec::new();
        Response::json(206, "{}")
            .with_header("Retry-After", 1)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 206 Partial Content\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
