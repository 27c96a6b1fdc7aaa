//! A minimal blocking HTTP/1.1 client for the served API.
//!
//! Exists so the load driver (`benchmark/`), the smoke test, the
//! chaos harness's *well-behaved* clients, and the integration tests
//! all speak to the server the same way — one connection per request,
//! `Connection: close`, socket timeouts armed. Retrying is the caller's
//! decision: a `503` carries `Retry-After`.

use batnet_obs::json::{self, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, lowercased keys.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (empty string if it is not).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Value, String> {
        json::parse(self.body_str())
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    let mut head = format!("{method} {target} HTTP/1.1\r\nHost: batnet\r\n");
    if let Some(b) = body {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some(b) = body {
        stream.write_all(b)?;
    }
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let bad = |d: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, d.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
    })
}

/// One GET.
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> std::io::Result<ClientResponse> {
    request(addr, "GET", target, None, timeout)
}

/// One POST.
pub fn post(
    addr: SocketAddr,
    target: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    request(addr, "POST", target, Some(body), timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_with_headers_and_body() {
        let raw = b"HTTP/1.1 206 Partial Content\r\nContent-Type: application/json\r\nRetry-After: 1\r\n\r\n{\"ok\": true}";
        let r = parse_response(raw).expect("parse");
        assert_eq!(r.status, 206);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.header("Content-Type"), Some("application/json"));
        assert_eq!(r.body_str(), "{\"ok\": true}");
        assert!(r.json().is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\n").is_err());
    }
}
