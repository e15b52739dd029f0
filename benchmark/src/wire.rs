//! The benchmark's own HTTP/1.1 client: request bytes built once, one
//! keep-alive socket per client, replies framed by `Content-Length`.
//!
//! Deliberately independent of `flashfuser::serve::client`, so the
//! end-to-end bin depends on the wire format and nothing else of the
//! serving crate.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The bytes of one keep-alive request.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// One persistent connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// Bytes read off the socket and not yet consumed by a reply.
    buf: Vec<u8>,
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    /// Connects with `TCP_NODELAY` and generous timeouts (a cold
    /// whole-model compile answers in under a second).
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends prebuilt request bytes and reads one reply. Returns the
    /// status; the reply body is left in `body`.
    pub fn round_trip(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.stream.write_all(request)?;
        self.read_reply(body)
    }

    fn read_reply(&mut self, body: &mut Vec<u8>) -> io::Result<u16> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("reply head is not UTF-8"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("no status in reply"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| invalid("no Content-Length in reply"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        body.clear();
        body.extend_from_slice(&self.buf[head_end..head_end + length]);
        self.buf.drain(..head_end + length);
        Ok(status)
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-reply",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_bytes_frame_the_body() {
        let bytes = request_bytes("POST", "/compile", b"{}");
        assert_eq!(
            bytes,
            b"POST /compile HTTP/1.1\r\nHost: bench\r\nContent-Length: 2\r\n\r\n{}"
        );
    }

    #[test]
    fn replies_are_cut_by_content_length_even_when_coalesced() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 256];
            let _ = s.read(&mut sink).unwrap();
            // Two replies in one segment, the second split mid-body.
            s.write_all(
                b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1 503 Busy\r\nContent-Length: 4\r\n\r\nde",
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b"fg").unwrap();
        });
        let mut conn = Conn::open(addr).unwrap();
        let mut body = Vec::new();
        assert_eq!(
            conn.round_trip(b"GET / HTTP/1.1\r\n\r\n", &mut body)
                .unwrap(),
            200
        );
        assert_eq!(body, b"abc");
        assert_eq!(conn.read_reply(&mut body).unwrap(), 503);
        assert_eq!(body, b"defg");
        server.join().unwrap();
    }
}
