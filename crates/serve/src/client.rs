//! Blocking client for the serve wire protocol.

use crate::protocol::{decode_response, encode_request, Request, RequestBody, Response, MAX_FRAME};
use graph_core::Graph;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A blocking connection speaking the length-prefixed protocol.
///
/// [`Client::request`] is strict request-response; [`Client::send`] /
/// [`Client::recv`] are split out for pipelining tests (responses are
/// correlated by tag, not order — see [`crate::protocol`]). Read every
/// answer before closing the write side: the server closes a connection
/// at end of file and drops the queries it still holds queued.
pub struct Client {
    stream: TcpStream,
    next_tag: u32,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_tag: 0,
        })
    }

    /// Connect, retrying until `timeout` elapses — for scripts that race
    /// the server's startup (CI starts both concurrently).
    pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn fresh_tag(&mut self) -> u32 {
        let t = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        t
    }

    /// Send one request frame; returns the tag to correlate the response.
    pub fn send(&mut self, body: RequestBody) -> io::Result<u32> {
        let tag = self.fresh_tag();
        let frame = encode_request(&Request { tag, body });
        self.stream.write_all(&frame)?;
        Ok(tag)
    }

    /// Read one response frame (blocking).
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response frame exceeds MAX_FRAME",
            ));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Send a request and block for its response, checking the tag.
    pub fn request(&mut self, body: RequestBody) -> io::Result<Response> {
        let tag = self.send(body)?;
        let resp = self.recv()?;
        if resp.tag != tag {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response tag {} for request {tag}", resp.tag),
            ));
        }
        Ok(resp)
    }

    /// Containment query for `g`.
    pub fn query(&mut self, g: &Graph) -> io::Result<Response> {
        self.request(RequestBody::Query(g.clone()))
    }

    /// Insert `g` into the served database (§7.1).
    pub fn insert(&mut self, g: &Graph) -> io::Result<Response> {
        self.request(RequestBody::Insert(g.clone()))
    }

    /// Remove graph `gid` from the served database (§7.1).
    pub fn remove(&mut self, gid: u32) -> io::Result<Response> {
        self.request(RequestBody::Remove(gid))
    }

    /// Fetch a live metrics snapshot (`treepi.obs/v1` JSON).
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request(RequestBody::Stats)
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request(RequestBody::Shutdown)
    }
}
