//! The socket shell around the serving core (`crate::machine`). One
//! thread owns every socket, registered with the vendored level-triggered
//! `minipoll` selector; the engine's worker pool runs the batches. The
//! shell makes the system calls and nothing else: it accepts, reads each
//! connection straight into the core's read buffer, writes straight from
//! its write buffer, keeps each socket's poll interest in step with what
//! is left to send, and hands the core the clock. At end of file it
//! writes what the socket takes at once, then closes the connection.

use crate::machine::{ConnKind, Machine, READ_QUANTUM};
use crate::telemetry::ServeTelemetry;
use minipoll::{Events, Interest, Poll, Token};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use treepi::Engine;

const LISTENER: Token = Token(0);
/// Token of the optional HTTP monitoring listener.
const HTTP_LISTENER: Token = Token(1);
/// Connection slot `idx` registers as `Token(idx + CONN_BASE)`.
const CONN_BASE: usize = 2;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum queries per engine micro-batch.
    pub max_batch: usize,
    /// Admission queue bound; beyond it queries are shed with `Busy`.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (0 disables the cache).
    pub cache_cap: usize,
    /// Maximum simultaneously open connections; excess accepts are
    /// dropped immediately (`serve.conns_refused`).
    pub max_conns: usize,
    /// Stop after decoding this many request frames (0 = run until a
    /// shutdown request). A safety valve for scripted runs.
    pub max_requests: u64,
    /// Address for the HTTP monitoring listener (`/metrics`, `/healthz`,
    /// `/slowz`); `None` disables it.
    pub http_addr: Option<String>,
    /// Event-loop stall threshold: one poll-to-poll work period at or
    /// beyond it counts a `serve.loop.stall_count` trip and flips
    /// `/healthz` to degraded. `None` disables the watchdog.
    pub stall_threshold: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            queue_cap: 1024,
            cache_cap: 4096,
            max_conns: 1024,
            max_requests: 0,
            http_addr: None,
            stall_threshold: Some(Duration::from_millis(100)),
        }
    }
}

/// Totals of one server run, returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Request frames decoded.
    pub requests: u64,
    /// Query requests (cache hits, batched, and shed included).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries answered by micro-batches, each of several identical ones in
    /// one batch included (the engine runs those once).
    pub served: u64,
    /// Queries refused with `Busy` (admission queue full).
    pub shed: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Malformed frames answered with an error.
    pub errors: u64,
    /// Connections dropped for a wire-protocol violation (oversized
    /// declared frame length). A subset of `errors`.
    pub proto_errors: u64,
    /// HTTP monitoring requests served.
    pub http_requests: u64,
    /// Event-loop stall-watchdog trips.
    pub stalls: u64,
    /// Peak admission-queue depth (≤ `queue_cap` by construction).
    pub queue_peak: usize,
    /// Accepted connections dropped at once: `max_conns` were open, or
    /// the socket could not be made non-blocking or registered.
    pub conns_refused: u64,
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requests={} queries={} cache_hits={} served={} shed={} \
             batches={} errors={} proto_errors={} \
             http_requests={} stalls={} queue_peak={} conns_refused={}",
            self.requests,
            self.queries,
            self.cache_hits,
            self.served,
            self.shed,
            self.batches,
            self.errors,
            self.proto_errors,
            self.http_requests,
            self.stalls,
            self.queue_peak,
            self.conns_refused
        )
    }
}

/// A bound-but-not-yet-running server. [`Server::bind`] then
/// [`Server::run`].
pub struct Server {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    poll: Poll,
    config: ServeConfig,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7878`; port 0 picks an ephemeral
    /// port — read it back with [`Server::local_addr`]). When
    /// [`ServeConfig::http_addr`] is set, the HTTP monitoring listener is
    /// bound here too ([`Server::http_local_addr`]).
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let http_listener = match &config.http_addr {
            None => None,
            Some(http_addr) => {
                let l = TcpListener::bind(http_addr.as_str())?;
                l.set_nonblocking(true)?;
                poll.register(&l, HTTP_LISTENER, Interest::READABLE)?;
                Some(l)
            }
        };
        Ok(Server {
            listener,
            http_listener,
            poll,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound HTTP monitoring address, when one was configured.
    pub fn http_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Run the event loop until a shutdown request (or `max_requests`)
    /// arrives, then drain the queue, flush responses, and return the
    /// run's totals. The loop's spans (`serve.request`, `serve.batch_exec`,
    /// …) and its `serve.*` / `cache.*` / `maint.*` numbers are absorbed
    /// into `registry` once, at shutdown.
    pub fn run(self, engine: &Engine, registry: &obs::Registry) -> io::Result<ServeReport> {
        let mut telemetry = ServeTelemetry::disabled();
        self.run_with_telemetry(engine, registry, &mut telemetry)
    }

    /// [`Server::run`] with telemetry attached: queries whose verify stage
    /// meets the slow-query threshold are captured into `telemetry.slow`,
    /// and every request is written to `telemetry.access` when it is set.
    /// Both outlive the run — the caller renders them after the server
    /// exits.
    pub fn run_with_telemetry(
        self,
        engine: &Engine,
        registry: &obs::Registry,
        telemetry: &mut ServeTelemetry,
    ) -> io::Result<ServeReport> {
        let clock = Instant::now;
        let mut shell = Shell {
            listener: self.listener,
            http_listener: self.http_listener,
            poll: self.poll,
            streams: Vec::new(),
            core: Machine::new(self.config, engine, registry, telemetry, &clock),
        };
        let result = shell.serve();
        let report = shell.core.finish();
        result.map(|()| report)
    }
}

struct Shell<'e> {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    poll: Poll,
    /// Slot `idx`'s socket and whether it is registered for writability.
    streams: Vec<Option<(TcpStream, bool)>>,
    core: Machine<'e>,
}

impl Shell<'_> {
    fn serve(&mut self) -> io::Result<()> {
        let mut events = Events::with_capacity(256);
        self.core.begin_work();
        loop {
            while self.core.has_pending() {
                self.core.run_batch();
                self.sync_touched();
            }
            if self.core.shutting_down() {
                break;
            }
            self.core.end_work();
            self.poll.poll(&mut events, None)?;
            self.core.begin_work();
            for ev in &events {
                match ev.token() {
                    LISTENER => self.accept_ready(ConnKind::Wire),
                    HTTP_LISTENER => self.accept_ready(ConnKind::Http),
                    Token(t) => {
                        let idx = t - CONN_BASE;
                        if ev.is_readable() {
                            self.read(idx);
                        }
                        self.sync(idx);
                        self.sync_touched();
                    }
                }
            }
        }
        self.core.end_work();
        self.drain_writes();
        Ok(())
    }

    fn accept_ready(&mut self, kind: ConnKind) {
        loop {
            let listener = match kind {
                ConnKind::Wire => &self.listener,
                ConnKind::Http => self.http_listener.as_ref().expect("registered"),
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // would block: the backlog is empty
            };
            // Dropped when refused: the accept backlog is the only wait.
            let Some(idx) = self.core.open(kind) else {
                continue;
            };
            let token = Token(idx + CONN_BASE);
            let nonblocking = stream.set_nonblocking(true).is_ok();
            if !nonblocking
                || self
                    .poll
                    .register(&stream, token, Interest::READABLE)
                    .is_err()
            {
                self.core.refuse(idx);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if self.streams.len() <= idx {
                self.streams.resize_with(idx + 1, || None);
            }
            self.streams[idx] = Some((stream, false));
        }
    }

    /// Read `idx` straight into the core's buffer, up to [`READ_QUANTUM`]
    /// bytes, flushing each chunk's answers before the next read so the
    /// write cap judges what the socket refused. At end of file (or a read
    /// error) the answers already queued are written as far as the socket
    /// takes them, and the core closes the connection.
    fn read(&mut self, idx: usize) {
        let mut taken = 0;
        while taken < READ_QUANTUM {
            let stream = self.streams.get_mut(idx).and_then(Option::as_mut);
            let (Some((stream, _)), Some(space)) = (stream, self.core.read_space(idx)) else {
                return;
            };
            match stream.read(space) {
                Ok(n) if n > 0 => {
                    taken += n;
                    self.core.received(idx, n);
                    self.flush(idx);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => {
                    self.flush(idx);
                    self.core.close(idx);
                    return;
                }
            }
        }
    }

    /// Write the core's unsent bytes for `idx` until the socket would
    /// block, then tell the core how many it took.
    fn flush(&mut self, idx: usize) {
        let stream = self.streams.get_mut(idx).and_then(Option::as_mut);
        let (Some((stream, _)), out @ [_, ..]) = (stream, self.core.unsent(idx)) else {
            return;
        };
        let (mut n, mut open) = (0, true);
        while open && n < out.len() {
            match stream.write(&out[n..]) {
                Ok(k) if k > 0 => n += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => open = false,
            }
        }
        self.core.wrote(idx, n);
        if !open {
            self.core.close(idx);
        }
    }

    /// Flush `idx`, then drop its socket if the core closed it, or keep
    /// its write interest in step with what is left to send.
    fn sync(&mut self, idx: usize) {
        self.flush(idx);
        let Some((stream, writable)) = self.streams.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if !self.core.is_open(idx) {
            let _ = self.poll.deregister(stream);
            self.streams[idx] = None;
            return;
        }
        let want_write = !self.core.unsent(idx).is_empty();
        if want_write != *writable {
            *writable = want_write;
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            let _ = self
                .poll
                .reregister(stream, Token(idx + CONN_BASE), interest);
        }
    }

    fn sync_touched(&mut self) {
        while let Some(idx) = self.core.next_touched() {
            self.sync(idx);
        }
    }

    /// Best-effort post-shutdown flush so drained-queue answers and the
    /// shutdown ack reach their clients before the sockets drop.
    fn drain_writes(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            let mut unsent = false;
            for idx in 0..self.streams.len() {
                self.flush(idx);
                unsent |= !self.core.unsent(idx).is_empty();
            }
            if !unsent || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
