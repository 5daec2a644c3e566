//! Real-kernel-socket transport: the wall-clock [`Transport`] backend.
//!
//! [`SockNet`] drives the identical `Stack` assembly and wire envelope
//! end-to-end through the operating system: every endpoint owns a real
//! listening socket (TCP on loopback or a Unix-domain socket, selected
//! by [`SockKind`]), sends open real connections, and the crash
//! observable the de-randomization attackers rely on — "a process crash
//! … results in the closure of the TCP connection" — is produced by the
//! kernel itself: [`Transport::crash`] closes the endpoint's sockets and
//! peers learn of it by reading EOF, not by an in-process notification.
//!
//! # Reactor
//!
//! All sockets are non-blocking and the pass is the one place that
//! writes. [`Transport::send`] only appends the frame to its
//! connection's buffer (dialing the connection first if there is none);
//! [`Transport::step`] writes each connection with pending bytes once,
//! as much as the kernel takes, and then lists every live socket for
//! `POLLIN` in one reused `pollfd` vector (listeners, accepted
//! connections, and outgoing connections — for their EOF), makes one
//! `poll(2)` call, and accepts, reads and EOF-checks only where the
//! kernel reported something. Frames queued toward one peer between two
//! passes leave in one `write`. A write the kernel cut short is resumed
//! by the next pass, which is never far off: the bytes it did take make
//! the reader's socket readable. A pass costs one syscall plus one per
//! pending or ready socket, however many idle connections there are.
//! The pass is single-threaded and owned by the drive loop, exactly
//! like `SimNet` — no background threads; `poll` is declared by hand in
//! a private module (the offline-shim constraint: there is no libc
//! crate), the workspace's one foreign call.
//!
//! # Framing
//!
//! A connection starts with a fixed 20-byte hello (`sender addr`,
//! `connection id`, `sender epoch`) identifying the dialing endpoint;
//! after that every [`WireKind`](crate::wire::WireKind) envelope is
//! framed with a little-endian `u32` length prefix. A listener admits a
//! hello only if the ledger holds that connection id as dialed toward
//! this endpoint, by the endpoint and epoch the hello names, and only
//! the first time; any other connection is killed before it can touch a
//! ledger entry. Connections are unidirectional: replies flow over the
//! receiver's own connection back, which is what lets a readable
//! outgoing connection mean exactly one thing — the peer is gone.
//!
//! # Accounting
//!
//! The [`NetStats`] conservation identity (`delivered + dropped +
//! dead_lettered == sent` at quiescence) is kept exact across real
//! crashes by one ledger, indexed by connection id, of frames queued and
//! not yet delivered. Frames can only be delivered through the accepted
//! half of their connection, so the ledger is settled — what is left is
//! dead-lettered, and the dialer stops using the connection — exactly
//! when that half goes away: it read EOF (behind every byte the dialer
//! wrote: a crash first writes what its endpoint queued, and a close
//! flushes), it was killed by a bad frame or a read error, its session
//! was retired, or its endpoint crashed (which also settles connections
//! still waiting in the listener's backlog).

use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};
use crate::poll::{poll_fds, PollFd, POLLIN};
use crate::transport::Transport;

/// Which kernel socket family a [`SockNet`] runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SockKind {
    /// TCP over 127.0.0.1 (an ephemeral port per endpoint).
    Tcp,
    /// Unix-domain stream sockets in a per-instance temp directory.
    Uds,
}

impl SockKind {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SockKind::Tcp => "tcp",
            SockKind::Uds => "uds",
        }
    }
}

/// The reactor's one timing knob (see the loadgen's `--settle-ms`).
#[derive(Clone, Copy, Debug)]
pub struct SockTiming {
    /// How long [`Transport::step`] blocks in `poll(2)` when frames are
    /// counted in flight but no socket is ready. A safety valve, not a
    /// normal exit: the accounting is exact and on loopback a flushed
    /// byte is readable at once, so the wait ends at the first ready
    /// socket and runs out only on a peer that is genuinely dead.
    pub settle_timeout: Duration,
}

impl Default for SockTiming {
    fn default() -> SockTiming {
        SockTiming {
            settle_timeout: Duration::from_millis(10),
        }
    }
}

/// Hello preamble: sender address, connection id, sender epoch.
const HELLO_LEN: usize = 4 + 8 + 8;
/// Defensive cap on a single frame (the envelope never comes close).
const MAX_FRAME: usize = 16 * 1024 * 1024;
/// Run a global accept pass after this many connects between steps, so
/// a burst of dials from one drive loop cannot overflow a listener
/// backlog before the reactor runs again.
const ACCEPTS_EVERY: u32 = 64;
/// Bytes asked of the kernel per `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Distinguishes concurrently-living [`SockNet`] instances in one
/// process (Unix socket directory names).
static INSTANCES: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener, PathBuf),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Uds(l, _) => l.as_raw_fd(),
        }
    }

    /// The next pending connection, made non-blocking; `None` once the
    /// backlog is empty (or the accept failed).
    fn accept(&self) -> Option<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept().ok()?;
                let _ = s.set_nodelay(true);
                s.set_nonblocking(true).ok()?;
                Some(Stream::Tcp(s))
            }
            Listener::Uds(l, _) => {
                let (s, _) = l.accept().ok()?;
                s.set_nonblocking(true).ok()?;
                Some(Stream::Uds(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Uds(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }
}

/// Where peers dial an endpoint right now (refreshed on restart).
#[derive(Clone, Debug)]
enum Target {
    Tcp(SocketAddr),
    Uds(PathBuf),
}

/// One connection's ledger entry (module docs, *Accounting*); the
/// connection id is its index in [`SockNet::in_flight`].
#[derive(Debug)]
struct InFlight {
    /// Frames queued by `send`, not yet delivered or dead-lettered.
    frames: u64,
    /// Settled: nothing more can arrive, and `send` dials afresh
    /// instead of appending to a doomed connection.
    closed: bool,
    /// The endpoint dialed.
    to: u32,
    /// The `(dialer, dialer epoch)` its hello must name; taken when the
    /// listener admits the hello, so no second one is admitted.
    hello: Option<(u32, u64)>,
}

impl InFlight {
    /// Admits a hello naming this connection at endpoint `at` (module
    /// docs, *Framing*).
    fn admit(&mut self, at: u32, peer: (u32, u64)) -> bool {
        let owed = self.to == at && self.hello == Some(peer);
        if owed {
            self.hello = None;
        }
        owed
    }

    fn settle(&mut self, stats: &mut NetStats) {
        stats.dead_lettered += std::mem::take(&mut self.frames);
        self.closed = true;
    }
}

/// One outgoing connection (this endpoint dialing `to`).
#[derive(Debug)]
struct OutConn {
    to: u32,
    /// The destination's epoch when dialed; a restarted destination has
    /// a higher epoch and gets a fresh connection.
    peer_epoch: u64,
    conn_id: usize,
    stream: Stream,
    /// Unwritten suffix of the byte stream (`wpos..` is pending; empty
    /// once everything is flushed).
    wbuf: Vec<u8>,
    wpos: usize,
    dead: bool,
}

impl OutConn {
    /// Writes as much pending data as the kernel accepts, in one `write`
    /// unless the kernel takes it in parts. Returns whether any bytes
    /// moved; marks the connection dead on a hard write error.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() && !self.dead {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                }
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        progressed
    }

    /// Polls the (write-only) connection for EOF/reset — the kernel's
    /// crash observable. Any readable data is discarded: peers never
    /// send on a connection they accepted.
    fn poll_eof(&mut self) {
        let mut scratch = [0u8; 64];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// One accepted connection (a peer dialing this endpoint).
#[derive(Debug)]
struct InConn {
    stream: Stream,
    rbuf: Vec<u8>,
    /// `(peer addr, peer epoch)` once the hello has been parsed.
    peer: Option<(u32, u64)>,
    conn_id: usize,
    dead: bool,
}

impl InConn {
    /// Appends what the kernel holds to `rbuf`, stopping at a short read
    /// (`poll` is level-triggered: what arrives later is reported
    /// again). Returns whether any bytes arrived; marks the connection
    /// dead on EOF or a hard read error.
    fn fill(&mut self, chunk: &mut [u8]) -> bool {
        let mut progressed = false;
        while !self.dead {
            match self.stream.read(chunk) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        progressed
    }
}

#[derive(Debug)]
struct Endpoint {
    listener: Option<Listener>,
    target: Option<Target>,
    crashed: bool,
    /// Bumped on every restart; connections are epoch-scoped.
    epoch: u64,
    inbox: VecDeque<NetEvent>,
    out: Vec<OutConn>,
    inc: Vec<InConn>,
    /// Ids of the connections dialed toward this endpoint since it last
    /// came up, accepted or still in the backlog: what a crash settles.
    dialed_in: Vec<usize>,
    /// `(peer, peer epoch)` sessions whose closure was already surfaced,
    /// so the two halves of one dead session yield one closure event.
    closures_seen: HashSet<(u32, u64)>,
}

/// A [`Transport`] over real kernel sockets. See the [module
/// docs](self) for the reactor, framing and accounting contracts.
#[derive(Debug)]
pub struct SockNet {
    kind: SockKind,
    timing: SockTiming,
    endpoints: Vec<Endpoint>,
    stats: NetStats,
    /// Unix socket directory (removed on drop).
    dir: Option<PathBuf>,
    /// The ledger: one entry per connection ever dialed.
    in_flight: Vec<InFlight>,
    /// Events enqueued outside a readiness pass (dead-letter closures),
    /// reported by the next [`Transport::step`].
    dirty: bool,
    connects_since_accept: u32,
    /// The `pollfd` list and the read buffer, reused by every pass.
    fds: Vec<PollFd>,
    chunk: Vec<u8>,
}

impl SockNet {
    /// A transport over TCP loopback sockets.
    ///
    /// # Panics
    ///
    /// Never — TCP needs no filesystem setup; failures surface at
    /// [`Transport::register`] (bind) time.
    pub fn tcp() -> SockNet {
        SockNet::with_timing(SockKind::Tcp, SockTiming::default())
    }

    /// A transport over Unix-domain sockets in a fresh temp directory.
    ///
    /// # Panics
    ///
    /// Panics if the socket directory cannot be created.
    pub fn uds() -> SockNet {
        SockNet::with_timing(SockKind::Uds, SockTiming::default())
    }

    /// A transport with explicit reactor timing (CI boxes with coarse
    /// schedulers raise `settle_timeout`).
    ///
    /// # Panics
    ///
    /// Panics if the Unix socket directory cannot be created.
    pub fn with_timing(kind: SockKind, timing: SockTiming) -> SockNet {
        let dir = match kind {
            SockKind::Tcp => None,
            SockKind::Uds => {
                let dir = std::env::temp_dir().join(format!(
                    "fortress-sock-{}-{}",
                    std::process::id(),
                    INSTANCES.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).expect("create unix socket directory");
                Some(dir)
            }
        };
        SockNet {
            kind,
            timing,
            endpoints: Vec::new(),
            stats: NetStats::default(),
            dir,
            in_flight: Vec::new(),
            dirty: false,
            connects_since_accept: 0,
            fds: Vec::new(),
            chunk: vec![0; READ_CHUNK],
        }
    }

    /// The socket family in use.
    #[cfg(test)]
    fn kind(&self) -> SockKind {
        self.kind
    }

    /// Frames accepted by `send` but not yet delivered, dropped or
    /// dead-lettered — the reactor's "in flight through the kernel"
    /// count.
    pub fn outstanding(&self) -> u64 {
        self.stats.sent - self.stats.delivered - self.stats.dropped - self.stats.dead_lettered
    }

    fn bind_listener(&mut self, index: usize, epoch: u64) -> (Listener, Target) {
        match self.kind {
            SockKind::Tcp => {
                let listener = TcpListener::bind(("127.0.0.1", 0))
                    .expect("bind loopback TCP listener");
                listener
                    .set_nonblocking(true)
                    .expect("set listener non-blocking");
                let addr = listener.local_addr().expect("listener local addr");
                (Listener::Tcp(listener), Target::Tcp(addr))
            }
            SockKind::Uds => {
                let dir = self.dir.as_ref().expect("unix socket directory");
                let path = dir.join(format!("ep{index}-{epoch}.sock"));
                let listener = UnixListener::bind(&path).expect("bind unix listener");
                listener
                    .set_nonblocking(true)
                    .expect("set listener non-blocking");
                (Listener::Uds(listener, path.clone()), Target::Uds(path))
            }
        }
    }

    fn dial(&mut self, to: usize) -> std::io::Result<Stream> {
        // A burst of dials between reactor passes can outrun a
        // listener's backlog; interleave accepts.
        self.connects_since_accept += 1;
        if self.connects_since_accept >= ACCEPTS_EVERY {
            self.connects_since_accept = 0;
            for ep in &mut self.endpoints {
                accept_pending(ep);
            }
        }
        let target = self.endpoints[to].target.as_ref();
        match target.expect("live endpoint has a dial target") {
            Target::Tcp(addr) => {
                // Loopback connects complete immediately when the
                // listener is up, so a blocking dial costs nothing and
                // avoids hand-rolling EINPROGRESS tracking.
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(Stream::Tcp(s))
            }
            Target::Uds(path) => {
                let s = UnixStream::connect(path)?;
                s.set_nonblocking(true)?;
                Ok(Stream::Uds(s))
            }
        }
    }

    /// Short-circuits a send to a locally-known-crashed endpoint:
    /// dead-letter plus a closure event back to the sender (the same
    /// semantics `SimNet` gives the probe loop).
    fn dead_letter(&mut self, from: Addr, to: Addr) {
        self.stats.dead_lettered += 1;
        self.stats.closures += 1;
        self.endpoints[from.raw() as usize]
            .inbox
            .push_back(NetEvent::ConnectionClosed { peer: to, at: 0 });
        self.dirty = true;
    }

    /// Writes every connection with pending bytes, once each (module
    /// docs, *Reactor*). Returns whether any bytes moved.
    fn flush_pending(&mut self) -> bool {
        let mut progressed = false;
        for conn in self.endpoints.iter_mut().flat_map(|ep| &mut ep.out) {
            progressed |= conn.flush();
        }
        progressed
    }

    /// One readiness pass: one `poll(2)` over every socket, waiting up to
    /// `timeout_ms` for the first to become ready, then service of the
    /// ready ones only. Returns whether anything moved.
    fn poll_once(&mut self, timeout_ms: i32) -> bool {
        self.connects_since_accept = 0;
        let fds = &mut self.fds;
        fds.clear();
        let want = |fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        for ep in &self.endpoints {
            fds.extend(ep.listener.iter().map(|l| want(l.fd())));
            fds.extend(ep.out.iter().map(|c| want(c.stream.fd())));
            fds.extend(ep.inc.iter().map(|c| want(c.stream.fd())));
        }
        if poll_fds(fds, timeout_ms) == 0 {
            return false;
        }
        // Each endpoint takes back, in the order listed, one answer per
        // socket it contributed.
        let mut ready = fds.iter().map(|fd| fd.revents);
        let mut progressed = false;
        for (at, ep) in self.endpoints.iter_mut().enumerate() {
            progressed |= service_endpoint(
                ep,
                at as u32,
                &mut ready,
                &mut self.chunk,
                &mut self.stats,
                &mut self.in_flight,
            );
        }
        progressed
    }
}

/// Accepts every connection pending on `ep`'s listener. Returns whether
/// there was one; accepted connections learn their peer identity and
/// connection id from the hello they carry.
fn accept_pending(ep: &mut Endpoint) -> bool {
    let before = ep.inc.len();
    while let Some(stream) = ep.listener.as_ref().and_then(Listener::accept) {
        ep.inc.push(InConn {
            stream,
            rbuf: Vec::new(),
            peer: None,
            conn_id: 0,
            dead: false,
        });
    }
    ep.inc.len() > before
}

/// Services the sockets of `ep` (endpoint `at`) that `ready` (this
/// endpoint's `revents`, in listing order) reports: accepts, EOF-checks
/// outgoing connections, reads and frames incoming ones, surfaces
/// closures.
fn service_endpoint(
    ep: &mut Endpoint,
    at: u32,
    ready: &mut impl Iterator<Item = i16>,
    chunk: &mut [u8],
    stats: &mut NetStats,
    in_flight: &mut [InFlight],
) -> bool {
    let mut progressed = false;
    let mut died = false;
    let mut dead_sessions: Vec<(u32, u64)> = Vec::new();
    let mut next = || ready.next().unwrap_or(0);

    let polled = ep.inc.len();
    if ep.listener.is_some() && next() != 0 {
        progressed |= accept_pending(ep);
    }
    for conn in &mut ep.out {
        if next() != 0 && !conn.dead {
            conn.poll_eof();
        }
        if conn.dead {
            died = true;
            dead_sessions.push((conn.to, conn.peer_epoch));
        }
    }
    for (i, conn) in ep.inc.iter_mut().enumerate() {
        // A connection accepted in this pass was not listed: read it anyway.
        let revents = if i < polled { next() } else { POLLIN };
        if !conn.dead && revents != 0 {
            progressed |= conn.fill(chunk);
            progressed |= parse_frames(conn, at, &mut ep.inbox, stats, in_flight);
        }
        if conn.dead {
            died = true;
            dead_sessions.extend(conn.peer);
        }
    }

    if died {
        // Both halves of a session can EOF in one pass; one closure per
        // dead (peer, epoch) session, ever.
        for session in dead_sessions {
            retire_session(ep, session);
            if ep.closures_seen.insert(session) {
                stats.closures += 1;
                ep.inbox.push_back(NetEvent::ConnectionClosed {
                    peer: Addr::from_raw(session.0),
                    at: 0,
                });
                progressed = true;
            }
        }
        ep.out.retain(|c| !c.dead);
        // What an accepted connection had not delivered when it went
        // away never will be.
        for conn in ep.inc.iter().filter(|c| c.dead && c.peer.is_some()) {
            in_flight[conn.conn_id].settle(stats);
        }
        ep.inc.retain(|c| !c.dead);
    }
    progressed
}

/// Marks every connection of `(peer, epoch)` at `ep` dead, so the
/// second half of a closed session is dropped silently.
fn retire_session(ep: &mut Endpoint, session: (u32, u64)) {
    for c in &mut ep.out {
        if (c.to, c.peer_epoch) == session {
            c.dead = true;
        }
    }
    for c in &mut ep.inc {
        if c.peer == Some(session) {
            c.dead = true;
        }
    }
}

/// Parses the hello and every complete frame out of `conn.rbuf` (a
/// connection accepted by endpoint `at`), delivering messages to
/// `inbox`. Returns whether anything was parsed.
fn parse_frames(
    conn: &mut InConn,
    at: u32,
    inbox: &mut VecDeque<NetEvent>,
    stats: &mut NetStats,
    in_flight: &mut [InFlight],
) -> bool {
    let mut progressed = false;
    let mut pos = 0usize;
    loop {
        let buf = &conn.rbuf[pos..];
        if conn.peer.is_none() {
            if buf.len() < HELLO_LEN {
                break;
            }
            let peer = u32::from_le_bytes(buf[0..4].try_into().expect("hello addr"));
            let conn_id = u64::from_le_bytes(buf[4..12].try_into().expect("hello conn id"));
            let epoch = u64::from_le_bytes(buf[12..20].try_into().expect("hello epoch"));
            let entry = usize::try_from(conn_id).ok().and_then(|id| in_flight.get_mut(id));
            if !entry.is_some_and(|e| e.admit(at, (peer, epoch))) {
                // Not a connection dialed here by the endpoint it names,
                // or its hello was already admitted: it owns no ledger
                // entry, so it dies without settling one.
                conn.dead = true;
                break;
            }
            conn.peer = Some((peer, epoch));
            conn.conn_id = conn_id as usize;
            pos += HELLO_LEN;
            progressed = true;
            continue;
        }
        if buf.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().expect("frame len")) as usize;
        if len > MAX_FRAME {
            conn.dead = true;
            break;
        }
        if buf.len() < 4 + len {
            break;
        }
        let payload = Bytes::copy_from_slice(&buf[4..4 + len]);
        let (peer, _) = conn.peer.expect("hello parsed");
        inbox.push_back(NetEvent::Message {
            from: Addr::from_raw(peer),
            payload,
            at: 0,
        });
        let entry = &mut in_flight[conn.conn_id];
        entry.frames = entry.frames.saturating_sub(1);
        stats.delivered += 1;
        pos += 4 + len;
        progressed = true;
    }
    if pos > 0 {
        conn.rbuf.drain(..pos);
    }
    progressed
}

impl Transport for SockNet {
    fn register(&mut self, _name: &str) -> Addr {
        let index = self.endpoints.len();
        let (listener, target) = self.bind_listener(index, 0);
        self.endpoints.push(Endpoint {
            listener: Some(listener),
            target: Some(target),
            crashed: false,
            epoch: 0,
            inbox: VecDeque::new(),
            out: Vec::new(),
            inc: Vec::new(),
            dialed_in: Vec::new(),
            closures_seen: HashSet::new(),
        });
        Addr::from_raw(index as u32)
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        self.stats.sent += 1;
        let (from_idx, to_idx) = (from.raw() as usize, to.raw() as usize);
        if self.endpoints[to_idx].crashed {
            self.dead_letter(from, to);
            return;
        }
        let peer_epoch = self.endpoints[to_idx].epoch;
        let in_flight = &self.in_flight;
        let usable = |c: &OutConn| {
            (c.to, c.peer_epoch) == (to.raw(), peer_epoch)
                && !c.dead
                && !in_flight[c.conn_id].closed
        };
        let pos = match self.endpoints[from_idx].out.iter().position(usable) {
            Some(pos) => pos,
            None => {
                let Ok(stream) = self.dial(to_idx) else {
                    // The listener vanished under us: same observable as
                    // a dead-lettered send (`sent` is already counted).
                    self.dead_letter(from, to);
                    return;
                };
                let conn_id = self.in_flight.len();
                self.endpoints[to_idx].dialed_in.push(conn_id);
                let ep = &mut self.endpoints[from_idx];
                self.in_flight.push(InFlight {
                    frames: 0,
                    closed: false,
                    to: to.raw(),
                    hello: Some((from.raw(), ep.epoch)),
                });
                // The hello opens the byte stream.
                let mut wbuf = Vec::with_capacity(HELLO_LEN + 4 + payload.len());
                wbuf.extend_from_slice(&from.raw().to_le_bytes());
                wbuf.extend_from_slice(&(conn_id as u64).to_le_bytes());
                wbuf.extend_from_slice(&ep.epoch.to_le_bytes());
                ep.out.push(OutConn {
                    to: to.raw(),
                    peer_epoch,
                    conn_id,
                    stream,
                    wbuf,
                    wpos: 0,
                    dead: false,
                });
                ep.out.len() - 1
            }
        };
        let conn = &mut self.endpoints[from_idx].out[pos];
        conn.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        conn.wbuf.extend_from_slice(&payload);
        self.in_flight[conn.conn_id].frames += 1;
    }

    fn drain_into(&mut self, at: Addr, out: &mut Vec<NetEvent>) {
        out.extend(self.endpoints[at.raw() as usize].inbox.drain(..));
    }

    fn drain_closure_count(&mut self, at: Addr) -> u64 {
        let inbox = &mut self.endpoints[at.raw() as usize].inbox;
        let n = inbox.iter().filter(|e| e.is_closure()).count() as u64;
        inbox.clear();
        n
    }

    fn has_pending(&self, addr: Addr) -> bool {
        !self.endpoints[addr.raw() as usize].inbox.is_empty()
    }

    /// One non-blocking reactor pass: every connection with queued bytes
    /// is written once, then one `poll(2)` services what is ready. Only
    /// when it moved nothing while frames are counted in flight does the
    /// reactor wait, inside `poll(2)` itself, until a socket becomes
    /// ready or [`SockTiming::settle_timeout`] runs out — so
    /// `while net.step() {}` reaches real quiescence instead of racing
    /// the kernel's delivery latency, and an idle transport returns
    /// `false` without waiting.
    fn step(&mut self) -> bool {
        let dirty = std::mem::take(&mut self.dirty);
        let flushed = self.flush_pending();
        if self.poll_once(0) || flushed || dirty {
            return true;
        }
        let wait_ms = i32::try_from(self.timing.settle_timeout.as_millis()).unwrap_or(i32::MAX);
        self.outstanding() > 0 && self.poll_once(wait_ms)
    }

    /// Closes the endpoint's listener and every one of its sockets; the
    /// kernel delivers the crash observable (EOF) to peers, read by
    /// their next [`Transport::step`]. Nothing in flight toward the
    /// endpoint can arrive any more — not what sits unread in its kernel
    /// buffers or its backlog, not what peers still hold queued — so all
    /// of it is dead-lettered here. What the endpoint itself had sent is
    /// written first, since the sends came before the crash: it survives
    /// in the kernel (a close flushes) and is settled by the peer that
    /// reads it and the EOF behind it.
    fn crash(&mut self, addr: Addr) {
        let ep = &mut self.endpoints[addr.raw() as usize];
        if ep.crashed {
            return;
        }
        for conn_id in ep.dialed_in.drain(..) {
            self.in_flight[conn_id].settle(&mut self.stats);
        }
        ep.crashed = true;
        ep.inbox.clear();
        ep.listener = None; // drop closes (and unlinks a UDS path)
        ep.target = None;
        for conn in &mut ep.out {
            conn.flush();
        }
        ep.out.clear(); // drop closes; peers read EOF
        ep.inc.clear();
    }

    /// Rebinds a fresh listener under a bumped epoch: peers' stale
    /// connections stay around just long enough to surface their EOF
    /// closure, while new sends dial the new socket.
    fn restart(&mut self, addr: Addr) {
        let idx = addr.raw() as usize;
        if !self.endpoints[idx].crashed {
            return;
        }
        let epoch = self.endpoints[idx].epoch + 1;
        let (listener, target) = self.bind_listener(idx, epoch);
        let ep = &mut self.endpoints[idx];
        ep.crashed = false;
        ep.epoch = epoch;
        ep.inbox.clear();
        ep.listener = Some(listener);
        ep.target = Some(target);
    }

    fn stats(&self) -> NetStats {
        self.stats
    }
}

impl Drop for SockNet {
    fn drop(&mut self) {
        self.endpoints.clear(); // listeners unlink their UDS paths first
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::settle_promptly;
    use std::sync::Mutex;
    use std::time::Instant;

    /// A 200-client test holds ~600 descriptors per family; one at a time
    /// keeps the test binary under a 1024-descriptor limit.
    static WIDE: Mutex<()> = Mutex::new(());

    fn settle(net: &mut SockNet) {
        while Transport::step(net) {}
    }

    fn backends() -> [SockNet; 2] {
        [SockNet::tcp(), SockNet::uds()]
    }

    #[test]
    fn kernel_round_trip_on_both_families() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            net.send(a, b, Bytes::from_static(b"through the kernel"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1, "{:?}", net.kind());
            assert_eq!(out[0].peer(), a);
            assert_eq!(out[0].payload().unwrap().as_ref(), b"through the kernel");
            assert_eq!(net.stats().delivered, 1);
            assert_eq!(net.outstanding(), 0);
        }
    }

    #[test]
    fn crash_is_observed_as_a_kernel_eof() {
        for mut net in backends() {
            let a = net.register("attacker");
            let s = net.register("server");
            net.send(a, s, Bytes::from_static(b"probe"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(s, &mut out);
            assert_eq!(out.len(), 1);
            net.crash(s);
            settle(&mut net);
            out.clear();
            net.drain_into(a, &mut out);
            assert_eq!(
                out.iter().filter(|e| e.is_closure()).count(),
                1,
                "exactly one closure per dead session ({:?})",
                net.kind()
            );
            assert_eq!(out[0].peer(), s);
        }
    }

    #[test]
    fn restart_dials_the_new_socket_and_conservation_holds() {
        for mut net in backends() {
            let a = net.register("a");
            let s = net.register("s");
            net.send(a, s, Bytes::from_static(b"x"));
            settle(&mut net);
            net.crash(s);
            settle(&mut net);
            // Send into the outage: dead-letter + closure to sender.
            net.send(a, s, Bytes::from_static(b"lost"));
            net.restart(s);
            net.send(a, s, Bytes::from_static(b"y"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(s, &mut out);
            let delivered: Vec<_> = out.iter().filter_map(NetEvent::payload).collect();
            assert_eq!(delivered.len(), 1);
            assert_eq!(delivered[0].as_ref(), b"y");
            let st = net.stats();
            assert_eq!(st.sent, 3);
            assert_eq!(
                st.delivered + st.dropped + st.dead_lettered,
                st.sent,
                "conservation identity ({:?}): {st:?}",
                net.kind()
            );
        }
    }

    #[test]
    fn frames_unread_at_crash_are_dead_lettered() {
        for mut net in backends() {
            let a = net.register("a");
            let s = net.register("s");
            // Establish, then queue frames the victim never reads.
            net.send(a, s, Bytes::from_static(b"first"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(s, &mut out);
            net.send(a, s, Bytes::from_static(b"in flight 1"));
            net.send(a, s, Bytes::from_static(b"in flight 2"));
            // Crash before any reactor pass parses them.
            net.crash(s);
            settle(&mut net);
            let st = net.stats();
            assert_eq!(st.sent, 3);
            assert_eq!(st.delivered, 1);
            assert_eq!(st.dead_lettered, 2, "{:?}", net.kind());
            assert_eq!(net.outstanding(), 0);
        }
    }

    #[test]
    fn frames_queued_by_a_crashing_sender_arrive_ahead_of_its_closure() {
        for mut net in backends() {
            let s = net.register("sender");
            let known = net.register("known");
            let fresh = net.register("fresh");
            net.send(s, known, Bytes::from_static(b"established"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(known, &mut out);
            // Queued with no pass in between: the second connection is
            // dialed but its hello has not gone out when the sender dies.
            for frame in [&b"one"[..], b"two", b"three"] {
                net.send(s, known, Bytes::from_static(frame));
            }
            net.send(s, fresh, Bytes::from_static(b"first"));
            net.crash(s);
            settle(&mut net);
            // A close flushes: each peer reads the frames, then the EOF.
            let heard = |net: &mut SockNet, at: Addr| {
                let mut out = Vec::new();
                net.drain_into(at, &mut out);
                out.iter()
                    .map(|e| e.payload().map(|p| p.to_vec()))
                    .collect::<Vec<_>>()
            };
            let owed = |frames: &[&[u8]]| {
                let mut events: Vec<_> = frames.iter().map(|f| Some(f.to_vec())).collect();
                events.push(None);
                events
            };
            let kind = net.kind();
            assert_eq!(heard(&mut net, known), owed(&[b"one", b"two", b"three"]), "{kind:?}");
            assert_eq!(heard(&mut net, fresh), owed(&[b"first"]), "{kind:?}");
            let st = net.stats();
            assert_eq!((st.sent, st.delivered, st.dead_lettered), (5, 5, 0), "{kind:?}");
            assert_eq!(net.outstanding(), 0);
        }
    }

    /// Dials `at`'s listener from outside the transport and writes
    /// `bytes`; the caller holds the stream open.
    fn raw_dial(net: &SockNet, at: Addr, bytes: &[u8]) -> Stream {
        let target = net.endpoints[at.raw() as usize].target.as_ref();
        match target.expect("live endpoint") {
            Target::Tcp(addr) => {
                let mut s = TcpStream::connect(addr).expect("dial");
                s.write_all(bytes).expect("write");
                Stream::Tcp(s)
            }
            Target::Uds(path) => {
                let mut s = UnixStream::connect(path).expect("dial");
                s.write_all(bytes).expect("write");
                Stream::Uds(s)
            }
        }
    }

    #[test]
    fn a_forged_hello_is_killed_without_touching_a_ledger() {
        for mut net in backends() {
            let kind = net.kind();
            let a = net.register("a");
            let b = net.register("b");
            let c = net.register("c");
            // Connection 0 (`a`, epoch 0, toward `b`) is admitted;
            // connection 1 (`a`, epoch 0, toward `c`) is dialed, its
            // hello still queued.
            net.send(a, b, Bytes::from_static(b"genuine"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1, "{kind:?}");
            net.send(a, c, Bytes::from_static(b"queued"));
            let forge = |dialer: Addr, conn_id: u64, epoch: u64| {
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&dialer.raw().to_le_bytes());
                bytes.extend_from_slice(&conn_id.to_le_bytes());
                bytes.extend_from_slice(&epoch.to_le_bytes());
                bytes.extend_from_slice(&5u32.to_le_bytes());
                bytes.extend_from_slice(b"forge");
                bytes
            };
            let _held = [
                raw_dial(&net, b, &forge(a, 0, 0)),  // admitted once already
                raw_dial(&net, c, &forge(a, 0, 0)),  // dialed toward `b`
                raw_dial(&net, c, &forge(a, 1, 1)),  // not `a`'s epoch
                raw_dial(&net, c, &forge(b, 1, 0)),  // not `b`'s connection
                raw_dial(&net, b, &forge(a, 99, 0)), // never dialed
            ];
            settle_promptly(&mut net, kind.label());
            out.clear();
            for at in [a, b, c] {
                net.drain_into(at, &mut out);
            }
            let heard: Vec<_> = out.iter().map(|e| (e.peer(), e.payload())).collect();
            assert_eq!(
                heard,
                [(a, Some(&Bytes::from_static(b"queued")))],
                "{kind:?}"
            );
            let st = net.stats();
            assert_eq!((st.sent, st.delivered, st.closures), (2, 2, 0), "{kind:?}");
            assert_eq!(net.outstanding(), 0, "{kind:?}");
            // The genuine connection still carries `a`'s frames.
            net.send(a, b, Bytes::from_static(b"still mine"));
            settle_promptly(&mut net, kind.label());
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 2, "{kind:?}");
            assert_eq!(out[1].peer(), a);
            assert_eq!(out[1].payload().unwrap().as_ref(), b"still mine");
        }
    }

    #[test]
    fn a_thousand_queued_frames_cross_partial_writes_whole_and_in_order() {
        let frame = |i: u32| {
            let mut f = vec![(i % 251) as u8; 4096];
            f[..4].copy_from_slice(&i.to_le_bytes());
            f
        };
        for mut net in backends() {
            let kind = net.kind();
            let a = net.register("a");
            let b = net.register("b");
            // 4 MiB queued before any pass: the kernel takes it in parts,
            // so passes resume the write mid-frame.
            for i in 0..1000 {
                net.send(a, b, Bytes::from(frame(i)));
            }
            settle_promptly(&mut net, kind.label());
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1000, "{kind:?}");
            for (i, e) in (0..).zip(&out) {
                assert!(
                    e.payload().map(|p| p.as_ref()) == Some(frame(i).as_slice()),
                    "{kind:?}: frame {i} arrived torn or out of order"
                );
            }
            assert_eq!(net.outstanding(), 0, "{kind:?}");
        }
    }

    #[test]
    fn a_connection_killed_at_the_receiver_settles_its_frames() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            net.send(a, b, Bytes::from_static(b"well-formed"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1);
            // A frame longer than MAX_FRAME kills the receiving
            // connection mid-parse; it and the frame queued behind it
            // can never be delivered, so both are dead-lettered there.
            net.send(a, b, Bytes::from(vec![0u8; MAX_FRAME + 1]));
            net.send(a, b, Bytes::from_static(b"behind it"));
            settle(&mut net);
            assert_eq!(net.stats().dead_lettered, 2, "{:?}", net.kind());
            assert_eq!(net.outstanding(), 0, "{:?}", net.kind());
            // Nothing is in flight, so the next step has nothing to wait
            // for: it must not touch the settle timeout.
            let start = Instant::now();
            assert!(!Transport::step(&mut net));
            assert!(
                start.elapsed() < SockTiming::default().settle_timeout,
                "{:?}: an idle step waited {:?}",
                net.kind(),
                start.elapsed()
            );
            // Both ends saw the session close, and a later send dials
            // afresh instead of appending to the doomed connection.
            out.clear();
            net.drain_into(a, &mut out);
            net.drain_into(b, &mut out);
            assert_eq!(out.iter().filter(|e| e.is_closure()).count(), 2);
            net.send(a, b, Bytes::from_static(b"redialed"));
            settle(&mut net);
            out.clear();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1, "{:?}", net.kind());
            assert_eq!(out[0].payload().unwrap().as_ref(), b"redialed");
            assert_eq!(net.outstanding(), 0, "{:?}", net.kind());
        }
    }

    #[test]
    fn a_frame_larger_than_any_socket_buffer_arrives_whole_and_in_order() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            // 8 MiB cannot fit a kernel buffer: the write is resumed
            // across passes and the read reassembled from many chunks.
            let big: Vec<u8> = (0..8 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
            net.send(a, b, Bytes::from(big.clone()));
            net.send(a, b, Bytes::from_static(b"after"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            let got: Vec<_> = out.iter().filter_map(NetEvent::payload).collect();
            assert_eq!(got.len(), 2, "{:?}", net.kind());
            assert!(
                got[0].as_ref() == big.as_slice(),
                "{:?}: big frame corrupted",
                net.kind()
            );
            assert_eq!(got[1].as_ref(), b"after");
            assert_eq!(net.outstanding(), 0);
        }
    }

    #[test]
    fn broadcast_shares_the_payload_and_skips_the_sender() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            let c = net.register("c");
            net.broadcast(a, &[a, b, c], Bytes::from_static(b"fanout"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(a, &mut out);
            assert!(out.is_empty(), "broadcast must skip the sender");
            net.drain_into(b, &mut out);
            net.drain_into(c, &mut out);
            assert_eq!(out.len(), 2);
        }
    }

    #[test]
    fn uds_directory_is_cleaned_up_on_drop() {
        let mut net = SockNet::uds();
        let _ = net.register("a");
        let dir = net.dir.clone().unwrap();
        assert!(dir.exists());
        drop(net);
        assert!(!dir.exists(), "socket dir must be removed");
    }

    #[test]
    fn many_endpoints_fan_in_through_one_listener() {
        let _wide = WIDE.lock().unwrap_or_else(|e| e.into_inner());
        // A burst of dials larger than a listener backlog would hold:
        // the dial path interleaves accept passes.
        let mut net = SockNet::tcp();
        let hub = net.register("hub");
        let clients: Vec<Addr> = (0..200).map(|i| net.register(&format!("c{i}"))).collect();
        for &c in &clients {
            net.send(c, hub, Bytes::from_static(b"hi"));
        }
        settle(&mut net);
        let mut out = Vec::new();
        net.drain_into(hub, &mut out);
        assert_eq!(out.len(), 200);
        assert_eq!(net.stats().delivered, 200);
    }

    #[test]
    fn idle_connections_stay_silent_and_an_idle_step_does_not_wait() {
        let _wide = WIDE.lock().unwrap_or_else(|e| e.into_inner());
        for mut net in backends() {
            let hub = net.register("hub");
            let clients: Vec<Addr> = (0..200).map(|i| net.register(&format!("c{i}"))).collect();
            // Every client holds an established connection to the hub,
            // and the hub one back.
            for &c in &clients {
                net.send(c, hub, Bytes::from_static(b"hi"));
                net.send(hub, c, Bytes::from_static(b"welcome"));
            }
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(hub, &mut out);
            for &c in &clients {
                net.drain_into(c, &mut out);
            }
            assert_eq!(out.len(), 400, "{:?}", net.kind());
            // One of them speaks: only the hub hears anything.
            net.send(clients[77], hub, Bytes::from_static(b"only me"));
            settle(&mut net);
            out.clear();
            net.drain_into(hub, &mut out);
            assert_eq!(out.len(), 1, "{:?}", net.kind());
            assert_eq!(out[0].peer(), clients[77]);
            assert_eq!(out[0].payload().unwrap().as_ref(), b"only me");
            assert!(clients.iter().all(|&c| !net.has_pending(c)));
            assert_eq!(net.outstanding(), 0);
            // 400 idle connections and nothing in flight: nothing to do,
            // nothing to wait for.
            let start = Instant::now();
            assert!(!Transport::step(&mut net));
            let waited = start.elapsed();
            assert!(waited < net.timing.settle_timeout, "{:?}", net.kind());
        }
    }

    #[test]
    fn a_crash_is_seen_over_idle_connections_without_another_send() {
        for mut net in backends() {
            let s = net.register("server");
            let peers: Vec<Addr> = (0..5).map(|i| net.register(&format!("p{i}"))).collect();
            // Two peers dialed the server, two were dialed by it, one both.
            for &p in &peers[..3] {
                net.send(p, s, Bytes::from_static(b"request"));
            }
            for &p in &peers[2..] {
                net.send(s, p, Bytes::from_static(b"notice"));
            }
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(s, &mut out);
            for &p in &peers {
                net.drain_into(p, &mut out);
            }
            assert_eq!(out.len(), 6);
            // Every connection is idle when the server dies: the hang-up
            // itself is what the reactor is told about.
            net.crash(s);
            settle(&mut net);
            for &p in &peers {
                out.clear();
                net.drain_into(p, &mut out);
                assert_eq!(out.len(), 1, "{:?}: {p:?} saw {out:?}", net.kind());
                assert!(out[0].is_closure() && out[0].peer() == s);
            }
            assert_eq!(net.outstanding(), 0);
        }
    }
}
