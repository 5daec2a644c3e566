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
//! All sockets are non-blocking; a small hand-rolled readiness pass
//! ([`Transport::step`]) accepts pending connections, flushes queued
//! writes, reads and reassembles frames, and polls idle connections for
//! EOF. The pass is single-threaded and owned by the drive loop, exactly
//! like `SimNet` — no background threads, no epoll dependency (the
//! offline-shim constraint), just `std::net` + `WouldBlock`.
//!
//! # Framing
//!
//! A connection starts with a fixed 20-byte hello (`sender addr`,
//! `connection id`, `sender epoch`) identifying the dialing endpoint;
//! after that every [`WireKind`](crate::wire::WireKind) envelope is
//! framed with a little-endian `u32` length prefix. Connections are
//! unidirectional: replies flow over the receiver's own connection back,
//! which is what lets an idle read on an outgoing connection mean
//! exactly one thing — the peer is gone.
//!
//! # Accounting
//!
//! The [`NetStats`] conservation identity (`delivered + dropped +
//! dead_lettered == sent` at quiescence) is kept exact across real
//! crashes: each outgoing connection counts frames queued and frames
//! fully flushed to the kernel, each accepted connection counts frames
//! parsed, and [`Transport::crash`] settles the difference — bytes that
//! died unread in a kernel buffer are dead-lettered at crash time, while
//! bytes the kernel will still deliver (a graceful close flushes them)
//! are left to be counted on arrival.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::addr::Addr;
use crate::event::{NetEvent, NetStats};
use crate::transport::Transport;

/// Which kernel socket family a [`SockNet`] runs over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SockKind {
    /// TCP over 127.0.0.1 (an ephemeral port per endpoint).
    Tcp,
    /// Unix-domain stream sockets in a per-instance temp directory.
    #[cfg(unix)]
    Uds,
}

impl SockKind {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SockKind::Tcp => "tcp",
            #[cfg(unix)]
            SockKind::Uds => "uds",
        }
    }
}

/// Reactor timing knobs — configurable so CI boxes with coarse
/// schedulers stay green (see the loadgen's matching flags).
#[derive(Clone, Copy, Debug)]
pub struct SockTiming {
    /// Sleep between readiness passes while frames are known to be in
    /// flight but nothing progressed this pass.
    pub poll_interval: Duration,
    /// How long [`Transport::step`] keeps re-polling for in-flight
    /// frames before giving up the round (a safety valve, not a normal
    /// exit: on loopback, queued bytes become readable almost
    /// immediately).
    pub settle_timeout: Duration,
}

impl Default for SockTiming {
    fn default() -> SockTiming {
        SockTiming {
            poll_interval: Duration::from_micros(200),
            settle_timeout: Duration::from_secs(5),
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
/// Consecutive empty readiness passes after which the settle wait in
/// [`Transport::step`] concludes the kernel is quiescent and exits
/// early — in-flight counters can stay nonzero forever when a frame
/// dies unparseable (its connection is killed without crediting
/// delivery), and burning the full [`SockTiming::settle_timeout`] on
/// every such step turns a fixed safety valve into a per-step tax. At
/// the default 200µs poll interval this is ~10ms of observed silence,
/// three orders of magnitude above loopback delivery latency.
const SETTLE_IDLE_POLLS: u32 = 50;

/// Distinguishes concurrently-living [`SockNet`] instances in one
/// process (Unix socket directory names).
static INSTANCES: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }
}

/// Where peers dial an endpoint right now (refreshed on restart).
#[derive(Clone, Debug)]
enum Target {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Uds(PathBuf),
}

/// One outgoing connection (this endpoint dialing `to`).
#[derive(Debug)]
struct OutConn {
    to: u32,
    /// The destination's epoch when dialed; a restarted destination has
    /// a higher epoch and gets a fresh connection.
    peer_epoch: u64,
    conn_id: u64,
    stream: Stream,
    /// Unwritten suffix of the byte stream (`wpos..` is pending).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Total bytes ever flushed into the kernel.
    bytes_flushed: u64,
    /// Cumulative end offsets (in flushed-byte space) of queued frames.
    frame_ends: VecDeque<u64>,
    /// Total bytes ever appended (hello + frames).
    bytes_appended: u64,
    /// Frames queued on this connection.
    sent: u64,
    /// Frames whose last byte reached the kernel.
    fully_flushed: u64,
    /// Crash accounting already settled this connection.
    accounted: bool,
    dead: bool,
}

impl OutConn {
    fn append(&mut self, bytes: &[u8], is_frame: bool) {
        self.wbuf.extend_from_slice(bytes);
        self.bytes_appended += bytes.len() as u64;
        if is_frame {
            self.sent += 1;
            self.frame_ends.push_back(self.bytes_appended);
        }
    }

    /// Writes as much pending data as the kernel accepts. Returns
    /// whether any bytes moved; marks the connection dead on a hard
    /// write error.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() && !self.dead {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                }
                Ok(n) => {
                    self.wpos += n;
                    self.bytes_flushed += n as u64;
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
        while self
            .frame_ends
            .front()
            .is_some_and(|&end| end <= self.bytes_flushed)
        {
            self.frame_ends.pop_front();
            self.fully_flushed += 1;
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
    conn_id: u64,
    /// Frames parsed and pushed to the inbox.
    delivered: u64,
    dead: bool,
}

#[derive(Debug)]
struct Endpoint {
    name: String,
    listener: Option<Listener>,
    target: Option<Target>,
    crashed: bool,
    /// Bumped on every restart; connections are epoch-scoped.
    epoch: u64,
    inbox: VecDeque<NetEvent>,
    out: Vec<OutConn>,
    inc: Vec<InConn>,
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
    next_conn_id: u64,
    /// Events enqueued outside a readiness pass (dead-letter closures),
    /// reported by the next [`Transport::step`].
    dirty: bool,
    connects_since_accept: u32,
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
    #[cfg(unix)]
    pub fn uds() -> SockNet {
        SockNet::with_timing(SockKind::Uds, SockTiming::default())
    }

    /// A transport with explicit reactor timing (CI boxes with coarse
    /// schedulers raise `settle_timeout`; latency rigs shrink
    /// `poll_interval`).
    ///
    /// # Panics
    ///
    /// Panics if the Unix socket directory cannot be created.
    pub fn with_timing(kind: SockKind, timing: SockTiming) -> SockNet {
        let dir = match kind {
            SockKind::Tcp => None,
            #[cfg(unix)]
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
            next_conn_id: 1,
            dirty: false,
            connects_since_accept: 0,
        }
    }

    /// The socket family in use.
    pub fn kind(&self) -> SockKind {
        self.kind
    }

    /// The name an endpoint registered under.
    pub fn name(&self, addr: Addr) -> &str {
        &self.endpoints[addr.raw() as usize].name
    }

    /// Whether `addr` is currently crashed.
    pub fn is_crashed(&self, addr: Addr) -> bool {
        self.endpoints[addr.raw() as usize].crashed
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
            #[cfg(unix)]
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

    fn dial(&mut self, target: &Target) -> std::io::Result<Stream> {
        // A burst of dials between reactor passes can outrun a
        // listener's backlog; interleave accepts.
        self.connects_since_accept += 1;
        if self.connects_since_accept >= ACCEPTS_EVERY {
            self.connects_since_accept = 0;
            accept_pass(&mut self.endpoints);
        }
        match target {
            Target::Tcp(addr) => {
                // Loopback connects complete immediately when the
                // listener is up, so a blocking dial costs nothing and
                // avoids hand-rolling EINPROGRESS tracking.
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
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

    /// One readiness pass: accepts, flushes, reads, EOF-polls. Returns
    /// whether anything moved.
    fn poll_once(&mut self) -> bool {
        let mut progressed = false;
        self.connects_since_accept = 0;
        progressed |= accept_pass(&mut self.endpoints);
        let mut stats = self.stats;
        for ep in &mut self.endpoints {
            progressed |= service_endpoint(ep, &mut stats);
        }
        self.stats = stats;
        progressed
    }
}

/// Accepts every pending connection on every live listener. Returns
/// whether anything was accepted; accepted connections learn their
/// peer identity and connection id from the hello they carry.
fn accept_pass(endpoints: &mut [Endpoint]) -> bool {
    let mut progressed = false;
    for ep in endpoints {
        let Some(listener) = &ep.listener else { continue };
        loop {
            let accepted = match listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nodelay(true);
                        s.set_nonblocking(true).ok().map(|()| Stream::Tcp(s))
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
                #[cfg(unix)]
                Listener::Uds(l, _) => match l.accept() {
                    Ok((s, _)) => s.set_nonblocking(true).ok().map(|()| Stream::Uds(s)),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
            };
            match accepted {
                Some(stream) => {
                    progressed = true;
                    ep.inc.push(InConn {
                        stream,
                        rbuf: Vec::new(),
                        peer: None,
                        conn_id: 0,
                        delivered: 0,
                        dead: false,
                    });
                }
                None => break,
            }
        }
    }
    progressed
}

/// Flushes and EOF-polls outgoing connections, reads and frames
/// incoming ones, surfaces closures. Mutates only `ep` and `stats`.
fn service_endpoint(ep: &mut Endpoint, stats: &mut NetStats) -> bool {
    let mut progressed = false;
    let mut dead_sessions: Vec<(u32, u64)> = Vec::new();

    for conn in &mut ep.out {
        if conn.dead {
            continue;
        }
        progressed |= conn.flush();
        conn.poll_eof();
        if conn.dead {
            dead_sessions.push((conn.to, conn.peer_epoch));
        }
    }

    let mut read_chunk = [0u8; 16 * 1024];
    for conn in &mut ep.inc {
        if conn.dead {
            continue;
        }
        loop {
            match conn.stream.read(&mut read_chunk) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&read_chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        progressed |= parse_frames(conn, &mut ep.inbox, stats);
        if conn.dead {
            if let Some(session) = conn.peer {
                dead_sessions.push(session);
            }
        }
    }

    if !dead_sessions.is_empty() {
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

/// Parses the hello and every complete frame out of `conn.rbuf`,
/// delivering messages to `inbox`. Returns whether anything was parsed.
fn parse_frames(conn: &mut InConn, inbox: &mut VecDeque<NetEvent>, stats: &mut NetStats) -> bool {
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
            conn.peer = Some((peer, epoch));
            conn.conn_id = conn_id;
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
        conn.delivered += 1;
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
    fn register(&mut self, name: &str) -> Addr {
        let index = self.endpoints.len();
        let (listener, target) = self.bind_listener(index, 0);
        self.endpoints.push(Endpoint {
            name: name.to_owned(),
            listener: Some(listener),
            target: Some(target),
            crashed: false,
            epoch: 0,
            inbox: VecDeque::new(),
            out: Vec::new(),
            inc: Vec::new(),
            closures_seen: HashSet::new(),
        });
        Addr::from_raw(index as u32)
    }

    fn send(&mut self, from: Addr, to: Addr, payload: Bytes) {
        self.stats.sent += 1;
        let to_idx = to.raw() as usize;
        if self.endpoints[to_idx].crashed {
            self.dead_letter(from, to);
            return;
        }
        let peer_epoch = self.endpoints[to_idx].epoch;
        let from_idx = from.raw() as usize;
        let have_conn = self.endpoints[from_idx]
            .out
            .iter()
            .any(|c| c.to == to.raw() && c.peer_epoch == peer_epoch && !c.dead);
        if !have_conn {
            let target = self.endpoints[to_idx]
                .target
                .clone()
                .expect("live endpoint has a dial target");
            match self.dial(&target) {
                Ok(stream) => {
                    let conn_id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let mut hello = [0u8; HELLO_LEN];
                    hello[0..4].copy_from_slice(&from.raw().to_le_bytes());
                    hello[4..12].copy_from_slice(&conn_id.to_le_bytes());
                    hello[12..20]
                        .copy_from_slice(&self.endpoints[from_idx].epoch.to_le_bytes());
                    let mut conn = OutConn {
                        to: to.raw(),
                        peer_epoch,
                        conn_id,
                        stream,
                        wbuf: Vec::new(),
                        wpos: 0,
                        bytes_flushed: 0,
                        frame_ends: VecDeque::new(),
                        bytes_appended: 0,
                        sent: 0,
                        fully_flushed: 0,
                        accounted: false,
                        dead: false,
                    };
                    conn.append(&hello, false);
                    self.endpoints[from_idx].out.push(conn);
                }
                Err(_) => {
                    // The listener vanished under us: same observable as
                    // a dead-lettered send (`sent` is already counted).
                    self.dead_letter(from, to);
                    return;
                }
            }
        }
        let conn = self.endpoints[from_idx]
            .out
            .iter_mut()
            .find(|c| c.to == to.raw() && c.peer_epoch == peer_epoch && !c.dead)
            .expect("connection just ensured");
        let len = (payload.len() as u32).to_le_bytes();
        conn.append(&len, false);
        conn.append(&payload, true);
        conn.flush();
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

    /// One reactor pass, plus a bounded settle wait: when frames are
    /// known to be in flight through the kernel but this pass moved
    /// nothing, the reactor re-polls on [`SockTiming::poll_interval`]
    /// until something lands, the kernel stays observably idle for
    /// `SETTLE_IDLE_POLLS` consecutive passes, or
    /// [`SockTiming::settle_timeout`] expires — so `while net.step() {}`
    /// reaches real quiescence instead of racing the kernel's delivery
    /// latency, and a *stuck* frame (e.g. one whose connection died
    /// mid-parse) costs a few idle polls, not the whole timeout.
    fn step(&mut self) -> bool {
        let mut progressed = std::mem::take(&mut self.dirty);
        progressed |= self.poll_once();
        if progressed {
            return true;
        }
        if self.outstanding() == 0 {
            return false;
        }
        let deadline = Instant::now() + self.timing.settle_timeout;
        let mut idle_polls = 0u32;
        loop {
            std::thread::sleep(self.timing.poll_interval);
            if self.poll_once() {
                return true;
            }
            idle_polls += 1;
            if self.outstanding() == 0
                || idle_polls >= SETTLE_IDLE_POLLS
                || Instant::now() >= deadline
            {
                return false;
            }
        }
    }

    /// Closes the endpoint's listener and every one of its sockets; the
    /// kernel delivers the crash observable (EOF) to peers, read by
    /// their next [`Transport::step`]. Frames that died unread in
    /// kernel buffers are dead-lettered here, keeping the conservation
    /// identity exact.
    fn crash(&mut self, addr: Addr) {
        let idx = addr.raw() as usize;
        if self.endpoints[idx].crashed {
            return;
        }
        let epoch = self.endpoints[idx].epoch;
        // Frames peers queued toward us that we never parsed die with
        // our sockets.
        let delivered_by_conn: HashMap<u64, u64> = self.endpoints[idx]
            .inc
            .iter()
            .filter(|c| !c.dead)
            .map(|c| (c.conn_id, c.delivered))
            .collect();
        let stats = &mut self.stats;
        for (j, ep) in self.endpoints.iter_mut().enumerate() {
            if j == idx {
                continue;
            }
            for conn in &mut ep.out {
                if conn.to == addr.raw() && conn.peer_epoch == epoch && !conn.accounted {
                    conn.accounted = true;
                    let delivered = delivered_by_conn.get(&conn.conn_id).copied().unwrap_or(0);
                    stats.dead_lettered += conn.sent.saturating_sub(delivered);
                }
            }
        }
        // Frames we queued outward but never fully flushed die too; the
        // fully-flushed ones survive in the kernel (a close flushes) and
        // are counted as delivered when peers read them.
        let ep = &mut self.endpoints[idx];
        for conn in &mut ep.out {
            if !conn.accounted {
                conn.accounted = true;
                stats.dead_lettered += conn.sent.saturating_sub(conn.fully_flushed);
            }
        }
        ep.crashed = true;
        ep.inbox.clear();
        ep.listener = None; // drop closes (and unlinks a UDS path)
        ep.target = None;
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

    fn note_malformed(&mut self) {
        self.stats.malformed += 1;
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

    fn settle(net: &mut SockNet) {
        while Transport::step(net) {}
    }

    fn backends() -> Vec<SockNet> {
        let mut v = vec![SockNet::tcp()];
        #[cfg(unix)]
        v.push(SockNet::uds());
        v
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
    fn a_stuck_frame_costs_idle_polls_not_the_settle_timeout() {
        for mut net in backends() {
            let a = net.register("a");
            let b = net.register("b");
            net.send(a, b, Bytes::from_static(b"well-formed"));
            settle(&mut net);
            let mut out = Vec::new();
            net.drain_into(b, &mut out);
            assert_eq!(out.len(), 1);
            // A frame longer than MAX_FRAME kills the receiving
            // connection mid-parse without crediting a delivery, so the
            // in-flight counter is stuck nonzero for good.
            net.send(a, b, Bytes::from(vec![0u8; MAX_FRAME + 1]));
            settle(&mut net);
            assert!(
                net.outstanding() > 0,
                "{:?}: the oversized frame must stay in flight",
                net.kind()
            );
            // The next step must conclude the kernel is quiescent after
            // SETTLE_IDLE_POLLS empty passes (~10ms), not burn the full
            // 5s settle_timeout on a counter that can never drain.
            let start = Instant::now();
            assert!(!Transport::step(&mut net));
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{:?}: a stuck frame must exit on idle polls, took {:?}",
                net.kind(),
                start.elapsed()
            );
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
            assert!(got[0].as_ref() == big.as_slice(), "{:?}: big frame corrupted", net.kind());
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
        #[cfg(unix)]
        {
            let mut net = SockNet::uds();
            let _ = net.register("a");
            let dir = net.dir.clone().unwrap();
            assert!(dir.exists());
            drop(net);
            assert!(!dir.exists(), "socket dir must be removed");
        }
    }

    #[test]
    fn many_endpoints_fan_in_through_one_listener() {
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
}
