//! The TCP front end: one acceptor plus a small pool of event-loop
//! threads multiplexing every connection through a readiness poller
//! (`mini-poll`: epoll on Linux, `poll(2)` elsewhere).
//!
//! Any number of mostly-idle connections costs `1 + N` resident
//! threads, not a thread each. Every line dispatches through the
//! [`Endpoint`] seam the in-process virtual transport also uses, so
//! decoding, admin handling and error behavior are shared.
//!
//! Mechanics, per event loop:
//!
//! * **Reads** are nonblocking and level-triggered: each readiness
//!   event reads once into the connection's buffer, so one fast client
//!   cannot hold a loop thread while its neighbors wait; bytes still in
//!   the socket raise the next event. Every complete (`\n`-terminated)
//!   line is then dispatched. Partial trailing bytes stay buffered
//!   across reads, so a slow-loris client dribbling a request
//!   byte-at-a-time is reassembled, never torn, and the newline search
//!   resumes where the last one stopped instead of rescanning the line.
//! * **Responses** stay in request order per connection: inline answers
//!   and queued recommendations enter one reply queue, and the flush
//!   stops at the first still-pending entry. A shard finishing a job
//!   fires the loop's [`Waker`] (via [`Endpoint::handle_line_with_notify`]),
//!   so completions are event-driven too — the loop never polls a
//!   pending answer it was not told about.
//! * **Backpressure** is per connection. A connection owing
//!   `MAX_PENDING_REPLIES` replies stops dispatching buffered lines;
//!   that, or an outbox over `OUTBOX_HIGH_WATER` bytes, parks its
//!   *read* interest, so a client that pipelines without reading leaves
//!   its excess in kernel socket buffers and stalls only itself — never
//!   a shard, never a neighbor. Buffered lines are dispatched again as
//!   replies complete, and a closing connection is dropped only once
//!   none remains.
//!
//! Admission control under overload is not here: it lives at the
//! [`Endpoint`] seam (`ServeConfig::overload`), which the in-process
//! client shares.

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mini_poll::{Event, Interest, Poller, Waker};

use crate::protocol::encode_line;
use crate::server::{Endpoint, NotifyFn, Pending, Submission};
use crate::transport::{BoundAddr, Shutdown, Transport};

/// Outbox bytes above which a connection's read interest is parked
/// until the client drains what it already owes — the per-connection
/// write backpressure bound.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

/// Replies a connection may owe before it stops dispatching buffered
/// lines and parks its read interest — the per-connection bound on
/// pipelined work held in server memory.
const MAX_PENDING_REPLIES: usize = 8;

/// Event-loop threads behind [`crate::RecommendService::listen`].
pub(crate) const LOOP_THREADS: usize = 2;

/// Poller token of each thread's waker (connections use `slab+1`).
const TOKEN_WAKER: usize = 0;
/// Acceptor-poller token of the listener.
const TOKEN_LISTENER: usize = 1;

/// The NDJSON-over-TCP front end. See the module docs.
pub struct EventTransport {
    addrs: Vec<SocketAddr>,
    listener: Option<TcpListener>,
    local: Option<SocketAddr>,
    threads: usize,
    shutdown: Shutdown,
    acceptor: Option<JoinHandle<()>>,
    acceptor_waker: Option<Arc<Waker>>,
    loops: Vec<(JoinHandle<()>, Arc<LoopShared>)>,
}

/// The cross-thread half of one event loop: the acceptor hands accepted
/// streams over through `incoming`, and anyone (acceptor, shards via
/// the notify hook, `stop()`) can interrupt the loop's poller wait
/// through the shared waker.
struct LoopShared {
    waker: Arc<Waker>,
    incoming: Mutex<Vec<TcpStream>>,
}

impl EventTransport {
    /// A front end that will listen on `addr` with `threads` event-loop
    /// threads (clamped to at least 1). Nothing is bound until
    /// [`Transport::bind`].
    ///
    /// # Errors
    ///
    /// Returns the address resolution error.
    pub fn new(addr: impl ToSocketAddrs, threads: usize) -> io::Result<EventTransport> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            ));
        }
        Ok(EventTransport {
            addrs,
            listener: None,
            local: None,
            threads: threads.max(1),
            shutdown: Shutdown::new(),
            acceptor: None,
            acceptor_waker: None,
            loops: Vec::new(),
        })
    }
}

impl Transport for EventTransport {
    fn name(&self) -> &'static str {
        "event"
    }

    fn bind(&mut self) -> io::Result<BoundAddr> {
        if self.listener.is_some() || self.local.is_some() {
            return Err(io::Error::other("EventTransport already bound"));
        }
        let listener = TcpListener::bind(&self.addrs[..])?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        self.listener = Some(listener);
        self.local = Some(local);
        Ok(BoundAddr::Tcp(local))
    }

    fn run(&mut self, endpoint: Endpoint) -> io::Result<()> {
        let listener = self
            .listener
            .take()
            .ok_or_else(|| io::Error::other("EventTransport not bound (or already running)"))?;
        // event loops first, so the acceptor never sees an empty pool
        for i in 0..self.threads {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);
            let shared = Arc::new(LoopShared {
                waker,
                incoming: Mutex::new(Vec::new()),
            });
            let handle = {
                let endpoint = endpoint.clone();
                let shutdown = self.shutdown.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ai2-serve-evloop-{i}"))
                    .spawn(move || event_loop_main(&endpoint, &shutdown, &poller, &shared))?
            };
            self.loops.push((handle, shared));
        }
        let accept_poller = Poller::new()?;
        let accept_waker = Arc::new(Waker::new(&accept_poller, TOKEN_WAKER)?);
        accept_poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        self.acceptor_waker = Some(Arc::clone(&accept_waker));
        let handle = {
            let shutdown = self.shutdown.clone();
            let endpoint = endpoint.clone();
            let pool: Vec<Arc<LoopShared>> =
                self.loops.iter().map(|(_, s)| Arc::clone(s)).collect();
            std::thread::Builder::new()
                .name("ai2-serve-evaccept".into())
                .spawn(move || {
                    accept_loop(
                        &endpoint,
                        &shutdown,
                        &accept_poller,
                        &accept_waker,
                        &listener,
                        &pool,
                    );
                })?
        };
        self.acceptor = Some(handle);
        Ok(())
    }

    fn shutdown(&self) -> Shutdown {
        self.shutdown.clone()
    }

    fn stop(&mut self) {
        self.shutdown.request();
        if let Some(waker) = self.acceptor_waker.take() {
            waker.wake();
        }
        if let Some(h) = self.acceptor.take() {
            h.join().expect("event acceptor panicked");
        }
        for (handle, shared) in self.loops.drain(..) {
            shared.waker.wake();
            handle.join().expect("event loop panicked");
        }
    }
}

/// The acceptor: parked on its poller (no sleep-polling), it drains
/// every pending accept on listener readiness and deals the streams
/// round-robin across the loop pool.
fn accept_loop(
    endpoint: &Endpoint,
    shutdown: &Shutdown,
    poller: &Poller,
    waker: &Waker,
    listener: &TcpListener,
    pool: &[Arc<LoopShared>],
) {
    let mut events = Vec::new();
    let mut next = 0usize;
    while !shutdown.requested() && !endpoint.stopped() {
        // bounded wait: the waker covers shutdown, the timeout covers a
        // service stopped without the transport being told
        if poller.wait(&mut events, 500).is_err() {
            return;
        }
        waker.drain();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let lane = &pool[next % pool.len()];
                    next = next.wrapping_add(1);
                    lane.incoming
                        .lock()
                        .expect("incoming queue poisoned")
                        .push(stream);
                    lane.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

/// One reply slot in a connection's in-order response queue.
enum Reply {
    /// Encoded wire line (with trailing newline), ready to flush.
    Done(Vec<u8>),
    /// A queued recommendation still owed by a shard.
    Waiting(Pending),
}

/// One multiplexed connection's state inside an event loop.
struct Conn {
    stream: TcpStream,
    /// Partial-line reassembly buffer: bytes read but not yet
    /// dispatched survive here across reads.
    rbuf: Vec<u8>,
    /// Leading bytes of `rbuf` known to hold no newline, so the search
    /// for the next line's end resumes here instead of rescanning a
    /// line that arrives over many reads.
    scanned: usize,
    /// Encoded response bytes accepted from `replies` but not yet
    /// written to the socket.
    outbox: Vec<u8>,
    /// Responses in request order; flushing stops at the first entry
    /// still waiting on a shard.
    replies: VecDeque<Reply>,
    /// EOF seen: close once every buffered line is answered and every
    /// owed reply is flushed.
    closing: bool,
    /// The (readable, writable) interest currently registered.
    interest: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            outbox: Vec::new(),
            replies: VecDeque::new(),
            closing: false,
            interest: (true, false),
        }
    }

    /// Whether any reply is still owed by a shard.
    fn waiting(&self) -> bool {
        self.replies.iter().any(|r| matches!(r, Reply::Waiting(_)))
    }

    /// Whether the connection owes as many replies as it may: it neither
    /// dispatches buffered lines nor reads until some are answered.
    fn at_reply_cap(&self) -> bool {
        self.replies.len() >= MAX_PENDING_REPLIES
    }

    /// One read of whatever the socket holds into `rbuf`; EOF or a read
    /// error marks the connection closing.
    fn read_once(&mut self, scratch: &mut [u8]) {
        match (&self.stream).read(scratch) {
            Ok(0) => self.closing = true,
            Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
            // nothing read: level-triggered readiness brings the
            // connection back on the next wait if bytes are pending
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => self.closing = true,
        }
    }

    /// The index of the newline ending the first buffered line, if that
    /// line is complete. Only bytes past `scanned` are searched.
    fn line_end(&mut self) -> Option<usize> {
        match self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                self.scanned += pos;
                Some(self.scanned)
            }
            None => {
                self.scanned = self.rbuf.len();
                None
            }
        }
    }

    /// Dispatches buffered complete lines through the endpoint until
    /// none remains or the connection is at its reply cap, moving
    /// completed replies into the outbox as it goes.
    fn dispatch(&mut self, endpoint: &Endpoint, notify: &NotifyFn) {
        let mut start = 0usize;
        loop {
            self.collect_replies();
            if self.at_reply_cap() {
                break;
            }
            let Some(end) = self.line_end() else {
                break;
            };
            let line = String::from_utf8_lossy(&self.rbuf[start..end]).into_owned();
            start = end + 1;
            self.scanned = start;
            match endpoint.handle_line_with_notify(&line, Some(Arc::clone(notify))) {
                Submission::Ignored => {}
                Submission::Ready(resp) => {
                    let mut bytes = encode_line(&resp).into_bytes();
                    bytes.push(b'\n');
                    self.replies.push_back(Reply::Done(bytes));
                }
                Submission::Queued(pending) => self.replies.push_back(Reply::Waiting(pending)),
            }
        }
        if start > 0 {
            self.rbuf.drain(..start);
            self.scanned -= start;
        }
    }

    /// Moves completed replies (in order) into the outbox.
    fn collect_replies(&mut self) {
        loop {
            match self.replies.front_mut() {
                Some(Reply::Done(_)) => {
                    let Some(Reply::Done(bytes)) = self.replies.pop_front() else {
                        unreachable!("front just matched Done");
                    };
                    self.outbox.extend_from_slice(&bytes);
                }
                Some(Reply::Waiting(pending)) => match pending.poll() {
                    Some(resp) => {
                        let mut bytes = encode_line(&resp).into_bytes();
                        bytes.push(b'\n');
                        self.outbox.extend_from_slice(&bytes);
                        self.replies.pop_front();
                    }
                    None => break,
                },
                None => break,
            }
        }
    }

    /// Writes as much of the outbox as the socket accepts right now.
    /// `false` means the connection died mid-write.
    fn flush(&mut self) -> bool {
        while !self.outbox.is_empty() {
            match (&self.stream).write(&self.outbox) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Whether the connection has nothing left to do: EOF seen, no
    /// complete line buffered, no reply owed or unflushed.
    fn finished(&mut self) -> bool {
        self.closing
            && self.outbox.is_empty()
            && self.replies.is_empty()
            && self.line_end().is_none()
    }

    /// The interest this connection wants right now: writable while
    /// bytes are owed, readable unless closing or parked by
    /// backpressure (reply cap or outbox high-water mark).
    fn wanted_interest(&self) -> (bool, bool) {
        let readable =
            !self.closing && !self.at_reply_cap() && self.outbox.len() < OUTBOX_HIGH_WATER;
        let writable = !self.outbox.is_empty();
        (readable, writable)
    }
}

/// One event loop: multiplexes its share of the connections over a
/// single poller, dispatching complete lines through the shared
/// [`Endpoint`] seam.
fn event_loop_main(endpoint: &Endpoint, shutdown: &Shutdown, poller: &Poller, shared: &LoopShared) {
    // the per-loop completion hook every queued submission carries:
    // shards wake this loop the moment an answer lands
    let notify: NotifyFn = {
        let waker = Arc::clone(&shared.waker);
        Arc::new(move || waker.wake())
    };
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // connections with shard-pending replies, revisited on every wake
    let mut waiting: BTreeSet<usize> = BTreeSet::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    while !shutdown.requested() && !endpoint.stopped() {
        if poller.wait(&mut events, 500).is_err() {
            return;
        }
        let mut woken = false;
        let mut touched: Vec<usize> = Vec::new();
        for ev in &events {
            if ev.token == TOKEN_WAKER {
                woken = true;
                continue;
            }
            touched.push(ev.token - 1);
            let Some(conn) = slab.get_mut(ev.token - 1).and_then(Option::as_mut) else {
                continue;
            };
            if (ev.readable || ev.hangup) && !conn.closing {
                conn.read_once(&mut scratch);
            }
        }
        if woken {
            shared.waker.drain();
            // adopt streams the acceptor dealt to this loop
            let incoming =
                std::mem::take(&mut *shared.incoming.lock().expect("incoming queue poisoned"));
            for stream in incoming {
                let idx = free.pop().unwrap_or_else(|| {
                    slab.push(None);
                    slab.len() - 1
                });
                if poller
                    .register(stream.as_raw_fd(), idx + 1, Interest::READABLE)
                    .is_ok()
                {
                    slab[idx] = Some(Conn::new(stream));
                } else {
                    free.push(idx);
                }
            }
            // a completion may have landed for any waiting connection
            touched.extend(waiting.iter().copied());
        }
        // dispatch + flush + interest maintenance for every connection
        // poked above
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            let Some(conn) = slab.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            conn.dispatch(endpoint, &notify);
            let alive = conn.flush();
            if conn.waiting() {
                waiting.insert(idx);
            } else {
                waiting.remove(&idx);
            }
            if !alive || conn.finished() {
                let conn = slab[idx].take().expect("connection just seen");
                let _ = poller.deregister(conn.stream.as_raw_fd());
                waiting.remove(&idx);
                free.push(idx);
                continue;
            }
            let want = conn.wanted_interest();
            if want != conn.interest {
                let interest = Interest {
                    readable: want.0,
                    writable: want.1,
                };
                if poller
                    .modify(conn.stream.as_raw_fd(), idx + 1, interest)
                    .is_ok()
                {
                    conn.interest = want;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AdminRequest, Query, RecommendRequest, Request, Response};
    use crate::server::{Driver, RecommendService, ServeConfig};
    use crate::transport::TcpClient;
    use crate::OverloadPolicy;
    use ai2_dse::{Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective};
    use airchitect::train::TrainConfig;
    use airchitect::{Airchitect2, ModelCheckpoint, ModelConfig};
    use std::io::BufRead;

    fn gemm_req(id: u64, m: u64) -> RecommendRequest {
        RecommendRequest {
            id,
            query: Query::Gemm {
                m,
                n: 280,
                k: 140,
                dataflow: "os".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        }
    }

    fn trained() -> (DseTask, ModelCheckpoint) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 40,
                seed: 21,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let engine = EvalEngine::shared(task.clone());
        let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), engine, &ds);
        model.fit(&ds, &TrainConfig::quick());
        (task, model.checkpoint())
    }

    /// Serves `service` on an ephemeral port through a single event
    /// loop, so every connection of a test shares one loop thread.
    fn listen_on_one_loop(service: &mut RecommendService) -> SocketAddr {
        let transport = EventTransport::new("127.0.0.1:0", 1).unwrap();
        service.attach(Box::new(transport)).unwrap().tcp().unwrap()
    }

    #[test]
    fn event_frontend_answers_bit_identically_to_the_in_process_client() {
        let (task, ckpt) = trained();
        let reference = RecommendService::start(
            ServeConfig::default(),
            EvalEngine::shared(task.clone()),
            ckpt.clone(),
        );
        let mut evented =
            RecommendService::start(ServeConfig::default(), EvalEngine::shared(task), ckpt);
        let eaddr = evented.listen("127.0.0.1:0").unwrap();

        let client = reference.client();
        let mut ec = TcpClient::connect(eaddr).unwrap();
        for (id, m) in [(1u64, 48u64), (2, 96), (3, 48)] {
            let a = client.recommend(gemm_req(id, m));
            let b = ec.send(&Request::Recommend(gemm_req(id, m))).unwrap();
            let (Response::Recommendation(a), Response::Recommendation(b)) = (&a, &b) else {
                panic!("expected recommendations, got {a:?} / {b:?}");
            };
            assert_eq!(a.point, b.point, "TCP and in-process answers disagree");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        // admin and malformed lines answer inline on the same socket
        let stats = ec
            .send(&Request::Admin(AdminRequest::Stats { id: 9 }))
            .unwrap();
        assert!(matches!(&stats, Response::Stats(s) if s.id == 9 && s.served == 3));
        ec.writer.write_all(b"{not json}\n").unwrap();
        ec.writer.flush().unwrap();
        let mut line = String::new();
        ec.reader.read_line(&mut line).unwrap();
        assert!(line.contains("malformed"), "unexpected {line:?}");
        reference.shutdown();
        evented.shutdown();
    }

    #[test]
    fn pipelined_requests_past_the_reply_cap_wait_in_the_socket() {
        let (task, ckpt) = trained();
        let mut service = RecommendService::start_with(
            ServeConfig {
                driver: Driver::Manual,
                shards: 1,
                ..ServeConfig::default()
            },
            EvalEngine::shared(task),
            ckpt,
            std::sync::Arc::new(crate::clock::VirtualClock::new()),
        );
        let addr = service.listen("127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(addr).unwrap();
        // pipeline 200 distinct recommendations without reading a reply
        const N: u64 = 200;
        let mut wire = Vec::new();
        for id in 0..N {
            wire.extend_from_slice(
                encode_line(&Request::Recommend(gemm_req(id, 16 + id))).as_bytes(),
            );
            wire.push(b'\n');
        }
        client.writer.write_all(&wire).unwrap();
        client.writer.flush().unwrap();
        // the EOF lands behind lines the server has not dispatched yet;
        // every one of them must still be answered before it closes
        client.writer.shutdown(std::net::Shutdown::Write).unwrap();
        // no shard runs, so the connection must stop at its reply cap
        // instead of admitting all of it
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert_eq!(service.queued(), MAX_PENDING_REPLIES);

        let reader = std::thread::spawn(move || {
            let answers = (0..N)
                .map(|_| {
                    let mut line = String::new();
                    client.reader.read_line(&mut line).unwrap();
                    crate::protocol::decode_line::<Response>(&line).unwrap()
                })
                .collect::<Vec<_>>();
            // all answered: the server closes its side
            assert_eq!(client.reader.read_line(&mut String::new()).unwrap(), 0);
            answers
        });
        while !reader.is_finished() {
            assert!(service.queued() <= MAX_PENDING_REPLIES);
            if !service.step_shard(0) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let answers = reader.join().unwrap();
        for (id, resp) in (0..N).zip(&answers) {
            assert!(
                matches!(resp, Response::Recommendation(r) if r.id == id),
                "answer {id} out of order: {resp:?}"
            );
        }
        service.shutdown();
    }

    #[test]
    fn slow_loris_bytes_reassemble_while_other_connections_proceed() {
        let (task, ckpt) = trained();
        let mut service =
            RecommendService::start(ServeConfig::default(), EvalEngine::shared(task), ckpt);
        let addr = listen_on_one_loop(&mut service);

        // the straggler dribbles its request one byte at a time
        let mut loris = TcpClient::connect(addr).unwrap();
        let mut wire = encode_line(&Request::Recommend(gemm_req(77, 48))).into_bytes();
        wire.push(b'\n');
        let (head, tail) = wire.split_at(wire.len() / 2);
        for &b in head {
            loris.writer.write_all(&[b]).unwrap();
            loris.writer.flush().unwrap();
        }
        // a well-behaved neighbor on the same (single!) event loop is
        // answered while the straggler's line is still incomplete
        let mut fast = TcpClient::connect(addr).unwrap();
        for id in 1..=3u64 {
            let resp = fast.send(&Request::Recommend(gemm_req(id, 96))).unwrap();
            assert!(matches!(&resp, Response::Recommendation(r) if r.id == id));
        }
        for &b in tail {
            loris.writer.write_all(&[b]).unwrap();
            loris.writer.flush().unwrap();
        }
        let mut line = String::new();
        loris.reader.read_line(&mut line).unwrap();
        let Response::Recommendation(r) = crate::protocol::decode_line(&line).unwrap() else {
            panic!("straggler expected a recommendation, got {line:?}");
        };
        assert_eq!(r.id, 77);
        service.shutdown();
    }

    #[test]
    fn sheds_answer_inline_in_order_and_reconcile_in_stats() {
        let (task, ckpt) = trained();
        let service = RecommendService::start_with(
            ServeConfig {
                driver: Driver::Manual,
                overload: OverloadPolicy::Shed { high_water: 2 },
                shards: 1,
                ..ServeConfig::default()
            },
            EvalEngine::shared(task),
            ckpt,
            std::sync::Arc::new(crate::clock::VirtualClock::new()),
        );
        let mut service = service;
        let addr = listen_on_one_loop(&mut service);
        let mut client = TcpClient::connect(addr).unwrap();
        // flood five requests without reading: with a manual driver the
        // queue cannot drain, so exactly high_water are admitted and the
        // rest shed inline...
        for id in 1..=5u64 {
            let line = encode_line(&Request::Recommend(gemm_req(id, 48)));
            client.writer.write_all(line.as_bytes()).unwrap();
            client.writer.write_all(b"\n").unwrap();
        }
        client.writer.flush().unwrap();
        // ...but replies still arrive strictly in request order, so the
        // shed answers for 3-5 queue behind the two pending jobs until
        // the shard is stepped
        std::thread::sleep(std::time::Duration::from_millis(100));
        while service.step_shard(0) {}
        let mut answered = Vec::new();
        for _ in 0..5 {
            let mut line = String::new();
            client.reader.read_line(&mut line).unwrap();
            answered.push(crate::protocol::decode_line::<Response>(&line).unwrap());
        }
        for (i, resp) in answered.iter().enumerate() {
            let id = i as u64 + 1;
            match resp {
                Response::Recommendation(r) => {
                    assert!(id <= 2, "request {id} should have shed, got {r:?}");
                    assert_eq!(r.id, id);
                }
                Response::Error { id: rid, message } => {
                    assert!(id > 2, "request {id} should have served, got {message:?}");
                    assert_eq!(*rid, id);
                    assert!(message.contains("shedding"), "unexpected {message:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = client
            .send(&Request::Admin(AdminRequest::Stats { id: 6 }))
            .unwrap();
        let Response::Stats(s) = stats else {
            panic!("expected stats, got {stats:?}");
        };
        assert_eq!(s.sheds, 3, "every refused request must be counted");
        assert_eq!(s.served, 2);
        assert!(
            s.queue_high_water >= 2,
            "high water saw {0}",
            s.queue_high_water
        );
        service.shutdown();
    }
}
