//! The open-loop load generator.
//!
//! Requests are due on a fixed schedule (request `i` at `i / rate`
//! seconds) whatever the server does, alternating over the connections.
//! The calling thread sends; one receiver thread reads every connection
//! through a readiness poller. So a phase uses exactly two threads and
//! [`CONNECTIONS`] connections. Each request is timed from when it was
//! due, so a stall also counts against the requests queued behind it;
//! how late the sender itself ran is reported as lag.
//!
//! The threaded front end answers each connection strictly in order,
//! so the `j`-th reply line on a connection answers the `j`-th request
//! sent on it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mini_poll::{Event, Interest, Poller};

/// Connections (and threads) the generator uses.
pub const CONNECTIONS: usize = 2;

/// How long a phase waits, after its last send, for outstanding replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The sender sleeps until this long before a request is due (at most
/// a fifth of the interval between requests), then spins: sleeping
/// alone wakes late too often on a virtual machine.
const SPIN_MARGIN: Duration = Duration::from_micros(100);

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;
/// `PR_SET_PDEATHSIG` from `<linux/prctl.h>`.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL`.
const SIGKILL: u64 = 9;
/// `PRIO_PROCESS` from `<sys/resource.h>`.
const PRIO_PROCESS: i32 = 0;

/// Makes a child process die with this one, so an interrupted run
/// leaves no server or helper behind.
pub fn die_with_parent(cmd: &mut std::process::Command) {
    use std::os::unix::process::CommandExt;
    // SAFETY: the hook runs in the forked child before exec and makes
    // one async-signal-safe syscall that touches no memory of ours.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

/// Prepares the calling generator thread: sleep timers fire without the
/// default 50 µs of slack, and the thread runs at the highest priority
/// the process may take. Client and server share the machine's CPUs; a
/// generator thread that waits behind the server's workers would send
/// late and time its replies late, measuring itself instead of the
/// server. Both threads sleep almost all the time, so the server keeps
/// nearly every cycle. Either call may fail without privileges; the
/// run then proceeds at default priority and its lag shows it.
fn prepare_generator_thread() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (the slack in
    // nanoseconds) and only changes a per-thread scheduling attribute;
    // a failure leaves the default slack and is harmless.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    // SAFETY: plain syscall wrapper on integers; `who == 0` with
    // PRIO_PROCESS names the calling thread on Linux. A failure (EACCES
    // without CAP_SYS_NICE) leaves the priority unchanged.
    let _ = unsafe { setpriority(PRIO_PROCESS, 0, -20) };
}

/// Blocks until `due`: sleeps most of the way, spins the last `margin`.
fn wait_until(due: Instant, margin: Duration) {
    let now = Instant::now();
    if due > now + margin {
        std::thread::sleep(due - now - margin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The generator's persistent connections (reused across phases so no
/// phase pays connection set-up).
pub struct Conns {
    streams: Vec<TcpStream>,
}

impl Conns {
    pub fn open(addr: SocketAddr) -> Result<Conns, String> {
        let streams = (0..CONNECTIONS)
            .map(|_| {
                let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
                Ok(s)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Conns { streams })
    }
}

/// What one phase observed.
#[derive(Debug)]
pub struct Phase {
    /// Requests written to a socket.
    pub sent: usize,
    /// Reply line per sent request (`None`: never answered).
    pub replies: Vec<Option<String>>,
    /// Due → reply, microseconds, per answered request.
    pub ttr_us: Vec<Option<f64>>,
    /// Due → start of the write, microseconds, per sent request.
    pub lag_us: Vec<f64>,
    /// Threads of this process while the phase ran.
    pub threads: usize,
    pub wall_s: f64,
}

impl Phase {
    pub fn answered(&self) -> usize {
        self.replies.iter().filter(|r| r.is_some()).count()
    }
}

/// Sends `lines` at `rate` requests per second and collects the replies.
pub fn run(conns: &Conns, lines: &[String], rate: f64) -> Result<Phase, String> {
    let n = lines.len();
    let sent_total = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let readers = conns
        .streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| format!("clone stream: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    let mut writers = conns
        .streams
        .iter()
        .map(|s| s.try_clone().map_err(|e| format!("clone stream: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    let start = Instant::now();

    let receiver = {
        let (sent_total, done) = (Arc::clone(&sent_total), Arc::clone(&done));
        std::thread::Builder::new()
            .name("perfbench-recv".into())
            .spawn(move || receive(readers, n, &sent_total, &done))
            .map_err(|e| format!("spawn receiver: {e}"))?
    };

    let mut lag_us = Vec::with_capacity(n);
    let mut send_err = None;
    let mut threads = 0;
    let interval = 1.0 / rate;
    let margin = SPIN_MARGIN.min(Duration::from_secs_f64(interval / 5.0));
    prepare_generator_thread();
    for (i, line) in lines.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 * interval);
        wait_until(due, margin);
        let lag = (Instant::now() - due).as_secs_f64() * 1e6;
        if let Err(e) = writers[i % CONNECTIONS].write_all(line.as_bytes()) {
            send_err = Some(format!("send: {e}"));
            break;
        }
        lag_us.push(lag);
        sent_total.store(i + 1, Ordering::Release);
        if i == n / 2 {
            threads = thread_count();
        }
    }
    done.store(true, Ordering::Release);
    let arrivals = receiver
        .join()
        .map_err(|_| "receiver panicked".to_string())?;
    if let Some(e) = send_err {
        return Err(e);
    }
    let sent = lag_us.len();
    let mut replies = vec![None; sent];
    let mut ttr_us = vec![None; sent];
    for (i, (at, line)) in arrivals.into_iter().enumerate().take(sent) {
        if let Some(at) = at {
            let due = start + Duration::from_secs_f64(i as f64 * interval);
            ttr_us[i] = Some(at.saturating_duration_since(due).as_secs_f64() * 1e6);
            replies[i] = Some(line);
        }
    }
    Ok(Phase {
        sent,
        replies,
        ttr_us,
        lag_us,
        threads,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Reads reply lines off every connection until each sent request is
/// answered (or the drain timeout passes). Returns, per global request
/// index, its arrival instant and line.
fn receive(
    streams: Vec<TcpStream>,
    n: usize,
    sent_total: &AtomicUsize,
    done: &AtomicBool,
) -> Vec<(Option<Instant>, String)> {
    prepare_generator_thread();
    let mut out: Vec<(Option<Instant>, String)> = vec![(None, String::new()); n];
    let poller = Poller::new().expect("epoll instance");
    for (token, s) in streams.iter().enumerate() {
        poller
            .register(s.as_raw_fd(), token, Interest::READABLE)
            .expect("register connection");
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    // replies seen so far per connection
    let mut seq = vec![0usize; streams.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut events: Vec<Event> = Vec::new();
    let mut total = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    let mut streams = streams;
    loop {
        if done.load(Ordering::Acquire) {
            if total >= sent_total.load(Ordering::Acquire) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
            if Instant::now() > deadline {
                break;
            }
        }
        if poller.wait(&mut events, 20).is_err() {
            continue;
        }
        for ev in &events {
            let c = ev.token;
            // level-triggered: one blocking read returns what is there
            let got = match streams[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    let _ = poller.deregister(streams[c].as_raw_fd());
                    continue;
                }
                Ok(got) => got,
            };
            let at = Instant::now();
            bufs[c].extend_from_slice(&chunk[..got]);
            while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                let idx = seq[c] * CONNECTIONS + c;
                seq[c] += 1;
                if idx < n {
                    out[idx] = (Some(at), String::from_utf8_lossy(&line).into_owned());
                }
                total += 1;
            }
        }
    }
    for s in &mut streams {
        let _ = poller.deregister(s.as_raw_fd());
    }
    out
}

/// Threads of this process, from `/proc/self/status`.
pub fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Online CPUs, the generator's thread and connection budget.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
