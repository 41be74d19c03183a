//! Idle polling while the load runs, and the CPU's speed meanwhile.
//!
//! On a virtual machine an idle CPU halts, and waking it for the next
//! request costs a round trip through the hypervisor whose length
//! depends on how busy the host is. Every request crosses several
//! thread wake-ups (client → connection thread → shard → connection
//! thread → client), so that cost would swing the latency of cheap
//! requests with the neighbours' load. [`IdlePoll`] keeps one spinning
//! thread pinned to each CPU at `SCHED_IDLE`, the lowest scheduling
//! class: it runs only when nothing else wants the CPU, and any woken
//! thread preempts it at once — the user-space equivalent of booting
//! with `idle=poll`. The program under test is unchanged.
//!
//! A spinner does not spin on `pause`, which a hypervisor may take for
//! a lock spin and answer by descheduling the virtual CPU. It runs a
//! fixed reference kernel in chunks of a few microseconds and times
//! each chunk. How fast a chunk runs measures how fast the host lets
//! this CPU compute at that moment: the clock frequency it grants and
//! how much a neighbour on the same physical core takes away. Those
//! change from minute to minute on a shared host and scale every
//! latency of the program with them; the run reports them as
//! [`cpu_speed`] so the latency can be read on a fixed scale.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stat::{median, quantile};

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

/// Steps of the reference kernel per timed chunk: about 5 µs on a
/// 3 GHz core, short enough that most chunks run without a preemption.
const CHUNK_STEPS: usize = 1024;
/// A speed sample is the lower quartile of the chunk times of one
/// period: chunks a server thread preempted run long and sort last, so
/// the sample holds while fewer than three in four are preempted.
const PERIOD: Duration = Duration::from_millis(100);
/// The reference CPU's chunk time, nanoseconds: about that of one vCPU
/// of the 2-vCPU KVM guest (Xeon, 2.1 GHz nominal) the benchmark was
/// tuned on, which measured 2750–4100 ns as its host got busier.
const REFERENCE_CHUNK_NS: f64 = 3_000.0;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// The CPUs this process may run on (the first 64), from its affinity
/// mask: a container's CPUs need not be numbered from 0.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: u64 = 0;
    // SAFETY: `mask` is a live one-word CPU set of the size passed; the
    // call only writes it. On failure (more than 64 CPUs configured) the
    // mask stays 0 and no spinner starts.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) == 0 };
    if !ok {
        return Vec::new();
    }
    (0..64).filter(|cpu| mask & (1 << cpu) != 0).collect()
}

/// The reference kernel: four independent multiply–xorshift chains that
/// also read an L1-resident table, so it keeps the integer, multiply
/// and load ports busy the way compiled program code does, and slows
/// when a neighbour shares the core. It touches no other memory.
fn kernel(table: &[u64; 512], seed: u64) -> u64 {
    let mut x = [seed, seed ^ 0x9E37, seed ^ 0x7F4A_7C15, seed ^ 0xBF58_476D];
    for _ in 0..CHUNK_STEPS {
        for v in &mut x {
            *v = (*v ^ (*v >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ table[(*v & 511) as usize];
        }
    }
    x[0] ^ x[1] ^ x[2] ^ x[3]
}

fn table() -> [u64; 512] {
    let mut t = [0u64; 512];
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    for v in &mut t {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        *v = s;
    }
    t
}

/// Times kernel chunks for one [`PERIOD`] (or until `stop`); returns
/// the period's speed sample, or `None` when no chunk completed.
fn sample_period(table: &[u64; 512], stop: &AtomicBool) -> Option<f64> {
    let end = Instant::now() + PERIOD;
    let mut chunks = Vec::with_capacity(1 << 15);
    let mut seed = 1u64;
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        if t >= end {
            break;
        }
        seed = black_box(kernel(black_box(table), seed));
        chunks.push(t.elapsed().as_nanos() as f64);
    }
    (!chunks.is_empty()).then(|| quantile(&chunks, 0.25))
}

/// Speed of the CPU relative to the calibration machine, from speed
/// samples (chunk times): above 1 on a faster or less shared CPU.
pub fn cpu_speed(samples: &[f64]) -> f64 {
    REFERENCE_CHUNK_NS / median(samples)
}

/// Speed samples taken on the calling thread for `periods` periods, for
/// a run whose spinners could not start.
pub fn sample_here(periods: usize) -> Vec<f64> {
    let (t, stop) = (table(), AtomicBool::new(false));
    (0..periods)
        .filter_map(|_| sample_period(&t, &stop))
        .collect()
}

/// The running spinners; stopped and joined on drop.
pub struct IdlePoll {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<Vec<(Instant, f64)>>>,
}

impl IdlePoll {
    /// One spinner per CPU the process may use. A spinner that cannot
    /// pin itself or drop to `SCHED_IDLE` exits at once (at normal
    /// priority it would compete with the server), and the run says so.
    pub fn start() -> IdlePoll {
        let stop = Arc::new(AtomicBool::new(false));
        let pinned = Arc::new(AtomicUsize::new(0));
        let cpus = allowed_cpus();
        let spinners = cpus
            .iter()
            .map(|&cpu| {
                let (stop, pinned) = (Arc::clone(&stop), Arc::clone(&pinned));
                std::thread::Builder::new()
                    .name(format!("perfbench-idle-{cpu}"))
                    .spawn(move || spin(cpu, &stop, &pinned))
                    .expect("spawn idle spinner")
            })
            .collect();
        // each spinner counts itself once set up; give them a moment
        let t0 = Instant::now();
        while pinned.load(Ordering::Relaxed) < cpus.len()
            && t0.elapsed() < Duration::from_millis(200)
        {
            std::thread::yield_now();
        }
        let running = pinned.load(Ordering::Relaxed);
        if running < cpus.len() {
            eprintln!(
                "[perfbench] idle polling runs on {running} of {} CPUs; latencies include \
                 waking halted CPUs",
                cpus.len()
            );
        }
        IdlePoll { stop, spinners }
    }

    pub fn threads(&self) -> usize {
        self.spinners.len()
    }

    /// Stops the spinners and returns their speed samples, each with
    /// the end of its period.
    pub fn finish(mut self) -> Vec<(Instant, f64)> {
        self.join()
    }

    fn join(&mut self) -> Vec<(Instant, f64)> {
        // a plain stop flag: the samples come back through `join`
        self.stop.store(true, Ordering::Relaxed);
        self.spinners
            .drain(..)
            .flat_map(|s| s.join().unwrap_or_default())
            .collect()
    }
}

impl Drop for IdlePoll {
    fn drop(&mut self) {
        self.join();
    }
}

fn spin(cpu: usize, stop: &AtomicBool, pinned: &AtomicUsize) -> Vec<(Instant, f64)> {
    let mask: u64 = 1 << cpu;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `mask` is a live one-word CPU set of the size passed and
    // `param` a live sched_param; pid 0 names the calling thread, and
    // both calls change only its own placement and scheduling class.
    let ok = unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0
            && sched_setscheduler(0, SCHED_IDLE, &param) == 0
    };
    if !ok {
        return Vec::new();
    }
    pinned.fetch_add(1, Ordering::Relaxed);
    let table = table();
    let mut samples = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        if let Some(ns) = sample_period(&table, stop) {
            samples.push((Instant::now(), ns));
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_samples_are_positive_and_steady() {
        let s = sample_here(5);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|&ns| ns > 0.0));
        let speed = cpu_speed(&s);
        assert!(speed.is_finite() && speed > 0.0);
    }
}
