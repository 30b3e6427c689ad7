//! The host-speed probe: a fixed CPU kernel that belongs to the
//! benchmark, timed while the tier is idle, so a run's timings can be
//! scaled to a reference host speed.
//!
//! On a shared host the same code runs up to a fifth slower for minutes
//! at a time, and one vCPU can slow or stall while the other does not.
//! Every CPU-bound timing of a run moves with it: a workload's CPU time
//! per request, its latency, and this probe move together. Scaling by
//! the probe takes most of that drift out of the gated figures, and the
//! probe's code never changes with the program under test.

use crate::report::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// How often a load loop pauses to probe the host.
pub const EVERY: Duration = Duration::from_millis(250);
/// The probe time that defines the reference host: a timing is scaled
/// by `REFERENCE_US / typical probe time`.
pub const REFERENCE_US: f64 = 2000.0;

/// A fixed hashed map of 509 vectors, so the work repeats exactly in
/// every process.
type Buckets = HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>>;

/// Time the probe kernel once on the calling thread, in µs: allocation,
/// hashing, copying and sorting, the kind of work the tier does per
/// request.
fn kernel_us() -> f64 {
    let started = Instant::now();
    let mut acc = 0u64;
    for round in 0..8u64 {
        let mut buckets = Buckets::default();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ round;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buckets.entry(x % 509).or_default().push(x);
        }
        let copy = std::hint::black_box(buckets.clone());
        for bucket in copy.values() {
            let mut sorted = bucket.clone();
            sorted.sort_unstable();
            acc ^= sorted[0];
        }
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e6
}

/// Time the kernel on every CPU the calling thread may run on, moving
/// the thread from one to the next and back to all of them; one time per
/// CPU. (The calling thread, not new ones: a new thread that allocates
/// can get an allocator arena of its own, which shows in peak memory.)
pub fn sample() -> Vec<f64> {
    let cpus = allowed_cpus();
    let times = cpus
        .iter()
        .map(|&cpu| {
            pin_to(&[cpu]);
            kernel_us()
        })
        .collect();
    pin_to(&cpus);
    times
}

/// Which probe statistic a timing is scaled by.
#[derive(Clone, Copy)]
pub enum Typical {
    /// For a median of requests served one at a time on one CPU.
    Median,
    /// For a timing set by throughput, an average over the run: a CPU
    /// that stalls for part of the run slows it for that part.
    Mean,
}

/// The factor that scales a timing taken alongside these probe samples
/// to the reference host; 1 without samples.
pub fn scale(probes_us: &[f64], typical: Typical) -> f64 {
    if probes_us.is_empty() {
        return 1.0;
    }
    let probe = match typical {
        Typical::Median => median(probes_us),
        Typical::Mean => probes_us.iter().sum::<f64>() / probes_us.len() as f64,
    };
    REFERENCE_US / probe
}

const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on (CPU 0 if the kernel will not
/// say).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable CPU mask of the size passed, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return vec![0];
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Confine the calling thread, and every thread it starts from now on,
/// to `cpus` (each below `MASK_WORDS * 64`, as `allowed_cpus` gives
/// them). Returns whether the kernel agreed.
fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable CPU mask of the size passed, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Confine this process, and every thread it starts from now on, to the
/// first CPU it may run on. Returns that CPU.
pub fn pin_to_first_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().first()?;
    pin_to(&[cpu]).then_some(cpu)
}
