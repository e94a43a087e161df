//! What the benchmark reads about the host it runs on: its current speed
//! and the process's peak memory.
//!
//! Shared hosts change speed by up to 2× over minutes (measured on a
//! 2-vCPU x86-64 virtual machine: the same `sim_validate` round took
//! 0.59 s and 1.2 s twenty minutes apart, and 20-30% of CPU time was
//! stolen at times).  Every round therefore also times a fixed reference
//! computation, which belongs to the benchmark and not to the program,
//! just before and just after each round, and end-to-end timings are
//! reported at the reference speed: raw seconds × [`REFERENCE_S`] /
//! reference seconds measured next to them.  A change to the program
//! moves the raw time but not the reference, so it still shows in full.
//!
//! The reference is a pointer chase plus a sort, run on as many threads
//! as the workload keeps busy.  Spread of one round's time (log-sd) on
//! that machine, raw → scaled: `sim_validate` over 173 rounds, 0.165 →
//! 0.129 with the chase alone and 0.103 with chase and sort; `query_mix`
//! over 42 rounds, 0.285 → 0.175 with a one-thread reference and 0.125
//! with two.  README.md gives the run-to-run spreads with and without it.

use crate::gen::Rng;
use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// The reference computation's seconds at the speed timings are reported
/// at (its time on the 2-vCPU x86-64 machine when quiet).
pub const REFERENCE_S: f64 = 0.007;
const REPEATS: usize = 3;
const CHASE_LEN: usize = 1 << 16;
const STEPS: usize = 1 << 20;
const SORT_LEN: usize = 200_000;

/// The reference computation and its fixed inputs.
pub struct Reference {
    /// A single-cycle permutation of 256 KiB (Sattolo) to chase.
    next: Vec<u32>,
    /// One sort buffer per thread, allocated once, so that the reference
    /// adds only a constant to the peak memory a run reports.
    buffers: Vec<Vec<u64>>,
}

/// Fixed single-threaded work: the chase with a dependent floating-point
/// chain and integer hashing, then a sort of fresh random keys.
fn work(next: &[u32], buffer: &mut [u64]) -> u64 {
    let (mut p, mut x, mut h) = (0u32, 1.0f64, 0u64);
    for _ in 0..STEPS {
        p = next[p as usize];
        x = x * 1.000_000_1 + 1e-9;
        h = (h ^ u64::from(p)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut rng = Rng::new(0x5047);
    buffer.fill_with(|| rng.next_u64());
    buffer.sort_unstable();
    h ^ x.to_bits() ^ buffer[SORT_LEN / 2]
}

impl Reference {
    /// The reference for a workload that keeps `threads` threads busy.
    pub fn new(threads: usize) -> Self {
        let mut rng = Rng::new(0x5ee0);
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            order.swap(i, rng.below(i));
        }
        let mut next = vec![0u32; CHASE_LEN];
        for i in 0..CHASE_LEN {
            next[order[i] as usize] = order[(i + 1) % CHASE_LEN];
        }
        let buffers = vec![vec![0; SORT_LEN]; threads.max(1)];
        Reference { next, buffers }
    }

    /// Median seconds of the reference work right now, one copy per
    /// thread running at once, until the last one ends.
    pub fn seconds(&mut self) -> f64 {
        let next = &self.next;
        let mut times = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let start = Instant::now();
            match self.buffers.as_mut_slice() {
                [only] => {
                    black_box(work(black_box(next), only));
                }
                buffers => std::thread::scope(|s| {
                    for buffer in buffers {
                        s.spawn(move || black_box(work(black_box(next), buffer)));
                    }
                }),
            }
            times.push(start.elapsed().as_secs_f64());
        }
        stats::median(&times)
    }
}

/// Peak resident set of this process in MB (`VmHWM`, Linux only).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_slot_once() {
        let reference = Reference::new(1);
        let mut seen = vec![false; CHASE_LEN];
        let mut p = 0usize;
        for _ in 0..CHASE_LEN {
            assert!(!seen[p]);
            seen[p] = true;
            p = reference.next[p] as usize;
        }
        assert_eq!(p, 0, "one cycle through all slots");
    }

    #[test]
    fn the_work_is_the_same_on_every_thread() {
        let mut reference = Reference::new(2);
        assert!(reference.seconds() > 0.0);
        let next = &reference.next;
        let [a, b] = reference.buffers.as_mut_slice() else {
            panic!("one buffer per thread");
        };
        assert_eq!(work(next, a), work(next, b));
        assert!(a.is_sorted() && a == b);
    }
}
