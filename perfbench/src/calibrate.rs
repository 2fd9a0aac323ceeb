//! Machine-speed calibration: a fixed reference kernel, timed between solve
//! calls, that shares no code with the solver.
//!
//! On a shared host the speed this process gets drifts by tens of percent
//! within minutes (core frequency, neighbours on the same core), which no
//! amount of repetition inside one run averages away. So every time the
//! benchmark reports is scaled to a nominal machine: the wall time of a pass
//! divided by the pass's *slowdown*, the mean time of the reference chunks
//! run during that pass over [`NOMINAL_CHUNK_S`]. A pass that ran while the
//! chunks took twice their nominal time reports half its wall time.
//!
//! A chunk is integer hashing in registers followed by a dependent walk
//! through a 128 KiB table that fits the L2 cache, the mix of work and
//! cache-latency stalls that the solver's search loop also has. The table
//! is warmed before the chunk is timed, so the solver's own cache use
//! between chunks does not change the chunk's time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::workload::SplitMix;

/// Time of one chunk on the nominal machine, seconds.
pub const NOMINAL_CHUNK_S: f64 = 0.0005;

/// Work time between two chunks: about 4% of a pass goes to the reference.
const EVERY: Duration = Duration::from_millis(20);

/// Hashing steps per chunk.
const HASH_STEPS: usize = 1 << 17;

/// Slots of the walked table: 32 Ki `u32`s, 128 KiB, one cycle through all.
const TABLE_SLOTS: usize = 1 << 15;

/// The reference kernel and the chunk times of the current pass.
pub struct Reference {
    next: Vec<u32>,
    last: Instant,
    spent_s: f64,
    chunks: u32,
}

impl Reference {
    pub fn new() -> Reference {
        let mut order: Vec<u32> = (0..TABLE_SLOTS as u32).collect();
        SplitMix::new(0xCA1B).shuffle(&mut order);
        let mut next = vec![0u32; TABLE_SLOTS];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % TABLE_SLOTS];
        }
        Reference {
            next,
            last: Instant::now(),
            spent_s: 0.0,
            chunks: 0,
        }
    }

    /// Runs a chunk if [`EVERY`] has gone by since the last one. Called
    /// between solve calls, outside every timed interval.
    pub fn pace(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.chunk();
        }
    }

    /// Runs and times one chunk.
    pub fn chunk(&mut self) {
        let warm: u32 = self.next.iter().fold(0, |a, &x| a ^ x);
        black_box(warm);
        let t0 = Instant::now();
        let mut rng = SplitMix::new(black_box(0x5EED));
        let mut h = 0u64;
        for _ in 0..HASH_STEPS {
            let x = rng.next();
            if x & 3 == 0 {
                h = h.wrapping_add(x >> 7);
            } else {
                h ^= x.rotate_left(9);
            }
        }
        let mut at = (h as usize) % TABLE_SLOTS;
        for _ in 0..TABLE_SLOTS {
            at = self.next[at] as usize;
            h = (h ^ at as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        black_box(h);
        self.spent_s += t0.elapsed().as_secs_f64();
        self.chunks += 1;
        self.last = Instant::now();
    }

    /// The slowdown since the last call (mean chunk time over the nominal
    /// one), and starts counting afresh. At least one chunk must have run.
    pub fn take_slowdown(&mut self) -> f64 {
        assert!(self.chunks > 0, "no reference chunk ran");
        let slowdown = self.spent_s / f64::from(self.chunks) / NOMINAL_CHUNK_S;
        (self.spent_s, self.chunks) = (0.0, 0);
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle_through_every_slot() {
        let r = Reference::new();
        let mut seen = vec![false; TABLE_SLOTS];
        let mut at = 0usize;
        for _ in 0..TABLE_SLOTS {
            assert!(!seen[at], "slot {at} visited twice");
            seen[at] = true;
            at = r.next[at] as usize;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn slowdown_is_the_mean_chunk_over_nominal() {
        let mut r = Reference::new();
        r.chunk();
        r.chunk();
        r.spent_s = 3.0 * NOMINAL_CHUNK_S;
        assert!((r.take_slowdown() - 1.5).abs() < 1e-12);
        assert_eq!(r.chunks, 0);
    }
}
