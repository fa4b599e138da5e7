//! A fixed, benchmark-owned calibration kernel.
//!
//! Host speed on a shared machine drifts by tens of percent over
//! minutes. The kernel runs beside every timed operation; its time
//! tracks the drift, and host-time metrics are scaled by it to the
//! kernel's reference speed (`README.md` gives the measured effect).
//! The kernel uses nothing from the repository, so no change to the
//! simulator can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::stats::median;

/// Work items per kernel call.
const ITEMS: u64 = 12_000;

/// The kernel's time on the reference machine (2-core Xeon at 2.1 GHz,
/// quiet periods), in ms. Scaled host times read as that machine would.
pub const REFERENCE_MS: f64 = 0.25;

/// Kernel time spent between operations, as a share of the last
/// operation's time: long operations get more samples around them.
const SHARE: f64 = 0.05;

/// Fewest kernel samples behind each operation's scale factor.
const MIN_WINDOW: usize = 9;

/// Runs the kernel once and returns its host time in ms. The work is
/// shaped like the event queue's: heap pushes and pops keyed by a
/// xorshift stream, with each popped entry appended to a log that is
/// folded at the end.
pub fn kernel_ms() -> f64 {
    let started = Instant::now();
    let mut heap = BinaryHeap::with_capacity(16);
    let mut log: Vec<[u64; 5]> = Vec::with_capacity(ITEMS as usize);
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..ITEMS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x & 0xFFFF, i)));
        if heap.len() > 8 {
            let Reverse((t, j)) = heap.pop().expect("heap holds more than 8");
            log.push([t, j, x, t ^ x, i]);
        }
    }
    let folded = log.iter().fold(0u64, |a, r| a.wrapping_add(r[0] ^ r[3]).rotate_left(1));
    std::hint::black_box(folded);
    started.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples taken in the gaps between timed operations.
#[derive(Default)]
pub struct Calibration {
    /// `gaps[i]` ran just before operation `i`.
    gaps: Vec<Vec<f64>>,
}

impl Calibration {
    /// Runs the kernel in the gap before the next operation, for about
    /// `SHARE` of the last operation's time (at least once).
    pub fn gap(&mut self, last_op_ms: f64) {
        let n = ((last_op_ms * SHARE / REFERENCE_MS).ceil() as usize).max(1);
        self.gaps.push((0..n).map(|_| kernel_ms()).collect());
    }

    /// All samples taken.
    pub fn samples(&self) -> Vec<f64> {
        self.gaps.concat()
    }

    /// Scales each operation time by the reference speed over the
    /// median of the kernel samples around it: the gaps on both sides,
    /// widened until the window holds `MIN_WINDOW` samples. Operation
    /// `i` ran between gaps `i` and `i + 1`.
    pub fn scale(&self, op_ms: &[f64]) -> Vec<f64> {
        assert!(self.gaps.len() > op_ms.len(), "a gap on each side of every operation");
        let total: usize = self.gaps.iter().map(Vec::len).sum();
        (0..op_ms.len())
            .map(|i| {
                let (mut lo, mut hi) = (i, i + 1);
                let mut window: Vec<f64> = self.gaps[lo..=hi].concat();
                while window.len() < MIN_WINDOW.min(total) {
                    lo = lo.saturating_sub(1);
                    hi = (hi + 1).min(self.gaps.len() - 1);
                    window = self.gaps[lo..=hi].concat();
                }
                op_ms[i] * factor(&window)
            })
            .collect()
    }
}

/// Reference speed over the median of `kernel` samples.
pub fn factor(kernel: &[f64]) -> f64 {
    REFERENCE_MS / median(&mut kernel.to_vec())
}
