//! The speed the host gives the benchmark, read from a fixed kernel that
//! shares no code with the program.
//!
//! On a shared host the same work takes a tenth to a third longer for
//! minutes at a time, in CPU time as much as in wall time: another
//! tenant on the same core or a lower clock slows a running thread, and
//! no run length evens that out. The benchmark therefore times this
//! kernel between its timed blocks and scales each block's CPU time by
//! `REFERENCE_S` over the kernel's time around it. A scaled time reads
//! as the CPU time the block would have taken on a host as fast as the
//! one `REFERENCE_S` was measured on. A change to the program cannot
//! move the kernel, so it moves the scaled times by the same share as the
//! raw ones.

use crate::trace::median;
use crate::{sys, Timings};

/// 64-bit words in the kernel's table: 256 KiB, inside a core's private
/// caches. Side by side with campaign runs on a shared host, this kernel
/// followed their speed more closely than the same walk over 4 MiB
/// (correlation 0.7-0.8 against 0.4-0.55 over 2.5 s windows).
const WORDS: usize = 1 << 15;
/// Table steps in one timed slice of the kernel.
const STEPS: u64 = 400_000;
/// Slices timed at each reading (about a tenth of a second in all);
/// their median is the reading.
const SLICES: usize = 25;
/// CPU seconds of one slice on the reference host: a typical reading on
/// a 2-CPU shared Intel Xeon, Linux guest, built by rustc 1.95.
pub const REFERENCE_S: f64 = 0.0035;

/// The kernel's table and the readings taken so far.
pub struct Speed {
    table: Vec<u64>,
    /// Median slice CPU seconds of every reading, in order.
    pub readings: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Speed {
        Speed {
            table: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            readings: Vec::new(),
        }
    }
}

impl Speed {
    /// Time the kernel and return the factor that scales CPU time taken
    /// now to the reference host: `REFERENCE_S` over the median slice.
    pub fn factor(&mut self) -> f64 {
        let mut slices = [0.0; SLICES];
        for s in &mut slices {
            let cpu0 = sys::cpu_seconds();
            std::hint::black_box(walk(&mut self.table, STEPS));
            *s = sys::cpu_seconds() - cpu0;
        }
        let reading = median(&slices);
        self.readings.push(reading);
        REFERENCE_S / reading
    }
}

/// Scales timed blocks by the speed read on either side of each.
pub struct Scaler {
    pub speed: Speed,
    before: f64,
}

impl Scaler {
    /// Read the speed once, before the first timed block.
    pub fn start() -> Scaler {
        let mut speed = Speed::default();
        let before = speed.factor();
        Scaler { speed, before }
    }

    /// Read the speed again and scale the samples `block` took since the
    /// last reading by the mean factor of the two readings.
    pub fn settle(&mut self, block: &mut Timings) {
        let after = self.speed.factor();
        block.settle((self.before + after) / 2.0);
        self.before = after;
    }
}

/// `steps` dependent xorshift steps, each reading, branching on and
/// rewriting one pseudo-random word of `table`. Returns a checksum so
/// the work cannot be optimised away.
fn walk(table: &mut [u64], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0x2545_F491_4F6C_DD1D_u64, 0u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x ^ acc) as usize & mask;
        let v = table[i];
        table[i] = v.rotate_left(5) ^ x;
        acc = if v & 1 == 0 {
            acc.wrapping_add(v)
        } else {
            acc ^ (v >> 3)
        };
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_recorded() {
        let mut speed = Speed::default();
        let f = speed.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(speed.readings.len(), 1);
        assert!((REFERENCE_S / speed.readings[0] - f).abs() < 1e-12);
    }
}
