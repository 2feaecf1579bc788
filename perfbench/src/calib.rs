//! Host speed calibration.
//!
//! A shared host's speed can drift by tens of percent over minutes. The drift moves a fixed piece of work
//! as much as it moves the simulator. The benchmark therefore times a
//! fixed kernel of its own before every pass and scales its host-time
//! end-to-end metrics to a reference speed. The kernel is ordered-map
//! inserts, hashing and 4 KiB copies, the simulator's own mix. It is the
//! benchmark's code, so no change to the program can move it: a program
//! that gets 10% faster raises the scaled throughput by 10%, as it does
//! the raw one.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time (s) that defines speed factor 1.
pub const REFERENCE_S: f64 = 0.003;

/// Times one run of the calibration kernel, in seconds.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut buf = vec![0u8; 1 << 20];
    let span = buf.len() - 4096;
    let mut x = 1u64;
    for i in 0..10_000u64 {
        x = crate::mix(x, i);
        map.insert(x % 65_536, i);
        let from = x as usize % span;
        let to = (x >> 24) as usize % span;
        buf.copy_within(from..from + 4096, to);
        buf[to] ^= x as u8;
    }
    black_box((&map, &buf));
    start.elapsed().as_secs_f64()
}

/// Kernel times over one run.
#[derive(Default)]
pub struct Calibrator {
    samples: Vec<f64>,
}

impl Calibrator {
    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        self.samples.push(kernel_s());
    }

    /// Host speed relative to the reference: above 1 on a faster host.
    pub fn speed(&self) -> f64 {
        REFERENCE_S / crate::stats::median(&self.samples)
    }

    /// Kernel runs so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_gives_a_finite_speed() {
        let mut c = Calibrator::default();
        c.sample();
        c.sample();
        assert_eq!(c.samples(), 2);
        let s = c.speed();
        assert!(s.is_finite() && s > 0.0, "speed {s}");
    }
}
