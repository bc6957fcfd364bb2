//! Host-speed probe.
//!
//! The benchmark shares its host with other tenants, and their load moves
//! this process's speed by up to 2× over seconds (no preemption shows in
//! the scheduler: the slowdown is contention inside the core). Every case
//! and every set-up is therefore bracketed by a fixed probe — allocation,
//! hashing, sorting and a strided scan over a 160 KiB working set, the mix
//! the search itself runs — and its times are scaled by
//! `PROBE_NOMINAL_MS / mean of the two probe times`: they read as
//! milliseconds on a host where one probe takes exactly
//! [`PROBE_NOMINAL_MS`]. The probe is benchmark code, identical on both
//! sides of any comparison; raw wall times are printed next to every
//! result.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time the scaled figures are expressed against.
pub const PROBE_NOMINAL_MS: f64 = 1.0;

/// Runs the probe once and returns its wall time in milliseconds.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = black_box(0x1234_5678);
    let mut v: Vec<u64> = Vec::with_capacity(20_000);
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
    }
    let mut m: HashMap<u64, u64> = HashMap::new();
    for (i, &y) in v.iter().enumerate() {
        *m.entry(y % 4096).or_default() += i as u64;
    }
    v.sort_unstable();
    let sum = v
        .iter()
        .step_by(7)
        .chain(m.values())
        .fold(0u64, |acc, &y| acc.wrapping_add(y));
    black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor scaling a time measured between two probes to the nominal
/// host speed.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * PROBE_NOMINAL_MS / (before_ms + after_ms)
}
