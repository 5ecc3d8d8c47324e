//! Host-speed normalization.
//!
//! CPU time excludes the time the hypervisor steals, but a shared core still
//! runs slower while a neighbour loads it, by as much as half again, for a
//! second or two at a time. So the benchmark runs a fixed reference computation between
//! operations, at least every [`REFRESH`], and reports each operation's CPU time
//! scaled by [`NOMINAL_MS`] ÷ the CPU time of the reference run just before it:
//! CPU milliseconds at a fixed host speed. A slowdown lasts a second or two, so
//! the latest reading predicts an operation's speed better than any average of
//! older ones. The reference is written here, not taken from the repository's
//! crates, so no change to them can move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::cpu;

/// The reference computation's CPU time on the host speed every normalized
/// figure is expressed at.
pub const NOMINAL_MS: f64 = 10.0;

/// The longest an operation waits for a fresh reference reading.
pub const REFRESH: Duration = Duration::from_millis(50);

/// The reference computation: the kinds of work the daemon spends its time on
/// — short owned strings hashed into maps, a dynamic-programming table like the
/// LCS kernels fill, and a sort — over fixed pseudo-random inputs.
fn reference_work() -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut map: HashMap<String, u64> = HashMap::new();
    for i in 0..28_000u64 {
        *map.entry(format!("m{}", next() % 7_000)).or_insert(0) += i;
    }
    let left: Vec<u8> = (0..900).map(|_| (next() % 4) as u8).collect();
    let right: Vec<u8> = (0..900).map(|_| (next() % 4) as u8).collect();
    let cols = right.len() + 1;
    let mut table = vec![0u32; (left.len() + 1) * cols];
    for i in 1..=left.len() {
        for j in 1..cols {
            table[i * cols + j] = if left[i - 1] == right[j - 1] {
                table[(i - 1) * cols + j - 1] + 1
            } else {
                table[(i - 1) * cols + j].max(table[i * cols + j - 1])
            };
        }
    }
    let mut keys: Vec<u64> = (0..90_000).map(|_| next()).collect();
    keys.sort_unstable();
    map.values().sum::<u64>() ^ u64::from(table[table.len() - 1]) ^ keys[keys.len() / 2]
}

/// CPU milliseconds of one run of the reference computation.
pub fn reference_ms() -> f64 {
    let start = cpu::process_s();
    black_box(reference_work());
    (cpu::process_s() - start) * 1e3
}

/// `cpu_ms` measured when the reference took `reference_ms`, expressed at the
/// nominal host speed.
pub fn normalized(cpu_ms: f64, reference_ms: f64) -> f64 {
    cpu_ms * NOMINAL_MS / reference_ms
}

/// The latest reference reading, kept fresh.
#[derive(Default)]
pub struct HostSpeed {
    taken: Option<Instant>,
    /// Every reference reading taken, in ms.
    pub readings: Vec<f64>,
}

impl HostSpeed {
    /// The latest reference reading (ms), taken afresh if the last is older
    /// than [`REFRESH`]. Call it right before the work it will normalize.
    pub fn reference_ms(&mut self) -> f64 {
        if self.taken.is_none_or(|taken| taken.elapsed() >= REFRESH) {
            self.readings.push(reference_ms());
            self.taken = Some(Instant::now());
        }
        *self.readings.last().expect("a reading was just taken")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_work() {
        assert_eq!(reference_work(), reference_work());
        assert!(reference_ms() > 0.0);
    }

    #[test]
    fn a_reading_is_reused_until_it_is_stale() {
        let mut speed = HostSpeed::default();
        let first = speed.reference_ms();
        assert_eq!(speed.reference_ms(), first);
        assert_eq!(speed.readings.len(), 1);
        std::thread::sleep(REFRESH);
        speed.reference_ms();
        assert_eq!(speed.readings.len(), 2);
    }

    #[test]
    fn normalization_scales_to_the_nominal_speed() {
        assert_eq!(normalized(30.0, NOMINAL_MS), 30.0);
        assert_eq!(normalized(30.0, 2.0 * NOMINAL_MS), 15.0);
    }
}
