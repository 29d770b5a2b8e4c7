//! Host-speed normalisation.
//!
//! The shared 2-core machines this benchmark was tuned on change speed by
//! ±25 % over tens of seconds, with no steal time, and the change moves
//! wall time and thread CPU time alike.  Within a few seconds every kind of
//! work slows down together, so a fixed reference workload timed between
//! the requests tracks the host's speed: across 3 s windows of a 100 s
//! trace, classic simulation took 140–245 ms per window while its ratio to
//! the reference stayed within 52–68 with no trend.
//!
//! Every timed phase therefore records reference samples between its
//! requests ([`HostSpeed::sample`]), and every host time it reports is
//! scaled to [`NOMINAL_REFERENCE_NS`] by the median of the samples nearest
//! in time ([`HostSpeed::scale_at`]).  The reference is the benchmark's own
//! code and calls nothing in the library, so a change to the library
//! cannot move it.  Unscaled figures are printed as context lines.

use std::cell::RefCell;
use std::time::{Duration, Instant};

const SETS: usize = 1 << 14;
const WAYS: usize = 8;

thread_local! {
    /// Each thread's tag store, allocated once so that no sample pays for
    /// page faults.
    static TAGS: RefCell<Vec<u64>> = RefCell::new(vec![u64::MAX; SETS * WAYS]);
}

/// The reference workload: a set-associative LRU tag store (16 Ki sets ×
/// 8 ways, 1 MiB of tags) driven by a mix of streaming and random lines —
/// the branchy, cache-resident kind of work a cache simulator does.
pub fn reference_work(steps: u64) -> u64 {
    TAGS.with_borrow_mut(|tags| {
        tags.fill(u64::MAX);
        lru_misses(tags, steps)
    })
}

fn lru_misses(tags: &mut [u64], steps: u64) -> u64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut misses = 0;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if i % 4 == 0 {
            x % (1 << 20)
        } else {
            (i * 3) % (1 << 18)
        };
        let set = line as usize % SETS;
        let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
        match ways.iter().position(|&t| t == line) {
            Some(hit) => ways[..=hit].rotate_right(1),
            None => {
                misses += 1;
                ways.rotate_right(1);
                ways[0] = line;
            }
        }
    }
    misses
}

/// Steps of one reference sample (0.7–1 ms on the tuning host).
pub const REFERENCE_STEPS: u64 = 100_000;

/// A typical median time of one reference sample on the tuning host
/// (2-core 2.1 GHz Xeon VM): a scaled time is the time the host would
/// have taken had the reference run at this speed.
pub const NOMINAL_REFERENCE_NS: f64 = 800_000.0;

/// Times one reference sample: its midpoint and its duration.
pub fn reference_sample() -> (Instant, Duration) {
    let start = Instant::now();
    std::hint::black_box(reference_work(std::hint::black_box(REFERENCE_STEPS)));
    let elapsed = start.elapsed();
    (start + elapsed / 2, elapsed)
}

/// Reference samples nearest in time that set one scale factor.
const NEAREST: usize = 15;

/// Reference samples of one run, in the order they were taken.
pub struct HostSpeed {
    origin: Instant,
    /// (seconds since `origin` at the sample's midpoint, sample ns)
    samples: Vec<(f64, f64)>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Times one reference sample on this thread.
    pub fn sample(&mut self) {
        let (at, elapsed) = reference_sample();
        self.record(at, elapsed);
    }

    /// Records a sample timed by [`reference_sample`] on another thread.
    pub fn record(&mut self, at: Instant, elapsed: Duration) {
        let at = at.saturating_duration_since(self.origin).as_secs_f64();
        self.samples.push((at, elapsed.as_nanos() as f64));
    }

    /// The factor that scales a host time measured at `at` to the nominal
    /// reference speed: [`NOMINAL_REFERENCE_NS`] ÷ the median of the
    /// [`NEAREST`] samples nearest in time.  1 when nothing was sampled.
    pub fn scale_at(&self, at: Instant) -> f64 {
        let at = at.saturating_duration_since(self.origin).as_secs_f64();
        let mut nearest: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|&(t, ns)| ((t - at).abs(), ns))
            .collect();
        nearest.sort_by(|a, b| a.0.total_cmp(&b.0));
        let local: Vec<f64> = nearest.iter().take(NEAREST).map(|&(_, ns)| ns).collect();
        crate::stats::median(&local).map_or(1.0, |ns| NOMINAL_REFERENCE_NS / ns)
    }

    /// Scales a host time measured from `start` for `elapsed`.
    pub fn scaled(&self, start: Instant, elapsed: Duration) -> f64 {
        elapsed.as_secs_f64() * self.scale_at(start + elapsed / 2)
    }

    /// The median reference sample of the whole run, in ns.
    pub fn median_ns(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, ns)| ns).collect();
        crate::stats::median(&all).unwrap_or(0.0)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(10_000), reference_work(10_000));
        assert!(reference_work(10_000) > 0);
    }

    #[test]
    fn scale_follows_the_nearest_samples() {
        let mut speed = HostSpeed::new();
        let origin = speed.origin;
        let at = |s: f64| origin + Duration::from_secs_f64(s);
        // A fast stretch (reference at half the nominal time), then a slow
        // one (at twice it).
        for i in 0..20 {
            let nominal = NOMINAL_REFERENCE_NS as u64;
            speed.record(at(i as f64 * 0.1), Duration::from_nanos(nominal / 2));
            speed.record(at(10.0 + i as f64 * 0.1), Duration::from_nanos(nominal * 2));
        }
        assert_eq!(speed.scale_at(at(1.0)), 2.0);
        assert_eq!(speed.scale_at(at(11.0)), 0.5);
        assert_eq!(speed.scaled(at(1.0), Duration::from_millis(10)), 0.02);
        assert_eq!(HostSpeed::new().scale_at(at(0.0)), 1.0);
    }
}
