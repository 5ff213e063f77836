//! The host's speed, sampled while requests run.
//!
//! A shared host runs the same code at different speeds from one moment to
//! the next: on the development host, up to 1.75× slower for stretches of a
//! fraction of a second to minutes. Code with much independent work, like
//! the models' decode and compare loops, slows the most. [`Reference`]
//! times a fixed kernel of that kind, which belongs to the benchmark and
//! not to the program under test, every [`INTERVAL`] between requests. An
//! episode's latencies are then scaled by how fast the kernel ran during
//! that episode, to the speed at which the kernel takes [`REF_NS`]. A change
//! to the program moves the scaled latencies; a change in the host's speed
//! moves the kernel too, and largely cancels (the README measures how far).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the host the nominal speed is defined by: the
/// development host (a 2-vCPU KVM guest) in its fast state.
pub const REF_NS: f64 = 31_500.0;

/// Time between two samples.
pub const INTERVAL: Duration = Duration::from_millis(2);

/// 16-bit fields the kernel sorts per block: one 2 KiB page.
const FIELDS: usize = 1024;

/// Blocks per kernel run.
const BLOCKS: usize = 2;

/// The reference kernel and the samples of the current episode.
pub struct Reference {
    fields: Box<[u16; FIELDS]>,
    state: u64,
    last: Instant,
    samples: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            fields: Box::new([0; FIELDS]),
            state: 0,
            last: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl Reference {
    /// Starts an episode with one sample.
    pub fn begin(&mut self) {
        self.samples.clear();
        self.sample();
    }

    /// Samples if [`INTERVAL`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
    }

    /// Ends an episode with one sample and returns its kernel times in
    /// nanoseconds.
    pub fn end(&mut self) -> Vec<u64> {
        self.sample();
        std::mem::take(&mut self.samples)
    }

    fn sample(&mut self) {
        let t = Instant::now();
        black_box(self.kernel());
        self.samples.push(t.elapsed().as_nanos() as u64);
        self.last = Instant::now();
    }

    /// Fills a 2 KiB block with hashed 16-bit fields, sorts them and sums
    /// them into four accumulators: branchy comparisons and independent
    /// arithmetic, like decoding a page. It allocates nothing and touches
    /// 2 KiB, so the program's heap and cache contents do not change its
    /// speed; the host's speed does.
    fn kernel(&mut self) -> u64 {
        let mut acc = [0u64; 4];
        for b in 0..BLOCKS as u64 {
            let base = self.state.wrapping_add(b * 7919);
            for (i, f) in self.fields.iter_mut().enumerate() {
                *f = ((i as u64 + base).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as u16;
            }
            self.fields.sort_unstable();
            for (i, &f) in self.fields.iter().enumerate() {
                acc[i & 3] = acc[i & 3].wrapping_add(u64::from(f) * (i as u64 | 1));
            }
        }
        self.state = self.state.wrapping_add(1);
        acc.iter().fold(0, |a, x| a ^ x)
    }
}

/// How much faster than nominal the host ran in an episode: [`REF_NS`]
/// over the episode's median kernel time. Multiplying a latency by it gives
/// the latency at nominal speed.
pub fn factor(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    REF_NS / s[s.len() / 2] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_nominal_speed_by_the_median_sample() {
        let nominal = REF_NS as u64;
        assert_eq!(factor(&[]), 1.0);
        assert_eq!(factor(&[nominal]), 1.0);
        assert_eq!(factor(&[2 * nominal, 2 * nominal, 10 * nominal]), 0.5);
    }

    #[test]
    fn an_episode_has_a_sample_at_each_end() {
        let mut r = Reference::default();
        r.begin();
        r.tick();
        let samples = r.end();
        assert!(samples.len() >= 2, "{samples:?}");
        assert!(samples.iter().all(|&ns| ns > 0));
        r.begin();
        assert_eq!(r.end().len(), 2, "samples do not carry over");
    }
}
