//! HayStack-style fully-associative LRU model based on exact stack distances.

use cache_model::MemBlock;
use scop::{compile, Scop};
use std::collections::HashMap;

/// The stack-distance profile of an access sequence.
///
/// `histogram[d]` is the number of accesses with stack distance exactly `d`
/// (the number of *distinct* memory blocks accessed since the previous
/// access to the same block); `cold` is the number of first-time (compulsory)
/// accesses.  Under a fully-associative LRU cache with `k` lines an access
/// misses iff its stack distance is `>= k` or it is cold, so one profile
/// yields the miss count for every capacity.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StackDistanceProfile {
    /// Histogram of finite stack distances.
    pub histogram: Vec<u64>,
    /// Number of cold (first-touch) accesses.
    pub cold: u64,
    /// Total number of accesses.
    pub accesses: u64,
}

impl StackDistanceProfile {
    /// Number of misses of a fully-associative LRU cache with `lines` lines.
    pub fn misses(&self, lines: usize) -> u64 {
        let warm_misses: u64 = self
            .histogram
            .iter()
            .enumerate()
            .filter(|(d, _)| *d >= lines)
            .map(|(_, count)| *count)
            .sum();
        warm_misses + self.cold
    }

    /// Number of hits of a fully-associative LRU cache with `lines` lines.
    pub fn hits(&self, lines: usize) -> u64 {
        self.accesses - self.misses(lines)
    }

    /// The number of distinct memory blocks touched by the sequence.
    pub fn footprint_blocks(&self) -> u64 {
        self.cold
    }
}

/// A HayStack-style model of a fully-associative LRU cache.
///
/// ```
/// use analytical::HaystackModel;
/// use scop::parse_scop;
///
/// let scop = parse_scop(
///     "double A[1000]; double B[1000];
///      for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
/// ).unwrap();
/// // One array element per line, like the paper's running example.
/// let profile = HaystackModel::new(8).analyze(&scop);
/// assert_eq!(profile.misses(2), 3 + 2 * 997);
/// assert_eq!(profile.misses(4096), 999 + 998); // only cold misses
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HaystackModel {
    line_size: u64,
}

impl HaystackModel {
    /// A model operating on memory blocks of `line_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is zero.
    pub fn new(line_size: u64) -> Self {
        assert!(line_size > 0, "line size must be positive");
        HaystackModel { line_size }
    }

    /// Computes the stack-distance profile of a SCoP's access sequence.
    pub fn analyze(&self, scop: &Scop) -> StackDistanceProfile {
        let mut analyzer = StackDistanceAnalyzer::new();
        let compiled = compile(scop);
        compiled.for_each_access(&mut compiled.new_scratch(), |_, address, _| {
            analyzer.record(MemBlock::of_address(address, self.line_size));
        });
        analyzer.finish()
    }

    /// Computes the profile of an explicit block sequence (useful for the
    /// per-set decomposition of the PolyCache stand-in and for tests).
    pub fn analyze_blocks(
        &self,
        blocks: impl IntoIterator<Item = MemBlock>,
    ) -> StackDistanceProfile {
        let mut analyzer = StackDistanceAnalyzer::new();
        for b in blocks {
            analyzer.record(b);
        }
        analyzer.finish()
    }
}

/// Incremental exact stack-distance computation (Mattson's algorithm with a
/// Fenwick tree over access timestamps): `O(log n)` per access.
pub struct StackDistanceAnalyzer {
    /// Fenwick tree over timestamps; a 1 marks the most recent access to
    /// some block.
    tree: FenwickTree,
    last_access: HashMap<MemBlock, usize>,
    time: usize,
    profile: StackDistanceProfile,
}

impl Default for StackDistanceAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl StackDistanceAnalyzer {
    /// A fresh analyzer.
    pub fn new() -> Self {
        StackDistanceAnalyzer {
            tree: FenwickTree::new(),
            last_access: HashMap::new(),
            time: 0,
            profile: StackDistanceProfile::default(),
        }
    }

    /// Records one access, updates the profile, and returns the access's
    /// stack distance (`None` for a cold access).
    pub fn record(&mut self, block: MemBlock) -> Option<usize> {
        self.profile.accesses += 1;
        let t = self.time;
        self.time += 1;
        self.tree.grow_to(t + 1);
        let distance = match self.last_access.insert(block, t) {
            None => {
                self.profile.cold += 1;
                None
            }
            Some(prev) => {
                // Distinct blocks accessed strictly between prev and t.
                let distance = self.tree.range_sum(prev + 1, t) as usize;
                if self.profile.histogram.len() <= distance {
                    self.profile.histogram.resize(distance + 1, 0);
                }
                self.profile.histogram[distance] += 1;
                self.tree.add(prev, -1);
                Some(distance)
            }
        };
        self.tree.add(t, 1);
        distance
    }

    /// Finishes the analysis and returns the profile.
    pub fn finish(self) -> StackDistanceProfile {
        self.profile
    }
}

/// A growable Fenwick (binary indexed) tree over `i64` counts.
struct FenwickTree {
    data: Vec<i64>,
}

impl FenwickTree {
    fn new() -> Self {
        FenwickTree { data: Vec::new() }
    }

    fn grow_to(&mut self, len: usize) {
        if self.data.len() < len {
            // Rebuild on growth; growth is amortised by doubling.
            let new_len = len.next_power_of_two().max(1024);
            if new_len > self.data.len() {
                let mut new = FenwickTree {
                    data: vec![0; new_len],
                };
                // Re-insert the prefix sums: reconstruct point values first.
                let old_points = self.point_values();
                for (i, v) in old_points.into_iter().enumerate() {
                    if v != 0 {
                        new.add(i, v);
                    }
                }
                *self = new;
            }
        }
    }

    fn point_values(&self) -> Vec<i64> {
        let n = self.data.len();
        let mut out = vec![0; n];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.prefix_sum(i) - if i == 0 { 0 } else { self.prefix_sum(i - 1) };
        }
        out
    }

    fn add(&mut self, index: usize, delta: i64) {
        let mut i = index + 1;
        while i <= self.data.len() {
            self.data[i - 1] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=index`.
    fn prefix_sum(&self, index: usize) -> i64 {
        let mut i = index + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.data[i - 1];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of positions `lo..=hi` (0 if the range is empty).
    fn range_sum(&self, lo: usize, hi: usize) -> i64 {
        if lo > hi {
            return 0;
        }
        let upper = self.prefix_sum(hi);
        if lo == 0 {
            upper
        } else {
            upper - self.prefix_sum(lo - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distances(blocks: &[u64]) -> StackDistanceProfile {
        HaystackModel::new(1).analyze_blocks(blocks.iter().map(|b| MemBlock(*b)))
    }

    #[test]
    fn simple_sequence_distances() {
        // a b a c b a
        let p = distances(&[0, 1, 0, 2, 1, 0]);
        assert_eq!(p.cold, 3);
        // a@2: distance 1 (b); b@4: distance 2 (a, c); a@5: distance 2 (c, b).
        assert_eq!(p.histogram, vec![0, 1, 2]);
        assert_eq!(p.misses(1), 6);
        assert_eq!(p.misses(2), 5);
        assert_eq!(p.misses(3), 3);
        assert_eq!(p.misses(100), 3);
    }

    #[test]
    fn repeated_block_has_distance_zero() {
        let p = distances(&[7, 7, 7, 7]);
        assert_eq!(p.cold, 1);
        assert_eq!(p.histogram, vec![3]);
        assert_eq!(p.misses(1), 1);
    }

    #[test]
    fn misses_decrease_with_capacity() {
        let blocks: Vec<u64> = (0..200).map(|i| (i * 7) % 40).collect();
        let p = distances(&blocks);
        let mut prev = u64::MAX;
        for lines in 1..64 {
            let m = p.misses(lines);
            assert!(m <= prev, "misses must be monotone in the capacity");
            prev = m;
        }
        assert_eq!(p.misses(64), p.cold);
    }

    #[test]
    fn fenwick_growth_preserves_counts() {
        let mut t = FenwickTree::new();
        t.grow_to(10);
        t.add(3, 1);
        t.add(7, 1);
        t.grow_to(5000);
        assert_eq!(t.range_sum(0, 4999), 2);
        assert_eq!(t.range_sum(4, 6), 0);
        assert_eq!(t.range_sum(3, 3), 1);
    }
}
