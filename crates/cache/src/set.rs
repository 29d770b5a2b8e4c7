//! Individual cache sets.

use crate::policy::{PolicyState, ReplacementPolicy};

/// The state of a single cache set of associativity `k`, generic over the
/// line payload `B`.
///
/// This is the reference update logic of every policy: the flat store
/// ([`FlatLevel`](crate::FlatLevel)) is tested against it.  For concrete
/// simulation the payload is a [`MemBlock`](crate::MemBlock); a payload
/// that also carries a symbolic label reuses the same logic.
///
/// For LRU and FIFO the replacement state is encoded in the order of the
/// lines (index 0 holds the most-recently-used / last-in block); PLRU and
/// Quad-age LRU keep lines at stable positions and use the [`PolicyState`].
///
/// ```
/// use cache_model::{ReplacementPolicy, SetState};
/// let mut set = SetState::new(ReplacementPolicy::Lru, 2);
/// assert!(!set.access(ReplacementPolicy::Lru, 'a'));
/// assert!(!set.access(ReplacementPolicy::Lru, 'b'));
/// assert!(set.access(ReplacementPolicy::Lru, 'a'));
/// assert!(!set.access(ReplacementPolicy::Lru, 'c')); // evicts 'b'
/// assert!(!set.access(ReplacementPolicy::Lru, 'b'));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SetState<B> {
    lines: Vec<Option<B>>,
    policy_state: PolicyState,
}

impl<B> SetState<B> {
    /// The associativity of the set.
    pub fn assoc(&self) -> usize {
        self.lines.len()
    }

    /// The cache lines, in the internal (policy-dependent) order.
    pub fn lines(&self) -> &[Option<B>] {
        &self.lines
    }

    /// The policy metadata of the set.
    pub fn policy_state(&self) -> &PolicyState {
        &self.policy_state
    }

    /// The number of occupied lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }

    /// Whether every line of the set is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.iter().all(Option::is_none)
    }

    /// Finds the line whose payload satisfies `pred`.
    pub fn find(&self, mut pred: impl FnMut(&B) -> bool) -> Option<usize> {
        self.lines
            .iter()
            .position(|l| l.as_ref().is_some_and(&mut pred))
    }
}

impl<B: Clone> SetState<B> {
    /// An empty cache set of the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero, or if the policy is PLRU and `assoc` is not
    /// a power of two.
    pub fn new(policy: ReplacementPolicy, assoc: usize) -> Self {
        SetState {
            lines: vec![None; assoc],
            policy_state: policy.initial_state(assoc),
        }
    }

    /// A set with the given lines and policy metadata (the flat store's
    /// conversion into the reference representation).
    pub(crate) fn from_parts(lines: Vec<Option<B>>, policy_state: PolicyState) -> Self {
        SetState {
            lines,
            policy_state,
        }
    }

    /// Applies a function to every payload, keeping positions and policy
    /// state.  Used to apply bijections.
    pub fn map_payloads<C>(&self, mut f: impl FnMut(&B) -> C) -> SetState<C> {
        SetState {
            lines: self.lines.iter().map(|l| l.as_ref().map(&mut f)).collect(),
            policy_state: self.policy_state.clone(),
        }
    }

    /// Records a hit on line `idx` and updates the replacement state.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or the line is empty.
    pub fn on_hit(&mut self, policy: ReplacementPolicy, idx: usize) {
        assert!(self.lines[idx].is_some(), "hit on an empty line");
        match policy {
            ReplacementPolicy::Lru => {
                // Move the hit line to the front, shifting the younger ones.
                let hit = self.lines.remove(idx);
                self.lines.insert(0, hit);
            }
            ReplacementPolicy::Fifo => {
                // FIFO does not update state on hits.
            }
            ReplacementPolicy::Plru => {
                let PolicyState::PlruBits(bits) = &mut self.policy_state else {
                    unreachable!("PLRU set without tree bits");
                };
                plru_touch(bits, self.lines.len(), idx);
            }
            ReplacementPolicy::Qlru => {
                let PolicyState::Ages(ages) = &mut self.policy_state else {
                    unreachable!("QLRU set without ages");
                };
                ages[idx] = 0;
            }
        }
    }

    /// Inserts `payload` after a miss, evicting and returning the victim's
    /// payload if the set was full.  Returns `(line, evicted)` where `line`
    /// is the position at which the payload now resides.
    pub fn on_miss_insert(&mut self, policy: ReplacementPolicy, payload: B) -> (usize, Option<B>) {
        match policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let evicted = self.lines.pop().expect("associativity is positive").clone();
                self.lines.insert(0, Some(payload));
                (0, evicted)
            }
            ReplacementPolicy::Plru => {
                let PolicyState::PlruBits(bits) = &mut self.policy_state else {
                    unreachable!("PLRU set without tree bits");
                };
                let victim = match self.lines.iter().position(|l| l.is_none()) {
                    Some(empty) => empty,
                    None => plru_victim(bits, self.lines.len()),
                };
                let evicted = self.lines[victim].replace(payload);
                plru_touch(bits, self.lines.len(), victim);
                (victim, evicted)
            }
            ReplacementPolicy::Qlru => {
                let PolicyState::Ages(ages) = &mut self.policy_state else {
                    unreachable!("QLRU set without ages");
                };
                let victim = match self.lines.iter().position(|l| l.is_none()) {
                    Some(empty) => empty,
                    None => loop {
                        if let Some(v) = ages.iter().position(|&a| a >= 3) {
                            break v;
                        }
                        for a in ages.iter_mut() {
                            *a = a.saturating_add(1);
                        }
                    },
                };
                let evicted = self.lines[victim].replace(payload);
                ages[victim] = 2;
                (victim, evicted)
            }
        }
    }
}

impl<B: Clone + PartialEq> SetState<B> {
    /// Classifies an access to `payload` (hit or miss) and updates the set.
    ///
    /// Returns `true` for a hit.  On a miss the payload is inserted
    /// (write-allocate semantics); use [`SetState::classify`] followed by
    /// [`SetState::on_hit`] for no-write-allocate behaviour.
    pub fn access(&mut self, policy: ReplacementPolicy, payload: B) -> bool {
        match self.find(|b| *b == payload) {
            Some(idx) => {
                self.on_hit(policy, idx);
                true
            }
            None => {
                self.on_miss_insert(policy, payload);
                false
            }
        }
    }

    /// Whether `payload` currently resides in the set (no state update).
    pub fn classify(&self, payload: &B) -> bool {
        self.find(|b| b == payload).is_some()
    }
}

/// Updates PLRU tree bits so that they point away from the accessed line.
fn plru_touch(bits: &mut [bool], assoc: usize, line: usize) {
    if assoc <= 1 {
        return;
    }
    // The tree has `assoc - 1` internal nodes; leaves are the lines.  Walk
    // from the root to the leaf and flip each bit to point away from the
    // taken direction.
    let levels = assoc.trailing_zeros();
    let mut node = 0usize;
    for level in 0..levels {
        let shift = levels - 1 - level;
        let go_right = (line >> shift) & 1 == 1;
        // Bit must point to the *other* subtree (the pseudo-LRU side).
        bits[node] = !go_right;
        node = 2 * node + 1 + usize::from(go_right);
    }
}

/// Follows PLRU tree bits from the root to the pseudo-LRU victim line.
fn plru_victim(bits: &[bool], assoc: usize) -> usize {
    if assoc <= 1 {
        return 0;
    }
    let levels = assoc.trailing_zeros();
    let mut node = 0usize;
    let mut line = 0usize;
    for _ in 0..levels {
        let go_right = bits[node];
        line = 2 * line + usize::from(go_right);
        node = 2 * node + 1 + usize::from(go_right);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<B: Clone + PartialEq>(
        policy: ReplacementPolicy,
        assoc: usize,
        seq: &[B],
    ) -> (Vec<bool>, SetState<B>) {
        let mut set = SetState::new(policy, assoc);
        let hits = seq.iter().map(|b| set.access(policy, b.clone())).collect();
        (hits, set)
    }

    #[test]
    fn lru_order_and_eviction() {
        let (hits, set) = run(ReplacementPolicy::Lru, 2, &['a', 'b', 'a', 'c', 'b']);
        assert_eq!(hits, vec![false, false, true, false, false]);
        // After the sequence: b is MRU, c is LRU.
        assert_eq!(set.lines()[0], Some('b'));
        assert_eq!(set.lines()[1], Some('c'));
    }

    #[test]
    fn fifo_hits_do_not_refresh() {
        // a, b, a, c: under FIFO the hit on `a` does not refresh it, so the
        // miss on `c` evicts `a` (first in).
        let (hits, set) = run(ReplacementPolicy::Fifo, 2, &['a', 'b', 'a', 'c']);
        assert_eq!(hits, vec![false, false, true, false]);
        assert!(set.classify(&'b'));
        assert!(set.classify(&'c'));
        assert!(!set.classify(&'a'));
        // Contrast with LRU, where `b` would have been evicted instead.
        let (_, lru) = run(ReplacementPolicy::Lru, 2, &['a', 'b', 'a', 'c']);
        assert!(lru.classify(&'a'));
        assert!(!lru.classify(&'b'));
    }

    #[test]
    fn plru_four_way_victim_chain() {
        let policy = ReplacementPolicy::Plru;
        let mut set = SetState::new(policy, 4);
        for b in ['a', 'b', 'c', 'd'] {
            assert!(!set.access(policy, b));
        }
        // Touch 'a' then miss: the victim must not be 'a'.
        assert!(set.access(policy, 'a'));
        assert!(!set.access(policy, 'e'));
        assert!(set.classify(&'a'));
        // PLRU differs from LRU: it tracks a tree, not a full order, so we
        // only check the data-independent invariants here.
        assert_eq!(set.occupancy(), 4);
    }

    #[test]
    fn plru_equals_lru_for_assoc_two() {
        // For associativity 2 the PLRU tree degenerates to true LRU.
        let seq: Vec<u32> = vec![1, 2, 1, 3, 2, 3, 1, 1, 2, 4, 3, 2];
        let (h_lru, _) = run(ReplacementPolicy::Lru, 2, &seq);
        let (h_plru, _) = run(ReplacementPolicy::Plru, 2, &seq);
        assert_eq!(h_lru, h_plru);
    }

    #[test]
    fn qlru_scan_resistance() {
        // A block that is re-referenced keeps age 0 and survives a scan of
        // distinct blocks that would evict it under LRU.
        let policy = ReplacementPolicy::Qlru;
        let mut set = SetState::new(policy, 4);
        set.access(policy, 0u64);
        set.access(policy, 0u64); // promote to age 0
        for b in 1..=4u64 {
            set.access(policy, b);
        }
        assert!(set.classify(&0), "re-referenced block survives the scan");
        let mut lru = SetState::new(ReplacementPolicy::Lru, 4);
        lru.access(ReplacementPolicy::Lru, 0u64);
        lru.access(ReplacementPolicy::Lru, 0u64);
        for b in 1..=4u64 {
            lru.access(ReplacementPolicy::Lru, b);
        }
        assert!(!lru.classify(&0), "LRU evicts it");
    }

    #[test]
    fn empty_lines_fill_before_eviction() {
        for policy in ReplacementPolicy::ALL {
            let mut set = SetState::new(policy, 4);
            for b in 0..4u64 {
                let (_, evicted) = match set.find(|x| *x == b) {
                    Some(idx) => {
                        set.on_hit(policy, idx);
                        (idx, None)
                    }
                    None => set.on_miss_insert(policy, b),
                };
                assert_eq!(
                    evicted, None,
                    "no eviction while lines are empty ({policy})"
                );
            }
            assert_eq!(set.occupancy(), 4);
        }
    }

    #[test]
    fn map_payloads_preserves_structure() {
        let (_, set) = run(ReplacementPolicy::Lru, 2, &[10u64, 20u64]);
        let mapped = set.map_payloads(|b| b + 1);
        assert_eq!(mapped.lines()[0], Some(21));
        assert_eq!(mapped.lines()[1], Some(11));
        assert_eq!(mapped.policy_state(), set.policy_state());
    }
}
