//! Replacement policies.
//!
//! All policies implemented here satisfy the data-independence property
//! (Property 1 of the paper): their decisions depend only on the *positions*
//! of hits and on policy metadata, never on the identity of the cached
//! memory blocks.  This is what makes cache warping sound.

use std::fmt;

/// A cache replacement policy.
///
/// The update logic lives in [`SetState`](crate::SetState); this enum selects
/// which logic is used and how the per-set [`PolicyState`] is initialised.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReplacementPolicy {
    /// Least-recently-used.  Encoded in the order of the cache lines
    /// (index 0 is most recently used), no extra policy state.
    Lru,
    /// First-in first-out.  Encoded in the order of the cache lines
    /// (index 0 is last-in), no extra policy state; hits do not update state.
    Fifo,
    /// Tree-based Pseudo-LRU as found in the L1 caches of recent Intel
    /// microarchitectures.  Requires a power-of-two associativity.
    Plru,
    /// Quad-age LRU, modelled as static re-reference interval prediction
    /// (SRRIP-HP) with 2-bit ages: blocks are inserted with age 2, promoted
    /// to age 0 on a hit, and the victim is a block of age 3 (ageing all
    /// blocks until one reaches age 3).  This is the scan- and
    /// thrash-resistant policy used in the L2/L3 caches of recent Intel
    /// microarchitectures.
    Qlru,
}

impl ReplacementPolicy {
    /// All policies supported by the simulator, in the order used by the
    /// paper's figures.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
        ReplacementPolicy::Qlru,
    ];

    /// The initial per-set policy state for a set of the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the policy is [`ReplacementPolicy::Plru`] and `assoc` is not
    /// a power of two, or if `assoc` is zero.
    pub fn initial_state(self, assoc: usize) -> PolicyState {
        assert!(assoc > 0, "associativity must be positive");
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => PolicyState::None,
            ReplacementPolicy::Plru => {
                assert!(
                    assoc.is_power_of_two(),
                    "PLRU requires a power-of-two associativity, got {assoc}"
                );
                PolicyState::PlruBits(vec![false; assoc.saturating_sub(1)])
            }
            ReplacementPolicy::Qlru => PolicyState::Ages(vec![3; assoc]),
        }
    }

    /// A short, human-readable name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Plru => "Pseudo-LRU",
            ReplacementPolicy::Qlru => "Quad-age LRU",
        }
    }

    /// The lowercase identifier used on the wire and on the command line
    /// (`"lru"`, `"fifo"`, `"plru"`, `"qlru"`).
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Plru => "plru",
            ReplacementPolicy::Qlru => "qlru",
        }
    }

    /// The policy whose [`name`](ReplacementPolicy::name) is `name`.
    pub fn by_name(name: &str) -> Option<ReplacementPolicy> {
        ReplacementPolicy::ALL
            .into_iter()
            .find(|policy| policy.name() == name)
    }
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Policy metadata of a single cache set.
///
/// The metadata refers to cache lines by position only; it never contains
/// memory blocks, which is what makes the model data independent.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PolicyState {
    /// No extra state (LRU, FIFO: the state is the line order).
    None,
    /// Tree bits of tree-based Pseudo-LRU; entry 0 is the root and the
    /// children of node `i` are `2i + 1` and `2i + 2`.  A bit value of
    /// `false` means the pseudo-LRU victim is in the left subtree.
    PlruBits(Vec<bool>),
    /// Per-line re-reference ages (0 = re-use expected soonest, 3 = victim).
    Ages(Vec<u8>),
}

impl PolicyState {
    /// True if this is [`PolicyState::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, PolicyState::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_states() {
        assert_eq!(ReplacementPolicy::Lru.initial_state(4), PolicyState::None);
        assert_eq!(ReplacementPolicy::Fifo.initial_state(4), PolicyState::None);
        assert_eq!(
            ReplacementPolicy::Plru.initial_state(4),
            PolicyState::PlruBits(vec![false; 3])
        );
        assert_eq!(
            ReplacementPolicy::Qlru.initial_state(2),
            PolicyState::Ages(vec![3, 3])
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = ReplacementPolicy::Plru.initial_state(3);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ReplacementPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn names_round_trip() {
        for policy in ReplacementPolicy::ALL {
            assert_eq!(ReplacementPolicy::by_name(policy.name()), Some(policy));
        }
        assert_eq!(ReplacementPolicy::by_name("LRU"), None);
    }
}
