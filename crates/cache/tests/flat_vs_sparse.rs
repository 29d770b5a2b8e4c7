//! Differential suite: the flat concrete store against the `SetState`
//! reference.
//!
//! `MultiLevelState` keeps one `FlatLevel` (set directory + row slab with
//! packed policy metadata) per level.  This suite drives it next to a dense
//! reference, one `Vec<SetState<MemBlock>>` per level walked set by set,
//! over random accesses and run groups of one to three streams (one stream
//! is a run), for all four policies, both write policies, power-of-two and
//! other set counts and line sizes, associativity 1 and 128-way PLRU
//! (multi-word tree bits), at depths 1 to 3.  After every step the two must
//! agree on each access's outcome, the per-level counters, the per-level
//! epochs and every set's lines and policy metadata.

use cache_model::{
    Access, AccessKind, CacheConfig, LevelStats, MemBlock, MemoryConfig, MultiAccessOutcome,
    MultiLevelState, ReplacementPolicy, SetState, WritePolicy,
};
use proptest::prelude::*;

/// The reference hierarchy: every set of every level as a `SetState`, plus
/// an explicit per-level epoch (`i64::MIN` until first written).
struct Reference {
    config: MemoryConfig,
    levels: Vec<Vec<SetState<MemBlock>>>,
    epochs: Vec<i64>,
    stats: Vec<LevelStats>,
}

impl Reference {
    fn new(config: &MemoryConfig) -> Self {
        Reference {
            config: config.clone(),
            levels: config
                .levels()
                .iter()
                .map(|level| vec![SetState::new(level.policy(), level.assoc()); level.num_sets()])
                .collect(),
            epochs: vec![i64::MIN; config.depth()],
            stats: vec![LevelStats::default(); config.depth()],
        }
    }

    /// The inclusive walk: each level is consulted until one hits; a miss
    /// fills only when `fill` is set, and every level the access wrote
    /// takes `stamp` as its epoch.
    fn walk(&mut self, block: MemBlock, fill: bool, stamp: i64) -> MultiAccessOutcome {
        let levels = self.config.levels().iter().zip(&mut self.levels);
        for (idx, (level, sets)) in levels.enumerate() {
            let set = &mut sets[level.index(block)];
            let hit = match set.find(|b| *b == block) {
                Some(way) => {
                    set.on_hit(level.policy(), way);
                    true
                }
                None if fill => {
                    set.on_miss_insert(level.policy(), block);
                    false
                }
                None => false,
            };
            if hit || fill {
                self.epochs[idx] = stamp;
            }
            if hit {
                return MultiAccessOutcome {
                    levels_consulted: idx + 1,
                    hit,
                };
            }
        }
        MultiAccessOutcome {
            levels_consulted: self.levels.len(),
            hit: false,
        }
    }

    fn access(&mut self, access: Access, stamp: i64) -> MultiAccessOutcome {
        let block = self.config.l1().block_of_address(access.address);
        let fill =
            access.kind != AccessKind::Write || self.config.write_policy().allocates_on_write();
        let outcome = self.walk(block, fill, stamp);
        outcome.record_into(&mut self.stats);
        outcome
    }
}

fn assert_same(flat: &MultiLevelState, stats: &[LevelStats], reference: &Reference) {
    assert_eq!(stats, &reference.stats[..], "per-level counters diverged");
    let levels = flat.levels().iter().zip(&reference.levels);
    for (idx, (level, sets)) in levels.enumerate() {
        assert_eq!(
            level.epoch(),
            reference.epochs[idx],
            "level {idx}: epoch diverged"
        );
        let occupied = sets.iter().filter(|set| !set.is_empty()).count();
        assert_eq!(level.occupied_len(), occupied, "level {idx}");
        for (idx_set, set) in sets.iter().enumerate() {
            assert_eq!(
                level.set_state(idx_set),
                *set,
                "level {idx}, set {idx_set} diverged"
            );
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    Access {
        addr: u64,
        write: bool,
    },
    /// Streams advanced in lockstep, `count` rounds.
    Group {
        bases: Vec<u64>,
        strides: Vec<i64>,
        kinds: Vec<AccessKind>,
        count: u64,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let stream = (0u64..(48 * 64), -130i64..130, prop::bool::ANY);
    (0u8..3, proptest::collection::vec(stream, 1..=3), 0u64..40).prop_map(
        |(kind, streams, count)| match kind {
            0 => Step::Access {
                addr: streams[0].0,
                write: streams[0].2,
            },
            _ => Step::Group {
                // Keep every address of a backward stream non-negative.
                bases: streams
                    .iter()
                    .map(|&(addr, stride, _)| addr + stride.unsigned_abs() * count)
                    .collect(),
                strides: streams.iter().map(|&(_, stride, _)| stride).collect(),
                kinds: streams
                    .iter()
                    .map(|&(_, _, write)| kind_of(write))
                    .collect(),
                count,
            },
        },
    )
}

fn kind_of(write: bool) -> AccessKind {
    if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// A depth-1..=3 memory system: set counts grow by ×1, ×2 or ×3 per level
/// from a power-of-two or non-power-of-two L1, on a power-of-two or other
/// line size.
fn arb_memory() -> impl Strategy<Value = MemoryConfig> {
    (
        prop::sample::select(ReplacementPolicy::ALL.to_vec()),
        prop::sample::select(vec![1usize, 2, 3, 4]),
        prop::sample::select(vec![1usize, 2, 3, 4, 8]),
        prop::sample::select(vec![8u64, 48, 64]),
        1usize..=3,
        (1usize..=3, 1usize..=3),
        prop::bool::ANY,
    )
        .prop_map(
            |(policy, sets, assoc, line, depth, (grow2, grow3), allocate)| {
                // PLRU needs a power-of-two associativity.
                let assoc = if policy == ReplacementPolicy::Plru && assoc == 3 {
                    4
                } else {
                    assoc
                };
                let levels: Vec<CacheConfig> = [1, grow2, grow2 * grow3]
                    .iter()
                    .take(depth)
                    .enumerate()
                    .map(|(i, grow)| CacheConfig::with_sets(sets * grow, assoc << i, line, policy))
                    .collect();
                let write_policy = if allocate {
                    WritePolicy::WriteBackWriteAllocate
                } else {
                    WritePolicy::WriteThroughNoAllocate
                };
                MemoryConfig::new(levels)
                    .expect("geometries are valid")
                    .with_write_policy(write_policy)
                    .normalized()
            },
        )
}

/// Drives both models through `steps`, comparing after every step.
fn check(config: &MemoryConfig, steps: &[Step]) {
    let mut flat = MultiLevelState::new(config);
    let mut stats = vec![LevelStats::default(); config.depth()];
    let mut reference = Reference::new(config);
    for (stamp, step) in steps.iter().enumerate() {
        let stamp = stamp as i64;
        match step {
            &Step::Access { addr, write } => {
                let access = Access {
                    address: addr,
                    kind: kind_of(write),
                };
                let outcome = flat.access_stamped(config, access, stamp);
                outcome.record_into(&mut stats);
                assert_eq!(outcome, reference.access(access, stamp), "{step:?}");
            }
            Step::Group {
                bases,
                strides,
                kinds,
                count,
            } => {
                flat.access_group_stamped(config, bases, strides, kinds, *count, stamp, &mut stats);
                for r in 0..*count as i64 {
                    for s in 0..bases.len() {
                        let address = (bases[s] as i64 + r * strides[s]) as u64;
                        let kind = kinds[s];
                        reference.access(Access { address, kind }, stamp);
                    }
                }
            }
        }
        assert_same(&flat, &stats, &reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn flat_store_matches_the_set_state_reference(
        config in arb_memory(),
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        check(&config, &steps);
    }

    /// 128 ways need two words of PLRU tree bits per row (127 nodes).
    #[test]
    fn wide_plru_rows_match_the_reference(
        allocate in prop::bool::ANY,
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        let l1 = CacheConfig::with_sets(1, 128, 16, ReplacementPolicy::Plru)
            .with_write_allocate(allocate);
        let l2 = CacheConfig::with_sets(2, 128, 16, ReplacementPolicy::Plru)
            .with_write_allocate(allocate);
        let config = MemoryConfig::new(vec![l1, l2]).expect("valid");
        check(&config, &steps);
    }
}

#[test]
fn snapshots_restore_the_exact_state() {
    let config = MemoryConfig::new(vec![
        CacheConfig::with_sets(3, 2, 48, ReplacementPolicy::Qlru),
        CacheConfig::with_sets(6, 4, 48, ReplacementPolicy::Plru),
    ])
    .unwrap();
    let mut state = MultiLevelState::new(&config);
    let mut stats = vec![LevelStats::default(); 2];
    state.access_group_stamped(&config, &[0], &[40], &[AccessKind::Read], 30, 1, &mut stats);
    let restored = state.clone();
    assert_eq!(restored, state);
    for (a, b) in restored.levels().iter().zip(state.levels()) {
        assert_eq!(a.epoch(), b.epoch());
        for set in 0..a.num_sets() {
            assert_eq!(a.set_state(set), b.set_state(set));
        }
    }
}
