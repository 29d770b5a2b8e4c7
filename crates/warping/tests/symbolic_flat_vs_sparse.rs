//! Differential suite: the flat symbolic store against the set-by-set
//! reference.
//!
//! `SymLevel` keeps its tags and policy metadata in a `FlatLevel` and its
//! labels in a slab parallel to the rows.  The reference below is the
//! symbolic store written set by set: one `SetState` per cache set, with
//! one `(block, node, iteration vector)` payload per line and the
//! `SetState` update logic, plus an explicit epoch.  Both are driven through random access streams with random
//! warps in between: all four policies, both write policies, 1–4-set L1s
//! growing ×1–×3 per level at depths 1–3, associativity 1–16 (powers of two
//! for PLRU), label depths 1–4.  After every step they must agree on each
//! hit and miss, every set's lines, labels and policy metadata, the epoch,
//! the MRU set and the counters; at intermittent flushes every fingerprint
//! word must equal a from-scratch rebuild over the reference; and the
//! canonical keys of state pairs (a state against an earlier snapshot) must
//! be equal exactly when the reference encodings are.

use cache_model::{
    AccessKind, CacheConfig, LevelStats, MemBlock, PolicyState, ReplacementPolicy, SetState,
};
use polyhedra::Aff;
use proptest::prelude::*;
use warping::fingerprint::{digest_lines, rebuild_level_fingerprint, MAX_TRACKED_DIMS};
use warping::{CanonicalKey, SymLabel, SymLevel};

/// A reference line: the block, the access node and its iteration vector.
type Line = (MemBlock, usize, Vec<i64>);

/// One symbolic level, set by set: the update, epoch and warp logic of the
/// set-by-set implementation.
#[derive(Clone)]
struct Reference {
    config: CacheConfig,
    sets: Vec<SetState<Line>>,
    /// The iteration vector of the last payload write, empty until then.
    epoch: Vec<i64>,
    mru_set: usize,
    stats: LevelStats,
}

impl Reference {
    fn new(config: CacheConfig) -> Self {
        Reference {
            sets: vec![SetState::new(config.policy(), config.assoc()); config.num_sets()],
            config,
            epoch: Vec::new(),
            mru_set: 0,
            stats: LevelStats::default(),
        }
    }

    fn occupied(&self) -> impl Iterator<Item = (usize, &SetState<Line>)> {
        self.sets
            .iter()
            .enumerate()
            .filter(|(_, set)| !set.is_empty())
    }

    fn access(&mut self, block: MemBlock, kind: AccessKind, node: usize, iter: &[i64]) -> bool {
        let set_idx = self.config.index(block);
        self.mru_set = set_idx;
        let policy = self.config.policy();
        let set = &mut self.sets[set_idx];
        let hit = match set.find(|l| l.0 == block) {
            Some(way) => {
                set.on_hit(policy, way);
                // A hit replaces the line's label by the fresh one.
                *set = set.map_payloads(|l| {
                    if l.0 == block {
                        (block, node, iter.to_vec())
                    } else {
                        l.clone()
                    }
                });
                self.epoch = iter.to_vec();
                true
            }
            None => {
                if kind != AccessKind::Write || self.config.write_allocate() {
                    set.on_miss_insert(policy, (block, node, iter.to_vec()));
                    self.epoch = iter.to_vec();
                }
                false
            }
        };
        self.stats.record(hit);
        hit
    }

    fn apply_warp(&mut self, warp: &Warp, addresses: &[Aff]) {
        let line_size = self.config.line_size() as i64;
        let block_shift = warp.byte_shift / line_size;
        let rotation = block_shift.rem_euclid(self.config.num_sets() as i64);
        let dim = warp.depth - 1;
        let advance = warp.period * warp.chunks;
        self.sets.rotate_right(rotation as usize);
        for set in &mut self.sets {
            *set = set.map_payloads(|l| {
                if warp.moves(l.1, l.2.len()) {
                    let mut iter = l.2.clone();
                    iter[dim] += advance;
                    let block = MemBlock((addresses[l.1].eval(&iter) / line_size) as u64);
                    assert_eq!(block.0 as i64, l.0 .0 as i64 + block_shift);
                    (block, l.1, iter)
                } else {
                    assert_eq!(block_shift, 0, "stale lines require a zero shift");
                    l.clone()
                }
            });
        }
        self.mru_set = (self.mru_set + rotation as usize) % self.config.num_sets();
        if let Some(v) = self.epoch.get_mut(dim) {
            *v += advance;
        }
    }

    /// Whether a warp may move this level: a non-zero shift needs every
    /// cached line to move with the loop.
    fn admits(&self, warp: &Warp) -> bool {
        warp.byte_shift == 0
            || self
                .sets
                .iter()
                .flat_map(|set| set.lines().iter().flatten())
                .all(|l| warp.moves(l.1, l.2.len()))
    }

    /// Every fingerprint word, rebuilt over all sets of the level.
    fn fingerprint(&self) -> [u64; MAX_TRACKED_DIMS] {
        let mut sums = [0u64; MAX_TRACKED_DIMS];
        for set in &self.sets {
            let lines = set.lines().iter().map(|l| {
                l.as_ref().map(|(block, node, iter)| SymLabel {
                    block: *block,
                    node: *node,
                    iter,
                })
            });
            let digest = digest_lines(lines, set.policy_state());
            for (d, sum) in sums.iter_mut().enumerate() {
                *sum = sum.wrapping_add(digest.word(d));
            }
        }
        sums
    }

    /// The canonical-key encoding of the level, written set by set:
    /// occupied sets by offset from the MRU set, labels with the
    /// descendants' warped dimension relative to `normalizer`, policy
    /// metadata verbatim.
    fn encode(&self, descendants: &[usize], depth: usize, normalizer: i64) -> Vec<i64> {
        let num_sets = self.config.num_sets();
        let mut data = vec![i64::MIN + 1];
        let mut sets: Vec<_> = self
            .occupied()
            .map(|(s, set)| ((s + num_sets - self.mru_set) % num_sets, set))
            .collect();
        sets.sort_unstable_by_key(|(offset, _)| *offset);
        for (offset, set) in sets {
            data.extend([i64::MIN + 2, offset as i64]);
            for line in set.lines() {
                match line {
                    None => data.push(i64::MIN + 3),
                    Some((_, node, iter)) => {
                        data.push(*node as i64);
                        let normalise = descendants.contains(node) && iter.len() >= depth;
                        for (d, v) in iter.iter().enumerate() {
                            data.push(if normalise && d == depth - 1 {
                                v - normalizer
                            } else {
                                *v
                            });
                        }
                        data.push(i64::MIN + 4);
                    }
                }
            }
            match set.policy_state() {
                PolicyState::None => data.push(0),
                PolicyState::PlruBits(bits) => {
                    data.push(1);
                    data.extend(bits.iter().map(|&b| i64::from(b)));
                }
                PolicyState::Ages(ages) => {
                    data.push(2);
                    data.extend(ages.iter().map(|&a| i64::from(a)));
                }
            }
        }
        data
    }
}

/// A warp: the loop depth, its period and chunk count, the descendant
/// access nodes (ascending) and the byte shift of the whole warp.
#[derive(Clone, Debug)]
struct Warp {
    depth: usize,
    period: i64,
    chunks: i64,
    descendants: Vec<usize>,
    byte_shift: i64,
}

impl Warp {
    fn moves(&self, node: usize, len: usize) -> bool {
        self.descendants.contains(&node) && len >= self.depth
    }
}

/// The access nodes: node `n` is `NODE_DEPTHS[n]` deep and addresses
/// `base_n + Σ_k line · mult[k] · i_k`, one coefficient per dimension shared
/// by every node, so a warp shifts every moving line by the same amount.
const NODE_DEPTHS: [usize; 5] = [1, 2, 3, 4, 2];

fn addresses(line: i64, mult: &[i64; 4]) -> Vec<Aff> {
    NODE_DEPTHS
        .iter()
        .enumerate()
        .map(|(n, &depth)| {
            let coeffs = (0..depth).map(|k| line * mult[k]).collect();
            Aff::from_coeffs(coeffs, n as i64 * 40 * line + 3 * n as i64)
        })
        .collect()
}

/// A small deterministic generator, so one proptest case is one seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn assert_same(sym: &[SymLevel], reference: &[Reference], step: usize) {
    for (idx, (level, rf)) in sym.iter().zip(reference).enumerate() {
        let at = format!("level {idx} after step {step}");
        assert_eq!(level.stats, rf.stats, "{at}: counters");
        assert_eq!(level.mru_set, rf.mru_set, "{at}: MRU set");
        assert_eq!(level.epoch(), rf.epoch, "{at}: epoch");
        assert_eq!(level.occupied_len(), rf.occupied().count(), "{at}");
        for (s, expected) in rf.sets.iter().enumerate() {
            let Some(set) = level.set(s) else {
                assert!(expected.is_empty(), "{at}: set {s} lost its lines");
                continue;
            };
            let lines: Vec<Option<Line>> = set
                .lines()
                .map(|l| l.map(|l| (l.block, l.node, l.iter.to_vec())))
                .collect();
            assert_eq!(lines, expected.lines(), "{at}: set {s} lines or labels");
            assert_eq!(
                set.flat().to_set_state().policy_state(),
                expected.policy_state(),
                "{at}: set {s} policy metadata"
            );
        }
    }
}

fn assert_fingerprints(sym: &mut [SymLevel], reference: &[Reference], step: usize) {
    for (idx, (level, rf)) in sym.iter_mut().zip(reference).enumerate() {
        level.prepare_match();
        let expected = rf.fingerprint();
        assert_eq!(rebuild_level_fingerprint(level), expected, "level {idx}");
        for (d, word) in expected.into_iter().enumerate() {
            assert_eq!(
                level.fingerprint(d),
                Some(word),
                "level {idx}, dim {d} after step {step}: incremental fingerprint"
            );
        }
    }
}

/// Key equality of two states must match equality of their reference
/// encodings, each level normalised by its own epoch (0 without one).
fn assert_key_agreement(
    a: (&[SymLevel], &[Reference]),
    b: (&[SymLevel], &[Reference]),
    descendants: &[usize],
    depth: usize,
) -> bool {
    let normalizers = |levels: &[SymLevel]| -> Vec<i64> {
        levels
            .iter()
            .map(|l| l.epoch_at(depth - 1).unwrap_or(0))
            .collect()
    };
    let key = |levels: &[SymLevel]| {
        CanonicalKey::of_levels(levels, descendants, depth, &normalizers(levels))
    };
    let encode = |levels: &[Reference]| -> Vec<i64> {
        levels
            .iter()
            .flat_map(|l| {
                let normalizer = l.epoch.get(depth - 1).copied().unwrap_or(0);
                l.encode(descendants, depth, normalizer)
            })
            .collect()
    };
    let equal = key(a.0) == key(b.0);
    assert_eq!(equal, encode(a.1) == encode(b.1), "key equality diverged");
    equal
}

#[allow(clippy::too_many_arguments)]
fn run(
    seed: u64,
    policy: ReplacementPolicy,
    write_allocate: bool,
    l1_sets: usize,
    growth: &[usize],
    assoc: usize,
    line: u64,
    mult: [i64; 4],
    steps: usize,
) -> usize {
    let mut configs = Vec::new();
    let mut sets = l1_sets;
    for &g in std::iter::once(&1).chain(growth) {
        sets *= g;
        configs.push(
            CacheConfig::with_sets(sets, assoc, line, policy).with_write_allocate(write_allocate),
        );
    }
    let addresses = addresses(line as i64, &mult);
    let mut sym: Vec<SymLevel> = configs.iter().cloned().map(SymLevel::new).collect();
    let mut reference: Vec<Reference> = configs.iter().cloned().map(Reference::new).collect();
    let mut snapshots: Vec<(Vec<SymLevel>, Vec<Reference>)> = Vec::new();
    let mut rng = Lcg(seed);
    let mut equal_keys = 0;
    for step in 0..steps {
        if rng.below(12) == 0 {
            let depth = 1 + rng.below(4) as usize;
            let (period, chunks) = (1 + rng.below(3) as i64, 1 + rng.below(3) as i64);
            let descendants: Vec<usize> = (0..NODE_DEPTHS.len())
                .filter(|_| rng.below(4) != 0)
                .collect();
            let warp = Warp {
                depth,
                period,
                chunks,
                byte_shift: line as i64 * mult[depth - 1] * period * chunks,
                descendants,
            };
            let before = (sym.clone(), reference.clone());
            for (level, rf) in sym.iter_mut().zip(&mut reference) {
                if rf.admits(&warp) {
                    level.apply_warp(
                        |node, iter: &[i64]| addresses[node].eval(iter),
                        &warp.descendants,
                        warp.depth,
                        warp.period,
                        warp.chunks,
                        warp.byte_shift,
                    );
                    rf.apply_warp(&warp, &addresses);
                }
            }
            equal_keys += usize::from(assert_key_agreement(
                (&sym, &reference),
                (&before.0, &before.1),
                &warp.descendants,
                warp.depth,
            ));
        } else {
            let node = rng.below(NODE_DEPTHS.len() as u64) as usize;
            let iter: Vec<i64> = (0..NODE_DEPTHS[node])
                .map(|_| rng.below(6) as i64)
                .collect();
            let kind = if rng.below(3) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let address = addresses[node].eval(&iter) as u64;
            for (level, rf) in sym.iter_mut().zip(&mut reference) {
                let block = level.block_of_address(address);
                let hit = level.access(block, kind, node, &iter);
                assert_eq!(
                    hit,
                    rf.access(block, kind, node, &iter),
                    "step {step}: hit/miss diverged"
                );
                if hit {
                    break;
                }
            }
        }
        assert_same(&sym, &reference, step);
        if rng.below(5) == 0 {
            assert_fingerprints(&mut sym, &reference, step);
        }
        if rng.below(8) == 0 {
            snapshots.push((sym.clone(), reference.clone()));
            if snapshots.len() > 4 {
                snapshots.remove(0);
            }
        }
        if let Some(i) = (!snapshots.is_empty()).then(|| rng.below(snapshots.len() as u64)) {
            let (snap_sym, snap_ref) = &snapshots[i as usize];
            let descendants: Vec<usize> = (0..NODE_DEPTHS.len()).collect();
            let depth = 1 + rng.below(4) as usize;
            equal_keys += usize::from(assert_key_agreement(
                (&sym, &reference),
                (snap_sym, snap_ref),
                &descendants,
                depth,
            ));
        }
    }
    assert_fingerprints(&mut sym, &reference, steps);
    equal_keys
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_symbolic_store_matches_the_sparse_reference(
        seed in 0u64..u64::MAX,
        policy in arb_policy(),
        write_allocate in prop::bool::ANY,
        l1_sets in 1usize..5,
        growth in proptest::collection::vec(1usize..4, 0..3),
        assoc_pick in 0usize..16,
        line in prop::sample::select(vec![8u64, 64]),
        mult in proptest::collection::vec(0i64..3, 4),
    ) {
        let assoc = if policy == ReplacementPolicy::Plru {
            1 << (assoc_pick % 5)
        } else {
            1 + assoc_pick
        };
        let mult = [mult[0], mult[1], mult[2], mult[3]];
        run(seed, policy, write_allocate, l1_sets, &growth, assoc, line, mult, 300);
    }
}

/// Equal keys do occur — after a warp that moves every line of a level
/// whose epoch reaches the warped dimension, and between identical
/// snapshots — so the key agreement above is not only ever comparing
/// unequal pairs.
#[test]
fn key_agreement_sees_equal_pairs() {
    let mut equal = 0;
    for (seed, policy) in (0..16u64).zip(ReplacementPolicy::ALL.into_iter().cycle()) {
        equal += run(seed, policy, true, 2, &[2], 4, 64, [1, 0, 1, 2], 200);
    }
    assert!(equal > 0, "no equal key pair in 16 runs");
}
