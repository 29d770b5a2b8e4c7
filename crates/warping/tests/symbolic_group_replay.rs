//! Differential suite: the grouped replay of a loop entry against
//! per-access symbolic simulation.
//!
//! `SymLevel::access_group` records the rounds of a same-line stretch as L1
//! hits once one round is all L1 hits, the stretch's last round included,
//! and moves the settled round's labels to the last round's iterator.  The oracle below walks every access of every round through
//! `SymLevel::access`, level by level.  Random multi-stream groups — forward,
//! backward, zero-stride and line-crossing streams, reads and writes — run
//! on hierarchies of depth 1–3 under all four policies and both write
//! policies.  After every round the replay of the group cut at that round
//! must agree with the oracle on the tags and policy metadata, every
//! label, the epochs, the MRU sets, the per-level counters and every
//! fingerprint word.

use cache_model::{AccessKind, CacheConfig, ReplacementPolicy};
use proptest::prelude::*;
use scop::RunGroup;
use warping::fingerprint::rebuild_level_fingerprint;
use warping::SymLevel;

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

/// The streams of one group, owned.
struct Streams {
    nodes: Vec<usize>,
    bases: Vec<u64>,
    strides: Vec<i64>,
    kinds: Vec<AccessKind>,
    first: i64,
}

impl Streams {
    fn random(rng: &mut Lcg) -> Self {
        const STRIDES: [i64; 9] = [0, 8, -8, 16, -16, 24, 64, -64, 72];
        let k = 1 + rng.below(4) as usize;
        let mut streams = Streams {
            nodes: Vec::new(),
            bases: Vec::new(),
            strides: Vec::new(),
            kinds: Vec::new(),
            first: rng.below(10) as i64 - 5,
        };
        for _ in 0..k {
            streams.nodes.push(rng.below(6) as usize);
            // Far enough from zero for any stride to stay non-negative,
            // close enough together to share and contend for lines.
            streams
                .bases
                .push(8192 + 64 * rng.below(24) + 8 * rng.below(8));
            streams
                .strides
                .push(STRIDES[rng.below(STRIDES.len() as u64) as usize]);
            streams.kinds.push(if rng.below(3) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            });
        }
        streams
    }

    fn group(&self, count: u64) -> RunGroup<'_> {
        RunGroup {
            nodes: &self.nodes,
            bases: &self.bases,
            strides: &self.strides,
            kinds: &self.kinds,
            count,
            first: self.first,
        }
    }

    /// The oracle: round `r` walks every stream's access through the
    /// hierarchy, one level at a time, at iterator value `first + r·stride`.
    fn round(&self, levels: &mut [SymLevel], iv: &mut [i64], stride: i64, r: i64) {
        let dim = iv.len() - 1;
        iv[dim] = self.first + r * stride;
        for s in 0..self.nodes.len() {
            let address = (self.bases[s] as i64 + r * self.strides[s]) as u64;
            for level in levels.iter_mut() {
                let block = level.block_of_address(address);
                if level.access(block, self.kinds[s], self.nodes[s], iv) {
                    break;
                }
            }
        }
    }
}

#[track_caller]
fn assert_same(grouped: &[SymLevel], oracle: &[SymLevel], at: &str) {
    for (idx, (g, o)) in grouped.iter().zip(oracle).enumerate() {
        let at = format!("level {idx} {at}");
        assert_eq!(g.stats, o.stats, "{at}: counters");
        assert_eq!(g.mru_set, o.mru_set, "{at}: MRU set");
        assert_eq!(g.epoch(), o.epoch(), "{at}: epoch");
        assert!(
            g.concrete_state() == o.concrete_state(),
            "{at}: tags or policy metadata"
        );
        let labels = |level: &SymLevel| -> Vec<_> {
            level
                .sets()
                .map(|set| {
                    let lines: Vec<_> = set
                        .lines()
                        .map(|l| l.map(|l| (l.block, l.node, l.iter.to_vec())))
                        .collect();
                    (set.index(), lines)
                })
                .collect()
        };
        assert_eq!(labels(g), labels(o), "{at}: labels");
        let (mut g, mut o) = (g.clone(), o.clone());
        g.prepare_match();
        o.prepare_match();
        let rebuilt = rebuild_level_fingerprint(&o);
        for (d, &word) in rebuilt.iter().enumerate() {
            assert_eq!(o.fingerprint(d), Some(word), "{at}: oracle dim {d}");
            assert_eq!(g.fingerprint(d), Some(word), "{at}: fingerprint dim {d}");
        }
    }
}

/// Runs `groups` random groups in sequence on one hierarchy and returns
/// the number of accesses the replay recorded arithmetically.
#[allow(clippy::too_many_arguments)]
fn run(
    seed: u64,
    policy: ReplacementPolicy,
    write_allocate: bool,
    l1_sets: usize,
    assoc: usize,
    line: u64,
    depth: usize,
    groups: usize,
) -> u64 {
    let mut rng = Lcg(seed);
    let mut sets = l1_sets;
    let mut levels: Vec<SymLevel> = (0..depth)
        .map(|_| {
            let config = CacheConfig::with_sets(sets, assoc, line, policy)
                .with_write_allocate(write_allocate);
            sets *= 2;
            SymLevel::new(config)
        })
        .collect();
    let mut crossings = Vec::new();
    let mut counted = 0;
    for g in 0..groups {
        // The simulator flushes the fingerprints at match attempts only,
        // so groups start both from flushed and from dirty trackers.
        if rng.below(2) == 0 {
            levels.iter_mut().for_each(SymLevel::prepare_match);
        }
        let streams = Streams::random(&mut rng);
        let stride = [1, 2, 3, -1][rng.below(4) as usize];
        let iv_depth = 1 + rng.below(3) as usize;
        let mut iv: Vec<i64> = (0..iv_depth).map(|_| rng.below(4) as i64).collect();
        let count = 1 + rng.below(40);
        let mut oracle = levels.clone();
        let mut oracle_iv = iv.clone();
        for c in 1..=count {
            streams.round(&mut oracle, &mut oracle_iv, stride, c as i64 - 1);
            let mut grouped = levels.clone();
            counted += SymLevel::access_group(
                &mut grouped,
                &streams.group(c),
                stride,
                &mut iv,
                &mut crossings,
            );
            assert_eq!(
                iv.last(),
                oracle_iv.last(),
                "group {g}: the replay ends on the last round's iterator"
            );
            assert_same(&grouped, &oracle, &format!("group {g} after {c} rounds"));
        }
        levels = oracle;
    }
    counted
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn group_replay_matches_per_access_simulation(
        seed in 0u64..u64::MAX,
        policy in arb_policy(),
        write_allocate in prop::bool::ANY,
        l1_sets in prop::sample::select(vec![1usize, 2, 4]),
        assoc_pick in 0usize..3,
        line in prop::sample::select(vec![16u64, 64]),
        depth in 1usize..4,
    ) {
        let assoc = [1, 2, 4][assoc_pick];
        run(seed, policy, write_allocate, l1_sets, assoc, line, depth, 8);
    }
}

/// The replay does take its arithmetic path on these groups, so the suite
/// above is not only ever comparing fully replayed rounds.
#[test]
fn settled_stretches_are_counted() {
    let mut counted = 0;
    for (seed, policy) in (0..16u64).zip(ReplacementPolicy::ALL.into_iter().cycle()) {
        counted += run(seed, policy, true, 2, 4, 64, 2, 8);
    }
    assert!(counted > 0, "no round was recorded arithmetically");
}

/// A settling group whose first round repeats the iteration vector of the
/// one-round group before it: its labels move to its last round, and the
/// earlier group's labels, written at the same vector, stay where they
/// are.
#[test]
fn a_settling_group_leaves_an_equal_earlier_round_alone() {
    let config = CacheConfig::with_sets(2, 2, 64, ReplacementPolicy::Lru);
    let streams = |nodes: Vec<usize>, bases: Vec<u64>, strides: Vec<i64>| Streams {
        kinds: vec![AccessKind::Read; nodes.len()],
        nodes,
        bases,
        strides,
        first: 5,
    };
    // Block 128 (set 0) and block 129 (set 1), at iteration [0, 5].
    let earlier = streams(vec![0, 1], vec![8192, 8256], vec![0, 0]);
    // Block 129 again from the same iteration on: an L1 hit that settles
    // at once and stays on its line for all four rounds.
    let settling = streams(vec![2], vec![8256], vec![8]);
    let mut levels = vec![SymLevel::new(config)];
    let mut oracle = levels.clone();
    let (mut iv, mut oracle_iv) = (vec![0, 0], vec![0, 0]);
    let mut crossings = Vec::new();
    SymLevel::access_group(&mut levels, &earlier.group(1), 1, &mut iv, &mut crossings);
    earlier.round(&mut oracle, &mut oracle_iv, 1, 0);
    let counted =
        SymLevel::access_group(&mut levels, &settling.group(4), 1, &mut iv, &mut crossings);
    for r in 0..4 {
        settling.round(&mut oracle, &mut oracle_iv, 1, r);
    }
    assert_eq!(counted, 3, "rounds 1-3 are recorded as hits");
    assert_eq!(iv, [0, 8]);
    assert_same(&levels, &oracle, "after the settling group");
    let first = |set: usize| {
        let line = levels[0].set(set).unwrap().lines().next().unwrap().unwrap();
        (line.node, line.iter.to_vec())
    };
    assert_eq!(first(0), (0, vec![0, 5]), "the earlier group's label");
    assert_eq!(first(1), (2, vec![0, 8]), "the settled label");
}
