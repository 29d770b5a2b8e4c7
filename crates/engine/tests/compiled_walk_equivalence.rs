//! Property test for the compiled walk: lowering a kernel into
//! strength-reduced access runs must be invisible.  Across random kernel
//! shapes (negative strides, non-unit steps, if-guards, triangular nests,
//! parametric tile instances), random replacement policies and depth-2/3
//! hierarchies, the compiled walk must
//!
//!   * emit the exact access stream of the reference walk, address by
//!     address and kind by kind, and
//!   * leave every backend of the engine reporting what the reference
//!     stream implies: classic, warping and trace the counts of
//!     [`simulate::simulate_reference`], sampled counts within their
//!     reported bound, HayStack the stack-distance profile of the reference
//!     block stream and PolyCache a per-set LRU replay of it.
//!
//! The reference walk ([`scop::for_each_access`]) is the oracle: every
//! backend consumes the compiled stream, so nothing else can vouch for it.
//!
//! Innermost loops whose bodies are all accesses are walked as run groups
//! (guard-uniform pieces of an entry, every access a stream);
//! [`group_stream_matches_reference_on_multi_access_bodies`] flattens them
//! over random multi-access bodies with guards on either dimension, and
//! the classic backend, which replays the groups in lockstep, must match
//! the reference simulation under every policy and write policy.
//!
//! The parser only builds domains of at most one conjunction, so a
//! hand-built SCoP ([`union_scop`]) covers the union-domain fallback:
//! loops and guards whose domains are unions of conjunctions, walked one
//! iteration at a time.

use analytical::HaystackModel;
use cache_model::{
    AccessKind, CacheConfig, MemBlock, MemoryConfig, ReplacementPolicy, WritePolicy,
};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use polyhedra::{Aff, BasicSet, Set};
use proptest::prelude::*;
use scop::{AccessNode, ArrayInfo, LoopNode, Node, Scop};
use simulate::{simulate, simulate_reference, MultiLevelSystem};

/// The kernel shapes under test; each is stamped out from the same small
/// parameter tuple so shrinking stays meaningful.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `for (i = 0; i < n; i += step) A[mult*i] = A[mult*i];`
    Strided,
    /// `for (i = n-1; i >= 0; i -= step) A[i] = A[i];`
    Decreasing,
    /// The strided loop with an `if (i < bound)` guard on the body.
    Guarded,
    /// `for (i ...) for (j = 0; j <= i; j++) B[j] = A[i];`
    Triangular,
    /// A tiled instance with ragged-tile guards, via the parametric path.
    Tiled,
}

const TEMPLATE: &str = "\
    param N, T;\n\
    double A[N];\n\
    double B[N];\n\
    for (ii = 0; ii < N; ii += T)\n\
        for (i = ii; i < ii + T; i++)\n\
            if (i < N) B[i] = A[i] + A[i];\n";

/// Renders one concrete kernel for a shape and its parameters.
fn kernel(shape: Shape, n: i64, step: i64, mult: i64) -> KernelSpec {
    match shape {
        Shape::Strided => KernelSpec::source(
            "strided",
            format!(
                "double A[{len}]; for (i = 0; i < {n}; i += {step}) \
                 A[{mult}*i] = A[{mult}*i];",
                len = mult * n
            ),
        ),
        Shape::Decreasing => KernelSpec::source(
            "decreasing",
            format!(
                "double A[{n}]; for (i = {last}; i >= 0; i -= {step}) A[i] = A[i];",
                last = n - 1
            ),
        ),
        Shape::Guarded => KernelSpec::source(
            "guarded",
            format!(
                "double A[{len}]; for (i = 0; i < {n}; i += {step}) \
                 if (i < {bound}) A[{mult}*i] = A[{mult}*i];",
                len = mult * n,
                bound = n / 2 + 1
            ),
        ),
        Shape::Triangular => KernelSpec::source(
            "triangular",
            format!(
                "double A[{n}]; double B[{n}]; \
                 for (i = 0; i < {n}; i += {step}) \
                 for (j = 0; j <= i; j++) B[j] = A[i];"
            ),
        ),
        Shape::Tiled => KernelSpec::parametric("tiled", TEMPLATE, [("N", n), ("T", step)]),
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::sample::select(vec![
        Shape::Strided,
        Shape::Decreasing,
        Shape::Guarded,
        Shape::Triangular,
        Shape::Tiled,
    ])
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(vec![
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
        ReplacementPolicy::Qlru,
    ])
}

/// A depth-2 or depth-3 hierarchy, small enough that the tiny kernels
/// still miss at every level.
fn memory(depth: usize, policy: ReplacementPolicy) -> MemoryConfig {
    let mut levels = vec![
        CacheConfig::new(1024, 2, 64, policy),
        CacheConfig::new(4 * 1024, 4, 64, policy),
    ];
    if depth == 3 {
        levels.push(CacheConfig::new(16 * 1024, 8, 64, policy));
    }
    MemoryConfig::new(levels).expect("hierarchy is compatible")
}

/// Per-level miss counts of an inclusive LRU hierarchy replayed set by
/// set over `addresses`: each set is an MRU-first stack of blocks, and a
/// level is consulted only when the level above it misses.
fn lru_replay(addresses: &[u64], levels: &[CacheConfig]) -> Vec<u64> {
    let mut sets: Vec<Vec<Vec<MemBlock>>> = levels
        .iter()
        .map(|level| vec![Vec::new(); level.num_sets()])
        .collect();
    let mut misses = vec![0; levels.len()];
    for &address in addresses {
        for (idx, level) in levels.iter().enumerate() {
            let block = MemBlock::of_address(address, level.line_size());
            let stack = &mut sets[idx][(block.0 % level.num_sets() as u64) as usize];
            let hit = match stack.iter().position(|b| *b == block) {
                Some(pos) => {
                    stack.remove(pos);
                    true
                }
                None => false,
            };
            stack.insert(0, block);
            stack.truncate(level.assoc());
            if hit {
                break;
            }
            misses[idx] += 1;
        }
    }
    misses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled walk's access stream is the reference stream.
    #[test]
    fn compiled_stream_matches_reference(
        shape in arb_shape(),
        n in 4i64..48,
        step in 1i64..4,
        mult in 1i64..4,
    ) {
        let scop = kernel(shape, n, step, mult).build().expect("kernel builds");
        let mut reference: Vec<(u64, AccessKind)> = Vec::new();
        let ref_count = scop::for_each_access(&scop, |access| {
            reference.push((access.address, access.kind));
        });
        let compiled = scop::compile(&scop);
        let mut scratch = compiled.new_scratch();
        let mut lowered: Vec<(u64, AccessKind)> = Vec::new();
        let low_count = compiled.for_each_access(&mut scratch, |_, address, kind| {
            lowered.push((address, kind));
        });
        prop_assert_eq!(ref_count, low_count, "{:?} n={} step={}", shape, n, step);
        prop_assert_eq!(reference, lowered, "{:?} n={} step={} mult={}", shape, n, step, mult);
    }

    /// Every backend reports what the reference stream implies.
    #[test]
    fn every_backend_is_walk_invariant(
        shape in arb_shape(),
        n in 4i64..48,
        step in 1i64..4,
        mult in 1i64..4,
        depth in prop::sample::select(vec![2usize, 3]),
        policy in arb_policy(),
    ) {
        let spec = kernel(shape, n, step, mult);
        let scop = spec.build().expect("kernel builds");
        let memory = memory(depth, policy);
        let tag = format!("{shape:?} n={n} step={step} mult={mult} depth={depth} policy={policy:?}");
        let engine = Engine::new().with_threads(1);
        let run = |memory: &MemoryConfig, backend: Backend| {
            engine
                .run(&SimRequest::new(spec.clone(), memory.clone(), backend))
                .expect("request runs")
        };

        let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory.clone()));
        for backend in [Backend::Classic, Backend::warping(), Backend::Trace] {
            let report = run(&memory, backend);
            prop_assert_eq!(&report.result, &reference, "{} backend={}", tag, report.backend);
        }
        let sampled = run(&memory, Backend::Sampled(engine::SamplingOptions::DEFAULT));
        let approx = sampled.approx.expect("sampled reports carry bounds");
        prop_assert_eq!(sampled.result.accesses, reference.accesses, "{}", tag);
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = sampled.result.levels[level]
                .misses
                .abs_diff(reference.levels[level].misses);
            prop_assert!(err <= *bound, "{} level {}: error {} > bound {}", tag, level, err, bound);
        }

        let mut addresses = Vec::new();
        scop::for_each_access(&scop, |access| addresses.push(access.address));

        let l1 = memory.levels()[0].clone();
        let haystack = run(&MemoryConfig::from(l1.clone()), Backend::Haystack);
        let profile = HaystackModel::new(l1.line_size()).analyze_blocks(
            addresses.iter().map(|&a| MemBlock::of_address(a, l1.line_size())),
        );
        let lines = l1.num_sets() * l1.assoc();
        prop_assert_eq!(haystack.result.accesses, profile.accesses, "{}", tag);
        prop_assert_eq!(haystack.result.levels[0].misses, profile.misses(lines), "{}", tag);

        let lru: Vec<CacheConfig> = memory.levels()[..2]
            .iter()
            .map(|level| {
                CacheConfig::with_sets(
                    level.num_sets(),
                    level.assoc(),
                    level.line_size(),
                    ReplacementPolicy::Lru,
                )
            })
            .collect();
        let polycache = run(&MemoryConfig::new(lru.clone()).expect("valid"), Backend::PolyCache);
        let misses: Vec<u64> = polycache.result.levels.iter().map(|l| l.misses).collect();
        prop_assert_eq!(polycache.result.accesses, addresses.len() as u64, "{}", tag);
        prop_assert_eq!(misses, lru_replay(&addresses, &lru), "{}", tag);
    }
}

/// One statement of a random loop body: `A[ia*i + ja*j + ca] = B[ib*i +
/// jb*j + cb];` (a read of `B`, then a write of `A`) under an optional
/// guard.
#[derive(Clone, Copy, Debug)]
struct Statement {
    write: (i64, i64, i64),
    read: (i64, i64, i64),
    guard: Guard,
}

/// A statement guard on the inner dimension `j`, the outer one `i`, or
/// both.
#[derive(Clone, Copy, Debug)]
enum Guard {
    None,
    InnerBelow(i64),
    InnerFrom(i64),
    InnerAt(i64),
    OuterFrom(i64),
    /// `j <= i + c`: a bound coupled to the outer dimension.
    Coupled(i64),
    /// `i >= c && j < c'`: one condition per dimension.
    Both(i64, i64),
}

impl Guard {
    fn text(self) -> Option<String> {
        match self {
            Guard::None => None,
            Guard::InnerBelow(c) => Some(format!("j < {c}")),
            Guard::InnerFrom(c) => Some(format!("j >= {c}")),
            Guard::InnerAt(c) => Some(format!("j == {c}")),
            Guard::OuterFrom(c) => Some(format!("i >= {c}")),
            Guard::Coupled(c) => Some(format!("j <= i + {c}")),
            Guard::Both(a, b) => Some(format!("i >= {a} && j < {b}")),
        }
    }
}

fn arb_guard() -> impl Strategy<Value = Guard> {
    (0u8..8, 0i64..10, 0i64..10).prop_map(|(kind, a, b)| match kind {
        0 => Guard::InnerBelow(a),
        1 => Guard::InnerFrom(a),
        2 => Guard::InnerAt(a),
        3 => Guard::OuterFrom(a),
        4 => Guard::Coupled(a - 3),
        5 => Guard::Both(a, b),
        _ => Guard::None,
    })
}

fn arb_statement() -> impl Strategy<Value = Statement> {
    let index = || (prop::sample::select(vec![0i64, 1, 10]), 0i64..3, 0i64..3);
    (index(), index(), arb_guard()).prop_map(|(write, read, guard)| Statement {
        write,
        read,
        guard,
    })
}

/// A loop header over `0 <= v < 10` with the given stride, walking down
/// from 9 when `decreasing`.
fn header(v: &str, stride: i64, decreasing: bool) -> String {
    if decreasing {
        format!("for ({v} = 9; {v} >= 0; {v} -= {stride})")
    } else {
        format!("for ({v} = 0; {v} < 10; {v} += {stride})")
    }
}

/// A two-deep nest whose inner body is `statements`.
fn nest_source(
    statements: &[Statement],
    (outer_stride, outer_down): (i64, bool),
    (inner_stride, inner_down): (i64, bool),
) -> String {
    let index = |(a, b, c): (i64, i64, i64)| format!("{a}*i + {b}*j + {c}");
    let mut body = String::new();
    for st in statements {
        let assignment = format!("A[{}] = B[{}];", index(st.write), index(st.read));
        match st.guard.text() {
            Some(cond) => body.push_str(&format!("if ({cond}) {assignment}\n")),
            None => body.push_str(&format!("{assignment}\n")),
        }
    }
    format!(
        "double A[200]; double B[200];\n{} {} {{\n{body}}}\n",
        header("i", outer_stride, outer_down),
        header("j", inner_stride, inner_down),
    )
}

/// The compiled walk's run groups, flattened round by round into
/// `(node, address, kind)`, and how many groups had several streams.
fn flattened_groups(scop: &Scop) -> (Vec<(usize, u64, AccessKind)>, usize) {
    let compiled = scop::compile(scop);
    let mut scratch = compiled.new_scratch();
    let mut stream = Vec::new();
    let mut multi = 0;
    let count = compiled.for_each_group(&mut scratch, |group| {
        multi += usize::from(group.nodes.len() > 1);
        for r in 0..group.count as i64 {
            for s in 0..group.nodes.len() {
                let address = (group.bases[s] as i64 + r * group.strides[s]) as u64;
                stream.push((group.nodes[s], address, group.kinds[s]));
            }
        }
    });
    assert_eq!(
        count as usize,
        stream.len(),
        "the walk counts what it emits"
    );
    (stream, multi)
}

fn reference_stream(scop: &Scop) -> Vec<(usize, u64, AccessKind)> {
    let mut stream = Vec::new();
    scop::for_each_access(scop, |access| {
        stream.push((access.node.id, access.address, access.kind));
    });
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flattened run groups are the reference stream, and the classic
    /// backend's lockstep replay of them is the reference simulation.
    #[test]
    fn group_stream_matches_reference_on_multi_access_bodies(
        statements in proptest::collection::vec(arb_statement(), 1..5),
        outer in (1i64..3, prop::bool::ANY),
        inner in (1i64..4, prop::bool::ANY),
        policy in arb_policy(),
        allocate in prop::bool::ANY,
    ) {
        let source = nest_source(&statements, outer, inner);
        let scop = KernelSpec::source("nest", source.clone()).build().expect("kernel builds");
        let (groups, _) = flattened_groups(&scop);
        prop_assert_eq!(&groups, &reference_stream(&scop), "{}", source);

        let write_policy = if allocate {
            WritePolicy::WriteBackWriteAllocate
        } else {
            WritePolicy::WriteThroughNoAllocate
        };
        // Small enough that the nest conflicts in the L1.
        let memory = MemoryConfig::new(vec![
            CacheConfig::with_sets(2, 2, 64, policy),
            CacheConfig::with_sets(8, 2, 64, policy),
        ])
        .expect("valid")
        .with_write_policy(write_policy);
        let classic = simulate(&scop, &mut MultiLevelSystem::new(memory.clone()));
        let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory));
        prop_assert_eq!(classic, reference, "{} {:?} {:?}", source, policy, write_policy);
    }
}

#[test]
fn ragged_tiled_gemm_groups_match_the_reference() {
    for (ni, nj, nk, ti, tj) in [(20, 18, 12, 7, 5), (9, 11, 4, 4, 3), (16, 16, 8, 8, 8)] {
        let spec = KernelSpec::source(
            "tiled-gemm",
            polybench::parametric::tiled_gemm(ni, nj, nk, ti, tj),
        );
        let scop = spec.build().expect("kernel builds");
        let tag = format!("({ni}, {nj}, {nk}, {ti}, {tj})");
        let (groups, multi) = flattened_groups(&scop);
        assert_eq!(groups, reference_stream(&scop), "{tag}");
        assert!(multi > 0, "{tag}: the guarded j bodies walk as groups");
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Plru,
            ReplacementPolicy::Qlru,
        ] {
            let memory = memory(2, policy);
            let classic = simulate(&scop, &mut MultiLevelSystem::new(memory.clone()));
            let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory));
            assert_eq!(classic, reference, "{tag} {policy:?}");
        }
    }
}

/// A SCoP no source text can produce, every domain a union of
/// conjunctions:
///
/// ```text
/// for (i in [0, 99] ∪ [150, 299])        // increasing, union domain
///   A[i];
///   for (j in [0, 3])                     // nested under the union
///     if (j == 0 || j == 3) B[j][i] = ..; // union guard
///   A[i + 1];
/// for (k in [100, 130] ∪ [40, 70]; k -= 2) // decreasing, union domain
///   A[2k] = ..;
/// ```
///
/// Every access below `i` moves 8 bytes per iteration, so warping attempts
/// matches on the union loop.
fn union_scop() -> Scop {
    let union1 = |a: (i64, i64), b: (i64, i64)| {
        Set::from_basic(BasicSet::rect(&[a])).union(&Set::from_basic(BasicSet::rect(&[b])))
    };
    let outer = union1((0, 99), (150, 299));
    let inner = Set::from_basic(BasicSet::rect(&[(0, 99), (0, 3)]))
        .union(&Set::from_basic(BasicSet::rect(&[(150, 299), (0, 3)])));
    let ends = Set::from_basic(BasicSet::rect(&[(0, 299), (0, 0)]))
        .union(&Set::from_basic(BasicSet::rect(&[(0, 299), (3, 3)])));
    let guard = inner.intersect(&ends);
    assert!(guard.basics().len() > 1, "the guard stays a union");
    let decreasing = union1((100, 130), (40, 70));
    let b_base = 4096;
    let access = |id, depth, domain: &Set, address: Aff, kind| {
        Node::Access(AccessNode {
            id,
            array: usize::from(id == 1),
            depth,
            domain: domain.clone(),
            address,
            kind,
        })
    };
    let increasing = Node::Loop(LoopNode {
        depth: 1,
        domain: outer.clone(),
        stride: 1,
        children: vec![
            access(0, 1, &outer, Aff::var(1, 0).scale(8), AccessKind::Read),
            Node::Loop(LoopNode {
                depth: 2,
                domain: inner,
                stride: 1,
                children: vec![access(
                    1,
                    2,
                    &guard,
                    Aff::from_coeffs(vec![8, 8 * 512], b_base),
                    AccessKind::Write,
                )],
            }),
            access(
                2,
                1,
                &outer,
                Aff::var(1, 0).scale(8).offset(8),
                AccessKind::Read,
            ),
        ],
    });
    let decreasing = Node::Loop(LoopNode {
        depth: 1,
        domain: decreasing.clone(),
        stride: -2,
        children: vec![access(
            3,
            1,
            &decreasing,
            Aff::var(1, 0).scale(16),
            AccessKind::Write,
        )],
    });
    let array = |name: &str, extents: Vec<u64>, base_address| ArrayInfo {
        name: name.into(),
        extents,
        elem_size: 8,
        base_address,
    };
    Scop::new(
        vec![
            array("A", vec![512], 0),
            array("B", vec![4, 512], b_base as u64),
        ],
        vec![increasing, decreasing],
        4,
    )
}

#[test]
fn union_domains_match_the_reference_on_every_exact_backend() {
    let scop = union_scop();
    let mut reference = Vec::new();
    let ref_count = scop::for_each_access(&scop, |access| {
        reference.push((access.node.id, access.address, access.kind));
    });
    let compiled = scop::compile(&scop);
    let mut scratch = compiled.new_scratch();
    let mut lowered = Vec::new();
    let low_count = compiled.for_each_access(&mut scratch, |node, address, kind| {
        lowered.push((node, address, kind));
    });
    assert_eq!(ref_count, low_count);
    assert_eq!(reference, lowered);
    // 250 outer iterations × (2 + 2 guarded) plus 32 decreasing ones.
    assert_eq!(ref_count, 250 * 4 + 32);

    let spec = KernelSpec::prebuilt("unions", scop.clone());
    let engine = Engine::new().with_threads(1);
    for (depth, policy) in [(2, ReplacementPolicy::Lru), (3, ReplacementPolicy::Plru)] {
        let memory = memory(depth, policy);
        let tag = format!("depth={depth} policy={policy:?}");
        let run = |backend| {
            engine
                .run(&SimRequest::new(spec.clone(), memory.clone(), backend))
                .expect("request runs")
        };
        let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory.clone()));
        for backend in [Backend::Classic, Backend::warping(), Backend::Trace] {
            let report = run(backend);
            assert_eq!(report.result, reference, "{tag} backend={}", report.backend);
            if let Some(stats) = report.warping {
                assert!(
                    stats.match_attempts > 0,
                    "{tag}: the union loop attempts matches"
                );
            }
        }
        let sampled = run(Backend::Sampled(engine::SamplingOptions::DEFAULT));
        let approx = sampled.approx.expect("sampled reports carry bounds");
        assert_eq!(sampled.result.accesses, reference.accesses, "{tag}");
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = sampled.result.levels[level]
                .misses
                .abs_diff(reference.levels[level].misses);
            assert!(
                err <= *bound,
                "{tag} level {level}: error {err} > bound {bound}"
            );
        }
    }
}
