//! Compile-once / walk-many lowering of a SCoP: the compiled walk.
//!
//! The reference walk ([`crate::walk::for_each_access`]) re-evaluates a
//! full affine dot product per access, re-checks `domain.contains`
//! against every basic set per iteration, and derives loop bounds with a
//! fresh lexmin/lexmax search per loop entry.  All of that work is
//! affine in the iteration vector, so it can be paid once per *kernel*
//! instead of once per *access*:
//!
//! * **Strength-reduced addresses** — each access keeps a running base
//!   address; entering a loop at value `v` adds `coeff × v` for every
//!   access below it, advancing adds `coeff × stride`, and leaving
//!   subtracts the accumulated contribution (the per-level carry
//!   deltas).  Steady-state iteration never evaluates an [`Aff`] again.
//! * **Hoisted bounds** — a loop whose domain is a single conjunction
//!   compiles to `LoopBounds::Exact`: its constraints that no enclosing
//!   exact loop establishes, lowered to flat bound rows
//!   ([`BoundRows`]: the coefficient on the loop's own dimension, the
//!   prefix coefficients, the constant).  Per entry, one allocation-free
//!   pass over the rows yields the inclusive bound interval, replacing the
//!   per-entry lexmin/lexmax searches, and makes the per-iteration
//!   `contains` check provably redundant.  Unions of conjunctions fall
//!   back to the reference enumeration (`LoopBounds::Dynamic`), still
//!   with strength-reduced addresses.
//! * **Residual guards** — an access keeps only the constraints of its
//!   domain that no enclosing exact loop establishes (the same syntactic
//!   test throughout), as bound rows on its innermost dimension.  With
//!   none left the guard is gone (`GuardPlan::Trivial`); otherwise it is
//!   clipped to an interval once per entry of a group-walked loop, or
//!   checked per point against the residual rows only
//!   (`GuardPlan::Exact`); only non-convex guards pay a full membership
//!   test (`GuardPlan::Dynamic`).
//! * **Run groups** — a dense innermost loop whose children are all
//!   accesses clips every access's residual guard once per entry, cuts
//!   the entry where a clipped interval starts or ends, and emits one
//!   [`RunGroup`] per piece: the accesses whose guards hold there, in
//!   program order, as streams advanced in lockstep (`base`, `stride`
//!   per stream, one `count`, and the iterator value `first` of the
//!   first round).  Every other access is a one-access group.
//!   The cache layer replays a group round by round and counts the
//!   rounds of a same-line stretch arithmetically once one is all L1
//!   hits (see `MultiLevelState::access_group`); [`AccessRun`]s
//!   ([`CompiledScop::for_each_run`]) are the groups flattened, a
//!   single-stream group being one run.
//!
//! This module is the one place that decides how a loop entry iterates:
//! [`CompiledLoop::entry`] gives its first and last value in walk order
//! (decreasing loops walk lexmax-first) and whether every grid value is
//! in the domain.  The group stream ([`CompiledScop::for_each_group`]),
//! the warping simulator's explicit walk (one iteration at a time wherever
//! a match attempt can fire, so its attempts see every iteration, and one
//! entry's groups at a time elsewhere, [`CompiledLoop::for_each_group`])
//! and the sampler's outer-iteration enumeration all step compiled nodes
//! through it, with
//! [`CompiledLoop::enter`]/[`advance`](CompiledLoop::advance)/
//! [`leave`](CompiledLoop::leave) carrying the strength-reduced
//! addresses of a [`WalkScratch`] along.
//!
//! The compiled walk produces the *identical* access stream (node,
//! address, kind, order) as the reference walk; the
//! `compiled_walk_equivalence` suite in the engine crate asserts this
//! over random kernels, random multi-access bodies and a hand-built SCoP
//! of union domains, and the reference walk remains available as the
//! differential oracle.
//!
//! [`Aff`]: polyhedra::Aff

use crate::tree::{AccessNode, LoopNode, Node, Scop};
use cache_model::AccessKind;
use polyhedra::{BoundRows, Constraint, Set};
use std::slice;

/// A run of dynamic accesses from one access node: `count` accesses
/// starting at `base`, each `stride` bytes after the previous one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessRun {
    /// Id of the access node that produced the run.
    pub node: usize,
    /// Byte address of the first access.
    pub base: u64,
    /// Byte delta between consecutive accesses (zero or negative are
    /// legal: a zero-stride run re-touches one address).
    pub stride: i64,
    /// Number of accesses in the run (always ≥ 1).
    pub count: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl AccessRun {
    /// The addresses of the run, in order.
    pub fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
        let (base, stride) = (self.base as i64, self.stride);
        (0..self.count as i64).map(move |k| (base + k * stride) as u64)
    }
}

/// `count` rounds of `k` access streams advanced in lockstep: round `r`
/// accesses `bases[s] + r·strides[s]` for every stream `s = 0..k`, in
/// order.  The walk emits one group per guard-uniform stretch of an
/// innermost loop whose body is all accesses (the streams are the accesses
/// whose guards hold there, in program order), and a `k = 1` group of
/// one access everywhere else.  Round `r` runs at innermost iterator value
/// `first + r·stride`, where `stride` is the loop's.
#[derive(Clone, Copy, Debug)]
pub struct RunGroup<'a> {
    /// Id of the access node of each stream.
    pub nodes: &'a [usize],
    /// Byte address of each stream's first access.
    pub bases: &'a [u64],
    /// Byte delta of each stream per round.
    pub strides: &'a [i64],
    /// Read or write, per stream.
    pub kinds: &'a [AccessKind],
    /// Number of rounds (always ≥ 1).
    pub count: u64,
    /// The innermost iterator value of the first round (0 for an access
    /// outside every loop).
    pub first: i64,
}

impl RunGroup<'_> {
    /// The number of dynamic accesses in the group.
    pub fn accesses(&self) -> u64 {
        self.count * self.nodes.len() as u64
    }

    /// Flattens the group into access runs in execution order: a
    /// single-stream group is one run; otherwise every access is a run of
    /// one, round by round.
    pub fn for_each_run(&self, mut visit: impl FnMut(&AccessRun)) {
        if let ([node], [base], [stride], [kind]) =
            (self.nodes, self.bases, self.strides, self.kinds)
        {
            return visit(&AccessRun {
                node: *node,
                base: *base,
                stride: *stride,
                count: self.count,
                kind: *kind,
            });
        }
        for r in 0..self.count as i64 {
            for s in 0..self.nodes.len() {
                visit(&AccessRun {
                    node: self.nodes[s],
                    base: (self.bases[s] as i64 + r * self.strides[s]) as u64,
                    stride: 0,
                    count: 1,
                    kind: self.kinds[s],
                });
            }
        }
    }
}

/// How a loop's bound interval is derived per entry.
#[derive(Clone, Debug)]
enum LoopBounds {
    /// Single-conjunction domain: its constraints not established by an
    /// enclosing exact loop, as bound rows.  One pass over them per entry
    /// yields the exact inclusive interval, and every grid point inside it
    /// is in the domain (no per-iteration `contains`).
    Exact(BoundRows),
    /// Union domain: reference-style lexmin/lexmax enumeration with
    /// per-point membership checks.
    Dynamic(Set),
}

/// How an access's guard is evaluated.
#[derive(Clone, Debug)]
enum GuardPlan {
    /// Every domain constraint is established by an enclosing exact
    /// loop: membership is implied, no check at runtime.
    Trivial,
    /// Single-conjunction guard: the residual constraints (those no
    /// enclosing exact loop establishes) as bound rows on the innermost
    /// dimension, clipped to an interval once per loop entry (run groups)
    /// or checked per point.
    Exact(BoundRows),
    /// Union guard: per-point membership check.
    Dynamic(Set),
}

/// How one loop entry iterates, in walk order: the iterator starts at
/// `first` and steps by the loop's stride up to and including `last`
/// (`first <= last` for increasing loops, `first >= last` for decreasing
/// ones, which walk lexmax-first).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoopEntry {
    /// The first iterator value.
    pub first: i64,
    /// The bound in walk order: no grid value beyond it is visited.
    pub last: i64,
    /// The loop's stride (non-zero).
    pub stride: i64,
    /// Whether every grid value from `first` to `last` is in the loop's
    /// domain.  Otherwise (union domains) each value must pass
    /// [`CompiledLoop::contains`].
    pub dense: bool,
}

impl LoopEntry {
    /// The number of grid values from `first` to `last`.
    pub fn trip_count(&self) -> i64 {
        (self.last - self.first) / self.stride + 1
    }

    /// The grid value after `v`, or `None` when it would pass `last` or
    /// step out of the `i64` range (which ends the loop).
    pub fn next(&self, v: i64) -> Option<i64> {
        let next = v.checked_add(self.stride)?;
        let inside = if self.stride > 0 {
            next <= self.last
        } else {
            next >= self.last
        };
        inside.then_some(next)
    }
}

/// A compiled access node: strength-reduced address plus a guard plan.
#[derive(Clone, Debug)]
pub struct CompiledAccess {
    /// Id of the source [`AccessNode`] (also its base-address slot).
    pub id: usize,
    /// Nesting depth (dimensionality of the guard domain).
    pub depth: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// Address coefficients per iterator dimension.
    coeffs: Vec<i64>,
    /// Address constant term.
    constant: i64,
    guard: GuardPlan,
}

impl CompiledAccess {
    /// Whether the guard was hoisted away entirely (membership implied
    /// by enclosing exact loops).
    pub fn guard_is_trivial(&self) -> bool {
        matches!(self.guard, GuardPlan::Trivial)
    }

    /// Whether the iteration vector `iv` (of length `depth`, an iteration
    /// of the enclosing loops) satisfies the guard.  Only the residual
    /// constraints are evaluated.
    pub fn guard_holds(&self, iv: &[i64]) -> bool {
        match &self.guard {
            GuardPlan::Trivial => true,
            GuardPlan::Exact(rows) => rows.holds(iv),
            GuardPlan::Dynamic(set) => set.contains(iv),
        }
    }
}

/// A compiled loop node.
#[derive(Clone, Debug)]
pub struct CompiledLoop {
    /// Pre-order position among the SCoP's loops, in
    /// `0..`[`CompiledScop::num_loops`]: a dense key for per-loop state.
    pub index: usize,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Iterator increment per iteration (non-zero; negative walks
    /// lexmax-first).
    pub stride: i64,
    bounds: LoopBounds,
    /// Strength-reduction table: for every access slot in the subtree,
    /// the address coefficient on this loop's dimension (zero
    /// coefficients are omitted).
    deltas: Vec<(usize, i64)>,
    /// Ids of every access node in the subtree, ascending.
    accesses: Vec<usize>,
    children: Vec<CompiledNode>,
    /// The run-group fast path, when it applies: exact bounds and a body
    /// of accesses only, none with a union guard.  Boxed so that compiled
    /// nodes, walked by every backend, stay small.
    group: Option<Box<GroupBody>>,
}

/// The streams of a group-walked loop body (the loop's children, all
/// accesses), in program order, with everything about them that does not
/// change between entries.
#[derive(Clone, Debug)]
struct GroupBody {
    nodes: Vec<usize>,
    kinds: Vec<AccessKind>,
    /// Address coefficient on the loop's dimension.
    coeffs: Vec<i64>,
    /// Byte delta per iteration: coefficient × loop stride.
    strides: Vec<i64>,
}

impl GroupBody {
    /// The body of a loop at dimension `dim` with the given `stride`, or
    /// `None` when a child is a loop or has a union guard.
    fn new(children: &[CompiledNode], dim: usize, stride: i64) -> Option<Self> {
        let mut body = GroupBody {
            nodes: Vec::new(),
            kinds: Vec::new(),
            coeffs: Vec::new(),
            strides: Vec::new(),
        };
        for child in children {
            match child {
                CompiledNode::Access(a) if !matches!(a.guard, GuardPlan::Dynamic(_)) => {
                    let coeff = a.coeffs.get(dim).copied().unwrap_or(0);
                    body.nodes.push(a.id);
                    body.kinds.push(a.kind);
                    body.coeffs.push(coeff);
                    body.strides.push(coeff * stride);
                }
                _ => return None,
            }
        }
        (!body.nodes.is_empty()).then_some(body)
    }
}

impl CompiledLoop {
    /// The compiled children, in execution order (mirrors the source
    /// [`LoopNode::children`] one to one).
    pub fn children(&self) -> &[CompiledNode] {
        &self.children
    }

    /// Ids of the access nodes below the loop, ascending.
    pub fn accesses(&self) -> &[usize] {
        &self.accesses
    }

    /// The address coefficient on the loop's dimension shared by every
    /// access below it, or `None` when they differ (or there are none).
    pub fn uniform_coefficient(&self) -> Option<i64> {
        let Some(&(_, c)) = self.deltas.first() else {
            // No access below involves the dimension.
            return (!self.accesses.is_empty()).then_some(0);
        };
        (self.deltas.len() == self.accesses.len() && self.deltas.iter().all(|&(_, d)| d == c))
            .then_some(c)
    }

    /// How the entry with the given outer iteration vector (length
    /// `depth - 1`, an iteration of the enclosing loops) iterates, or
    /// `None` when it is empty.  This is the one place a loop entry's
    /// bounds and direction are derived: a single-conjunction domain
    /// yields its exact interval in one allocation-free pass over its
    /// bound rows; a union falls back to the reference walk's
    /// lexmin/lexmax search with per-value membership checks.
    pub fn entry(&self, outer: &[i64]) -> Option<LoopEntry> {
        let (lo, hi, dense) = match &self.bounds {
            LoopBounds::Exact(rows) => match rows.interval(outer)? {
                (Some(lo), Some(hi)) if lo <= hi => (lo, hi, true),
                _ => return None,
            },
            LoopBounds::Dynamic(set) => {
                let (mut min, mut max) = (Vec::new(), Vec::new());
                if !set.lexmin_with_prefix_into(outer, &mut min)
                    || !set.lexmax_with_prefix_into(outer, &mut max)
                {
                    return None;
                }
                (min[self.depth - 1], max[self.depth - 1], false)
            }
        };
        let (first, last) = if self.stride > 0 { (lo, hi) } else { (hi, lo) };
        Some(LoopEntry {
            first,
            last,
            stride: self.stride,
            dense,
        })
    }

    /// Whether the iteration vector `iv` (of length `depth`, its prefix an
    /// iteration of the enclosing loops) lies in the loop's domain.
    /// Implied for the values of a dense entry.
    pub fn contains(&self, iv: &[i64]) -> bool {
        match &self.bounds {
            LoopBounds::Exact(rows) => rows.holds(iv),
            LoopBounds::Dynamic(set) => set.contains(iv),
        }
    }

    /// Opens the loop's dimension in `scratch` at value `v`: the iteration
    /// vector gains `v` and every access base below the loop moves by its
    /// coefficient times `v`.
    pub fn enter(&self, scratch: &mut WalkScratch, v: i64) {
        scratch.iv.push(v);
        for &(slot, c) in &self.deltas {
            scratch.bases[slot] += c * v;
        }
    }

    /// Moves the loop's iterator by `by` (one stride, or a warp's jump
    /// across whole periods), carrying the access bases along.
    pub fn advance(&self, scratch: &mut WalkScratch, by: i64) {
        *scratch
            .iv
            .last_mut()
            .expect("the loop entered its dimension") += by;
        for &(slot, c) in &self.deltas {
            scratch.bases[slot] += c * by;
        }
    }

    /// Walks the run groups of one entry of a group-walked loop (a body of
    /// accesses only, see [`RunGroup`]), with `scratch` positioned at the
    /// entry's outer iteration vector, as [`CompiledLoop::entry`] derived
    /// it.  Returns the number of dynamic accesses covered, or `None`
    /// (visiting nothing) when the loop has no group body.
    pub fn for_each_group(
        &self,
        entry: &LoopEntry,
        scratch: &mut WalkScratch,
        mut visit: impl FnMut(&RunGroup),
    ) -> Option<u64> {
        let body = self.group.as_deref()?;
        let mut count = 0;
        emit_groups(self, body, entry, scratch, &mut visit, &mut count);
        Some(count)
    }

    /// Closes the loop's dimension, undoing its contribution to the bases.
    pub fn leave(&self, scratch: &mut WalkScratch) {
        let v = scratch.iv.pop().expect("the loop entered its dimension");
        for &(slot, c) in &self.deltas {
            scratch.bases[slot] -= c * v;
        }
    }
}

/// A node of the compiled tree, mirroring the source [`Node`] shape.
#[derive(Clone, Debug)]
pub enum CompiledNode {
    /// A loop.
    Loop(CompiledLoop),
    /// An access.
    Access(CompiledAccess),
}

/// Reusable per-walk state: the iteration vector, the per-slot running
/// base addresses and the buffers run groups are assembled in.
/// Steady-state iteration allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct WalkScratch {
    iv: Vec<i64>,
    bases: Vec<i64>,
    /// Grid-index interval of each stream's guard in the current entry.
    clips: Vec<(i64, i64)>,
    /// Sub-range boundaries of the current entry.
    cuts: Vec<i64>,
    /// The group being emitted.
    nodes: Vec<usize>,
    group_bases: Vec<u64>,
    strides: Vec<i64>,
    kinds: Vec<AccessKind>,
}

impl WalkScratch {
    /// Positions the scratch at the top of `node` under the outer
    /// iteration vector `outer`: the iteration vector becomes `outer` and
    /// every access base in the subtree is seeded with its address
    /// constant plus the contribution of `outer`.
    pub fn start_at(&mut self, node: &CompiledNode, outer: &[i64]) {
        self.iv.clear();
        self.iv.extend_from_slice(outer);
        init_bases(node, outer, &mut self.bases);
    }

    /// The current iteration vector (one value per open loop).
    pub fn iv(&self) -> &[i64] {
        &self.iv
    }

    /// The byte address `a` accesses at the current iteration vector: its
    /// strength-reduced running base.
    pub fn address(&self, a: &CompiledAccess) -> u64 {
        let base = self.bases[a.id];
        debug_assert!(base >= 0, "access to a negative address");
        base as u64
    }
}

/// A [`Scop`] lowered for the compiled walk.  Self-contained (owns
/// clones of the affine data it needs), so it can be cached next to the
/// parse-once kernel templates and shared across threads.
#[derive(Clone, Debug)]
pub struct CompiledScop {
    roots: Vec<CompiledNode>,
    num_slots: usize,
    num_loops: usize,
    max_depth: usize,
}

/// Lowering state threaded through [`compile`].
#[derive(Default)]
struct Lowering {
    /// Constraints established by the enclosing exact loops: they hold at
    /// every iteration the walk reaches, so no bound row or guard below
    /// re-checks them.
    established: Vec<Constraint>,
    max_depth: usize,
    /// Loops lowered so far (the next loop's index).
    loops: usize,
}

/// Lowers a SCoP for the compiled walk.
pub fn compile(scop: &Scop) -> CompiledScop {
    let mut lowering = Lowering::default();
    let roots = scop.roots().iter().map(|n| lowering.node(n)).collect();
    CompiledScop {
        roots,
        num_slots: scop.num_access_nodes(),
        num_loops: lowering.loops,
        max_depth: lowering.max_depth,
    }
}

impl Lowering {
    fn node(&mut self, node: &Node) -> CompiledNode {
        match node {
            Node::Access(a) => CompiledNode::Access(self.access(a)),
            Node::Loop(l) => CompiledNode::Loop(self.lower_loop(l)),
        }
    }

    fn access(&self, a: &AccessNode) -> CompiledAccess {
        let guard = match a.domain.basics() {
            [bs] => {
                let residual = self.residual(bs.constraints());
                if residual.is_empty() {
                    GuardPlan::Trivial
                } else if a.depth == 0 {
                    // No dimension to bound: a constant guard, checked as is.
                    GuardPlan::Dynamic(a.domain.clone())
                } else {
                    GuardPlan::Exact(BoundRows::new(residual, a.depth - 1))
                }
            }
            _ => GuardPlan::Dynamic(a.domain.clone()),
        };
        CompiledAccess {
            id: a.id,
            depth: a.depth,
            kind: a.kind,
            coeffs: a.address.coeffs().to_vec(),
            constant: a.address.constant_term(),
            guard,
        }
    }

    fn lower_loop(&mut self, l: &LoopNode) -> CompiledLoop {
        let index = self.loops;
        self.loops += 1;
        self.max_depth = self.max_depth.max(l.depth);
        let (bounds, pushed) = match l.domain.basics() {
            [bs] => {
                let rows = BoundRows::new(self.residual(bs.constraints()), l.depth - 1);
                let n = bs.constraints().len();
                self.established.extend(bs.constraints().iter().cloned());
                (LoopBounds::Exact(rows), n)
            }
            _ => (LoopBounds::Dynamic(l.domain.clone()), 0),
        };
        let children: Vec<CompiledNode> = l.children.iter().map(|c| self.node(c)).collect();
        self.established.truncate(self.established.len() - pushed);
        let mut deltas = Vec::new();
        for child in &children {
            collect_coefficients(child, l.depth - 1, &mut deltas);
        }
        let mut accesses: Vec<usize> = deltas.iter().map(|&(id, _)| id).collect();
        accesses.sort_unstable();
        deltas.retain(|&(_, c)| c != 0);
        let group = match bounds {
            LoopBounds::Exact(_) => GroupBody::new(&children, l.depth - 1, l.stride).map(Box::new),
            LoopBounds::Dynamic(_) => None,
        };
        CompiledLoop {
            index,
            depth: l.depth,
            stride: l.stride,
            bounds,
            deltas,
            accesses,
            children,
            group,
        }
    }

    /// The constraints no enclosing exact loop establishes, found with a
    /// syntactic test.
    fn residual<'c>(&self, constraints: &'c [Constraint]) -> Vec<&'c Constraint> {
        constraints
            .iter()
            .filter(|c| !self.established.iter().any(|e| same_constraint(e, c)))
            .collect()
    }
}

/// Collects `(slot, coeff-on-dim)` pairs for every access in the subtree.
fn collect_coefficients(node: &CompiledNode, dim: usize, out: &mut Vec<(usize, i64)>) {
    match node {
        CompiledNode::Access(a) => out.push((a.id, a.coeffs.get(dim).copied().unwrap_or(0))),
        CompiledNode::Loop(l) => {
            for child in &l.children {
                collect_coefficients(child, dim, out);
            }
        }
    }
}

/// Whether two constraints are syntactically identical, comparing
/// coefficient vectors up to trailing zeros (enclosing loop domains
/// range over fewer dimensions than the access domains they imply).
fn same_constraint(a: &Constraint, b: &Constraint) -> bool {
    if a.kind() != b.kind() || a.aff().constant_term() != b.aff().constant_term() {
        return false;
    }
    let (x, y) = (a.aff().coeffs(), b.aff().coeffs());
    let n = x.len().max(y.len());
    (0..n).all(|i| x.get(i).copied().unwrap_or(0) == y.get(i).copied().unwrap_or(0))
}

impl CompiledScop {
    /// The compiled top-level nodes, in execution order (mirrors
    /// [`Scop::roots`] one to one).
    pub fn roots(&self) -> &[CompiledNode] {
        &self.roots
    }

    /// The number of loops: each [`CompiledLoop::index`] is below it.
    pub fn num_loops(&self) -> usize {
        self.num_loops
    }

    /// A scratch buffer sized for this SCoP.  Reuse it across walks to
    /// keep steady-state iteration allocation-free.
    pub fn new_scratch(&self) -> WalkScratch {
        WalkScratch {
            iv: Vec::with_capacity(self.max_depth),
            bases: vec![0; self.num_slots],
            ..WalkScratch::default()
        }
    }

    /// Walks every run group of the SCoP in execution order.  Returns the
    /// number of dynamic accesses covered.
    pub fn for_each_group(
        &self,
        scratch: &mut WalkScratch,
        mut visit: impl FnMut(&RunGroup),
    ) -> u64 {
        let mut count = 0;
        for root in &self.roots {
            scratch.start_at(root, &[]);
            walk(root, scratch, &mut visit, &mut count);
        }
        count
    }

    /// Walks every access run of the SCoP in execution order: the run
    /// groups, flattened ([`RunGroup::for_each_run`]).  Returns the number
    /// of dynamic accesses covered.
    pub fn for_each_run(
        &self,
        scratch: &mut WalkScratch,
        mut visit: impl FnMut(&AccessRun),
    ) -> u64 {
        self.for_each_group(scratch, |group| group.for_each_run(&mut visit))
    }

    /// Walks every dynamic access (runs expanded) in execution order.
    /// The stream is identical to the reference walk's: same node ids,
    /// addresses, kinds, same order.
    pub fn for_each_access(
        &self,
        scratch: &mut WalkScratch,
        mut visit: impl FnMut(usize, u64, AccessKind),
    ) -> u64 {
        self.for_each_run(scratch, |run| {
            let mut addr = run.base as i64;
            for _ in 0..run.count {
                visit(run.node, addr as u64, run.kind);
                addr += run.stride;
            }
        })
    }

    /// The exact dynamic access count in closed form, for SCoPs whose
    /// loop bounds and guards are all rectangular (every constraint
    /// involves a single dimension).  `None` means the shape is not
    /// rectangular and the count must be derived by walking; the count
    /// saturates at `u64::MAX` instead of overflowing.
    pub fn static_access_count(&self) -> Option<u64> {
        let mut grids = Vec::new();
        let mut total: u64 = 0;
        for root in &self.roots {
            total = total.saturating_add(static_count_node(root, &mut grids)?);
        }
        Some(total)
    }
}

/// Walks the run groups of one compiled subtree at a fixed outer
/// iteration vector — the per-subtree slice of
/// [`CompiledScop::for_each_group`], used by interval samplers to replay
/// one outer iteration at a time.  Returns the number of dynamic
/// accesses covered.
pub fn for_each_group_at(
    node: &CompiledNode,
    outer: &[i64],
    scratch: &mut WalkScratch,
    mut visit: impl FnMut(&RunGroup),
) -> u64 {
    scratch.start_at(node, outer);
    let mut count = 0;
    walk(node, scratch, &mut visit, &mut count);
    count
}

/// Seeds the base-address slots of every access in the subtree with the
/// address constant plus the contribution of the fixed outer prefix.
fn init_bases(node: &CompiledNode, outer: &[i64], bases: &mut Vec<i64>) {
    match node {
        CompiledNode::Access(a) => {
            let mut v = a.constant;
            for (c, x) in a.coeffs.iter().zip(outer) {
                v += c * x;
            }
            if a.id >= bases.len() {
                bases.resize(a.id + 1, 0);
            }
            bases[a.id] = v;
        }
        CompiledNode::Loop(l) => {
            for child in &l.children {
                init_bases(child, outer, bases);
            }
        }
    }
}

fn walk(
    node: &CompiledNode,
    scratch: &mut WalkScratch,
    visit: &mut impl FnMut(&RunGroup),
    count: &mut u64,
) {
    match node {
        CompiledNode::Access(a) => {
            if a.guard_holds(&scratch.iv) {
                visit(&RunGroup {
                    nodes: slice::from_ref(&a.id),
                    bases: &[scratch.address(a)],
                    strides: &[0],
                    kinds: slice::from_ref(&a.kind),
                    count: 1,
                    first: scratch.iv.last().copied().unwrap_or(0),
                });
                *count += 1;
            }
        }
        CompiledNode::Loop(l) => walk_loop(l, scratch, visit, count),
    }
}

fn walk_loop(
    l: &CompiledLoop,
    scratch: &mut WalkScratch,
    visit: &mut impl FnMut(&RunGroup),
    count: &mut u64,
) {
    let Some(entry) = l.entry(&scratch.iv) else {
        return;
    };
    if let Some(body) = &l.group {
        return emit_groups(l, body, &entry, scratch, visit, count);
    }
    let mut v = entry.first;
    l.enter(scratch, v);
    loop {
        if entry.dense || l.contains(&scratch.iv) {
            for child in &l.children {
                walk(child, scratch, visit, count);
            }
        }
        let Some(next) = entry.next(v) else {
            break;
        };
        l.advance(scratch, l.stride);
        v = next;
    }
    l.leave(scratch);
}

/// The run-group fast path for one (dense) loop entry: every residual
/// guard of the body is clipped to an interval of grid indices, the entry
/// is cut where an interval starts or ends, and each piece becomes one
/// group of the streams whose guards hold on it.
fn emit_groups(
    l: &CompiledLoop,
    body: &GroupBody,
    entry: &LoopEntry,
    scratch: &mut WalkScratch,
    visit: &mut impl FnMut(&RunGroup),
    count: &mut u64,
) {
    let n = entry.trip_count();
    scratch.clips.clear();
    for child in &l.children {
        let clip = match child {
            CompiledNode::Access(CompiledAccess {
                guard: GuardPlan::Exact(rows),
                ..
            }) => clip_to_grid(rows, &scratch.iv, entry, n),
            _ => (0, n - 1),
        };
        scratch.clips.push(clip);
    }
    scratch.cuts.clear();
    scratch.cuts.extend([0, n]);
    for &(lo, hi) in &scratch.clips {
        if lo <= hi {
            scratch.cuts.extend([lo, hi + 1]);
        }
    }
    scratch.cuts.sort_unstable();
    scratch.cuts.dedup();
    for piece in 0..scratch.cuts.len() - 1 {
        let (start, end) = (scratch.cuts[piece], scratch.cuts[piece + 1]);
        let active = |s: usize| (scratch.clips[s].0..=scratch.clips[s].1).contains(&start);
        let first = entry.first + start * entry.stride;
        let all = (0..body.nodes.len()).all(active);
        scratch.nodes.clear();
        scratch.group_bases.clear();
        scratch.strides.clear();
        scratch.kinds.clear();
        for s in (0..body.nodes.len()).filter(|&s| all || active(s)) {
            let base = scratch.bases[body.nodes[s]] + body.coeffs[s] * first;
            debug_assert!(base >= 0, "access to a negative address");
            scratch.group_bases.push(base as u64);
            if !all {
                scratch.nodes.push(body.nodes[s]);
                scratch.strides.push(body.strides[s]);
                scratch.kinds.push(body.kinds[s]);
            }
        }
        if scratch.group_bases.is_empty() {
            continue;
        }
        let group = if all {
            RunGroup {
                nodes: &body.nodes,
                bases: &scratch.group_bases,
                strides: &body.strides,
                kinds: &body.kinds,
                count: (end - start) as u64,
                first,
            }
        } else {
            RunGroup {
                nodes: &scratch.nodes,
                bases: &scratch.group_bases,
                strides: &scratch.strides,
                kinds: &scratch.kinds,
                count: (end - start) as u64,
                first,
            }
        };
        *count += group.accesses();
        visit(&group);
    }
}

/// The grid indices `k` in `0..n` whose value `first + k·stride` satisfies
/// `rows` under the outer iteration vector `prefix`, as an inclusive
/// interval (empty when its first index exceeds its last).
fn clip_to_grid(rows: &BoundRows, prefix: &[i64], entry: &LoopEntry, n: i64) -> (i64, i64) {
    const EMPTY: (i64, i64) = (0, -1);
    let (lo, hi) = (entry.first.min(entry.last), entry.first.max(entry.last));
    let Some((glo, ghi)) = rows.interval(prefix) else {
        return EMPTY;
    };
    let (glo, ghi) = (glo.unwrap_or(lo).max(lo), ghi.unwrap_or(hi).min(hi));
    if glo > ghi {
        // Also keeps the index arithmetic inside the entry's range.
        return EMPTY;
    }
    grid_span(glo, ghi, entry.first, entry.stride, n)
}

/// The grid indices `k` in `0..n` with `lo <= v0 + k·s <= hi`, as an
/// inclusive interval (empty when its first index exceeds its last).
fn grid_span(lo: i64, hi: i64, v0: i64, s: i64, n: i64) -> (i64, i64) {
    let (k_min, k_max) = if s > 0 {
        (div_ceil(lo - v0, s), div_floor(hi - v0, s))
    } else {
        (div_ceil(v0 - hi, -s), div_floor(v0 - lo, -s))
    };
    (k_min.max(0), k_max.min(n - 1))
}

/// One enclosing loop's stride grid for the closed-form count.
#[derive(Clone, Copy)]
struct Grid {
    /// First grid value (`lo` for positive strides, `hi` for negative).
    v0: i64,
    stride: i64,
    /// Inclusive bound interval.
    lo: i64,
    hi: i64,
    /// Grid points in the interval.
    n: i64,
}

fn static_count_node(node: &CompiledNode, grids: &mut Vec<Grid>) -> Option<u64> {
    match node {
        CompiledNode::Access(a) => static_count_access(a, grids),
        CompiledNode::Loop(l) => {
            let LoopBounds::Exact(rows) = &l.bounds else {
                return None;
            };
            let interval = match rect_interval(rows)? {
                Some(iv) => iv,
                // Exactly empty: the subtree contributes nothing.
                None => return Some(0),
            };
            let (lo, hi) = interval;
            let s = l.stride;
            let grid = Grid {
                v0: if s > 0 { lo } else { hi },
                stride: s,
                lo,
                hi,
                n: (hi - lo) / s.abs() + 1,
            };
            grids.push(grid);
            let mut sum: Option<u64> = Some(0);
            for child in &l.children {
                match static_count_node(child, grids) {
                    Some(c) => sum = sum.map(|s| s.saturating_add(c)),
                    None => {
                        sum = None;
                        break;
                    }
                }
            }
            grids.pop();
            sum
        }
    }
}

fn static_count_access(a: &CompiledAccess, grids: &[Grid]) -> Option<u64> {
    debug_assert_eq!(a.depth, grids.len(), "grids mirror the enclosing loops");
    match &a.guard {
        GuardPlan::Trivial => Some(
            grids
                .iter()
                .fold(1u64, |acc, g| acc.saturating_mul(g.n as u64)),
        ),
        GuardPlan::Exact(rows) => {
            let mut product: u64 = 1;
            for (k, g) in grids.iter().enumerate() {
                let clipped = match rect_interval_for_dim(rows, k)? {
                    Some(iv) => iv,
                    None => return Some(0),
                };
                let (glo, ghi) = (clipped.0.max(g.lo), clipped.1.min(g.hi));
                if glo > ghi {
                    return Some(0);
                }
                let (k_min, k_max) = grid_span(glo, ghi, g.v0, g.stride, g.n);
                if k_min > k_max {
                    return Some(0);
                }
                product = product.saturating_mul((k_max - k_min + 1) as u64);
            }
            Some(product)
        }
        GuardPlan::Dynamic(set) if a.depth == 0 => Some(u64::from(set.contains(&[]))),
        GuardPlan::Dynamic(_) => None,
    }
}

/// The interval `[lo, hi]` a loop's bound rows (the constraints no
/// enclosing loop establishes) impose on its dimension, when every row is
/// rectangular (involves only that one dimension).  Outer `None` = not
/// rectangular or unbounded (fall back to walking); inner `None` =
/// exactly empty.
fn rect_interval(rows: &BoundRows) -> Option<Option<(i64, i64)>> {
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    for (a, p, b) in rows.rows() {
        if p.iter().any(|&c| c != 0) {
            return None;
        }
        // a*x + b >= 0
        if a > 0 {
            lo = lo.max(div_ceil(-b, a));
        } else if a < 0 {
            hi = hi.min(div_floor(b, -a));
        } else if b < 0 {
            return Some(None);
        }
    }
    // Unbounded rectangular domains have no closed-form count.
    if lo == i64::MIN || hi == i64::MAX {
        return None;
    }
    if lo > hi {
        return Some(None);
    }
    Some(Some((lo, hi)))
}

/// Like [`rect_interval`] but for dimension `dim` of an access guard's
/// rows: rows involving *other* dimensions only make the guard
/// non-rectangular, and a dimension without bound rows is unclipped.
fn rect_interval_for_dim(rows: &BoundRows, dim: usize) -> Option<Option<(i64, i64)>> {
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    for (a, p, b) in rows.rows() {
        let coeff = |d: usize| if d == rows.dim() { a } else { p[d] };
        match (0..=rows.dim()).filter(|&d| coeff(d) != 0).count() {
            // Constant row: either trivially true or the whole domain is
            // empty.
            0 if b < 0 => return Some(None),
            0 => {}
            // A single-dimension row on another dimension is handled when
            // that dimension is queried.
            1 if coeff(dim) == 0 => {}
            1 => {
                // a*x + b >= 0
                let a = coeff(dim);
                if a > 0 {
                    lo = lo.max(div_ceil(-b, a));
                } else {
                    hi = hi.min(div_floor(b, -a));
                }
            }
            _ => return None,
        }
    }
    if lo > hi {
        return Some(None);
    }
    Some(Some((lo, hi)))
}

fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::for_each_access;
    use crate::{elaborate, parse_program, ElaborateOptions};

    fn scop_of(src: &str) -> Scop {
        elaborate(&parse_program(src).unwrap(), &ElaborateOptions::default()).unwrap()
    }

    fn reference_stream(scop: &Scop) -> Vec<(usize, u64, AccessKind)> {
        let mut out = Vec::new();
        for_each_access(scop, |acc| out.push((acc.node.id, acc.address, acc.kind)));
        out
    }

    fn compiled_stream(scop: &Scop) -> Vec<(usize, u64, AccessKind)> {
        let compiled = compile(scop);
        let mut scratch = compiled.new_scratch();
        let mut out = Vec::new();
        let n = compiled.for_each_access(&mut scratch, |node, addr, kind| {
            out.push((node, addr, kind));
        });
        assert_eq!(n as usize, out.len());
        out
    }

    #[track_caller]
    fn assert_equivalent(src: &str) {
        let scop = scop_of(src);
        assert_eq!(compiled_stream(&scop), reference_stream(&scop), "{src}");
    }

    #[test]
    fn streaming_kernel_is_one_run_per_entry() {
        let scop = scop_of("double A[1024]; for (i = 0; i < 1024; i++) A[i] = 0;");
        let compiled = compile(&scop);
        let mut scratch = compiled.new_scratch();
        let mut runs = Vec::new();
        let total = compiled.for_each_run(&mut scratch, |run| runs.push(*run));
        assert_eq!(total, 1024);
        assert_eq!(runs.len(), 1, "a single-access body emits one run");
        assert_eq!(runs[0].count, 1024);
        assert_eq!(runs[0].stride, 8);
        assert_eq!(runs[0].base, scop.arrays()[0].base_address);
    }

    #[test]
    fn stencil_matches_reference() {
        assert_equivalent(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        );
    }

    #[test]
    fn triangular_guarded_and_strided_match_reference() {
        assert_equivalent(
            "double A[100][100]; double x[100]; double c[100];\n\
             for (i = 0; i < 100; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 100; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        );
        assert_equivalent("double A[100]; for (i = 0; i < 100; i++) if (i >= 90) A[i] = 0;");
        assert_equivalent("double A[200]; for (i = 0; i < 100; i += 2) A[i] = A[i+1];");
        assert_equivalent("double A[20]; for (i = 0; i < 11; i += 3) A[i] = 0;");
    }

    #[test]
    fn decreasing_and_nested_loops_match_reference() {
        assert_equivalent("double A[10]; for (i = 9; i >= 0; i--) A[i] = 0;");
        assert_equivalent("double A[10]; for (i = 9; i >= 0; i -= 3) A[i] = 0;");
        assert_equivalent("double A[10]; for (i = 9; i > 1; i -= 3) A[i] = 0;");
        assert_equivalent("double A[10]; for (i = 9; i >= 0; i -= 3) if (i < 7) A[i] = 0;");
        assert_equivalent(
            "double A[8][8];\n\
             for (i = 0; i < 4; i++) for (j = 3; j >= 0; j--) A[i][j] = 0;",
        );
    }

    #[test]
    fn empty_domains_emit_nothing() {
        assert_equivalent("double A[10]; for (i = 5; i < 5; i++) A[i] = 0;");
        let scop = scop_of("double A[10]; for (i = 5; i < 5; i++) A[i] = 0;");
        assert_eq!(compile(&scop).static_access_count(), Some(0));
    }

    #[test]
    fn rectangular_guards_are_hoisted() {
        let scop = scop_of("double A[100]; for (i = 0; i < 100; i++) A[i] = 0;");
        let compiled = compile(&scop);
        let CompiledNode::Loop(l) = &compiled.roots()[0] else {
            panic!("root is a loop");
        };
        assert_eq!(
            l.entry(&[]),
            Some(LoopEntry {
                first: 0,
                last: 99,
                stride: 1,
                dense: true
            })
        );
        let CompiledNode::Access(a) = &l.children()[0] else {
            panic!("child is an access");
        };
        assert!(
            a.guard_is_trivial(),
            "guard-free rectangular accesses hoist entirely"
        );
    }

    #[test]
    fn static_count_matches_walking() {
        for src in [
            "double A[100]; for (i = 0; i < 100; i++) A[i] = 0;",
            "double A[100]; for (i = 0; i < 100; i++) if (i >= 90) A[i] = 0;",
            "double A[20]; for (i = 0; i < 11; i += 3) A[i] = 0;",
            "double A[10]; for (i = 9; i >= 0; i -= 3) if (i < 7) A[i] = 0;",
            "double A[16][16]; for (i = 0; i < 16; i++) for (j = 0; j < 16; j++) A[i][j] = 0;",
        ] {
            let scop = scop_of(src);
            let walked = crate::walk::count_accesses(&scop);
            assert_eq!(compile(&scop).static_access_count(), Some(walked), "{src}");
        }
        // Triangular domains have no closed form: the walking probe decides.
        let tri = scop_of(
            "double A[10][10];\n\
             for (i = 0; i < 10; i++) for (j = i; j < 10; j++) A[i][j] = 0;",
        );
        assert_eq!(compile(&tri).static_access_count(), None);
    }

    #[test]
    fn group_first_values_match_the_reference_iterators() {
        // Round `r` of a group runs at `first + r·stride`: expanded round
        // by round, the groups must repeat the reference walk's accesses
        // and innermost iterator values, across guard cuts, strides and
        // directions.
        for (src, stride) in [
            (
                "double A[100]; double B[100];\n\
                 for (i = 0; i < 100; i++) { if (i >= 30) A[i] = 0; if (i < 70) B[i] = A[i]; }",
                1,
            ),
            (
                "double A[100]; for (i = 2; i < 100; i += 3) A[i] = A[i-1];",
                3,
            ),
            (
                "double A[8][40];\n\
                 for (i = 0; i < 8; i++) for (j = 39; j >= i; j--) if (j < 30) A[i][j] = 0;",
                -1,
            ),
        ] {
            let scop = scop_of(src);
            let mut reference = Vec::new();
            crate::walk::for_each_access_at(&scop, |acc, iv| {
                reference.push((acc.node.id, acc.address, *iv.last().unwrap()));
            });
            let compiled = compile(&scop);
            let mut scratch = compiled.new_scratch();
            let mut grouped = Vec::new();
            compiled.for_each_group(&mut scratch, |group| {
                for r in 0..group.count as i64 {
                    for s in 0..group.nodes.len() {
                        let address = (group.bases[s] as i64 + r * group.strides[s]) as u64;
                        grouped.push((group.nodes[s], address, group.first + r * stride));
                    }
                }
            });
            assert_eq!(grouped, reference, "{src}");
        }
    }

    #[test]
    fn per_subtree_runs_match_full_walk() {
        let scop = scop_of(
            "double A[200]; double B[200];\n\
             for (i = 1; i < 99; i++) B[i] = A[i-1] + A[i+1];",
        );
        let compiled = compile(&scop);
        let mut scratch = compiled.new_scratch();
        let mut full = Vec::new();
        compiled.for_each_access(&mut scratch, |node, addr, kind| {
            full.push((node, addr, kind));
        });
        let CompiledNode::Loop(l) = &compiled.roots()[0] else {
            panic!("root is a loop");
        };
        let mut replayed = Vec::new();
        let mut count = 0;
        for i in 1..99i64 {
            for child in l.children() {
                count += for_each_group_at(child, &[i], &mut scratch, |group| {
                    group.for_each_run(|run| {
                        for addr in run.addresses() {
                            replayed.push((run.node, addr, run.kind));
                        }
                    })
                });
            }
        }
        assert_eq!(count as usize, full.len());
        assert_eq!(replayed, full);
    }
}
