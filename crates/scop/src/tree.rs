//! The tree-structured SCoP representation of §3.2 of the paper.

use cache_model::AccessKind;
use polyhedra::{Aff, Set};
use std::fmt;

/// Information about one array of the SCoP, including its assigned base
/// address in the simulated address space.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrayInfo {
    /// Array name.
    pub name: String,
    /// Extent of each dimension (empty for scalars).
    pub extents: Vec<u64>,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Base byte address assigned during elaboration.
    pub base_address: u64,
}

impl ArrayInfo {
    /// Total size of the array in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.extents.iter().product::<u64>().max(1) * self.elem_size
    }
}

/// A leaf of the SCoP tree: one array reference of the program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AccessNode {
    /// Unique identifier of this access node within its SCoP.
    pub id: usize,
    /// Index into [`Scop::arrays`] of the accessed array.
    pub array: usize,
    /// Nesting depth: the number of loop iterators in scope (and the
    /// dimensionality of [`AccessNode::domain`]).
    pub depth: usize,
    /// The loop iterations in which the access is performed.
    pub domain: Set,
    /// The accessed byte address as an affine expression of the iterators.
    pub address: Aff,
    /// Whether the access reads or writes.
    pub kind: AccessKind,
}

impl AccessNode {
    /// The byte address accessed at iteration `point`.
    pub fn address_at(&self, point: &[i64]) -> u64 {
        let a = self.address.eval(point);
        debug_assert!(a >= 0, "access to a negative address");
        a as u64
    }
}

/// An inner node of the SCoP tree: a loop of the program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopNode {
    /// Nesting depth of this loop: 1 for an outermost loop.  Equals the
    /// dimensionality of [`LoopNode::domain`].
    pub depth: usize,
    /// The iteration domain, including the constraints of enclosing loops.
    pub domain: Set,
    /// Increment of the loop iterator per iteration (a non-zero constant;
    /// 1 for the common `i++` loops).  Negative for decreasing loops, which
    /// start at the domain's lexicographic maximum and walk downwards.
    pub stride: i64,
    /// Children, in execution order.
    pub children: Vec<Node>,
}

impl LoopNode {
    /// Writes the lexicographically smallest point of the domain whose
    /// outer dimensions equal `outer` — `L.initial(j)` of the paper — into
    /// `buf`, returning whether the entry is non-empty.  The reference
    /// walk calls it once per loop entry: it neither clones the domain nor
    /// allocates the result when `buf` has capacity.
    pub fn initial_into(&self, outer: &[i64], buf: &mut Vec<i64>) -> bool {
        self.domain.lexmin_with_prefix_into(outer, buf)
    }

    /// The `L.final(j)` counterpart of [`Self::initial_into`]: the
    /// lexicographically largest such point.
    pub fn last_into(&self, outer: &[i64], buf: &mut Vec<i64>) -> bool {
        self.domain.lexmax_with_prefix_into(outer, buf)
    }
}

/// A node of the SCoP tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A loop.
    Loop(LoopNode),
    /// An array access.
    Access(AccessNode),
}

impl Node {
    /// The nesting depth of the node.
    pub fn depth(&self) -> usize {
        match self {
            Node::Loop(l) => l.depth,
            Node::Access(a) => a.depth,
        }
    }
}

/// A static control part: arrays plus a forest of loop/access nodes executed
/// in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scop {
    arrays: Vec<ArrayInfo>,
    roots: Vec<Node>,
    num_access_nodes: usize,
}

impl Scop {
    /// Assembles a SCoP from its parts.  Intended to be called by the
    /// elaborator; access node ids must be dense and unique.
    pub fn new(arrays: Vec<ArrayInfo>, roots: Vec<Node>, num_access_nodes: usize) -> Self {
        Scop {
            arrays,
            roots,
            num_access_nodes,
        }
    }

    /// The arrays of the SCoP.
    pub fn arrays(&self) -> &[ArrayInfo] {
        &self.arrays
    }

    /// The top-level nodes, in execution order.
    pub fn roots(&self) -> &[Node] {
        &self.roots
    }

    /// The number of access nodes (leaves) in the tree.
    pub fn num_access_nodes(&self) -> usize {
        self.num_access_nodes
    }

    /// Iterates over all access nodes of the tree in execution order.
    pub fn access_nodes(&self) -> impl Iterator<Item = &AccessNode> {
        let mut stack: Vec<&Node> = self.roots.iter().rev().collect();
        std::iter::from_fn(move || {
            while let Some(node) = stack.pop() {
                match node {
                    Node::Access(a) => return Some(a),
                    Node::Loop(l) => stack.extend(l.children.iter().rev()),
                }
            }
            None
        })
    }

    /// The total footprint of all arrays in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays.iter().map(ArrayInfo::size_bytes).sum()
    }

    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<(usize, &ArrayInfo)> {
        self.arrays.iter().enumerate().find(|(_, a)| a.name == name)
    }
}

impl fmt::Display for Scop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SCoP with {} arrays:", self.arrays.len())?;
        for a in &self.arrays {
            writeln!(
                f,
                "  {}[{}] ({} bytes/elem) @ {:#x}",
                a.name,
                a.extents
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("]["),
                a.elem_size,
                a.base_address
            )?;
        }
        fn rec(f: &mut fmt::Formatter<'_>, node: &Node, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match node {
                Node::Loop(l) => {
                    writeln!(f, "{pad}loop depth {} stride {}", l.depth, l.stride)?;
                    for c in &l.children {
                        rec(f, c, indent + 1)?;
                    }
                    Ok(())
                }
                Node::Access(a) => writeln!(
                    f,
                    "{pad}access #{} array {} {:?} addr {:?}",
                    a.id, a.array, a.kind, a.address
                ),
            }
        }
        for r in &self.roots {
            rec(f, r, 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyhedra::BasicSet;

    fn one_loop_scop() -> Scop {
        // for (i = 0; i < 10; i++) A[i] = ...  (single write access)
        let domain = Set::from_basic(BasicSet::rect(&[(0, 9)]));
        let access = AccessNode {
            id: 0,
            array: 0,
            depth: 1,
            domain: domain.clone(),
            address: Aff::var(1, 0).scale(8),
            kind: AccessKind::Write,
        };
        let root = Node::Loop(LoopNode {
            depth: 1,
            domain,
            stride: 1,
            children: vec![Node::Access(access)],
        });
        Scop::new(
            vec![ArrayInfo {
                name: "A".into(),
                extents: vec![10],
                elem_size: 8,
                base_address: 0,
            }],
            vec![root],
            1,
        )
    }

    #[test]
    fn initial_and_last() {
        let scop = one_loop_scop();
        let Node::Loop(l) = &scop.roots()[0] else {
            panic!()
        };
        let mut buf = Vec::new();
        assert!(l.initial_into(&[], &mut buf));
        assert_eq!(buf, [0]);
        assert!(l.last_into(&[], &mut buf));
        assert_eq!(buf, [9]);
    }

    #[test]
    fn access_iteration_and_footprint() {
        let scop = one_loop_scop();
        assert_eq!(scop.access_nodes().count(), 1);
        assert_eq!(scop.footprint_bytes(), 80);
        let a = scop.access_nodes().next().unwrap();
        assert_eq!(a.address_at(&[3]), 24);
        assert!(scop.array_by_name("A").is_some());
        assert!(scop.array_by_name("B").is_none());
    }
}
