//! Shape invariants of subtrees, and the filter the index keeps of them.
//!
//! The **shape** of a tree (or of a connected edge subset of a graph) is a
//! wrapping sum over its vertices of
//! [`vertex_term`]`(label, degree, Σ `[`edge_term`]`(edge label, neighbour
//! label))`, the inner sum running over the vertex's edges inside the tree.
//! Every part of it is read off the tree without naming a vertex, so
//! isomorphic trees have equal shapes; unequal trees may share one. Adding
//! a leaf edge changes two vertex terms (the new vertex's, and the one it
//! hangs from), so [`crate::walk`] keeps the shape of the subset it grows in
//! O(1) per step and runs the canonical encoder only when the shape may be a
//! feature's.
//!
//! [`ShapeFilter`] is a Bloom filter over `(tag, shape)` keys: one tag for
//! the shapes of stored features, one for those of their proper subtrees
//! (the downward closure the walk may grow through). It never answers "no"
//! for a key it holds. A false "yes" costs the walk one encode or one step,
//! and no answer, because a hit is confirmed by the exact directory lookup
//! on the canonical string.

use crate::sig::splitmix64;
use graph_core::{ELabel, EdgeId, Graph, VLabel, VertexId};

/// The contribution of one edge to the neighbour sum of one of its ends:
/// the edge's label and the label at its other end.
#[inline]
pub(crate) fn edge_term(edge: ELabel, neighbour: VLabel) -> u64 {
    splitmix64(u64::from(edge.0) << 32 | u64::from(neighbour.0))
}

/// The contribution of one vertex to a shape: its label, its degree in the
/// tree and the wrapping sum of [`edge_term`] over its edges in the tree.
#[inline]
pub(crate) fn vertex_term(label: VLabel, degree: u32, neighbours: u64) -> u64 {
    splitmix64(neighbours ^ (u64::from(label.0) << 32 | u64::from(degree)).wrapping_mul(ODD))
}

/// Spreads a vertex's (label, degree) over all 64 bits before it meets the
/// neighbour sum.
const ODD: u64 = 0xD6E8_FEB8_6659_FD93;

/// The shape of the edges of `g` for which `in_set` holds, by its
/// definition, over `vertices` (distinct; those with no edge in the set add
/// nothing). Linear in the vertices' degrees.
pub(crate) fn shape_of(
    g: &Graph,
    vertices: impl IntoIterator<Item = VertexId>,
    in_set: impl Fn(EdgeId) -> bool,
) -> u64 {
    let mut shape = 0u64;
    for v in vertices {
        let (mut degree, mut neighbours) = (0u32, 0u64);
        for &(w, e) in g.neighbors(v) {
            if in_set(e) {
                degree += 1;
                neighbours = neighbours.wrapping_add(edge_term(g.edge(e).label, g.vlabel(w)));
            }
        }
        if degree > 0 {
            shape = shape.wrapping_add(vertex_term(g.vlabel(v), degree, neighbours));
        }
    }
    shape
}

/// The shape of a whole tree given as its graph.
pub(crate) fn tree_shape(t: &Graph) -> u64 {
    shape_of(t, t.vertices(), |_| true)
}

/// What a key of a [`ShapeFilter`] says about a shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tag {
    /// The shape of a stored feature.
    Feature,
    /// The shape of a proper subtree of a stored feature: a subset with it
    /// may grow into an occurrence.
    Grow,
}

impl Tag {
    /// What the tag mixes into a shape before it is hashed.
    fn seed(self) -> u64 {
        match self {
            Tag::Feature => 0x243F_6A88_85A3_08D3,
            Tag::Grow => 0x1319_8A2E_0370_7344,
        }
    }
}

/// Bits kept per key: three probes at 12 bits a key answer a false "yes"
/// about once in a hundred.
const BITS_PER_KEY: usize = 12;
const PROBES: u32 = 3;

/// A Bloom filter over `(tag, shape)` keys (module docs).
#[derive(Clone, Debug)]
pub(crate) struct ShapeFilter {
    words: Vec<u64>,
}

impl ShapeFilter {
    /// An empty filter sized for `keys` keys (one word at least).
    pub(crate) fn with_keys(keys: usize) -> Self {
        Self {
            words: vec![0; (keys * BITS_PER_KEY).div_ceil(64).max(1)],
        }
    }

    /// The filter that holds every key: everything may be a feature and
    /// everything may grow.
    pub(crate) fn everything() -> Self {
        Self { words: vec![!0] }
    }

    /// Add `(tag, shape)`.
    pub(crate) fn insert(&mut self, tag: Tag, shape: u64) {
        for bit in self.bits(tag, shape) {
            self.words[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Whether `(tag, shape)` may have been added: never `false` for one
    /// that was.
    #[inline]
    pub(crate) fn contains(&self, tag: Tag, shape: u64) -> bool {
        self.bits(tag, shape)
            .all(|bit| self.words[bit / 64] & 1 << (bit % 64) != 0)
    }

    /// Heap bytes: one word per 64 bits.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// The key's probe positions: double hashing over the two halves of one
    /// mixed word, each reduced onto the bit range by a multiply-shift.
    #[inline]
    fn bits(&self, tag: Tag, shape: u64) -> impl Iterator<Item = usize> {
        let h = splitmix64(shape ^ tag.seed());
        let (a, b) = (h as u32, (h >> 32) as u32 | 1);
        let n = (self.words.len() * 64) as u64;
        (0..PROBES)
            .map(move |k| ((u64::from(a.wrapping_add(k.wrapping_mul(b))) * n) >> 32) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    #[test]
    fn isomorphic_trees_share_a_shape_and_relabelled_ones_do_not() {
        // The same labelled path, numbered from either end.
        let a = graph_from(&[0, 1, 2], &[(0, 1, 5), (1, 2, 6)]);
        let b = graph_from(&[2, 1, 0], &[(1, 0, 6), (2, 1, 5)]);
        assert_eq!(tree_shape(&a), tree_shape(&b));
        let c = graph_from(&[0, 1, 2], &[(0, 1, 6), (1, 2, 5)]);
        assert_ne!(tree_shape(&a), tree_shape(&c));
        // A star and a path on the same labels.
        let star = graph_from(&[0, 0, 0, 0], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        let path = graph_from(&[0, 0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        assert_ne!(tree_shape(&star), tree_shape(&path));
    }

    #[test]
    fn a_subset_shape_counts_only_its_edges() {
        let g = graph_from(&[0, 1, 2], &[(0, 1, 5), (1, 2, 6), (2, 0, 7)]);
        let edge = graph_from(&[0, 1], &[(0, 1, 5)]);
        let only = |e: EdgeId| e == EdgeId(0);
        assert_eq!(shape_of(&g, g.vertices(), only), tree_shape(&edge));
        assert_eq!(
            shape_of(&g, [VertexId(0), VertexId(1)], only),
            tree_shape(&edge)
        );
    }

    #[test]
    fn the_filter_holds_what_it_was_given_under_its_tag() {
        let mut f = ShapeFilter::with_keys(1000);
        assert_eq!(f.heap_bytes(), 8 * (1000 * 12usize).div_ceil(64));
        let keys: Vec<u64> = (0..1000u64).map(|i| splitmix64(i ^ 0x5555)).collect();
        for &k in &keys {
            f.insert(Tag::Grow, k);
        }
        assert!(keys.iter().all(|&k| f.contains(Tag::Grow, k)));
        // A held shape under the other tag, and shapes never added, come
        // back "no" nearly always.
        let false_yes = keys
            .iter()
            .filter(|&&k| f.contains(Tag::Feature, k))
            .count();
        assert!(false_yes < 30, "{false_yes} of 1000");
        assert!(ShapeFilter::everything().contains(Tag::Feature, 42));
        assert_eq!(ShapeFilter::with_keys(0).heap_bytes(), 8);
    }
}
