//! Tree canonical form and string representation (paper §4.2.2).
//!
//! Every node of a rooted tree is represented by the 2-tuple `(Le, Lv)` —
//! the label of the edge to its parent and its own label (the root gets an
//! empty `Le`). Sibling subtrees are ordered by comparing `Le`, then `Lv`,
//! then recursively their children left-to-right; sorting every sibling
//! group by that order yields the canonical form, and a traversal emits a
//! unique string. Rooting at the tree's center (unique by Theorem 1) makes
//! the string a canonical form of the *free* tree, computable in polynomial
//! time — the property that makes tree features cheap to look up where
//! general graph features need exponential-time canonization.
//!
//! Bicentral trees are canonicalized as the ordered pair of half-trees
//! hanging off the center edge.

use crate::center::{center, Center};
use crate::tree::Tree;
use graph_core::VertexId;

/// Canonical string of a tree: equal iff the trees are isomorphic as free
/// labeled trees. Used as the feature-index key.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CanonString(pub Vec<u32>);

impl CanonString {
    /// Raw tokens (for serialization).
    pub fn tokens(&self) -> &[u32] {
        &self.0
    }

    /// Heap bytes held by the token vector (length-based).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<u32>()
    }
}

// Token tags. Labels are offset so they never collide with tags.
const OPEN: u32 = 0;
const CLOSE: u32 = 1;
const VERTEX_ROOTED: u32 = 2;
const EDGE_ROOTED: u32 = 3;
const LABEL_BASE: u32 = 4;

// Labels enter the program bounded (`graph_core::io::parse_graphs`, index
// files), so `label + LABEL_BASE` below cannot wrap into the tags.
const _: () = assert!(graph_core::MAX_LABEL <= u32::MAX - LABEL_BASE);

/// Recursive canonical encoding of the subtree rooted at `v`, entered via
/// edge label `le` (`None` for the root), excluding `parent`.
///
/// Encoding: `OPEN le lv <sorted child encodings...> CLOSE`, which realizes
/// the paper's order (compare `Le`, then `Lv`, then subtrees left-to-right)
/// because the encoding starts with `le, lv` and lexicographic comparison
/// of the flattened child encodings equals recursive subtree comparison.
fn encode(t: &Tree, v: VertexId, parent: Option<VertexId>, le: Option<u32>, out: &mut Vec<u32>) {
    let g = t.graph();
    out.push(OPEN);
    out.push(le.map_or(OPEN, |l| l + LABEL_BASE));
    out.push(g.vlabel(v).0 + LABEL_BASE);
    let mut kids: Vec<Vec<u32>> = Vec::new();
    for &(w, e) in g.neighbors(v) {
        if Some(w) == parent {
            continue;
        }
        let mut enc = Vec::new();
        encode(t, w, Some(v), Some(g.edge(e).label.0), &mut enc);
        kids.push(enc);
    }
    kids.sort();
    for k in kids {
        out.extend(k);
    }
    out.push(CLOSE);
}

/// Canonical string of the free tree `t`, rooted at its center.
pub fn canonical_string(t: &Tree) -> CanonString {
    let g = t.graph();
    let mut out = Vec::new();
    match center(t) {
        Center::Vertex(c) => {
            out.push(VERTEX_ROOTED);
            encode(t, c, None, None, &mut out);
        }
        Center::Edge(e) => {
            let edge = g.edge(e);
            let mut a = Vec::new();
            encode(t, edge.u, Some(edge.v), None, &mut a);
            let mut b = Vec::new();
            encode(t, edge.v, Some(edge.u), None, &mut b);
            if b < a {
                std::mem::swap(&mut a, &mut b);
            }
            out.push(EDGE_ROOTED);
            out.push(edge.label.0 + LABEL_BASE);
            out.extend(a);
            out.extend(b);
        }
    }
    CanonString(out)
}

/// Canonical string of `t` rooted at an arbitrary vertex `root` (not a free-
/// tree invariant; used by tests and by rooted deduplication).
pub fn canonical_string_rooted(t: &Tree, root: VertexId) -> CanonString {
    let mut out = vec![VERTEX_ROOTED];
    encode(t, root, None, None, &mut out);
    CanonString(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tree_from;
    use graph_core::is_isomorphic;

    #[test]
    fn isomorphic_trees_share_string() {
        // Same labeled path, three vertex numberings.
        let a = tree_from(&[1, 2, 3], &[(0, 1, 7), (1, 2, 8)]);
        let b = tree_from(&[3, 2, 1], &[(0, 1, 8), (1, 2, 7)]);
        let c = tree_from(&[2, 1, 3], &[(1, 0, 7), (0, 2, 8)]);
        assert_eq!(canonical_string(&a), canonical_string(&b));
        assert_eq!(canonical_string(&a), canonical_string(&c));
    }

    #[test]
    fn different_trees_differ() {
        let path = tree_from(&[0, 0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        let star = tree_from(&[0, 0, 0, 0], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        assert_ne!(canonical_string(&path), canonical_string(&star));
    }

    #[test]
    fn edge_labels_distinguish() {
        let a = tree_from(&[0, 0], &[(0, 1, 1)]);
        let b = tree_from(&[0, 0], &[(0, 1, 2)]);
        assert_ne!(canonical_string(&a), canonical_string(&b));
    }

    #[test]
    fn vertex_labels_distinguish() {
        let a = tree_from(&[0, 1], &[(0, 1, 0)]);
        let b = tree_from(&[0, 2], &[(0, 1, 0)]);
        assert_ne!(canonical_string(&a), canonical_string(&b));
    }

    #[test]
    fn bicentral_orientation_invariant() {
        // Asymmetric bicentral tree: leaf-x — a — b — leaf-y, reversed.
        let a = tree_from(&[5, 1, 2, 6], &[(0, 1, 0), (1, 2, 9), (2, 3, 0)]);
        let b = tree_from(&[6, 2, 1, 5], &[(0, 1, 0), (1, 2, 9), (2, 3, 0)]);
        assert_eq!(canonical_string(&a), canonical_string(&b));
    }

    #[test]
    fn single_vertex_and_edge() {
        let v1 = tree_from(&[3], &[]);
        let v2 = tree_from(&[4], &[]);
        assert_ne!(canonical_string(&v1), canonical_string(&v2));
        let e1 = tree_from(&[1, 2], &[(0, 1, 0)]);
        let e2 = tree_from(&[2, 1], &[(0, 1, 0)]);
        assert_eq!(canonical_string(&e1), canonical_string(&e2));
    }

    #[test]
    fn rooted_string_depends_on_root() {
        let t = tree_from(&[1, 2, 3], &[(0, 1, 0), (1, 2, 0)]);
        let r0 = canonical_string_rooted(&t, VertexId(0));
        let r1 = canonical_string_rooted(&t, VertexId(1));
        assert_ne!(r0, r1);
    }

    /// Exhaustive cross-check on a family of small trees: equal canonical
    /// strings iff isomorphic.
    #[test]
    fn string_equality_matches_isomorphism() {
        let trees = vec![
            tree_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]),
            tree_from(&[0, 0, 0], &[(0, 1, 0), (0, 2, 0)]), // same as above (path)
            tree_from(&[0, 1, 0], &[(0, 1, 0), (1, 2, 0)]),
            tree_from(&[1, 0, 0], &[(0, 1, 0), (1, 2, 0)]),
            tree_from(&[0, 0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
            tree_from(&[0, 0, 0, 0], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]),
            tree_from(&[0, 0, 0, 0], &[(1, 0, 0), (1, 2, 0), (1, 3, 0)]),
            tree_from(&[0, 0], &[(0, 1, 1)]),
            tree_from(&[0, 0], &[(0, 1, 0)]),
        ];
        for (i, a) in trees.iter().enumerate() {
            for (j, b) in trees.iter().enumerate() {
                let same = canonical_string(a) == canonical_string(b);
                let iso = is_isomorphic(a.graph(), b.graph());
                assert_eq!(same, iso, "trees {i} vs {j}");
            }
        }
    }

    #[test]
    fn deep_symmetric_tree() {
        // Two isomorphic "H" shaped trees with swapped construction order.
        let a = tree_from(
            &[0, 0, 1, 1, 2, 2],
            &[(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 4, 0), (1, 5, 0)],
        );
        let b = tree_from(
            &[0, 0, 2, 2, 1, 1],
            &[(1, 0, 0), (1, 4, 0), (1, 5, 0), (0, 2, 0), (0, 3, 0)],
        );
        assert_eq!(canonical_string(&a), canonical_string(&b));
    }
}
