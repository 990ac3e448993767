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

use crate::center::Center;
use crate::tree::Tree;
use graph_core::{ELabel, EdgeId, Graph, GraphBuilder, VLabel, VertexId};

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

    /// Whether the tree is bicentral: rooted at its center edge.
    #[inline]
    pub fn is_bicentral(&self) -> bool {
        self.0[0] == EDGE_ROOTED
    }

    /// Edge count of the tree. Every vertex is four tokens (`OPEN le lv`
    /// and `CLOSE`); the root adds one or, for an edge root, two.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.0.len() / 4 - 1
    }

    /// The tree this string encodes, its vertices numbered in the order the
    /// string lists them (preorder from the root, the center edge's smaller
    /// half first) and each edge numbered after the vertex it reaches:
    /// `canonical_string(&c.decode()) == c`.
    ///
    /// # Panics
    /// Panics if `self` is not a canonical string.
    pub fn decode(&self) -> Tree {
        let (edge_root, body) = match self.0.split_first() {
            Some((&EDGE_ROOTED, [el, body @ ..])) => (Some(ELabel(el - LABEL_BASE)), body),
            Some((_, body)) => (None, body),
            None => panic!("an empty string encodes no tree"),
        };
        let mut b = GraphBuilder::with_capacity(body.len() / 4, body.len() / 4);
        // The open vertices, root first.
        let mut open: Vec<VertexId> = Vec::new();
        let mut i = 0;
        while i < body.len() {
            if body[i] == CLOSE {
                open.pop();
                i += 1;
                continue;
            }
            let v = b.add_vertex(VLabel(body[i + 2] - LABEL_BASE));
            // A root hangs from nothing or, the second of an edge root, from the first.
            let up = match open.last() {
                Some(&parent) => Some((parent, ELabel(body[i + 1] - LABEL_BASE))),
                None => edge_root.filter(|_| v.0 > 0).map(|el| (VertexId(0), el)),
            };
            if let Some((parent, el)) = up {
                b.add_edge(parent, v, el).expect("a fresh vertex");
            }
            open.push(v);
            i += 3;
        }
        Tree::from_graph(b.build()).expect("a canonical string encodes a tree")
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

/// Canonical strings of subtrees of a host graph, computed in place.
///
/// [`Self::encode`] reads a subtree as `(graph, edge predicate)` — no
/// subgraph or [`Tree`] is built — and writes its tokens into buffers the
/// encoder keeps, so a caller that encodes many subtrees (the query walk)
/// allocates nothing once the buffers have grown. Every traversal keeps its
/// stack on the heap: depth is bounded by memory, not by the thread's stack.
///
/// Encoding of the subtree below a vertex: `OPEN le lv <sorted child
/// encodings...> CLOSE`, which realizes the paper's order (compare `Le`,
/// then `Lv`, then subtrees left-to-right) because the encoding starts with
/// `le, lv` and lexicographic comparison of the flattened child encodings
/// equals recursive subtree comparison. A vertex's header is written on the
/// way down and its children are sorted where they lie on the way up, so a
/// vertex with one child — every vertex of a path — costs no copy at all.
#[derive(Default)]
pub struct SubtreeEncoder {
    /// The tokens of the last subtree encoded.
    out: Vec<u32>,
    /// Vertices being encoded, root first.
    frames: Vec<Frame>,
    /// Start offsets in `out` of the finished children of every open frame.
    starts: Vec<usize>,
    /// `(start, end)` of one vertex's children while they are sorted.
    order: Vec<(usize, usize)>,
    /// The children being reordered.
    tmp: Vec<u32>,
    /// The edge each vertex was reached by in the last sweep, by host id.
    via: Vec<(VertexId, EdgeId)>,
    /// Sweep stack: `(vertex, the vertex it was reached from, distance)`.
    sweep: Vec<(VertexId, VertexId, u32)>,
}

struct Frame {
    v: VertexId,
    parent: VertexId,
    /// Next entry of `neighbors(v)` to look at.
    cursor: usize,
    /// `starts.len()` when the frame opened: its children lie above.
    base: usize,
}

/// "No parent": no vertex has this id (ids are dense and far below it).
const NO_VERTEX: VertexId = VertexId(u32::MAX);

impl SubtreeEncoder {
    /// Canonical tokens and center of the subtree of `g` made of the edges
    /// for which `in_set` holds that are reachable from `start` (a lone
    /// `start` if none is). Those edges must form a tree; the center is
    /// named by its id in `g`.
    ///
    /// # Panics
    /// Panics if the edges close a cycle.
    pub fn encode(
        &mut self,
        g: &Graph,
        start: VertexId,
        in_set: impl Fn(EdgeId) -> bool,
    ) -> (&[u32], Center) {
        // The center is the middle of any longest path: sweep to one end of
        // one, sweep back recording the way, walk half of it.
        let (a, _) = self.farthest(g, start, &in_set);
        let (mut b, d) = self.farthest(g, a, &in_set);
        for _ in 0..d / 2 {
            b = self.via[b.idx()].0;
        }
        self.out.clear();
        let center = if d % 2 == 0 {
            self.out.push(VERTEX_ROOTED);
            self.subtree(g, b, NO_VERTEX, &in_set);
            Center::Vertex(b)
        } else {
            let (c, e) = self.via[b.idx()];
            self.out.push(EDGE_ROOTED);
            self.out.push(g.edge(e).label.0 + LABEL_BASE);
            let first = self.out.len();
            self.subtree(g, b, c, &in_set);
            let second = self.out.len();
            self.subtree(g, c, b, &in_set);
            self.order.clear();
            self.order
                .extend([(first, second), (second, self.out.len())]);
            self.sort_children();
            Center::Edge(e)
        };
        (&self.out, center)
    }

    /// The vertex farthest from `from` and its distance, leaving in `via`
    /// the vertex and edge each reached vertex was reached by.
    fn farthest(
        &mut self,
        g: &Graph,
        from: VertexId,
        in_set: &impl Fn(EdgeId) -> bool,
    ) -> (VertexId, u32) {
        if self.via.len() < g.vertex_count() {
            self.via.resize(g.vertex_count(), (NO_VERTEX, EdgeId(0)));
        }
        let mut best = (from, 0);
        let mut reached = 0usize;
        self.sweep.clear();
        self.sweep.push((from, NO_VERTEX, 0));
        while let Some((v, parent, d)) = self.sweep.pop() {
            reached += 1;
            assert!(reached <= g.vertex_count(), "the edge set closes a cycle");
            if d > best.1 {
                best = (v, d);
            }
            for &(w, e) in g.neighbors(v) {
                if w != parent && in_set(e) {
                    self.via[w.idx()] = (v, e);
                    self.sweep.push((w, v, d + 1));
                }
            }
        }
        best
    }

    /// Append the encoding of the subtree hanging off `root` away from
    /// `parent`, entered by no edge.
    fn subtree(
        &mut self,
        g: &Graph,
        root: VertexId,
        parent: VertexId,
        in_set: &impl Fn(EdgeId) -> bool,
    ) {
        self.open(g, root, parent, OPEN);
        while let Some(f) = self.frames.last_mut() {
            let (v, parent) = (f.v, f.parent);
            let rest = &g.neighbors(v)[f.cursor..];
            if let Some(i) = rest.iter().position(|&(w, e)| w != parent && in_set(e)) {
                let (w, e) = rest[i];
                f.cursor += i + 1;
                self.starts.push(self.out.len());
                self.open(g, w, v, g.edge(e).label.0 + LABEL_BASE);
                continue;
            }
            let kids = &self.starts[f.base..];
            if kids.len() > 1 {
                let end = self.out.len();
                let ends = kids[1..].iter().copied().chain([end]);
                self.order.clear();
                self.order.extend(kids.iter().copied().zip(ends));
                self.sort_children();
            }
            let base = self.frames.pop().expect("the frame just read").base;
            self.starts.truncate(base);
            self.out.push(CLOSE);
        }
    }

    /// Write `v`'s header (`le` is the token of the edge it was entered by)
    /// and open its frame.
    fn open(&mut self, g: &Graph, v: VertexId, parent: VertexId, le: u32) {
        self.out.extend([OPEN, le, g.vlabel(v).0 + LABEL_BASE]);
        self.frames.push(Frame {
            v,
            parent,
            cursor: 0,
            base: self.starts.len(),
        });
    }

    /// Put the adjacent encodings listed in `order` into ascending order.
    fn sort_children(&mut self) {
        let out = &self.out;
        if self
            .order
            .windows(2)
            .all(|w| out[w[0].0..w[0].1] <= out[w[1].0..w[1].1])
        {
            return;
        }
        let (lo, hi) = (self.order[0].0, self.order[self.order.len() - 1].1);
        self.order
            .sort_unstable_by(|a, b| out[a.0..a.1].cmp(&out[b.0..b.1]));
        self.tmp.clear();
        for &(s, e) in &self.order {
            self.tmp.extend_from_slice(&self.out[s..e]);
        }
        self.out[lo..hi].copy_from_slice(&self.tmp);
    }
}

/// Canonical string of the free tree `t`, rooted at its center.
pub fn canonical_string(t: &Tree) -> CanonString {
    let mut enc = SubtreeEncoder::default();
    enc.encode(t.graph(), VertexId(0), |_| true);
    CanonString(enc.out)
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

    /// The definition, written the obvious way: recursive, one vector per
    /// vertex. What [`SubtreeEncoder`] must reproduce token for token.
    fn reference(t: &Tree) -> Vec<u32> {
        fn encode(g: &Graph, v: VertexId, parent: Option<VertexId>, le: u32, out: &mut Vec<u32>) {
            out.extend([OPEN, le, g.vlabel(v).0 + LABEL_BASE]);
            let mut kids: Vec<Vec<u32>> = Vec::new();
            for &(w, e) in g.neighbors(v) {
                if Some(w) != parent {
                    let mut enc = Vec::new();
                    encode(g, w, Some(v), g.edge(e).label.0 + LABEL_BASE, &mut enc);
                    kids.push(enc);
                }
            }
            kids.sort();
            out.extend(kids.concat());
            out.push(CLOSE);
        }
        let g = t.graph();
        match crate::center::center(t) {
            Center::Vertex(c) => {
                let mut out = vec![VERTEX_ROOTED];
                encode(g, c, None, OPEN, &mut out);
                out
            }
            Center::Edge(e) => {
                let edge = g.edge(e);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                encode(g, edge.u, Some(edge.v), OPEN, &mut a);
                encode(g, edge.v, Some(edge.u), OPEN, &mut b);
                let (a, b) = if b < a { (b, a) } else { (a, b) };
                [vec![EDGE_ROOTED, edge.label.0 + LABEL_BASE], a, b].concat()
            }
        }
    }

    /// Random trees with few labels (so sibling order is decided deep down):
    /// the encoder's tokens are the definition's, its center is the peeling
    /// center, and a subtree read through an edge predicate encodes like the
    /// same subtree extracted.
    #[test]
    fn encoder_matches_the_recursive_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let mut enc = SubtreeEncoder::default();
        for _ in 0..300 {
            let n = rng.gen_range(1..14usize);
            let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            let edges: Vec<(u32, u32, u32)> = (1..n)
                .map(|i| (i as u32, rng.gen_range(0..i) as u32, rng.gen_range(0..2)))
                .collect();
            let t = tree_from(&labels, &edges);
            let (tokens, center) = enc.encode(t.graph(), VertexId(0), |_| true);
            assert_eq!(tokens, reference(&t));
            assert_eq!(center, crate::center::center(&t));
            assert_eq!(canonical_string(&t).0, reference(&t));
            if n < 3 {
                continue;
            }
            // Drop the last-added vertex (a leaf) by predicate.
            let kept = tree_from(&labels[..n - 1], &edges[..n - 2]);
            let cut = EdgeId(n as u32 - 2);
            let (tokens, _) = enc.encode(t.graph(), VertexId(0), |e| e != cut);
            assert_eq!(tokens, reference(&kept));
        }
    }

    /// A path far deeper than a small stack would let a recursion go.
    #[test]
    fn long_path_fits_a_small_stack() {
        const N: usize = 50_000;
        let small_stack = std::thread::Builder::new().stack_size(256 * 1024);
        let worker = small_stack.spawn(|| {
            let edges: Vec<(u32, u32, u32)> = (1..N as u32).map(|i| (i - 1, i, i % 3)).collect();
            canonical_string(&tree_from(&vec![7; N], &edges))
        });
        let canon = worker.expect("thread spawns").join().expect("no overflow");
        // N vertices at OPEN le lv … CLOSE each, plus the two root tokens
        // of an edge-rooted string (an odd-length path is bicentral).
        assert_eq!(canon.0.len(), 4 * N + 2);
        assert_eq!(canon.0[0], EDGE_ROOTED);
    }

    #[test]
    #[should_panic(expected = "closes a cycle")]
    fn a_cyclic_edge_set_is_refused() {
        let g = graph_core::graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        SubtreeEncoder::default().encode(&g, VertexId(0), |_| true);
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
