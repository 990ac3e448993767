//! Text serialization in the gSpan transaction format, plus a label
//! interner for symbolic (e.g. atom-name) labels.
//!
//! ```text
//! t # 0
//! v 0 1
//! v 1 2
//! e 0 1 0
//! t # 1
//! ...
//! ```
//!
//! Labels are decimal `u32`s no larger than [`MAX_LABEL`]; this is where
//! graphs from files and from the wire enter the program, so the bound is
//! enforced here.

use crate::graph::{ELabel, Graph, GraphBuilder, VLabel, VertexId, MAX_LABEL};
use rustc_hash::FxHashMap;
use std::fmt::Write as _;

/// Bidirectional mapping between string labels (atom names, bond names) and
/// the numeric labels used by [`Graph`].
#[derive(Clone, Default, Debug)]
pub struct LabelInterner {
    names: Vec<String>,
    ids: FxHashMap<String, u32>,
}

impl LabelInterner {
    /// New empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Look up the id of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name for `id`, if any.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(|s| s.as_str())
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Parse errors for the transaction format.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// A malformed line, with its 1-based line number.
    Malformed(usize, String),
    /// A `v`/`e` line appeared before any `t` line.
    NoCurrentGraph(usize),
    /// An edge referenced a vertex that does not exist.
    BadEdge(usize, String),
    /// A vertex or edge label above [`MAX_LABEL`].
    LabelTooLarge(usize, u32),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(n, l) => write!(f, "line {n}: malformed: {l}"),
            ParseError::NoCurrentGraph(n) => write!(f, "line {n}: v/e before first t"),
            ParseError::BadEdge(n, l) => write!(f, "line {n}: bad edge: {l}"),
            ParseError::LabelTooLarge(n, l) => {
                write!(f, "line {n}: label {l} exceeds the maximum {MAX_LABEL}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a multi-graph transaction file.
pub fn parse_graphs(text: &str) -> Result<Vec<Graph>, ParseError> {
    let mut out = Vec::new();
    let mut current: Option<GraphBuilder> = None;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("t") => {
                if let Some(b) = current.take() {
                    out.push(b.build());
                }
                current = Some(GraphBuilder::new());
            }
            Some("v") => {
                let b = current.as_mut().ok_or(ParseError::NoCurrentGraph(lineno))?;
                let _id: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno, line.to_owned()))?;
                let label: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno, line.to_owned()))?;
                // Vertex ids must be dense and in order, which the writer
                // guarantees; enforce it for round-tripping.
                if _id as usize != b.vertex_count() {
                    return Err(ParseError::Malformed(lineno, line.to_owned()));
                }
                if label > MAX_LABEL {
                    return Err(ParseError::LabelTooLarge(lineno, label));
                }
                b.add_vertex(VLabel(label));
            }
            Some("e") => {
                let b = current.as_mut().ok_or(ParseError::NoCurrentGraph(lineno))?;
                let u: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno, line.to_owned()))?;
                let v: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno, line.to_owned()))?;
                let label: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::Malformed(lineno, line.to_owned()))?;
                if label > MAX_LABEL {
                    return Err(ParseError::LabelTooLarge(lineno, label));
                }
                b.add_edge(VertexId(u), VertexId(v), ELabel(label))
                    .map_err(|e| ParseError::BadEdge(lineno, e.to_string()))?;
            }
            _ => return Err(ParseError::Malformed(lineno, line.to_owned())),
        }
    }
    if let Some(b) = current.take() {
        out.push(b.build());
    }
    Ok(out)
}

/// Serialize graphs to the transaction format.
pub fn write_graphs(graphs: &[Graph]) -> String {
    let mut s = String::new();
    for (i, g) in graphs.iter().enumerate() {
        writeln!(s, "t # {i}").unwrap();
        for v in g.vertices() {
            writeln!(s, "v {} {}", v.0, g.vlabel(v).0).unwrap();
        }
        for e in g.edges() {
            writeln!(s, "e {} {} {}", e.u.0, e.v.0, e.label.0).unwrap();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from;

    #[test]
    fn round_trip() {
        let gs = vec![
            graph_from(&[1, 2, 3], &[(0, 1, 5), (1, 2, 6)]),
            graph_from(&[7], &[]),
            graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]),
        ];
        let text = write_graphs(&gs);
        let back = parse_graphs(&text).unwrap();
        assert_eq!(gs, back);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# header\n\nt # 0\nv 0 3\n\n# mid\nv 1 4\ne 0 1 9\n";
        let gs = parse_graphs(text).unwrap();
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].vertex_count(), 2);
        assert_eq!(gs[0].edge_count(), 1);
    }

    #[test]
    fn parse_rejects_orphan_vertex_line() {
        assert_eq!(parse_graphs("v 0 1\n"), Err(ParseError::NoCurrentGraph(1)));
    }

    #[test]
    fn parse_rejects_bad_edge() {
        let r = parse_graphs("t # 0\nv 0 1\ne 0 5 0\n");
        assert!(matches!(r, Err(ParseError::BadEdge(3, _))));
    }

    #[test]
    fn parse_bounds_labels() {
        // The largest label parses; one above it is refused on a vertex
        // line and on an edge line.
        let ok = format!("t # 0\nv 0 {MAX_LABEL}\nv 1 0\ne 0 1 {MAX_LABEL}\n");
        let gs = parse_graphs(&ok).unwrap();
        assert_eq!(gs[0].vlabel(VertexId(0)), VLabel(MAX_LABEL));
        let over = MAX_LABEL + 1;
        assert_eq!(
            parse_graphs(&format!("t # 0\nv 0 {over}\n")),
            Err(ParseError::LabelTooLarge(2, over))
        );
        assert_eq!(
            parse_graphs(&format!("t # 0\nv 0 1\nv 1 1\ne 0 1 {}\n", u32::MAX)),
            Err(ParseError::LabelTooLarge(4, u32::MAX))
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse_graphs("t # 0\nx y z\n"),
            Err(ParseError::Malformed(2, _))
        ));
    }

    #[test]
    fn interner_round_trips() {
        let mut i = LabelInterner::new();
        let c = i.intern("C");
        let o = i.intern("O");
        assert_eq!(i.intern("C"), c);
        assert_ne!(c, o);
        assert_eq!(i.name(c), Some("C"));
        assert_eq!(i.get("O"), Some(o));
        assert_eq!(i.get("N"), None);
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }
}
