//! Labeled undirected graph substrate for the TreePi reproduction.
//!
//! This crate provides everything below the tree/index layers of the paper:
//!
//! - [`graph`]: the immutable labeled graph type and its builder;
//! - [`dist`]: BFS distances and the cached [`dist::DistanceOracle`] used by
//!   Center Distance Constraint pruning;
//! - [`iso`]: VF2-style subgraph isomorphism, isomorphism and
//!   pinned embedding enumeration with caller-owned scratch;
//! - [`canon`]: canonical codes for arbitrary small graphs (the expensive
//!   operation TreePi avoids and the gIndex baseline must pay for);
//! - [`subgraph`]: edge-subgraph extraction and connected edge-subset /
//!   subtree enumeration;
//! - [`io`]: the gSpan transaction text format and a label interner.

#![warn(missing_docs)]

pub mod canon;
pub mod digraph;
pub mod dist;
pub mod graph;
pub mod io;
pub mod iso;
pub mod par;
pub mod stats;
pub mod subgraph;

pub use canon::{canonical_code, CanonCode};
pub use digraph::{
    digraph_from, is_sub_digraph_isomorphic, Arc, DiBuildError, DiGraph, DiGraphBuilder,
    MIDPOINT_LABEL_BASE,
};
pub use dist::{bfs_distances, distance, eccentricity, DistanceOracle, UNREACHABLE};
pub use graph::{
    graph_from, BuildError, ELabel, Edge, EdgeId, Graph, GraphBuilder, VLabel, VertexId, MAX_LABEL,
};
pub use iso::{
    all_embeddings, find_embedding, for_each_embedding, for_each_embedding_pinned, is_isomorphic,
    is_subgraph_isomorphic, Embedding, MatchScratch, PreparedPattern,
};
pub use par::resolve_threads;
pub use stats::{component_count, db_stats, edge_label_histogram, vertex_label_histogram, DbStats};
pub use subgraph::{
    edge_components, edge_subgraph, for_each_connected_edge_subset, for_each_subtree_edge_subset,
    random_connected_edge_subgraph, ExtractedSubgraph,
};
