//! **TreePi** (Zhang, Hu & Yang, ICDE 2007): a graph index built from
//! frequent subtrees, reproduced in Rust.
//!
//! Containment queries over a database of labeled graphs run in three
//! stages:
//!
//! 1. **Walk and cover** ([`partition`]): one walk finds every occurrence of
//!    an indexed feature subtree in the query (their features are `SF_q`);
//!    a greedy cover of the query by the largest of them is `TP_q`;
//! 2. **Filter** ([`filter`]): intersect the features' support sets
//!    (Algorithm 1) → candidate set `P_q`;
//! 3. **Anchored verify** ([`verify`]): one search per candidate, pinned at
//!    the stored center positions of one part of `TP_q` (Algorithm 3) and
//!    gated by vertex signatures ([`sig`]) — not a search of the whole
//!    candidate graph.
//!
//! The pipeline has no options: [`TreePiIndex::query`] and the batch
//! [`Engine`] run exactly these three stages. The paper's Center Distance
//! Constraint pruning ([`prune`], Algorithm 2), which shrinks `P_q` to
//! `P'_q` between stages 2 and 3, is not one of them: the anchored search
//! rejects the same candidates for less than the pruning costs. Its
//! `|P'_q|` (Figures 10–11) and the other ablations are measured by
//! `crates/experiments` from the public stage functions.
//!
//! ```
//! use graph_core::graph_from;
//! use treepi::{TreePiIndex, TreePiParams};
//!
//! let db = vec![
//!     graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
//!     graph_from(&[0, 1], &[(0, 1, 1)]),
//! ];
//! let index = TreePiIndex::build(db, TreePiParams::default());
//! let q = graph_from(&[0, 0], &[(0, 1, 0)]);
//! assert_eq!(index.query(&q).matches, vec![0]);
//! ```

#![warn(missing_docs)]

pub mod directed;
pub mod engine;
pub mod filter;
pub mod index;
pub mod params;
pub mod partition;
pub mod persist;
pub mod prune;
pub mod query;
mod shape;
pub mod sig;
pub mod verify;
mod walk;

pub use directed::DirectedTreePiIndex;
pub use engine::{query_rng, Engine, MaintStats, QueryOptions, RemineReport};
pub use filter::enumerate_query_features;
pub use index::{BuildStats, Feature, FeatureId, IndexMemory, TreePiIndex};
pub use params::{Delta, TreePiParams};
pub use partition::{feature_tree_partition, partition_runs_with, Part, PartitionRuns};
pub use query::{QueryResult, QueryStats, INTRA_PAR_THRESHOLD};
pub use sig::VertexSig;
pub use verify::scan_support;
