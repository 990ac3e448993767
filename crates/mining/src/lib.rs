//! Frequent pattern mining for the TreePi reproduction.
//!
//! - [`support`]: support sets, galloping intersection, and the paper's
//!   σ(s) threshold function (Eq. 1);
//! - [`tree_miner`]: level-wise frequent **subtree** mining with the
//!   shrinking step (§4.1.2) inside it — TreePi's feature discovery;
//! - [`graph_miner`]: level-wise frequent **subgraph** mining with gIndex's
//!   ψ(l) function — the baseline's feature discovery.

#![warn(missing_docs)]

pub mod graph_miner;
pub mod support;
pub mod tree_miner;

pub use graph_miner::{mine_frequent_subgraphs, MinedGraph, PsiFn};
pub use support::{intersect, intersect_into, intersect_many, SigmaFn, SupportSet};
pub use tree_miner::{mine_frequent_trees, mine_frequent_trees_pool_obs, MinedTree, MiningStats};
