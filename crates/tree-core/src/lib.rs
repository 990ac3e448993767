//! Free labeled trees: the feature class of the TreePi index.
//!
//! - [`tree`]: the validated [`Tree`] type;
//! - [`mod@center`]: tree centers by leaf peeling (paper Theorem 1);
//! - [`canonical`]: canonical strings computable in polynomial time
//!   (paper §4.2.2), the index keys;
//! - [`embed`]: embedding enumeration with center tracking — the location
//!   information that distinguishes TreePi from prior indexes.

#![warn(missing_docs)]

pub mod canonical;
pub mod center;
pub mod embed;
pub mod tree;

pub use canonical::{canonical_string, CanonString, SubtreeEncoder};
pub use center::{center, center_by_eccentricity, Center};
pub use embed::{center_positions, for_each_embedding_centered, CenterPos};
pub use tree::{tree_from, NotATree, Tree};
