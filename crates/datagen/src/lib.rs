//! Dataset generators for the TreePi reproduction.
//!
//! - [`synthetic`]: the Kuramochi–Karypis-style generator the paper's §6.2
//!   uses (`DnkIiTtSskLl` datasets);
//! - [`chem`]: an AIDS-antiviral-screen surrogate (see DESIGN.md for the
//!   substitution rationale);
//! - [`queries`]: random connected m-edge query extraction (the paper's
//!   `Q_m` query sets) and their label-perturbed near misses.

#![warn(missing_docs)]

pub mod chem;
pub mod queries;
pub mod rand_util;
pub mod synthetic;

pub use chem::{
    generate_chem, generate_fragment_pool, generate_molecule, ChemParams, ATOMS, BONDS, MAX_DEGREE,
};
pub use queries::{extract_queries, perturb_labels};
pub use synthetic::{generate_seeds, generate_synthetic, SyntheticParams};
