//! The rule library.
//!
//! Every transformation the paper describes (plus the standard clean-up
//! passes they enable) lives here as an independent [`RewriteRule`]:
//!
//! | Rule | Paper artefact |
//! |------|----------------|
//! | [`ConstantMerge`] | Listing 2 → Listing 3 constant merging |
//! | [`PowerExpansion`] | Eq. 1 / Listings 4–5 power expansion |
//! | [`MultiplyChainReroll`] | Eq. 1 "or vice versa" |
//! | [`InverseSolveRewrite`] | Eq. 2 context-aware solve |
//! | [`AlgebraicSimplify`] | identity/annihilator contractions (§2) |
//! | [`StrengthReduction`] | cheap-op substitutions (§2) |
//! | [`ValueNumbering`], [`DeadCodeElimination`] | enabling clean-ups |
//!
//! [`RewriteRule`]: crate::rule::RewriteRule

mod const_merge;
mod dce;
mod identity;
mod linalg;
mod power;
mod strength;
mod value_numbering;

pub use const_merge::ConstantMerge;
pub use dce::DeadCodeElimination;
pub use identity::AlgebraicSimplify;
pub use linalg::InverseSolveRewrite;
pub use power::{MultiplyChainReroll, PowerExpansion};
pub use strength::StrengthReduction;
pub use value_numbering::ValueNumbering;

// The unit tests of the copy-propagation and common-subexpression rules
// that `value-numbering` replaced, kept under their old module paths.
#[cfg(test)]
#[path = "value_numbering/copyprop.rs"]
mod copyprop;
#[cfg(test)]
#[path = "value_numbering/cse.rs"]
mod cse;
