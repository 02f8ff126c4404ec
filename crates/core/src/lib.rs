//! # bh-opt — algebraic transformation of vector byte-code sequences
//!
//! The primary contribution of *Algebraic Transformation of Descriptive
//! Vector Byte-code Sequences* (Larsen, Middleware DS '16), reproduced as
//! a library: a rewrite engine that transforms Bohrium-style byte-code
//! sequences "into more performant ones" before execution, so "the
//! scientific programmer will not need to change her code to utilize
//! special performant constructs".
//!
//! The three transformations the paper presents, and where they live:
//!
//! * **Constant merging** (Listing 2 → 3): [`rules::ConstantMerge`].
//! * **Power expansion** (Eq. 1, Listings 4–5): [`rules::PowerExpansion`]
//!   with the addition-chain schedules of [`chains`], plus the inverse
//!   direction [`rules::MultiplyChainReroll`].
//! * **Context-aware solve** (Eq. 2): [`rules::InverseSolveRewrite`].
//!
//! A pass manager ([`Optimizer`]) schedules these (with supporting
//! simplification, propagation and dead-code passes) to fixpoint. Every
//! rule is a fixed pattern match; `BH_POWER` expansion is bounded by a
//! multiply budget ([`RewriteCtx::max_power_multiplies`]), not by a cost
//! model.
//!
//! # Example
//!
//! ```
//! use bh_ir::{parse_program, Opcode};
//! use bh_opt::{optimize, Optimizer};
//!
//! // The paper's Listing 2.
//! let mut program = parse_program(
//!     "BH_IDENTITY a0 [0:10:1] 0\n\
//!      BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
//!      BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
//!      BH_ADD a0 [0:10:1] a0 [0:10:1] 1\n\
//!      BH_SYNC a0 [0:10:1]\n",
//! )?;
//! let report = optimize(&mut program);
//! // Listing 3: one BH_ADD with the merged constant.
//! assert_eq!(program.count_op(Opcode::Add), 1);
//! assert!(report
//!     .by_rule
//!     .iter()
//!     .any(|&(rule, n)| rule == "constant-merge" && n > 0));
//! # Ok::<(), bh_ir::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chains;
mod pipeline;
mod rule;
pub mod rules;

pub use pipeline::{
    optimize, optimize_at, standard_rules, OptLevel, OptOptions, OptReport, Optimizer,
};
pub use rule::{reassoc_allowed, LiveAtExit, RewriteCtx, RewriteRule};
