//! # bh-runtime — the unified optimise → plan → execute runtime
//!
//! The paper's promise is that unchanged high-productivity code gets
//! algebraically transformed byte-code "for free". This crate is the
//! load-bearing abstraction that makes the promise cheap under repeated
//! traffic: a single [`Runtime`] owning
//!
//! * the **optimiser** (`bh-opt`) and its options,
//! * the **execution engine** configuration (`bh-vm`) with a pool of
//!   recycled VMs,
//! * a **transformation cache** — an LRU keyed by the structural digest
//!   of a recorded program ([`bh_ir::ProgramDigest`]: canonicalised
//!   register identities + instruction stream) mapping to the optimised
//!   [`EvalPlan`], so re-evaluating a sequence the runtime has already
//!   seen skips the rewrite fixpoint *and* re-validation entirely
//!   (byte-code verification runs at load time, not per execution), and
//! * aggregated [`RuntimeStats`] across every evaluation from every
//!   context and thread sharing the runtime.
//!
//! A plan enters the cache by exactly one path — a cache miss optimises,
//! optionally audits, verifies and inserts (DESIGN.md §14 records why
//! there is no second, cheaper tier; §16 why plans are not persisted).
//!
//! Front-ends hold an `Arc<Runtime>` and call [`Runtime::eval`]; each
//! call returns the tensor alongside an [`EvalOutcome`] (plan, per-run
//! counters, service time, cache-hit flag), replacing the old
//! per-context engine setter and its `last_report` / `last_stats` pair.
//! Serving layers drive the prepared-plan hot path
//! ([`Runtime::prepare`] / [`Runtime::eval_prepared`]) instead,
//! recycling the VM between requests (DESIGN.md §7), and
//! per-eval service time is aggregated in [`RuntimeStats::eval_nanos`].
//!
//! # Example
//!
//! ```
//! use bh_ir::parse_program;
//! use bh_runtime::Runtime;
//! use bh_vm::Engine;
//!
//! let rt = Runtime::builder()
//!     .engine(Engine::Fusing { block: 4096 })
//!     .threads(2)
//!     .build_shared();
//!
//! let program = parse_program(
//!     "BH_IDENTITY a0 [0:100:1] 0\n\
//!      BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
//!      BH_SYNC a0\n")?;
//! let reg = program.reg_by_name("a0").unwrap();
//!
//! let (value, first) = rt.eval(&program, &[], reg)?;
//! let (_, second) = rt.eval(&program, &[], reg)?;
//! assert_eq!(value.to_f64_vec(), vec![3.0; 100]);
//! assert!(!first.cache_hit && second.cache_hit);
//! assert_eq!(rt.stats().hit_rate(), 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod runtime;
mod stats;

pub use cache::EvalPlan;
pub use runtime::{EvalOutcome, Runtime, RuntimeBuilder};
pub use stats::{AuditCounters, RuntimeStats};
