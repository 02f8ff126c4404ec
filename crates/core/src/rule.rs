//! The rewrite-rule abstraction.
//!
//! "A transformation can be thought of as a rewriting of elements from one
//! set to another" (§2). Each [`RewriteRule`] scans a program and replaces
//! byte-code sequences with cheaper equivalent ones, leaving `BH_NONE`
//! placeholders that the pass manager compacts away.

use bh_ir::{Liveness, Program, Reg};
use bh_tensor::DType;

/// What counts as observable at program exit, for liveness-based rules.
///
/// Marked `#[non_exhaustive]`: finer observability contracts (e.g. an
/// explicit register set) may be added; match with a wildcard arm outside
/// this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum LiveAtExit {
    /// Only values a `BH_SYNC` reads are observable (Bohrium's contract:
    /// the bridge syncs before touching data). Dead-store elimination may
    /// remove unsynced results.
    #[default]
    SyncedOnly,
    /// Every register is observable at exit; dead-store elimination only
    /// removes values that are provably overwritten.
    AllRegisters,
}

/// Shared configuration handed to every rule application.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RewriteCtx {
    /// Permit rewrites that can change floating-point rounding
    /// (re-association, constant merging, power expansion on floats).
    /// Bohrium applies these by default — the paper's Listing 3 merges
    /// f64 constants — so this defaults to `true`; set `false` for strict
    /// IEEE semantics, which restricts those rules to integer data.
    pub fast_math: bool,
    /// Upper bound on the multiply count a `BH_POWER` expansion may emit;
    /// larger exponents keep the intrinsic.
    pub max_power_multiplies: usize,
    /// Observability assumption for dead-code elimination.
    pub live_at_exit: LiveAtExit,
}

impl Default for RewriteCtx {
    fn default() -> RewriteCtx {
        RewriteCtx {
            fast_math: true,
            max_power_multiplies: 16,
            live_at_exit: LiveAtExit::SyncedOnly,
        }
    }
}

impl RewriteCtx {
    /// A backward [`Liveness`] cursor at the end of `program`, with what
    /// the [`LiveAtExit`] policy makes observable there.
    pub(crate) fn exit_liveness(&self, program: &Program) -> Liveness {
        let live_at_exit: Vec<Reg> = match self.live_at_exit {
            LiveAtExit::SyncedOnly => Vec::new(),
            LiveAtExit::AllRegisters => (0..program.bases().len() as u32).map(Reg).collect(),
        };
        Liveness::at_exit(program, &live_at_exit)
    }
}

/// One algebraic transformation over byte-code sequences.
pub trait RewriteRule {
    /// Stable, human-readable rule name (reported by the pass manager).
    fn name(&self) -> &'static str;

    /// Scan `program` once and apply every instance of the rewrite found,
    /// returning how many rewrites were performed. Implementations may
    /// leave `BH_NONE` placeholders; the pass manager compacts after each
    /// rule.
    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize;

    /// Lowering: rewrites that make byte-code cheaper to run but would hide
    /// a pattern another rule matches. The pass manager calls this once
    /// per run, after the fixpoint of [`RewriteRule::apply`], and counts
    /// what it returns against the rule. Defaults to no lowering.
    fn lower(&self, _program: &mut Program, _ctx: &RewriteCtx) -> usize {
        0
    }
}

impl std::fmt::Debug for dyn RewriteRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RewriteRule({})", self.name())
    }
}

/// True when a float-rounding-sensitive rewrite may fire for `dtype` under
/// the context's `fast_math` policy (always true for non-float data).
pub fn reassoc_allowed(ctx: &RewriteCtx, dtype: DType) -> bool {
    ctx.fast_math || !dtype.is_float()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_bohrium_behaviour() {
        let ctx = RewriteCtx::default();
        assert!(ctx.fast_math);
        assert_eq!(ctx.live_at_exit, LiveAtExit::SyncedOnly);
        assert!(ctx.max_power_multiplies >= 4); // enough for x^10
    }

    #[test]
    fn reassoc_gating() {
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        assert!(reassoc_allowed(&strict, DType::Int32));
        assert!(!reassoc_allowed(&strict, DType::Float64));
        assert!(reassoc_allowed(&RewriteCtx::default(), DType::Float64));
    }
}
