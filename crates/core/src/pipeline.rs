//! The pass manager: rule scheduling, fixpoint iteration and reporting.

use crate::rule::{LiveAtExit, RewriteCtx, RewriteRule};
use crate::rules::{
    AlgebraicSimplify, ConstantMerge, DeadCodeElimination, InverseSolveRewrite,
    MultiplyChainReroll, PowerExpansion, StrengthReduction, ValueNumbering,
};
use bh_ir::equiv::EquivOptions;
use bh_ir::Program;
use std::fmt;

/// Optimization level, LLVM-style.
///
/// Marked `#[non_exhaustive]`: levels between O1 and O2 (or above O2) may
/// be added; match with a wildcard arm outside this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[non_exhaustive]
pub enum OptLevel {
    /// No transformations.
    O0,
    /// The paper's headline rewrites plus clean-up: constant merging,
    /// identity simplification (self-copies included), dead-code
    /// elimination.
    O1,
    /// Everything: O1 + power expansion/re-roll, strength reduction, value
    /// numbering (copy propagation and CSE) and the context-aware linalg
    /// rewrite. Bohrium's default behaviour per §4.
    #[default]
    O2,
}

/// Options for [`Optimizer`].
///
/// A `bh_runtime::Runtime` optimises every plan under the one value it
/// was built with.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct OptOptions {
    /// Which rule set to run.
    pub level: OptLevel,
    /// Shared rewrite context (fast-math policy, expansion budget,
    /// observability).
    pub ctx: RewriteCtx,
}

impl OptOptions {
    /// Options at a given level with everything else default.
    pub fn level(level: OptLevel) -> OptOptions {
        OptOptions {
            level,
            ..OptOptions::default()
        }
    }

    /// Strict IEEE float semantics (disables re-associating rewrites on
    /// float data).
    pub fn strict_math(mut self) -> OptOptions {
        self.ctx.fast_math = false;
        self
    }

    /// Treat every register as observable at exit.
    pub fn observe_all(mut self) -> OptOptions {
        self.ctx.live_at_exit = LiveAtExit::AllRegisters;
        self
    }

    /// The [`EquivOptions`] matching this rewrite context: the audit must
    /// accept exactly the algebra the rules were allowed to assume.
    pub fn equiv_options(&self) -> EquivOptions {
        let opts = EquivOptions::default();
        let opts = if self.ctx.fast_math {
            opts
        } else {
            opts.strict_math()
        };
        match self.ctx.live_at_exit {
            LiveAtExit::SyncedOnly => opts,
            _ => opts.observe_all(),
        }
    }
}

/// Fixpoint bound: the most sweeps over the rule list one run makes.
const MAX_SWEEPS: usize = 8;

/// The transformation engine: applies a rule schedule to fixpoint.
///
/// # Examples
///
/// Optimise the paper's Listing 2 into Listing 3:
///
/// ```
/// use bh_ir::{parse_program, Opcode, PrintStyle};
/// use bh_opt::Optimizer;
///
/// let mut program = parse_program(
///     "BH_IDENTITY a0 [0:10:1] 0\n\
///      BH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
///      BH_SYNC a0\n")?;
/// let report = Optimizer::default().run(&mut program);
/// assert_eq!(program.count_op(Opcode::Add), 1);
/// assert!(report.total_applications() >= 2);
/// println!("{}", program.to_text(PrintStyle::COMPACT));
/// # Ok::<(), bh_ir::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Optimizer {
    options: OptOptions,
    rules: Vec<Box<dyn RewriteRule>>,
}

impl Default for Optimizer {
    fn default() -> Optimizer {
        Optimizer::new(OptOptions::default())
    }
}

impl Optimizer {
    /// Build the standard rule schedule for the options' level.
    pub fn new(options: OptOptions) -> Optimizer {
        let rules = standard_rules(options.level);
        Optimizer { options, rules }
    }

    /// An optimizer with a custom rule schedule.
    pub fn with_rules(options: OptOptions, rules: Vec<Box<dyn RewriteRule>>) -> Optimizer {
        Optimizer { options, rules }
    }

    /// The configured options.
    pub fn options(&self) -> &OptOptions {
        &self.options
    }

    /// Names of the scheduled rules, in application order.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Transform `program` in place and report what happened: sweeps of
    /// every rule's [`RewriteRule::apply`] to a fixpoint, then one sweep of
    /// every rule's [`RewriteRule::lower`].
    pub fn run(&self, program: &mut Program) -> OptReport {
        let mut by_rule: Vec<_> = self.rules.iter().map(|r| (r.name(), 0)).collect();
        let ctx = &self.options.ctx;
        // Compact after, and count, every application that changed the
        // program; true when one did.
        let mut record = |k: usize, n: usize, program: &mut Program| {
            if n > 0 {
                program.compact();
                by_rule[k].1 += n;
            }
            n > 0
        };
        let mut sweeps = 0;
        while sweeps < MAX_SWEEPS {
            let mut changed = false;
            for (k, rule) in self.rules.iter().enumerate() {
                changed |= record(k, rule.apply(program, ctx), program);
            }
            sweeps += 1;
            if !changed {
                break;
            }
        }
        for (k, rule) in self.rules.iter().enumerate() {
            record(k, rule.lower(program, ctx), program);
        }
        program.compact();
        OptReport {
            iterations: sweeps,
            by_rule,
        }
    }
}

/// The standard rule schedule at each level.
pub fn standard_rules(level: OptLevel) -> Vec<Box<dyn RewriteRule>> {
    match level {
        OptLevel::O0 => Vec::new(),
        OptLevel::O1 => vec![
            Box::new(ConstantMerge) as Box<dyn RewriteRule>,
            Box::new(AlgebraicSimplify),
            Box::new(DeadCodeElimination),
        ],
        OptLevel::O2 => vec![
            Box::new(MultiplyChainReroll) as Box<dyn RewriteRule>,
            Box::new(ConstantMerge),
            Box::new(AlgebraicSimplify),
            Box::new(StrengthReduction),
            Box::new(PowerExpansion),
            Box::new(ValueNumbering),
            Box::new(InverseSolveRewrite),
            Box::new(DeadCodeElimination),
        ],
    }
}

/// What an [`Optimizer::run`] did.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Fixpoint sweeps performed (the lowering sweep after them is not
    /// counted).
    pub iterations: usize,
    /// Applications per rule, in schedule order.
    pub by_rule: Vec<(&'static str, usize)>,
}

impl OptReport {
    /// The report of one sweep of an empty rule schedule — what
    /// [`OptLevel::O0`] returns: nothing fired. For callers that serve a
    /// program untransformed and owe its plan an honest report.
    pub fn untransformed() -> OptReport {
        OptReport {
            iterations: 1,
            by_rule: Vec::new(),
        }
    }

    /// Total rewrites applied across all rules.
    pub fn total_applications(&self) -> usize {
        self.by_rule.iter().map(|(_, n)| n).sum()
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "optimised in {} iteration(s)", self.iterations)?;
        for (name, n) in &self.by_rule {
            if *n > 0 {
                writeln!(f, "  {name}: {n}")?;
            }
        }
        Ok(())
    }
}

/// Convenience one-shot: optimise at O2 with defaults.
pub fn optimize(program: &mut Program) -> OptReport {
    Optimizer::default().run(program)
}

/// Convenience one-shot at a chosen level.
pub fn optimize_at(program: &mut Program, level: OptLevel) -> OptReport {
    Optimizer::new(OptOptions::level(level)).run(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, Opcode, PrintStyle};

    const LISTING2: &str = "\
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_ADD a0 [0:10:1] a0 [0:10:1] 1
BH_SYNC a0 [0:10:1]
";

    #[test]
    fn o0_is_a_no_op() {
        let mut p = parse_program(LISTING2).unwrap();
        let report = optimize_at(&mut p, OptLevel::O0);
        assert_eq!(report.total_applications(), 0);
        assert_eq!(p.instrs().len(), 5);
    }

    #[test]
    fn untransformed_report_is_the_single_sweep_o0_report() {
        let mut p = parse_program(LISTING2).unwrap();
        let ran = optimize_at(&mut p, OptLevel::O0);
        let direct = OptReport::untransformed();
        assert_eq!(direct.iterations, ran.iterations);
        assert_eq!(direct.by_rule, ran.by_rule);
    }

    #[test]
    fn o1_produces_listing3() {
        let mut p = parse_program(LISTING2).unwrap();
        let report = optimize_at(&mut p, OptLevel::O1);
        assert_eq!(p.count_op(Opcode::Add), 1);
        assert_eq!(p.instrs().len(), 3);
        assert!(report.total_applications() >= 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a0 a0 3"), "{text}");
    }

    #[test]
    fn o2_pipeline_reaches_fixpoint() {
        let mut p = parse_program(LISTING2).unwrap();
        let report = optimize(&mut p);
        // One extra sweep confirms the fixpoint: running again changes
        // nothing.
        let report2 = optimize(&mut p);
        assert_eq!(report2.total_applications(), 0);
        assert!(report.iterations <= 8);
    }

    #[test]
    fn full_pipeline_on_combined_workload() {
        // Mixes all three paper transformations in one program.
        let mut p = parse_program(
            ".base m f64[8,8] input
.base rhs f64[8] input
.base t f64[8,8]
.base x f64[8]
.base v f64[64]
.base w f64[64]
BH_IDENTITY v 0
BH_ADD v v 1
BH_ADD v v 1
BH_ADD v v 1
BH_POWER w v 10
BH_INVERSE t m
BH_MATMUL x t rhs
BH_SYNC w
BH_SYNC x
",
        )
        .unwrap();
        let report = optimize(&mut p);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD v v 3"), "{text}");
        assert_eq!(p.count_op(Opcode::Power), 0, "{text}");
        assert_eq!(p.count_op(Opcode::Multiply), 4, "{text}");
        assert!(text.contains("BH_SOLVE x m rhs"), "{text}");
        assert!(report.total_applications() >= 4);
    }

    #[test]
    fn report_display_lists_fired_rules() {
        let mut p = parse_program(LISTING2).unwrap();
        let report = optimize(&mut p);
        let text = report.to_string();
        assert!(text.starts_with("optimised in 2 iteration(s)\n"), "{text}");
        assert!(text.contains("  constant-merge: "), "{text}");
    }

    #[test]
    fn optimizer_exposes_schedule() {
        let names = Optimizer::default().rule_names();
        assert!(names.contains(&"power-expansion"));
        assert!(names.contains(&"inverse-solve"));
        let o1 = Optimizer::new(OptOptions::level(OptLevel::O1)).rule_names();
        assert!(!o1.contains(&"power-expansion"));
    }

    #[test]
    fn strict_math_options() {
        let mut p = parse_program(LISTING2).unwrap();
        let report = Optimizer::new(OptOptions::default().strict_math()).run(&mut p);
        // f64 adds cannot merge under strict IEEE; DCE keeps synced value.
        assert_eq!(p.count_op(Opcode::Add), 3);
        let _ = report;
    }

    #[test]
    fn observe_all_keeps_unsynced_results() {
        let mut p =
            parse_program("BH_IDENTITY a [0:4:1] 1\nBH_IDENTITY b [0:4:1] 2\nBH_SYNC a\n").unwrap();
        Optimizer::new(OptOptions::default().observe_all()).run(&mut p);
        assert_eq!(p.instrs().len(), 3);
    }
}
