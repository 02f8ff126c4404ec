//! Advisory byte-code lints (`W1xx`).
//!
//! [`Program::lint`] surfaces plan-quality findings the optimiser and
//! verifier deliberately leave alone: the verifier (`V` codes) rejects
//! malformed programs, the auditor (`A` codes) rejects unsound rewrites,
//! while a `W` warning never blocks anything — serving layers only count
//! them. The catalogue mirrors the stability rules of
//! [`crate::verify::VerifyCode`]: a variant's code string never changes.

use crate::analysis::Liveness;
use crate::opcode::{OpKind, Opcode};
use crate::operand::Operand;
use crate::program::Program;
use std::fmt;

/// Stable advisory warning codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// W100 — a write no later instruction (and no sync) ever observes.
    /// The optimiser's DCE removes these at `O1`+; at `O0`, or when the
    /// pipeline declined (all-registers-live policy), they linger.
    DeadStore,
    /// W101 — an `BH_IDENTITY` cast whose input was itself produced by a
    /// cast used nowhere else: the chain narrows or round-trips dtypes
    /// and could be a single conversion.
    RedundantCastChain,
    /// W102 — an element-wise op reads and writes overlapping but
    /// differently-laid-out views of one register: correct under the
    /// VM's serial semantics, but a hazard for any reordering backend.
    SelfAliasHazard,
    /// W103 — every input of a computational op is a constant; the result
    /// is compile-time known, yet the plan still evaluates it.
    ConstantCondition,
}

impl LintCode {
    /// Every code, for exhaustive catalogue tests and documentation.
    pub const ALL: [LintCode; 4] = [
        LintCode::DeadStore,
        LintCode::RedundantCastChain,
        LintCode::SelfAliasHazard,
        LintCode::ConstantCondition,
    ];

    /// The stable code string (`"W100"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::DeadStore => "W100",
            LintCode::RedundantCastChain => "W101",
            LintCode::SelfAliasHazard => "W102",
            LintCode::ConstantCondition => "W103",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One advisory finding, anchored to an instruction index.
///
/// `#[non_exhaustive]` so fields can grow without breaking downstream
/// constructors — build one with [`LintWarning::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct LintWarning {
    /// The stable code.
    pub code: LintCode,
    /// Index of the instruction the finding concerns.
    pub instr: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl LintWarning {
    /// A finding for `code` at instruction `instr`.
    pub fn new(code: LintCode, instr: usize, detail: impl Into<String>) -> LintWarning {
        LintWarning {
            code,
            instr,
            detail: detail.into(),
        }
    }

    /// The stable machine code (`"W100"`…), for wire protocols and logs
    /// that must not match on `Display` text.
    pub fn code(&self) -> &'static str {
        self.code.as_str()
    }
}

impl fmt::Display for LintWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at instruction {}: {}",
            self.code, self.instr, self.detail
        )
    }
}

// Advisory, but still an error type for uniform reporting chains
// (serving layers box findings behind one `dyn Error` surface).
impl std::error::Error for LintWarning {}

impl Program {
    /// Run the advisory lint catalogue over this program.
    ///
    /// Findings are ordered by instruction index, then code. Linting
    /// never fails and never rejects: callers at most count the result.
    pub fn lint(&self) -> Vec<LintWarning> {
        let mut out = Vec::new();
        let instrs = self.instrs();
        // One backward liveness walk marks the dead stores (synced-only
        // observation model); the forward pass below reports them in
        // instruction order with the other findings.
        let mut live = Liveness::at_exit(self, &[]);
        let mut dead_store = vec![false; instrs.len()];
        for (idx, instr) in instrs.iter().enumerate().rev() {
            dead_store[idx] = !live.write_is_live(instr);
            live.step_back(self, instr);
        }

        for (idx, instr) in instrs.iter().enumerate() {
            let op = instr.op;
            if op == Opcode::NoOp {
                continue;
            }

            // W100 — dead store under the synced-only observation model.
            if dead_store[idx] {
                let name = instr
                    .out_view()
                    .map(|v| self.base(v.reg).name.clone())
                    .unwrap_or_default();
                out.push(LintWarning {
                    code: LintCode::DeadStore,
                    instr: idx,
                    detail: format!("write to `{name}` is never observed ({op})"),
                });
            }

            // W101 — back-to-back casts through a single-use temporary.
            if op == Opcode::Identity {
                if let Some(w) = self.cast_chain(idx) {
                    out.push(w);
                }
            }

            // W102 — in-place through overlapping, different-layout views.
            if matches!(
                op.kind(),
                OpKind::ElementwiseUnary | OpKind::ElementwiseBinary
            ) {
                if let (Some(out_view), Ok(out_geom)) = (
                    instr.out_view(),
                    instr
                        .out_view()
                        .map_or_else(|| Err(()), |v| self.resolve_view(v).map_err(|_| ())),
                ) {
                    for input in instr.inputs() {
                        let Some(iv) = input.as_view() else { continue };
                        if iv.reg != out_view.reg {
                            continue;
                        }
                        let Ok(in_geom) = self.resolve_view(iv) else {
                            continue;
                        };
                        if !in_geom.same_layout(&out_geom) && in_geom.may_overlap(&out_geom) {
                            out.push(LintWarning {
                                code: LintCode::SelfAliasHazard,
                                instr: idx,
                                detail: format!(
                                    "`{}` is read and written through overlapping views \
                                     with different layouts ({op})",
                                    self.base(iv.reg).name
                                ),
                            });
                            break;
                        }
                    }
                }
            }

            // W103 — a computational op fed only by constants.
            if matches!(
                op.kind(),
                OpKind::ElementwiseUnary | OpKind::ElementwiseBinary
            ) && op != Opcode::Identity
                && !instr.inputs().is_empty()
                && instr
                    .inputs()
                    .iter()
                    .all(|o| matches!(o, Operand::Const(_)))
            {
                out.push(LintWarning {
                    code: LintCode::ConstantCondition,
                    instr: idx,
                    detail: format!(
                        "every input of {op} is a constant; result is compile-time known"
                    ),
                });
            }
        }
        out
    }

    /// W101 helper: `idx` is an `BH_IDENTITY`; does its view input come
    /// from another cast used only here?
    fn cast_chain(&self, idx: usize) -> Option<LintWarning> {
        let instrs = self.instrs();
        let instr = &instrs[idx];
        let out_view = instr.out_view()?;
        let in_view = instr.inputs().first()?.as_view()?;
        let out_dtype = self.base(out_view.reg).dtype;
        let mid_dtype = self.base(in_view.reg).dtype;
        if mid_dtype == out_dtype {
            return None; // a copy, not a cast
        }
        // Most recent def of the input register before idx.
        let def = instrs[..idx]
            .iter()
            .rposition(|i| i.out_view().is_some_and(|v| v.reg == in_view.reg))?;
        let def_instr = &instrs[def];
        if def_instr.op != Opcode::Identity {
            return None;
        }
        let src_view = def_instr.inputs().first()?.as_view()?;
        let src_dtype = self.base(src_view.reg).dtype;
        if src_dtype == mid_dtype {
            return None; // first hop is a copy
        }
        // The temporary must feed only this cast (no other reader, no sync).
        let sole_use = instrs
            .iter()
            .enumerate()
            .filter(|(j, i)| {
                *j != def
                    && i.inputs()
                        .iter()
                        .filter_map(Operand::as_view)
                        .any(|v| v.reg == in_view.reg)
            })
            .all(|(j, _)| j == idx);
        if !sole_use {
            return None;
        }
        Some(LintWarning {
            code: LintCode::RedundantCastChain,
            instr: idx,
            detail: format!(
                "cast chain {src_dtype} → {mid_dtype} → {out_dtype} through single-use `{}`",
                self.base(in_view.reg).name
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn lints(text: &str) -> Vec<LintCode> {
        parse_program(text)
            .unwrap()
            .lint()
            .into_iter()
            .map(|w| w.code)
            .collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let codes = lints("BH_ADD a0 [0:8:1] a0 [0:8:1] 1\nBH_SYNC a0\n");
        assert!(codes.is_empty(), "{codes:?}");
    }

    #[test]
    fn dead_store_is_w100() {
        // The second write is never synced nor read.
        let codes = lints("BH_IDENTITY a0 [0:8:1] 1\nBH_SYNC a0\nBH_ADD a0 a0 1\n");
        assert_eq!(codes, vec![LintCode::DeadStore]);
    }

    #[test]
    fn cast_chain_is_w101() {
        let text = "\
.base x f64[8] input
.base t f32[8]
.base y i32[8]
BH_IDENTITY t x
BH_IDENTITY y t
BH_SYNC y
";
        let codes = lints(text);
        assert!(codes.contains(&LintCode::RedundantCastChain), "{codes:?}");
    }

    #[test]
    fn cast_chain_spares_multi_use_temporaries() {
        let text = "\
.base x f64[8] input
.base t f32[8]
.base y i32[8]
BH_IDENTITY t x
BH_IDENTITY y t
BH_SYNC y
BH_SYNC t
";
        let codes = lints(text);
        assert!(!codes.contains(&LintCode::RedundantCastChain), "{codes:?}");
    }

    #[test]
    fn self_alias_hazard_is_w102() {
        // Shifted overlapping read/write windows of the same register.
        let codes =
            lints(".base v f64[8]\nBH_IDENTITY v 1\nBH_ADD v [1:5:1] v [0:4:1] 1\nBH_SYNC v\n");
        assert!(codes.contains(&LintCode::SelfAliasHazard), "{codes:?}");
    }

    #[test]
    fn in_place_same_layout_is_fine() {
        let codes = lints("BH_ADD a0 [0:8:1] a0 [0:8:1] 1\nBH_SYNC a0\n");
        assert!(!codes.contains(&LintCode::SelfAliasHazard), "{codes:?}");
    }

    #[test]
    fn constant_condition_is_w103() {
        let codes = lints(".base v f64[4]\nBH_ADD v 1 2\nBH_SYNC v\n");
        assert!(codes.contains(&LintCode::ConstantCondition), "{codes:?}");
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for code in LintCode::ALL {
            assert!(seen.insert(code.as_str()), "duplicate {code}");
            assert!(code.as_str().starts_with('W'));
        }
    }
}
