//! Common-subexpression elimination over element-wise byte-codes.
//!
//! Two identical pure computations whose inputs are unchanged in between
//! compute the same tensor; the second becomes a `BH_IDENTITY` copy of the
//! first result (which copy-propagation and DCE then shrink further).

use crate::rule::{RewriteCtx, RewriteRule};
use bh_ir::{Instruction, Opcode, Operand, Program, Reg, ViewRef};
use bh_tensor::Scalar;
use std::collections::hash_map::{Entry, HashMap};

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CommonSubexpression;

impl RewriteRule for CommonSubexpression {
    fn name(&self) -> &'static str {
        "common-subexpression"
    }

    fn apply(&self, program: &mut Program, _ctx: &RewriteCtx) -> usize {
        let instrs = program.instrs();
        // expression -> the latest instruction that computed it without
        // being replaced. The entry `k -> d` is *available* at a later
        // instruction exactly while nothing after `d` has written a
        // register `k` reads or the register `d` writes; `last_def`
        // answers that at lookup time, so entries are never removed.
        let mut computed: HashMap<ExprKey<'_>, usize> = HashMap::new();
        // reg -> index of the latest instruction so far that writes it.
        let mut last_def: Vec<Option<usize>> = vec![None; program.bases().len()];
        let written_after = |last_def: &[Option<usize>], reg: Reg, idx: usize| {
            last_def[reg.index()].is_some_and(|k| k > idx)
        };
        // Copies to install once the scan (whose keys borrow the
        // instruction list) is over. A copy keeps its instruction's output
        // view, so deferring it changes nothing the scan reads.
        let mut copies: Vec<(usize, Instruction)> = Vec::new();

        for (idx, instr) in instrs.iter().enumerate() {
            if let (Some(key), Some(out)) = (ExprKey::of(instr), instr.out_view()) {
                match computed.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert(idx);
                    }
                    Entry::Occupied(mut slot) => {
                        let def = *slot.get();
                        let prev = &instrs[def];
                        let prev_out = prev.out_view().expect("recorded with an output");
                        let available = !written_after(&last_def, prev_out.reg, def)
                            && !prev.input_regs().any(|r| written_after(&last_def, r, def));
                        let same_dtype =
                            program.base(out.reg).dtype == program.base(prev_out.reg).dtype;
                        // Writing over one of our own inputs would also
                        // invalidate the availability; requiring a distinct
                        // output register keeps this simple and sound.
                        if available && same_dtype && out.reg != prev_out.reg {
                            // Replace the recomputation with a copy of the
                            // available value; `prev` stays the holder.
                            copies.push((
                                idx,
                                Instruction::unary(
                                    Opcode::Identity,
                                    out.clone(),
                                    Operand::View(prev_out.clone()),
                                ),
                            ));
                        } else {
                            slot.insert(idx);
                        }
                    }
                }
            }
            if let Some(w) = instr.out_reg() {
                last_def[w.index()] = Some(idx);
            }
        }

        let applied = copies.len();
        for (idx, copy) in copies {
            program.instrs_mut()[idx] = copy;
        }
        applied
    }
}

/// Structural identity of a pure element-wise computation: op-code plus
/// canonicalised input operands (sorted for commutative ops, so `a+b` and
/// `b+a` share a key). Borrows its views from the instruction it describes.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ExprKey<'a> {
    op: Opcode,
    inputs: Vec<OperandKey<'a>>,
}

#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum OperandKey<'a> {
    View(&'a ViewRef),
    Const(ConstKey),
}

/// A constant's identity within an expression: its *printed* value, the
/// equivalence byte-code text has. `1` of any integer dtype is one value
/// and `1.0` of either float width is another; every NaN is one value;
/// `0.0` and `-0.0` differ. Integral floats of magnitude ≥ 10¹⁵ print
/// without a fraction and therefore land on the integer of that value.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum ConstKey {
    Bool(bool),
    Int(i128),
    Float(u64),
}

impl ConstKey {
    fn of(c: Scalar) -> ConstKey {
        let float = |v: f64| {
            if v.is_nan() {
                ConstKey::Float(f64::NAN.to_bits())
            } else if v.fract() == 0.0 && (1e15..1e38).contains(&v.abs()) {
                ConstKey::Int(v as i128)
            } else {
                ConstKey::Float(v.to_bits())
            }
        };
        match c {
            Scalar::Bool(v) => ConstKey::Bool(v),
            Scalar::U8(v) => ConstKey::Int(v.into()),
            Scalar::U16(v) => ConstKey::Int(v.into()),
            Scalar::U32(v) => ConstKey::Int(v.into()),
            Scalar::U64(v) => ConstKey::Int(v.into()),
            Scalar::I8(v) => ConstKey::Int(v.into()),
            Scalar::I16(v) => ConstKey::Int(v.into()),
            Scalar::I32(v) => ConstKey::Int(v.into()),
            Scalar::I64(v) => ConstKey::Int(v.into()),
            Scalar::F32(v) => float(v.into()),
            Scalar::F64(v) => float(v),
        }
    }
}

impl<'a> ExprKey<'a> {
    /// `None` for non-elementwise or effectful instructions.
    fn of(instr: &'a Instruction) -> Option<ExprKey<'a>> {
        if !instr.op.is_elementwise() || instr.op == Opcode::Identity {
            return None;
        }
        // Exclude self-referencing computations (out aliases an input): their
        // value depends on the pre-instruction content, which the key cannot
        // capture.
        let out = instr.out_reg()?;
        if instr.reads(out) {
            return None;
        }
        let mut inputs: Vec<OperandKey<'a>> = instr
            .inputs()
            .iter()
            .map(|o| match o {
                Operand::View(v) => OperandKey::View(v),
                Operand::Const(c) => OperandKey::Const(ConstKey::of(*c)),
            })
            .collect();
        if instr.op.is_commutative() {
            inputs.sort_unstable();
        }
        Some(ExprKey {
            op: instr.op,
            inputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    fn run(text: &str) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = CommonSubexpression.apply(&mut p, &RewriteCtx::default());
        (p, n)
    }

    #[test]
    fn duplicate_computation_becomes_copy() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_MULTIPLY x [0:4:1] a a\n\
             BH_MULTIPLY y [0:4:1] a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY y x"), "{text}");
    }

    #[test]
    fn commutative_operands_match_in_either_order() {
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_IDENTITY b [0:4:1] 4\n\
             BH_ADD x [0:4:1] a b\n\
             BH_ADD y [0:4:1] b a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_IDENTITY y x"));
    }

    #[test]
    fn non_commutative_order_matters() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_IDENTITY b [0:4:1] 4\n\
             BH_SUBTRACT x [0:4:1] a b\n\
             BH_SUBTRACT y [0:4:1] b a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn intervening_write_invalidates() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_MULTIPLY x [0:4:1] a a\n\
             BH_ADD a a 1\n\
             BH_MULTIPLY y [0:4:1] a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn overwritten_result_invalidates() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_MULTIPLY x [0:4:1] a a\n\
             BH_IDENTITY x 0\n\
             BH_MULTIPLY y [0:4:1] a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn self_updates_never_keyed() {
        // a = a + 1 twice is NOT the same value twice.
        let (_, n) = run("BH_IDENTITY a [0:4:1] 0\n\
             BH_ADD a a 1\n\
             BH_ADD a a 1\n\
             BH_SYNC a\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn constants_participate_in_keys() {
        let (_, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_ADD x [0:4:1] a 1\n\
             BH_ADD y [0:4:1] a 2\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0); // different constants, different expressions
    }

    #[test]
    fn constants_are_keyed_by_printed_value() {
        // `1` of any integer dtype is one constant and `1.0` is another;
        // an integral float ≥ 10¹⁵ prints like (and keys with) the integer.
        let (p, n) = run(".base a f64[4] input\n\
             BH_ADD x [0:4:1] a 1\n\
             BH_ADD y [0:4:1] a 1u8\n\
             BH_ADD z [0:4:1] a 1.0\n\
             BH_ADD v [0:4:1] a 1e15\n\
             BH_ADD w [0:4:1] a 1000000000000000\n\
             BH_SYNC x\nBH_SYNC y\nBH_SYNC z\nBH_SYNC v\nBH_SYNC w\n");
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY y x"), "{text}");
        assert!(text.contains("BH_ADD z a 1.0"), "{text}");
        assert!(text.contains("BH_IDENTITY w v"), "{text}");
    }

    #[test]
    fn value_recomputed_after_invalidation_is_available_again() {
        // x = a+b dies with the write to a; y recomputes it and z (operands
        // swapped) copies y, never the stale x.
        let (p, n) = run("BH_IDENTITY a [0:4:1] 3\n\
             BH_IDENTITY b [0:4:1] 4\n\
             BH_ADD x [0:4:1] a b\n\
             BH_ADD a a 1\n\
             BH_ADD y [0:4:1] a b\n\
             BH_ADD z [0:4:1] b a\n\
             BH_SYNC x\nBH_SYNC y\nBH_SYNC z\n");
        assert_eq!(n, 1);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_IDENTITY z y"));
    }

    #[test]
    fn sliced_views_distinguish_expressions() {
        let (_, n) = run("BH_IDENTITY a [0:8:1] 3\n\
             BH_MULTIPLY x [0:4:1] a [0:4:1] a [0:4:1]\n\
             BH_MULTIPLY y [0:4:1] a [4:8:1] a [4:8:1]\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }
}
