//! Power ↔ multiply-chain transformations (Eq. 1 of the paper).
//!
//! [`PowerExpansion`] rewrites `BH_POWER out in n` (integral `n`) into the
//! optimal doubling/increment multiply schedule of [`crate::chains`],
//! honouring §3.1's constraint that only the origin and result registers
//! may be touched. "Bohrium … does power expansion by default, since
//! benchmarks have shown that for values close to a power of 2,
//! multiplying multiple times is faster than doing an actual BH_POWER"
//! (§4).
//!
//! [`MultiplyChainReroll`] is the "or vice versa" direction: a run of
//! multiplies recognised as computing `x^n` is re-rolled into one
//! `BH_POWER` — which [`PowerExpansion`] may then re-expand into a
//! *shorter* chain. Together they canonicalise Listing 4 (nine multiplies)
//! into the optimal four-multiply schedule.

use crate::chains::{optimal_chain, ChainStep};
use crate::rule::{reassoc_allowed, RewriteCtx, RewriteRule};
use bh_ir::{Instruction, Opcode, Operand, Program, ViewRef};
use bh_tensor::Scalar;

/// Expand `BH_POWER` with an integral exponent into multiplies. See the
/// module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct PowerExpansion;

impl RewriteRule for PowerExpansion {
    fn name(&self) -> &'static str {
        "power-expansion"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        if !program.instrs().iter().any(|i| i.op == Opcode::Power) {
            return 0;
        }
        // Rebuild the list in one pass: splicing each expansion into place
        // would move the whole tail once per BH_POWER.
        let mut applied = 0;
        let source = std::mem::take(program.instrs_mut());
        let mut rebuilt = Vec::with_capacity(source.len());
        for instr in source {
            match match_power(program, &instr, ctx) {
                Some(expansion) => {
                    rebuilt.extend(expansion);
                    applied += 1;
                }
                None => rebuilt.push(instr),
            }
        }
        *program.instrs_mut() = rebuilt;
        applied
    }
}

fn match_power(
    program: &Program,
    instr: &Instruction,
    ctx: &RewriteCtx,
) -> Option<Vec<Instruction>> {
    if instr.op != Opcode::Power {
        return None;
    }
    let out = instr.out_view()?.clone();
    let base = instr.inputs()[0].as_view()?.clone();
    let dtype = program.base(out.reg).dtype;
    // The VM casts constants into the element dtype before the op, so the
    // exponent must be read post-cast: `BH_POWER x 257` on u8 is x^1.
    let n = instr.inputs()[1].as_const()?.cast(dtype).as_integral()?;
    if n < 0 {
        return None; // reciprocal powers stay with the intrinsic
    }
    if !reassoc_allowed(ctx, dtype) {
        return None; // float chains round differently under strict IEEE
    }
    let n = n as u64;
    if n == 0 {
        // x^0 == 1 for every element (pow(0,0) == 1 in the VM and IEEE).
        return Some(vec![Instruction::unary(
            Opcode::Identity,
            out,
            Operand::Const(Scalar::one(dtype)),
        )]);
    }
    if n == 1 {
        return Some(vec![Instruction::unary(Opcode::Identity, out, base)]);
    }
    if out.reg == base.reg {
        // In-place x = x^n: the origin is destroyed by the first write, so
        // only pure-squaring schedules (n a power of two) are expressible
        // without the temporaries §3.1 rules out.
        if !n.is_power_of_two() || !program.same_elements(&out, &base) {
            return None;
        }
        let k = n.trailing_zeros() as usize;
        if k > ctx.max_power_multiplies {
            return None;
        }
        let sq = Instruction::binary(Opcode::Multiply, out.clone(), base.clone(), base);
        return Some(vec![sq; k]);
    }
    let chain = optimal_chain(n)?;
    if chain.multiplies() > ctx.max_power_multiplies {
        return None;
    }
    let mut seq = Vec::with_capacity(chain.multiplies());
    for step in &chain.steps {
        let (a, b) = match step {
            ChainStep::SquareOrigin => (base.clone(), base.clone()),
            ChainStep::SquareAcc => (out.clone(), out.clone()),
            ChainStep::MulOrigin => (out.clone(), base.clone()),
        };
        seq.push(Instruction::binary(Opcode::Multiply, out.clone(), a, b));
    }
    Some(seq)
}

/// Re-roll a recognised multiply chain back into one `BH_POWER`. Fires only
/// when the chain is *longer* than the optimal schedule for its exponent,
/// so expansion ∘ re-roll terminates (every fixpoint chain is optimal).
#[derive(Debug, Default, Clone, Copy)]
pub struct MultiplyChainReroll;

impl RewriteRule for MultiplyChainReroll {
    fn name(&self) -> &'static str {
        "multiply-chain-reroll"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        let mut applied = 0;
        let mut idx = 0;
        while idx < program.instrs().len() {
            if let Some((len, exponent)) = match_chain(program, idx, ctx) {
                let acc = program.instrs()[idx]
                    .out_view()
                    .expect("chain head is a multiply")
                    .clone();
                let origin = program.instrs()[idx].inputs()[0]
                    .as_view()
                    .expect("chain head reads the origin")
                    .clone();
                let dtype = program.base(acc.reg).dtype;
                program.instrs_mut()[idx] = Instruction::binary(
                    Opcode::Power,
                    acc,
                    origin,
                    Operand::Const(Scalar::from_i64(exponent as i64, dtype)),
                );
                for k in idx + 1..idx + len {
                    program.instrs_mut()[k] = Instruction::noop();
                }
                applied += 1;
                idx += len;
            } else {
                idx += 1;
            }
        }
        applied
    }
}

/// Match a maximal chain starting at `idx`: `acc = origin·origin` followed
/// by consecutive `acc = acc·acc` / `acc = acc·origin`. Returns
/// `(instruction_count, exponent)` when re-rolling strictly improves.
fn match_chain(program: &Program, idx: usize, ctx: &RewriteCtx) -> Option<(usize, u64)> {
    let instrs = program.instrs();
    let head = &instrs[idx];
    if head.op != Opcode::Multiply {
        return None;
    }
    let acc = head.out_view()?;
    let a = head.inputs()[0].as_view()?;
    let b = head.inputs()[1].as_view()?;
    // Head must be acc = origin · origin with acc ≠ origin.
    if a.reg == acc.reg || !program.same_elements(a, b) {
        return None;
    }
    let origin = a.clone();
    let dtype = program.base(acc.reg).dtype;
    if !reassoc_allowed(ctx, dtype) || program.base(origin.reg).dtype != dtype {
        return None;
    }
    let mut exponent: u64 = 2;
    let mut len = 1;
    for instr in &instrs[idx + 1..] {
        if instr.op != Opcode::Multiply {
            break;
        }
        let Some(out) = instr.out_view() else { break };
        if !program.same_elements(out, acc) {
            break;
        }
        let (Some(x), Some(y)) = (instr.inputs()[0].as_view(), instr.inputs()[1].as_view()) else {
            break;
        };
        let is_acc = |v: &ViewRef| program.same_elements(v, acc);
        let is_origin = |v: &ViewRef| program.same_elements(v, &origin);
        if is_acc(x) && is_acc(y) {
            exponent = exponent.checked_mul(2)?;
        } else if (is_acc(x) && is_origin(y)) || (is_origin(x) && is_acc(y)) {
            exponent = exponent.checked_add(1)?;
        } else {
            break;
        }
        len += 1;
    }
    // The emitted constant is cast into the element dtype by the VM: an
    // exponent the dtype cannot represent would silently wrap (257 → 1 in
    // u8, turning x²⁵⁷ into x¹), so the chain must stay unrolled.
    let encoded = i64::try_from(exponent).ok()?;
    if Scalar::from_i64(encoded, dtype).as_integral() != Some(encoded) {
        return None;
    }
    // Strict improvement only (termination of the expand/re-roll pair).
    // The greedy schedule is optimal (`chains` tests pin it to the exact
    // dynamic program) and costs O(log n); the exponent doubles with
    // every squaring in the run, so nothing here may be sized by it.
    let optimal = optimal_chain(exponent)?.multiplies() as u64;
    if len as u64 > optimal && optimal <= ctx.max_power_multiplies as u64 {
        Some((len, exponent))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{parse_program, PrintStyle};

    fn expand(text: &str) -> Program {
        let mut p = parse_program(text).unwrap();
        PowerExpansion.apply(&mut p, &RewriteCtx::default());
        p.compact();
        p
    }

    #[test]
    fn x_pow_10_expands_to_four_multiplies() {
        let p = expand(
            "BH_IDENTITY a0 [0:100:1] 2\n\
             BH_POWER a1 [0:100:1] a0 [0:100:1] 10\n\
             BH_SYNC a1\n",
        );
        assert_eq!(p.count_op(Opcode::Power), 0);
        assert_eq!(p.count_op(Opcode::Multiply), 4);
        // Chain structure: a1=a0·a0, a1=a1·a1, a1=a1·a0, a1=a1·a1.
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_MULTIPLY a1 a0 a0"), "{text}");
    }

    #[test]
    fn exponent_zero_and_one() {
        let p = expand(
            "BH_IDENTITY a0 [0:4:1] 3\n\
             BH_POWER a1 [0:4:1] a0 0\n\
             BH_POWER a2 [0:4:1] a0 1\n\
             BH_SYNC a1\nBH_SYNC a2\n",
        );
        assert_eq!(p.count_op(Opcode::Power), 0);
        assert_eq!(p.count_op(Opcode::Multiply), 0);
        assert_eq!(p.count_op(Opcode::Identity), 3);
    }

    #[test]
    fn in_place_power_of_two_expands_to_squarings() {
        let p = expand(
            "BH_IDENTITY a0 [0:4:1] 3\n\
             BH_POWER a0 a0 8\n\
             BH_SYNC a0\n",
        );
        assert_eq!(p.count_op(Opcode::Power), 0);
        assert_eq!(p.count_op(Opcode::Multiply), 3); // x²,x⁴,x⁸ in place
    }

    #[test]
    fn in_place_non_power_of_two_is_kept() {
        let p = expand(
            "BH_IDENTITY a0 [0:4:1] 3\n\
             BH_POWER a0 a0 10\n\
             BH_SYNC a0\n",
        );
        assert_eq!(p.count_op(Opcode::Power), 1);
    }

    #[test]
    fn negative_and_fractional_exponents_kept() {
        let p = expand(
            "BH_IDENTITY a0 [0:4:1] 3\n\
             BH_POWER a1 [0:4:1] a0 -2\n\
             BH_POWER a2 [0:4:1] a0 2.5\n\
             BH_SYNC a1\nBH_SYNC a2\n",
        );
        assert_eq!(p.count_op(Opcode::Power), 2);
    }

    #[test]
    fn exponent_budget_respected() {
        let mut p = parse_program(
            "BH_IDENTITY a0 [0:4:1] 2\n\
             BH_POWER a1 [0:4:1] a0 1000000\n\
             BH_SYNC a1\n",
        )
        .unwrap();
        let ctx = RewriteCtx {
            max_power_multiplies: 8,
            ..RewriteCtx::default()
        };
        assert_eq!(PowerExpansion.apply(&mut p, &ctx), 0);
        assert_eq!(p.count_op(Opcode::Power), 1);
    }

    #[test]
    fn strict_ieee_keeps_float_power() {
        let mut p = parse_program(
            "BH_IDENTITY a0 [0:4:1] 2\n\
             BH_POWER a1 [0:4:1] a0 10\n\
             BH_SYNC a1\n",
        )
        .unwrap();
        let strict = RewriteCtx {
            fast_math: false,
            ..RewriteCtx::default()
        };
        assert_eq!(PowerExpansion.apply(&mut p, &strict), 0);
        // ... but expands integer powers even under strict IEEE.
        let mut p = parse_program(
            ".base a0 i64[4]\n.base a1 i64[4]\n\
             BH_IDENTITY a0 2\n\
             BH_POWER a1 a0 10\n\
             BH_SYNC a1\n",
        )
        .unwrap();
        assert_eq!(PowerExpansion.apply(&mut p, &strict), 1);
    }

    #[test]
    fn exponent_wider_than_dtype_expands_post_cast() {
        // On u8 the VM casts 257 → 1, so `x^257` is really `x^1`: the
        // expansion must emit the identity, not a 257-chain.
        let p = expand(
            ".base a0 u8[4]\n.base a1 u8[4]\n\
             BH_IDENTITY a0 2\n\
             BH_POWER a1 a0 257\n\
             BH_SYNC a1\n",
        );
        assert_eq!(p.count_op(Opcode::Power), 0);
        assert_eq!(p.count_op(Opcode::Multiply), 0);
        assert_eq!(p.count_op(Opcode::Identity), 2);
    }

    #[test]
    fn reroll_keeps_chains_whose_exponent_wraps_in_dtype() {
        // A 256-long u8 multiply chain computes x^257; `BH_POWER a1 a0 257`
        // would wrap the constant to 1 in the VM. The re-roll must decline.
        let mut text = String::from(
            ".base a0 u8[4]\n.base a1 u8[4]\n\
             BH_IDENTITY a0 2\nBH_MULTIPLY a1 a0 a0\n",
        );
        for _ in 0..255 {
            text.push_str("BH_MULTIPLY a1 a1 a0\n");
        }
        text.push_str("BH_SYNC a1\n");
        let mut p = parse_program(&text).unwrap();
        assert_eq!(MultiplyChainReroll.apply(&mut p, &RewriteCtx::default()), 0);
        assert_eq!(p.count_op(Opcode::Power), 0);
    }

    #[test]
    fn listing4_rerolls_then_expands_to_optimal() {
        // Listing 4: x^10 as nine multiplies.
        let mut text = String::from("BH_IDENTITY a0 [0:100:1] 2\nBH_MULTIPLY a1 [0:100:1] a0 a0\n");
        for _ in 0..8 {
            text.push_str("BH_MULTIPLY a1 a1 a0\n");
        }
        text.push_str("BH_SYNC a1\n");
        let mut p = parse_program(&text).unwrap();
        let ctx = RewriteCtx::default();
        assert_eq!(MultiplyChainReroll.apply(&mut p, &ctx), 1);
        p.compact();
        assert_eq!(p.count_op(Opcode::Power), 1);
        assert_eq!(p.count_op(Opcode::Multiply), 0);
        // Now expansion produces the optimal 4-multiply schedule (one
        // better than the paper's Listing 5).
        assert_eq!(PowerExpansion.apply(&mut p, &ctx), 1);
        p.compact();
        assert_eq!(p.count_op(Opcode::Multiply), 4);
    }

    #[test]
    fn optimal_chain_is_a_reroll_fixpoint() {
        let mut p = parse_program(
            "BH_IDENTITY a0 [0:4:1] 2\n\
             BH_MULTIPLY a1 [0:4:1] a0 a0\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_MULTIPLY a1 a1 a0\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_SYNC a1\n",
        )
        .unwrap();
        assert_eq!(MultiplyChainReroll.apply(&mut p, &RewriteCtx::default()), 0);
    }

    #[test]
    fn unrelated_multiplies_not_rerolled() {
        let mut p = parse_program(
            "BH_IDENTITY a0 [0:4:1] 2\n\
             BH_IDENTITY b0 [0:4:1] 3\n\
             BH_MULTIPLY c0 [0:4:1] a0 b0\n\
             BH_MULTIPLY c0 c0 b0\n\
             BH_SYNC c0\n",
        )
        .unwrap();
        assert_eq!(MultiplyChainReroll.apply(&mut p, &RewriteCtx::default()), 0);
    }

    #[test]
    fn paper_listing5_rerolls_to_power() {
        // The paper's 5-multiply schedule is one worse than optimal, so the
        // re-roll fires and expansion re-emits the 4-multiply schedule.
        let mut p = parse_program(
            "BH_IDENTITY a0 [0:4:1] 2\n\
             BH_MULTIPLY a1 [0:4:1] a0 a0\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_MULTIPLY a1 a1 a1\n\
             BH_MULTIPLY a1 a1 a0\n\
             BH_MULTIPLY a1 a1 a0\n\
             BH_SYNC a1\n",
        )
        .unwrap();
        let ctx = RewriteCtx::default();
        assert_eq!(MultiplyChainReroll.apply(&mut p, &ctx), 1);
        p.compact();
        PowerExpansion.apply(&mut p, &ctx);
        p.compact();
        assert_eq!(p.count_op(Opcode::Multiply), 4);
    }
}
