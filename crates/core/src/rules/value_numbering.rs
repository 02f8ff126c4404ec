//! Local value numbering: copy propagation, common-subexpression
//! elimination and redundant-store elision from one forward table.
//!
//! Every register carries the value number (VN) of its whole contents;
//! registers with one VN hold equal tensors, whatever their names. A full
//! read moves to a register that currently holds its VN (copy
//! propagation), a binary op reading a fill contracts as in
//! `algebraic-simplify` ([`contract`]), a recomputation becomes a copy of
//! a view that still holds it (CSE), and a full write of the VN its
//! register already holds becomes `BH_NONE`. DESIGN.md §6 states how
//! writes are numbered and the availability invariant.

use crate::rule::{RewriteCtx, RewriteRule};
use crate::rules::identity::contract;
use bh_ir::equiv::FxBuild;
use bh_ir::{Instruction, OpKind, Opcode, Operand, Program, ViewRef};
use bh_tensor::{DType, Scalar, Shape, Slice};
use std::collections::HashMap;

/// See the module documentation.
#[derive(Debug, Default, Clone, Copy)]
pub struct ValueNumbering;

type Vn = u32;

/// A value: a view holding it with the VN its register had then, and the
/// constant every element is, for a fill.
#[derive(Default)]
struct Value {
    holder: Option<(ViewRef, Vn)>,
    fill: Option<Scalar>,
}

/// What an element-wise op or a full fill stores: op-code, output dtype
/// and shape, inputs. A fill is keyed as the `BH_IDENTITY` of its constant
/// cast to the output dtype, so no computed key is ever a fill's.
#[derive(PartialEq, Eq, Hash)]
struct Key(Opcode, DType, u32, [Input; 2]);

#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Input {
    Absent,
    Const(ConstKey),
    /// A register's VN and the view's slices (`None` when full).
    View(Vn, Option<Vec<Slice>>),
}

/// A constant by its *printed* value: `1` of any integer dtype is one
/// value and `1.0` of either float width another; every NaN is one value;
/// `0.0` and `-0.0` differ; integral floats of magnitude ≥ 10¹⁵ print, and
/// key, as that integer.
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
enum ConstKey {
    Bool(bool),
    Int(i128),
    Float(u64),
}

impl ConstKey {
    fn of(c: Scalar) -> ConstKey {
        let v = c.as_f64();
        let prints_integral = v.fract() == 0.0 && (1e15..1e38).contains(&v.abs());
        match c {
            Scalar::Bool(b) => ConstKey::Bool(b),
            Scalar::U64(u) => ConstKey::Int(u.into()),
            Scalar::F32(_) | Scalar::F64(_) if v.is_nan() => ConstKey::Float(f64::NAN.to_bits()),
            Scalar::F32(_) | Scalar::F64(_) if prints_integral => ConstKey::Int(v as i128),
            Scalar::F32(_) | Scalar::F64(_) => ConstKey::Float(v.to_bits()),
            _ => ConstKey::Int(c.as_integral().expect("fits i64").into()),
        }
    }
}

struct Table {
    /// Register → the VN of its whole contents.
    vn: Vec<Vn>,
    /// VN → what is known of it.
    values: Vec<Value>,
    keys: HashMap<Key, Vn, FxBuild>,
    /// Shapes by number, so a key carries no vector, and the number of
    /// each register's base shape.
    shapes: HashMap<Shape, u32, FxBuild>,
    reg_shape: Vec<u32>,
}

impl Table {
    fn fresh(&mut self) -> Vn {
        self.values.push(Value::default());
        (self.values.len() - 1) as Vn
    }

    fn intern(&mut self, key: Key) -> Vn {
        let values = &mut self.values;
        *self.keys.entry(key).or_insert_with(|| {
            values.push(Value::default());
            (values.len() - 1) as Vn
        })
    }

    fn shape_id(&mut self, shape: Shape) -> u32 {
        let next = self.shapes.len() as u32;
        *self.shapes.entry(shape).or_insert(next)
    }

    /// The current holder of `v`, and whether it is a whole register.
    fn holder(&self, v: Vn) -> Option<(&ViewRef, bool)> {
        let (view, stamp) = self.values[v as usize].holder.as_ref()?;
        (self.vn[view.reg.index()] == *stamp).then_some((view, *stamp == v))
    }

    /// Move the full-view inputs of instruction `idx` to the current full
    /// holders of their values, returning how many moved. An input lands on
    /// the output's register only in the in-place element-wise form, the
    /// one aliasing the engines define.
    fn route_reads(&mut self, program: &mut Program, idx: usize) -> usize {
        let instr = &program.instrs()[idx];
        let Some(out) = instr.out_view() else {
            return 0;
        };
        let out_reg = out.reg;
        let in_place = instr.op.is_elementwise() && program.is_full_view(out);
        let mut routed = 0;
        for k in 1..instr.operands.len() {
            let Operand::View(v) = &program.instrs()[idx].operands[k] else {
                continue;
            };
            let (reg, value) = (v.reg, self.vn[v.reg.index()]);
            let to = match self.holder(value) {
                None => {
                    self.values[value as usize].holder = Some((ViewRef::full(reg), value));
                    continue;
                }
                Some((h, true)) if h.reg != reg && (h.reg != out_reg || in_place) => h.reg,
                Some(_) => continue,
            };
            if program.is_full_view(v) {
                program.instrs_mut()[idx].operands[k] = Operand::full(to);
                routed += 1;
            }
        }
        routed
    }

    /// What element-wise binary instruction `idx` contracts to when one
    /// input reads a fill and the other a view of the fill's dtype.
    fn contracted(&self, program: &Program, idx: usize, ctx: &RewriteCtx) -> Option<Instruction> {
        let instr = &program.instrs()[idx];
        if instr.op.kind() != OpKind::ElementwiseBinary {
            return None;
        }
        let inputs = instr.inputs();
        let (a, b) = (inputs.first()?.as_view()?, inputs.get(1)?.as_view()?);
        let fill = |v: &ViewRef| self.values[self.vn[v.reg.index()] as usize].fill;
        let (k, c, other) = match (fill(a), fill(b)) {
            (Some(c), None) => (0, c, b),
            (None, Some(c)) => (1, c, a),
            _ => return None,
        };
        (program.base(other.reg).dtype == c.dtype())
            .then(|| contract(program, instr, &inputs[1 - k], k, c, ctx))?
    }

    /// The VN instruction `idx` stores through its (`full`) output, and
    /// whether it is computed, so that a copy of a holder may replace it;
    /// `None` when the rule cannot name it.
    fn value_of(&mut self, program: &Program, idx: usize, full: bool) -> Option<(Vn, bool)> {
        let instr = &program.instrs()[idx];
        let out = instr.out_view()?;
        let dtype = program.base(out.reg).dtype;
        let mut inputs = [Input::Absent, Input::Absent];
        let fill = match (instr.op, instr.inputs()) {
            (Opcode::Identity, [Operand::View(a)]) => {
                let (from, to) = (program.base(a.reg), program.base(out.reg));
                let copy = full && from.dtype == to.dtype && from.shape == to.shape;
                return (copy && program.is_full_view(a)).then(|| (self.vn[a.reg.index()], false));
            }
            (Opcode::Identity, [Operand::Const(c)]) if full => {
                let c = c.cast(dtype);
                inputs[0] = Input::Const(ConstKey::of(c));
                Some(c)
            }
            (op, operands)
                if op.is_elementwise() && op != Opcode::Identity && operands.len() <= 2 =>
            {
                for (slot, o) in inputs.iter_mut().zip(operands) {
                    *slot = match o {
                        Operand::Const(c) => Input::Const(ConstKey::of(*c)),
                        Operand::View(v) => {
                            let slices = (!program.is_full_view(v)).then(|| v.slices.clone());
                            Input::View(self.vn[v.reg.index()], slices.flatten())
                        }
                    };
                }
                if op.is_commutative() {
                    inputs.sort_unstable();
                }
                None
            }
            _ => return None,
        };
        let shape = match out.slices {
            None => self.reg_shape[out.reg.index()],
            Some(_) => self.shape_id(program.resolve_view(out).ok()?.shape()),
        };
        let v = self.intern(Key(instr.op, dtype, shape, inputs));
        self.values[v as usize].fill = fill;
        Some((v, fill.is_none()))
    }

    /// Number the write of instruction `idx`: `BH_NONE` when it stores
    /// what its register already holds, a copy of a current holder when it
    /// recomputes one. Returns the rewrites made.
    fn write(&mut self, program: &mut Program, idx: usize) -> usize {
        let Some(out) = program.instrs()[idx].out_view().cloned() else {
            return 0;
        };
        let (w, full) = (out.reg.index(), program.is_full_view(&out));
        let value = self.value_of(program, idx, full);
        let mut rewritten = 0;
        match value {
            Some((v, _)) if full && self.vn[w] == v => {
                program.instrs_mut()[idx] = Instruction::noop();
                return 1;
            }
            Some((v, true)) => {
                if let Some((h, _)) = self.holder(v).filter(|(h, _)| h.reg != out.reg) {
                    let copy = Instruction::unary(Opcode::Identity, out.clone(), h.clone());
                    program.instrs_mut()[idx] = copy;
                    rewritten = 1;
                }
            }
            _ => {}
        }
        self.vn[w] = match value {
            Some((v, _)) if full => v,
            _ => self.fresh(),
        };
        if let Some((v, _)) = value.filter(|&(v, _)| self.holder(v).is_none()) {
            self.values[v as usize].holder = Some((out, self.vn[w]));
        }
        rewritten
    }
}

impl RewriteRule for ValueNumbering {
    fn name(&self) -> &'static str {
        "value-numbering"
    }

    fn apply(&self, program: &mut Program, ctx: &RewriteCtx) -> usize {
        // Every register starts with a VN of its own: its input data, or
        // zeros the rule does not name. An instruction adds at most one VN.
        let (n, len) = (program.bases().len(), program.instrs().len());
        let mut table = Table {
            vn: (0..n as Vn).collect(),
            values: Vec::with_capacity(n + len),
            keys: HashMap::with_capacity_and_hasher(len, FxBuild::default()),
            shapes: HashMap::default(),
            reg_shape: Vec::new(),
        };
        table.values.resize_with(n, Value::default);
        table.reg_shape = program
            .bases()
            .iter()
            .map(|b| table.shape_id(b.shape.clone()))
            .collect();
        let mut applied = 0;
        for idx in 0..program.instrs().len() {
            let instr = &program.instrs()[idx];
            if instr.op.kind() == OpKind::System {
                let target = instr.operands.first().and_then(Operand::as_view);
                if let (Opcode::Free, Some(v)) = (instr.op, target) {
                    table.vn[v.reg.index()] = table.fresh();
                }
                continue;
            }
            applied += table.route_reads(program, idx);
            if let Some(contracted) = table.contracted(program, idx, ctx) {
                program.instrs_mut()[idx] = contracted;
                applied += 1;
            }
            applied += table.write(program, idx);
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::{check_equiv, parse_program, EquivOptions, PrintStyle};

    fn run(text: &str) -> (Program, usize) {
        let mut p = parse_program(text).unwrap();
        let n = ValueNumbering.apply(&mut p, &RewriteCtx::default());
        p.compact();
        (p, n)
    }

    #[test]
    fn copy_then_recompute_is_caught_in_one_sweep() {
        let src = ".base a f64[4] input\n.base c f64[4] input\n\
             BH_MULTIPLY x [0:4:1] a c\nBH_IDENTITY b [0:4:1] a\nBH_MULTIPLY y [0:4:1] b c\n\
             BH_SYNC x\nBH_SYNC y\n";
        let (p, n) = run(src);
        // y's read of b routed to a, and the recomputation copies x.
        assert_eq!(n, 2);
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_IDENTITY y x"), "{text}");
        check_equiv(&parse_program(src).unwrap(), &p, &EquivOptions::default()).unwrap();
    }

    #[test]
    fn freed_holder_stays_unmerged() {
        let (p, n) = run(".base a f64[4] input\n\
             BH_MULTIPLY x [0:4:1] a a\nBH_SYNC x\nBH_FREE x\nBH_MULTIPLY y [0:4:1] a a\nBH_SYNC y\n");
        assert_eq!(n, 0);
        assert_eq!(p.count_op(Opcode::Multiply), 2);
    }

    #[test]
    fn input_written_between_stays_unmerged() {
        let (_, n) = run(".base a f64[4] input\n\
             BH_MULTIPLY x [0:4:1] a a\nBH_ADD a a 1\nBH_MULTIPLY y [0:4:1] a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn outputs_of_different_dtypes_keep_different_values() {
        // One expression into f64 and into f32: had both the same VN, the
        // f32 read would route to the f64 register.
        let (p, n) = run(
            ".base a f64[4] input\n.base x f64[4]\n.base y f32[4]\n.base s f32[4]\n\
             BH_SQRT x a\nBH_SQRT y a\nBH_ADD s y 1\nBH_SYNC x\nBH_SYNC s\n",
        );
        assert_eq!(n, 0);
        assert_eq!(p.count_op(Opcode::Sqrt), 2);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_ADD s y 1"));
    }

    #[test]
    fn a_sliced_output_holds_its_value() {
        let src = ".base a f64[4] input\n.base x f64[8]\n.base y f64[4]\n\
             BH_MULTIPLY x [2:6:1] a a\nBH_MULTIPLY y a a\nBH_SYNC x\nBH_SYNC y\n";
        let (p, n) = run(src);
        assert_eq!(n, 1);
        let text = p.to_text(PrintStyle::FULL);
        assert!(text.contains("BH_IDENTITY y [0:4:1] x [2:6:1]"), "{text}");
        check_equiv(&parse_program(src).unwrap(), &p, &EquivOptions::default()).unwrap();
        // A write to the holder's register ends its availability.
        let (_, n) = run(".base a f64[4] input\n.base x f64[8]\n.base y f64[4]\n\
             BH_MULTIPLY x [2:6:1] a a\nBH_IDENTITY x [0:2:1] 0\nBH_MULTIPLY y a a\n\
             BH_SYNC x\nBH_SYNC y\n");
        assert_eq!(n, 0);
    }

    #[test]
    fn storing_the_value_a_register_holds_is_dropped() {
        let (p, n) = run(".base a f64[4] input\n.base b f64[4]\n\
             BH_IDENTITY b a\nBH_ADD c [0:4:1] b 1\nBH_IDENTITY b a\nBH_SYNC b\nBH_SYNC c\n");
        // c's read routed to a, and the second copy stores b's own value.
        assert_eq!(n, 2);
        assert_eq!(p.count_op(Opcode::Identity), 1);
    }

    #[test]
    fn a_read_never_routes_into_a_non_elementwise_output() {
        // t copies x, whose value outlived m; routing the matmul's read of
        // t to x would make its output alias its input.
        let (p, n) = run(".base m f64[4,4] input\n.base w f64[4,4] input\n\
             .base x f64[4,4]\n.base t f64[4,4]\n\
             BH_IDENTITY x m\nBH_FREE m\nBH_IDENTITY t x\nBH_MATMUL x t w\nBH_SYNC x\n");
        assert_eq!(n, 0);
        assert!(p.to_text(PrintStyle::COMPACT).contains("BH_MATMUL x t w"));
    }
}
