//! Round-trip property tests: encode→decode is the identity on
//! `Container` values, and decode→encode is the identity on encoder
//! output. Generated programs are structurally arbitrary (any opcode,
//! dangling registers, zero-step slices, every dtype) — the container
//! layer must be faithful to whatever the IR can represent, not only to
//! verifiable programs.

use bh_container::Container;
use bh_ir::{Instruction, Operand, Program, Reg, ViewRef, ALL_OPCODES};
use bh_tensor::{Scalar, Shape, Slice, ALL_DTYPES};
use proptest::prelude::*;

type SliceSpec = (Option<i64>, Option<i64>, i64);
type OperandSpec = (usize, u64, Option<Vec<SliceSpec>>, usize, i64);
type InstrSpec = (usize, Vec<OperandSpec>);
type BaseSpec = (usize, Vec<u64>, usize);

fn arb_slice() -> impl Strategy<Value = SliceSpec> {
    (
        proptest::option::of(-8i64..9),
        proptest::option::of(-8i64..9),
        -3i64..4,
    )
}

/// An operand spec: tag selector, register, optional slices, const
/// dtype index, const value.
fn arb_operand() -> impl Strategy<Value = OperandSpec> {
    (
        0usize..2,
        0u64..8,
        proptest::option::of(proptest::collection::vec(arb_slice(), 0..3)),
        0usize..ALL_DTYPES.len(),
        -4i64..5,
    )
}

fn arb_instr() -> impl Strategy<Value = InstrSpec> {
    (
        0usize..ALL_OPCODES.len(),
        proptest::collection::vec(arb_operand(), 0..4),
    )
}

fn arb_base() -> impl Strategy<Value = BaseSpec> {
    (
        0usize..ALL_DTYPES.len(),
        proptest::collection::vec(1u64..6, 0..3),
        0usize..2,
    )
}

fn build_program(bases: Vec<BaseSpec>, instrs: Vec<InstrSpec>) -> Program {
    let mut p = Program::default();
    for (i, (dtype_idx, dims, input)) in bases.into_iter().enumerate() {
        let dims: Vec<usize> = dims.into_iter().map(|d| d as usize).collect();
        p.try_declare(
            &format!("r{i}"),
            ALL_DTYPES[dtype_idx],
            Shape::from(dims),
            input == 1,
        )
        .expect("generated names are unique");
    }
    for (op_idx, operands) in instrs {
        let operands = operands
            .into_iter()
            .map(|(tag, reg, slices, dtype_idx, value)| match tag {
                0 => {
                    let reg = Reg(reg as u32);
                    Operand::View(match slices {
                        None => ViewRef::full(reg),
                        Some(specs) => ViewRef::sliced(
                            reg,
                            specs
                                .into_iter()
                                .map(|(start, stop, step)| Slice::new(start, stop, step))
                                .collect(),
                        ),
                    })
                }
                _ => Operand::Const(Scalar::from_i64(value, ALL_DTYPES[dtype_idx])),
            })
            .collect();
        p.push(Instruction::new(ALL_OPCODES[op_idx], operands));
    }
    p
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(arb_base(), 0..5),
        proptest::collection::vec(arb_instr(), 0..8),
    )
        .prop_map(|(bases, instrs)| build_program(bases, instrs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn program_container_round_trips(program in arb_program()) {
        let c = Container::program(program);
        let bytes = c.encode();
        let back = Container::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &c);
        // Bit-identical re-encode: the format is canonical.
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn distinct_programs_encode_distinctly(a in arb_program(), b in arb_program()) {
        let ea = Container::program(a.clone()).encode();
        let eb = Container::program(b.clone()).encode();
        prop_assert_eq!(a == b, ea == eb);
    }
}

/// NaN payloads cannot use `Program` equality (`NaN != NaN`), so pin
/// them through byte identity instead: the scalar travels as its exact
/// bit pattern.
#[test]
fn nan_constants_are_bit_faithful() {
    for bits in [
        f64::NAN.to_bits(),
        0x7ff8_0000_dead_beef,
        (-0.0f64).to_bits(),
    ] {
        let mut p = Program::default();
        p.try_declare("x", bh_tensor::DType::Float64, Shape::vector(4), false)
            .unwrap();
        p.push(Instruction::new(
            bh_ir::Opcode::Identity,
            vec![
                Operand::full(Reg(0)),
                Operand::Const(Scalar::F64(f64::from_bits(bits))),
            ],
        ));
        let bytes = Container::program(p).encode();
        let back = Container::decode(&bytes).unwrap();
        let Some(Operand::Const(Scalar::F64(v))) = back.program.instrs()[0].operands.get(1) else {
            panic!("constant lost");
        };
        assert_eq!(v.to_bits(), bits);
        assert_eq!(back.encode(), bytes);
    }
}
