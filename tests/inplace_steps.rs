//! In-place element-wise steps: an input that is the output's own run
//! (same base, same offset) compiles to a loop that reads and writes
//! through one pointer. Random programs of such steps — `a = a op c`,
//! `a = c op a`, `a = a op b`, `a = b op a`, `a = a op a`, in place on a
//! whole base and on an offset run `a[1:n-1]` — run on every leg of the
//! test matrix: the fusing engine's legs and the naive engine, whose
//! strided interpreter shares no loop with the compiled steps. The
//! results must agree bit for bit; any NaN matches any NaN. A second test
//! runs every same-dtype unary op-code in place on every dtype its type
//! rule admits.

use bohrium_repro::ir::{parse_program, OpKind};
use bohrium_repro::tensor::DType;
use bohrium_repro::testing::{check, Compare};
use common::gen::{arb_inplace_program, same_dtype_ops};
use proptest::prelude::*;

mod common;

fn check_engines_agree(text: &str) {
    check(
        &parse_program(text).expect("generated text parses"),
        41,
        Compare::Bits,
    );
}

const DTYPES: [DType; 11] = [
    DType::Bool,
    DType::UInt8,
    DType::UInt16,
    DType::UInt32,
    DType::UInt64,
    DType::Int8,
    DType::Int16,
    DType::Int32,
    DType::Int64,
    DType::Float32,
    DType::Float64,
];

proptest! {
    #[test]
    fn inplace_steps_equal_naive_on_f64(text in arb_inplace_program(DType::Float64)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_f32(text in arb_inplace_program(DType::Float32)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_i32(text in arb_inplace_program(DType::Int32)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_u8(text in arb_inplace_program(DType::UInt8)) {
        check_engines_agree(&text);
    }

    #[test]
    fn inplace_steps_equal_naive_on_bool(text in arb_inplace_program(DType::Bool)) {
        check_engines_agree(&text);
    }
}

/// `v[1:n-1] = v[1:n-1]·c` alone, and after a whole-base step: the
/// offset single, and the offset step that splits a group.
#[test]
fn offset_run_scaled_in_place() {
    for n in [3, 17, 4099] {
        let m = n - 1;
        check_engines_agree(&format!(
            ".base v f64[{n}] input\nBH_MULTIPLY v[1:{m}:1] v[1:{m}:1] 0.5\nBH_SYNC v\n"
        ));
        check_engines_agree(&format!(
            ".base v f64[{n}] input\nBH_ADD v v 1\n\
             BH_MULTIPLY v[1:{m}:1] v[1:{m}:1] 0.5\nBH_MULTIPLY v[1:{m}:1] v[1:{m}:1] v[1:{m}:1]\n\
             BH_SYNC v\n"
        ));
    }
}

/// Every same-dtype unary op-code, in place on every dtype its type rule
/// admits: alone on a whole base, twice in a fused group, and on an
/// offset run.
#[test]
fn every_same_dtype_unary_op_runs_in_place() {
    let n = 37;
    let m = n - 1;
    let mut ran = 0;
    for dtype in DTYPES {
        for op in same_dtype_ops(OpKind::ElementwiseUnary, dtype) {
            check_engines_agree(&format!(
                ".base a {dtype}[{n}] input\n.base b {dtype}[{n}] input\n.base c {dtype}[{n}] input\n\
                 {op} a a\nBH_SYNC a\n\
                 {op} b b\n{op} b b\nBH_SYNC b\n\
                 {op} c[1:{m}:1] c[1:{m}:1]\nBH_SYNC c\n"
            ));
            ran += 1;
        }
    }
    // Identity, absolute and sign on all 11 dtypes, 24 float-only op-codes
    // on two, invert on the 8 integers and bool, and on bool logical not
    // and the two predicates, whose bool output is their input's dtype.
    assert_eq!(ran, 3 * 11 + 24 * 2 + 9 + 3);
}
