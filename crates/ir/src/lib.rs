//! # bh-ir — the descriptive vector byte-code IR
//!
//! The intermediate language of the reproduction of *Algebraic
//! Transformation of Descriptive Vector Byte-code Sequences* (Middleware
//! DS '16). A byte-code "consists of an op-code, e.g. `BH_ADD`, a result
//! register, and up to two parameter registers or constants" (paper §3);
//! this crate defines those instructions, the programs that sequence them,
//! a parser/printer for the paper's textual format, and the data-flow
//! analyses the transformation engine (`bh-opt`) builds on.
//!
//! # Example
//!
//! Parse Listing 2 of the paper and inspect it:
//!
//! ```
//! use bh_ir::{parse_program, Opcode, PrintStyle};
//!
//! let listing2 = "\
//! BH_IDENTITY a0 [0:10:1] 0
//! BH_ADD a0 [0:10:1] a0 [0:10:1] 1
//! BH_ADD a0 [0:10:1] a0 [0:10:1] 1
//! BH_ADD a0 [0:10:1] a0 [0:10:1] 1
//! BH_SYNC a0 [0:10:1]
//! ";
//! let program = parse_program(listing2)?;
//! assert_eq!(program.count_op(Opcode::Add), 3);
//! println!("{}", program.to_text(PrintStyle::COMPACT));
//! # Ok::<(), bh_ir::ParseError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affine;
pub mod analysis;
mod digest;
pub mod equiv;
mod fold;
mod instr;
mod opcode;
mod operand;
mod parse;
mod program;
pub mod semantics;
pub mod verify;

pub use analysis::{first_touch, DefUse, FirstTouch, Liveness};
pub use digest::{ProgramDigest, ProgramHandle};
pub use equiv::{check_equiv, EquivCode, EquivError, EquivOptions, EquivWitness};
pub use fold::const_eval;
pub use instr::Instruction;
pub use opcode::{OpKind, Opcode, OpcodeTypeError, ParseOpcodeError, TypeRule, ALL_OPCODES};
pub use operand::{Operand, Reg, ViewRef};
pub use parse::{parse_program, parse_program_with, ParseError, ParseOptions};
pub use program::{BaseDecl, PrintStyle, Program, ProgramBuilder};
pub use verify::{
    verify, verify_instr, verify_owned, verify_registers, Verified, VerifiedProgram, VerifyCode,
    VerifyError,
};
