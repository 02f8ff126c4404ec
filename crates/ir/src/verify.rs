//! The byte-code verifier: abstract interpretation over programs, run
//! once at admission/plan-build time.
//!
//! [`verify`] walks a [`Program`] with a per-register abstract state
//! (initialised? freed?) while checking every instruction against the
//! full rule catalogue — operand arity and kind, view resolution and
//! bounds, dtype agreement and legal casts, reduction/scan axis and
//! shape rules, linalg dimension rules, in-place aliasing hazards,
//! def-before-use and use-after-`BH_FREE`. Every failure carries a
//! **stable machine-readable code** ([`VerifyCode`], `V###` in the style
//! of JVM/IronPLC verifier rule tables) so untrusted submissions can be
//! rejected with an actionable, grep-able reason; *all* problems are
//! collected, never just the first.
//!
//! A successful pass mints a witness — [`VerifiedProgram`] (borrowed) or
//! [`Verified`] (owned) — whose only constructors are the verifier
//! itself. Holding the witness *is* the proof: downstream engines may
//! skip per-run re-validation (`bh_vm::Vm::run_verified`) and demote
//! their per-instruction checks to debug assertions, because the witness
//! cannot name a program that did not pass (neither type exposes mutable
//! access to the wrapped program).
//!
//! # Example
//!
//! ```
//! use bh_ir::{parse_program, verify, VerifyCode};
//!
//! let good = parse_program("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n")?;
//! assert!(verify(&good).is_ok());
//!
//! // Reads `a` before anything wrote it: rejected with a stable code.
//! let bad = parse_program("BH_ADD a [0:4:1] a [0:4:1] 1\n")?;
//! let errors = verify(&bad).unwrap_err();
//! assert_eq!(errors[0].code, VerifyCode::ReadBeforeWrite);
//! assert_eq!(errors[0].code.as_str(), "V200");
//! # Ok::<(), bh_ir::ParseError>(())
//! ```

use crate::instr::Instruction;
use crate::opcode::{OpKind, Opcode, TypeRule};
use crate::operand::Operand;
use crate::program::Program;
use bh_tensor::{DType, Shape, ViewGeom};
use std::fmt;
use std::ops::Deref;

/// Stable machine-readable verifier rule codes.
///
/// Codes are grouped by hundreds, mirroring the rule-table conventions
/// of byte-code verifier specifications: `V1xx` structural validity,
/// `V2xx` register data-flow, `V3xx` dtype rules, `V4xx` shape rules,
/// `V5xx` aliasing rules. The numeric string ([`VerifyCode::as_str`]) is
/// part of the public contract: codes never change meaning, new rules
/// get new numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyCode {
    /// V100 — instruction has the wrong number of operands for its
    /// op-code.
    BadArity,
    /// V101 — the result (or system-op target) operand is a constant
    /// where a view is required.
    OutputNotView,
    /// V102 — an input operand is a constant where the op-code requires
    /// a view (reduction/scan inputs, linalg operands).
    NonViewOperand,
    /// V103 — a view operand does not resolve against its base (too many
    /// slices for the base rank, zero-step slice).
    BadView,
    /// V104 — a view's slice indices or resolved address range fall
    /// outside its base's extent (`offset + stride*(n-1)` must stay
    /// below the base element count).
    ViewOutOfBounds,
    /// V200 — a register is read before any instruction writes it and it
    /// is not declared `input`.
    ReadBeforeWrite,
    /// V201 — a register is used (read, written or re-freed) after
    /// `BH_FREE` released it.
    UseAfterFree,
    /// V300 — the op-code does not support the input dtype.
    UnsupportedDType,
    /// V301 — two view inputs of one instruction carry different dtypes
    /// (the IR requires explicit `BH_IDENTITY` casts).
    InputDTypeMismatch,
    /// V302 — the output dtype does not match the op-code's result
    /// dtype.
    OutputDTypeMismatch,
    /// V303 — a reduction's output dtype is not the input's accumulator
    /// dtype.
    ReduceDTypeMismatch,
    /// V304 — a linalg op-code received a non-float operand.
    NonFloatOperand,
    /// V305 — `BH_RANDOM`'s seed operand is not an integral constant.
    BadSeed,
    /// V400 — an element-wise input shape does not broadcast to the
    /// output shape.
    BroadcastMismatch,
    /// V401 — a reduction's output shape is not the input shape with the
    /// reduced axis removed.
    ReduceShapeMismatch,
    /// V402 — a scan's output shape differs from its input shape.
    ScanShapeMismatch,
    /// V403 — a reduction/scan axis operand is not a constant
    /// non-negative integer within the input's rank.
    BadAxis,
    /// V404 — linalg dimension rules violated (inner dimensions, square
    /// matrices, output extents).
    LinalgShapeMismatch,
    /// V500 — the output view aliases an input view of the same base in
    /// a way the engines do not define (partial element-wise overlap,
    /// reduction/linalg output overlapping an input).
    AliasedOutput,
}

impl VerifyCode {
    /// Every code, in numeric order (rule-catalogue iteration, corpus
    /// coverage tests).
    pub const ALL: [VerifyCode; 19] = [
        VerifyCode::BadArity,
        VerifyCode::OutputNotView,
        VerifyCode::NonViewOperand,
        VerifyCode::BadView,
        VerifyCode::ViewOutOfBounds,
        VerifyCode::ReadBeforeWrite,
        VerifyCode::UseAfterFree,
        VerifyCode::UnsupportedDType,
        VerifyCode::InputDTypeMismatch,
        VerifyCode::OutputDTypeMismatch,
        VerifyCode::ReduceDTypeMismatch,
        VerifyCode::NonFloatOperand,
        VerifyCode::BadSeed,
        VerifyCode::BroadcastMismatch,
        VerifyCode::ReduceShapeMismatch,
        VerifyCode::ScanShapeMismatch,
        VerifyCode::BadAxis,
        VerifyCode::LinalgShapeMismatch,
        VerifyCode::AliasedOutput,
    ];

    /// The stable `V###` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyCode::BadArity => "V100",
            VerifyCode::OutputNotView => "V101",
            VerifyCode::NonViewOperand => "V102",
            VerifyCode::BadView => "V103",
            VerifyCode::ViewOutOfBounds => "V104",
            VerifyCode::ReadBeforeWrite => "V200",
            VerifyCode::UseAfterFree => "V201",
            VerifyCode::UnsupportedDType => "V300",
            VerifyCode::InputDTypeMismatch => "V301",
            VerifyCode::OutputDTypeMismatch => "V302",
            VerifyCode::ReduceDTypeMismatch => "V303",
            VerifyCode::NonFloatOperand => "V304",
            VerifyCode::BadSeed => "V305",
            VerifyCode::BroadcastMismatch => "V400",
            VerifyCode::ReduceShapeMismatch => "V401",
            VerifyCode::ScanShapeMismatch => "V402",
            VerifyCode::BadAxis => "V403",
            VerifyCode::LinalgShapeMismatch => "V404",
            VerifyCode::AliasedOutput => "V500",
        }
    }
}

impl fmt::Display for VerifyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verifier finding: which rule fired, where, and why.
///
/// `#[non_exhaustive]` so fields can grow without breaking downstream
/// constructors — build one with [`VerifyError::new`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct VerifyError {
    /// Which rule fired.
    pub code: VerifyCode,
    /// Index of the offending instruction.
    pub instr: usize,
    /// Human-readable detail for the specific violation.
    pub detail: String,
}

impl VerifyError {
    /// A finding for `code` at instruction `instr`.
    pub fn new(code: VerifyCode, instr: usize, detail: impl Into<String>) -> VerifyError {
        VerifyError {
            code,
            instr,
            detail: detail.into(),
        }
    }

    /// The stable machine code (`"V100"`…), for wire protocols and logs
    /// that must not match on `Display` text.
    pub fn code(&self) -> &'static str {
        self.code.as_str()
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] instruction #{}: {}",
            self.code, self.instr, self.detail
        )
    }
}

impl std::error::Error for VerifyError {}

/// Borrowed witness that a program passed [`verify`].
///
/// Cheap to copy (one reference). Holding one proves the referenced
/// program satisfies every verifier rule: the only constructor is
/// [`verify`] itself, and neither witness type hands out `&mut Program`,
/// so the proof cannot be invalidated after minting. Engines accept it
/// where they elide re-validation (`bh_vm::Vm::run_verified`).
#[derive(Debug, Clone, Copy)]
pub struct VerifiedProgram<'a> {
    program: &'a Program,
}

impl<'a> VerifiedProgram<'a> {
    /// The verified program.
    pub fn program(self) -> &'a Program {
        self.program
    }
}

impl Deref for VerifiedProgram<'_> {
    type Target = Program;

    fn deref(&self) -> &Program {
        self.program
    }
}

/// Owned witness that a program passed [`verify`]: the storable form for
/// caches and plans ([`verify_owned`] constructs it).
///
/// Dereferences to [`Program`] for read access; mutable access is never
/// exposed, so the witness stays truthful for the life of the value.
#[derive(Debug, Clone)]
pub struct Verified {
    program: Program,
}

impl Verified {
    /// Borrow the proof (the form engines accept).
    pub fn as_verified(&self) -> VerifiedProgram<'_> {
        VerifiedProgram {
            program: &self.program,
        }
    }

    /// Surrender the witness and take the program back (the proof is
    /// lost; re-[`verify`] to re-mint it).
    pub fn into_inner(self) -> Program {
        self.program
    }
}

impl Deref for Verified {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

/// Verify a program against the full rule catalogue, collecting every
/// violation.
///
/// # Errors
///
/// All findings, in instruction order (instruction-local rules before
/// data-flow rules at each index). An empty error list is impossible:
/// `Err` always carries at least one finding.
pub fn verify(program: &Program) -> Result<VerifiedProgram<'_>, Vec<VerifyError>> {
    let errors = collect_errors(program);
    if errors.is_empty() {
        Ok(VerifiedProgram { program })
    } else {
        Err(errors)
    }
}

/// [`verify`], taking ownership: success returns the storable
/// [`Verified`] witness.
///
/// # Errors
///
/// The program is handed back together with every finding, so failed
/// admission does not cost the caller their (possibly large) program.
pub fn verify_owned(program: Program) -> Result<Verified, (Program, Vec<VerifyError>)> {
    let errors = collect_errors(&program);
    if errors.is_empty() {
        Ok(Verified { program })
    } else {
        Err((program, errors))
    }
}

/// The first rule alone: every operand names a declared register (`V103`
/// otherwise). One O(n) pass; a program that passes can be handed to code
/// that indexes bases by register — the optimiser's rules — without a
/// full [`verify`].
///
/// # Errors
///
/// Every operand naming an undeclared register, in instruction order.
pub fn verify_registers(program: &Program) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for (i, instr) in program.instrs().iter().enumerate() {
        regs_in_range(program, i, instr, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Check one instruction's local rules (everything except data-flow),
/// collecting all problems.
pub fn verify_instr(program: &Program, instr: &Instruction) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    if regs_in_range(program, 0, instr, &mut errors) {
        check_instruction(program, 0, instr, &mut errors);
    }
    errors
}

/// Per-register abstract state tracked while walking the program.
#[derive(Clone, Copy)]
struct RegState {
    /// Some instruction (or the `input` declaration) has written it.
    written: bool,
    /// `BH_FREE` released it.
    freed: bool,
}

fn collect_errors(program: &Program) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let mut state: Vec<RegState> = program
        .bases()
        .iter()
        .map(|b| RegState {
            written: b.is_input,
            freed: false,
        })
        .collect();
    for (i, instr) in program.instrs().iter().enumerate() {
        if instr.is_noop() {
            continue;
        }
        if !regs_in_range(program, i, instr, &mut errors) {
            // Every later rule (and the register state vector) indexes
            // `bases` by register, so nothing else can run safely.
            continue;
        }
        check_instruction(program, i, instr, &mut errors);
        check_flow(program, i, instr, &mut state, &mut errors);
    }
    errors
}

/// Registers must name declared bases before any other rule can run:
/// the rule checks (and the digest encoder) index `bases` by register,
/// and untrusted programs — e.g. decoded from a wire container — can
/// name any register they like. A dangling register is a `V103` finding,
/// never a panic.
fn regs_in_range(
    program: &Program,
    index: usize,
    instr: &Instruction,
    errors: &mut Vec<VerifyError>,
) -> bool {
    let nbases = program.bases().len();
    let mut ok = true;
    for o in &instr.operands {
        if let Some(r) = o.reg() {
            if r.index() >= nbases {
                errors.push(VerifyError::new(
                    VerifyCode::BadView,
                    index,
                    format!(
                        "register index {} out of range ({nbases} bases declared)",
                        r.index()
                    ),
                ));
                ok = false;
            }
        }
    }
    ok
}

/// Data-flow rules: def-before-use and use-after-free, updating the
/// abstract register state.
fn check_flow(
    program: &Program,
    index: usize,
    instr: &Instruction,
    state: &mut [RegState],
    errors: &mut Vec<VerifyError>,
) {
    let mut push = |code, detail| {
        errors.push(VerifyError {
            code,
            instr: index,
            detail,
        })
    };
    if instr.op == Opcode::Free {
        if let Some(r) = instr.operands.first().and_then(|o| o.reg()) {
            let s = &mut state[r.index()];
            if s.freed {
                push(
                    VerifyCode::UseAfterFree,
                    format!("register `{}` freed twice", program.base(r).name),
                );
            }
            s.freed = true;
        }
        return;
    }
    // Use-after-free: any reference (read or write) to a freed base.
    for o in &instr.operands {
        if let Some(r) = o.reg() {
            let s = &mut state[r.index()];
            if s.freed {
                push(
                    VerifyCode::UseAfterFree,
                    format!(
                        "register `{}` used after BH_FREE released it",
                        program.base(r).name
                    ),
                );
                s.freed = false; // report once per free
            }
        }
    }
    // Read-before-write (freeing an unwritten base is legal, handled
    // above).
    for r in instr.input_regs() {
        let s = &mut state[r.index()];
        if !s.written {
            push(
                VerifyCode::ReadBeforeWrite,
                format!(
                    "register `{}` read before any write (declare it `input` \
                     or initialise it with BH_IDENTITY)",
                    program.base(r).name
                ),
            );
            s.written = true; // report once
        }
    }
    if let Some(r) = instr.out_reg() {
        state[r.index()].written = true;
    }
}

/// Instruction-local rules: arity, operand kinds, view resolution and
/// bounds, dtype/shape rules per op-code kind, aliasing.
fn check_instruction(
    program: &Program,
    index: usize,
    instr: &Instruction,
    errors: &mut Vec<VerifyError>,
) {
    let op = instr.op;
    if op == Opcode::NoOp {
        return;
    }
    let before = errors.len();
    let arity_ok = instr.operands.len() == op.operand_count();
    if !arity_ok {
        errors.push(VerifyError {
            code: VerifyCode::BadArity,
            instr: index,
            detail: format!(
                "{op} expects {} operands, found {}",
                op.operand_count(),
                instr.operands.len()
            ),
        });
    }
    if op.has_output() {
        if instr
            .operands
            .first()
            .is_some_and(|o| o.as_view().is_none())
        {
            errors.push(VerifyError {
                code: VerifyCode::OutputNotView,
                instr: index,
                detail: format!("{op} result operand must be a view"),
            });
        }
    } else if let Some(Operand::Const(_)) = instr.operands.first() {
        errors.push(VerifyError {
            code: VerifyCode::OutputNotView,
            instr: index,
            detail: format!("{op} target must be a view"),
        });
    }

    // Resolve every view operand once, with strict bounds checking.
    let mut geoms: Vec<Option<ViewGeom>> = Vec::with_capacity(instr.operands.len());
    let mut dtypes: Vec<Option<DType>> = Vec::with_capacity(instr.operands.len());
    for o in &instr.operands {
        match o {
            Operand::View(v) => {
                geoms.push(check_view(program, index, v, errors));
                dtypes.push(Some(program.base(v.reg).dtype));
            }
            Operand::Const(c) => {
                geoms.push(None);
                dtypes.push(Some(c.dtype()));
            }
        }
    }

    // Kind-specific rules need operands at their expected positions.
    if arity_ok {
        match op.kind() {
            OpKind::ElementwiseUnary | OpKind::ElementwiseBinary => {
                check_elementwise(op, index, instr, &geoms, &dtypes, errors)
            }
            OpKind::Reduction => check_reduce_scan(program, op, index, instr, &geoms, true, errors),
            OpKind::Scan => check_reduce_scan(program, op, index, instr, &geoms, false, errors),
            OpKind::Generator => check_generator(op, index, instr, errors),
            OpKind::System => {}
            OpKind::LinAlg => check_linalg(op, index, instr, &geoms, &dtypes, errors),
        }
        check_aliasing(program, op, index, instr, &geoms, errors);
    }
    debug_assert!(
        arity_ok || errors.len() > before,
        "arity failure must be reported"
    );
}

/// Resolve a view operand and check it stays inside its base: the slice
/// indices must lie within each axis extent and the resolved address
/// range (`offset + stride*(n-1)`) below the base element count.
fn check_view(
    program: &Program,
    index: usize,
    view: &crate::operand::ViewRef,
    errors: &mut Vec<VerifyError>,
) -> Option<ViewGeom> {
    let base = program.base(view.reg);
    if let Some(slices) = &view.slices {
        for (axis, s) in slices.iter().enumerate() {
            if axis >= base.shape.rank() {
                break; // resolve_view reports the rank mismatch below
            }
            let n = base.shape.dim(axis) as i64;
            if !slice_bound_ok(s.start, n) || !slice_bound_ok(s.stop, n) {
                errors.push(VerifyError {
                    code: VerifyCode::ViewOutOfBounds,
                    instr: index,
                    detail: format!(
                        "slice {s} of `{}` exceeds axis {axis} extent {n}",
                        base.name
                    ),
                });
                return None;
            }
        }
    }
    match program.resolve_view(view) {
        Ok(geom) => {
            if let Some((_, hi)) = geom.address_range() {
                if hi >= base.shape.nelem() {
                    errors.push(VerifyError {
                        code: VerifyCode::ViewOutOfBounds,
                        instr: index,
                        detail: format!(
                            "view of `{}` addresses element {hi} of a {}-element base",
                            base.name,
                            base.shape.nelem()
                        ),
                    });
                    return None;
                }
            }
            Some(geom)
        }
        Err(e) => {
            errors.push(VerifyError {
                code: VerifyCode::BadView,
                instr: index,
                detail: format!("bad view of `{}`: {e}", base.name),
            });
            None
        }
    }
}

/// Strict slice-bound rule: an explicit index must name a position of
/// the axis — non-negative values in `0..=n`, negative (from-the-end)
/// values no further back than `-n` (`resolve` would silently clamp;
/// the verifier treats clamping as an error in untrusted byte-code).
pub(crate) fn slice_bound_ok(bound: Option<i64>, n: i64) -> bool {
    match bound {
        None => true,
        Some(v) if v < 0 => v + n >= -1, // -(n), and -1 as "before start" for step<0
        Some(v) => v <= n,
    }
}

fn shape_of(geom: &Option<ViewGeom>) -> Option<Shape> {
    geom.as_ref().map(ViewGeom::shape)
}

fn check_elementwise(
    op: Opcode,
    index: usize,
    instr: &Instruction,
    geoms: &[Option<ViewGeom>],
    dtypes: &[Option<DType>],
    errors: &mut Vec<VerifyError>,
) {
    let mut push = |code, detail| {
        errors.push(VerifyError {
            code,
            instr: index,
            detail,
        })
    };
    // Input views must broadcast to the output shape.
    if let Some(out_shape) = shape_of(&geoms[0]) {
        for (k, g) in geoms.iter().enumerate().skip(1) {
            if let Some(s) = shape_of(g) {
                let ok = s
                    .broadcast(&out_shape)
                    .map(|b| b == out_shape)
                    .unwrap_or(false);
                if !ok {
                    push(
                        VerifyCode::BroadcastMismatch,
                        format!(
                            "operand {k} shape {s} does not broadcast to output shape {out_shape}"
                        ),
                    );
                }
            }
        }
    }
    // Dtype rules: all *view* inputs must agree; the output must carry
    // the op-code's result dtype (or anything, for the BH_IDENTITY cast).
    let Some(out_dtype) = instr.operands[0].as_view().and_then(|_| dtypes[0]) else {
        return; // output was a constant; already reported
    };
    let mut in_view_dtype: Option<DType> = None;
    for (k, o) in instr.operands.iter().enumerate().skip(1) {
        if o.as_view().is_some() {
            let d = dtypes[k].expect("views carry dtypes");
            match in_view_dtype {
                None => in_view_dtype = Some(d),
                Some(prev) if prev != d => {
                    push(
                        VerifyCode::InputDTypeMismatch,
                        format!(
                            "input dtypes disagree: {prev} vs {d} (Bohrium inserts \
                             BH_IDENTITY casts; do the same)"
                        ),
                    );
                }
                _ => {}
            }
        }
    }
    let in_dtype = in_view_dtype.unwrap_or(out_dtype);
    match op.result_dtype(in_dtype) {
        Err(e) => push(VerifyCode::UnsupportedDType, e.to_string()),
        Ok(result) => {
            let expected_out = if op.type_rule() == TypeRule::Cast {
                out_dtype // BH_IDENTITY casts to whatever the output is
            } else {
                result
            };
            if out_dtype != expected_out {
                push(
                    VerifyCode::OutputDTypeMismatch,
                    format!(
                        "output dtype {out_dtype} does not match {op} result dtype {expected_out}"
                    ),
                );
            }
        }
    }
}

fn check_reduce_scan(
    program: &Program,
    op: Opcode,
    index: usize,
    instr: &Instruction,
    geoms: &[Option<ViewGeom>],
    is_reduction: bool,
    errors: &mut Vec<VerifyError>,
) {
    let mut push = |code, detail| {
        errors.push(VerifyError {
            code,
            instr: index,
            detail,
        })
    };
    let axis = match reduce_axis_const(instr) {
        Ok(axis) => Some(axis),
        Err(detail) => {
            push(VerifyCode::BadAxis, detail);
            None
        }
    };
    if instr.operands[1].as_view().is_none() {
        push(
            VerifyCode::NonViewOperand,
            format!("{op} input must be a view"),
        );
        return;
    }
    let (Some(in_shape), Some(out_shape)) = (shape_of(&geoms[1]), shape_of(&geoms[0])) else {
        return; // unresolvable views already reported
    };
    if is_reduction && in_shape.rank() == 0 {
        push(
            VerifyCode::BadAxis,
            format!("{op} cannot reduce a rank-0 view"),
        );
        return;
    }
    let axis = match axis {
        Some(a) if a >= in_shape.rank() => {
            push(
                VerifyCode::BadAxis,
                format!(
                    "{} axis {a} out of range for rank-{} input",
                    if is_reduction { "reduction" } else { "scan" },
                    in_shape.rank()
                ),
            );
            return;
        }
        Some(a) => a,
        None => return,
    };
    if is_reduction {
        let expected = in_shape.without_axis(axis);
        if out_shape != expected {
            push(
                VerifyCode::ReduceShapeMismatch,
                format!("reduction output shape {out_shape} should be {expected}"),
            );
        }
        let out_dtype = program.operand_dtype(&instr.operands[0]);
        let in_dtype = program.operand_dtype(&instr.operands[1]);
        if out_dtype != in_dtype.reduce_dtype() {
            push(
                VerifyCode::ReduceDTypeMismatch,
                format!(
                    "reduction output dtype {out_dtype} should be {}",
                    in_dtype.reduce_dtype()
                ),
            );
        }
    } else if out_shape != in_shape {
        push(
            VerifyCode::ScanShapeMismatch,
            format!("scan preserves shape: output {out_shape} vs input {in_shape}"),
        );
    }
}

fn check_generator(op: Opcode, index: usize, instr: &Instruction, errors: &mut Vec<VerifyError>) {
    if op == Opcode::Random {
        let detail = match instr.operands[1].as_const() {
            None => Some("BH_RANDOM seed must be a constant".to_string()),
            Some(seed) if seed.as_integral().is_none() => {
                Some("BH_RANDOM seed must be integral".to_string())
            }
            Some(_) => None,
        };
        if let Some(detail) = detail {
            errors.push(VerifyError {
                code: VerifyCode::BadSeed,
                instr: index,
                detail,
            });
        }
    }
}

fn check_linalg(
    op: Opcode,
    index: usize,
    instr: &Instruction,
    geoms: &[Option<ViewGeom>],
    dtypes: &[Option<DType>],
    errors: &mut Vec<VerifyError>,
) {
    let mut push = |code, detail| {
        errors.push(VerifyError {
            code,
            instr: index,
            detail,
        })
    };
    let mut all_views = true;
    for (k, o) in instr.operands.iter().enumerate() {
        if o.as_const().is_some() {
            all_views = false;
            push(
                VerifyCode::NonViewOperand,
                format!("{op} operand {k} must be a view, not a constant"),
            );
            continue;
        }
        let d = dtypes[k].expect("views carry dtypes");
        if op != Opcode::Transpose && !d.is_float() {
            push(
                VerifyCode::NonFloatOperand,
                format!("{op} requires float operands, found {d}"),
            );
        }
    }
    // Dimension rules need every operand's geometry.
    if !all_views || geoms.iter().any(Option::is_none) {
        return;
    }
    let shape = |k: usize| shape_of(&geoms[k]).expect("all linalg operands resolved");
    let mut push = |detail: String| {
        errors.push(VerifyError {
            code: VerifyCode::LinalgShapeMismatch,
            instr: index,
            detail,
        })
    };
    match op {
        Opcode::MatMul => {
            let (out, a, b) = (shape(0), shape(1), shape(2));
            // Positional orientation, as in NumPy dot: rank-1 lhs is a row
            // vector, rank-1 rhs a column vector.
            let (ar, ac) = match a.rank() {
                1 => (1, a.dim(0)),
                2 => (a.dim(0), a.dim(1)),
                _ => return push("BH_MATMUL lhs must be rank 1 or 2".into()),
            };
            let (br, bc) = match b.rank() {
                1 => (b.dim(0), 1),
                2 => (b.dim(0), b.dim(1)),
                _ => return push("BH_MATMUL rhs must be rank 1 or 2".into()),
            };
            let _ = ar;
            if ac != br {
                return push(format!("BH_MATMUL inner dimensions disagree: {a} @ {b}"));
            }
            let expected = match (a.rank(), b.rank()) {
                (2, 2) => Shape::matrix(a.dim(0), bc),
                (2, 1) => Shape::vector(a.dim(0)),
                (1, 2) => Shape::vector(bc),
                _ => Shape::vector(1),
            };
            if out != expected {
                push(format!("BH_MATMUL output shape {out} should be {expected}"));
            }
        }
        Opcode::Transpose => {
            let (out, a) = (shape(0), shape(1));
            if a.rank() != 2 || out.rank() != 2 {
                return push("BH_TRANSPOSE operates on matrices".into());
            }
            if out.dim(0) != a.dim(1) || out.dim(1) != a.dim(0) {
                push(format!(
                    "BH_TRANSPOSE output shape {out} should be ({},{})",
                    a.dim(1),
                    a.dim(0)
                ));
            }
        }
        Opcode::Inverse => {
            let (out, a) = (shape(0), shape(1));
            if !is_square(&a) {
                return push(format!("BH_INVERSE requires a square matrix, found {a}"));
            }
            if out != a {
                push(format!("BH_INVERSE output shape {out} should be {a}"));
            }
        }
        Opcode::Solve => {
            let (out, a, b) = (shape(0), shape(1), shape(2));
            if !is_square(&a) {
                return push(format!(
                    "BH_SOLVE coefficient matrix must be square, found {a}"
                ));
            }
            let n = a.dim(0);
            let b_rows = match b.rank() {
                1 | 2 => b.dim(0),
                _ => return push("BH_SOLVE rhs must be rank 1 or 2".into()),
            };
            if b_rows != n {
                return push(format!("BH_SOLVE rhs rows {b_rows} should be {n}"));
            }
            if out != b {
                push(format!("BH_SOLVE output shape {out} should match rhs {b}"));
            }
        }
        _ => {}
    }
}

/// In-place aliasing rules. The engines define exactly one aliasing
/// pattern: an element-wise op whose input view is *the same layout* as
/// its output (`BH_ADD a a 1`). Everything else — partial element-wise
/// overlap, a reduction or linalg output overlapping its input, a scan
/// overlapping with a different layout — reads elements the instruction
/// is concurrently writing, so the verifier rejects it.
fn check_aliasing(
    program: &Program,
    op: Opcode,
    index: usize,
    instr: &Instruction,
    geoms: &[Option<ViewGeom>],
    errors: &mut Vec<VerifyError>,
) {
    if !op.has_output() {
        return;
    }
    let Some(out_view) = instr.operands.first().and_then(|o| o.as_view()) else {
        return;
    };
    let Some(out_geom) = geoms[0].as_ref() else {
        return;
    };
    let out_shape = out_geom.shape();
    for (k, o) in instr.operands.iter().enumerate().skip(1) {
        // The reduction/scan axis constant is never a view; only same-base
        // view inputs can alias.
        let Some(v) = o.as_view() else { continue };
        if v.reg != out_view.reg {
            continue;
        }
        let Some(in_geom) = geoms[k].as_ref() else {
            continue;
        };
        let hazard = match op.kind() {
            OpKind::ElementwiseUnary | OpKind::ElementwiseBinary => {
                match in_geom.broadcast_to(&out_shape) {
                    // Broadcast-resolved identical layout is the defined
                    // in-place form; partial overlap is not.
                    Ok(b) => b.may_overlap(out_geom) && !b.same_layout(out_geom),
                    Err(_) => false, // already a broadcast error
                }
            }
            OpKind::Scan => in_geom.may_overlap(out_geom) && !in_geom.same_layout(out_geom),
            OpKind::Reduction | OpKind::LinAlg => in_geom.may_overlap(out_geom),
            OpKind::Generator | OpKind::System => false,
        };
        if hazard {
            errors.push(VerifyError {
                code: VerifyCode::AliasedOutput,
                instr: index,
                detail: format!(
                    "output view of `{}` overlaps input operand {k} without an \
                     identical layout ({op} would read elements it is writing)",
                    program.base(v.reg).name
                ),
            });
        }
    }
}

fn reduce_axis_const(instr: &Instruction) -> Result<usize, String> {
    let c = instr.operands[2]
        .as_const()
        .ok_or("axis operand must be a constant")?;
    let v = c.as_integral().ok_or("axis operand must be integral")?;
    usize::try_from(v).map_err(|_| "axis operand must be non-negative".to_string())
}

fn is_square(s: &Shape) -> bool {
    s.rank() == 2 && s.dim(0) == s.dim(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::{Reg, ViewRef};
    use crate::parse::parse_program;
    use crate::program::ProgramBuilder;
    use bh_tensor::Scalar;

    fn codes(text: &str) -> Vec<VerifyCode> {
        let p = parse_program(text).unwrap();
        match verify(&p) {
            Ok(_) => Vec::new(),
            Err(errors) => errors.iter().map(|e| e.code).collect(),
        }
    }

    #[test]
    fn valid_program_mints_a_witness() {
        let p = parse_program("BH_IDENTITY a [0:4:1] 1\nBH_ADD a a 1\nBH_SYNC a\n").unwrap();
        let w = verify(&p).unwrap();
        assert_eq!(w.program().instrs().len(), 3);
        assert_eq!(w.instrs().len(), 3); // deref
        let owned = verify_owned(p).unwrap();
        assert_eq!(owned.as_verified().instrs().len(), 3);
        let back = owned.into_inner();
        assert_eq!(back.instrs().len(), 3);
    }

    #[test]
    fn read_before_write_is_v200() {
        assert_eq!(
            codes("BH_ADD a [0:4:1] a [0:4:1] 1\n"),
            vec![VerifyCode::ReadBeforeWrite]
        );
    }

    #[test]
    fn use_after_free_is_v201() {
        assert_eq!(
            codes("BH_IDENTITY a [0:4:1] 1\nBH_FREE a\nBH_SYNC a\n"),
            vec![VerifyCode::UseAfterFree]
        );
        assert_eq!(
            codes("BH_IDENTITY a [0:4:1] 1\nBH_FREE a\nBH_FREE a\n"),
            vec![VerifyCode::UseAfterFree]
        );
    }

    #[test]
    fn out_of_bounds_slice_is_v104() {
        assert_eq!(
            codes(".base x f64[4] input\nBH_SYNC x[0:9:1]\n"),
            vec![VerifyCode::ViewOutOfBounds]
        );
    }

    #[test]
    fn multiple_errors_in_one_instruction_all_reported() {
        // i32 input into BH_SQRT (unsupported dtype) *and* a shape that
        // does not broadcast: both reported, not just the first.
        let cs = codes(
            ".base x i32[4] input\n\
             .base y i32[5]\n\
             BH_SQRT y x\n",
        );
        assert!(cs.contains(&VerifyCode::BroadcastMismatch), "{cs:?}");
        assert!(cs.contains(&VerifyCode::UnsupportedDType), "{cs:?}");
    }

    #[test]
    fn partial_overlap_in_place_is_v500() {
        assert_eq!(
            codes(
                ".base a f64[16] input\n\
                 BH_ADD a[0:8:1] a[1:9:1] 1\n\
                 BH_SYNC a\n"
            ),
            vec![VerifyCode::AliasedOutput]
        );
        // Identical layout (classic in-place) is the defined form.
        assert_eq!(
            codes(".base a f64[16] input\nBH_ADD a a 1\nBH_SYNC a\n"),
            vec![]
        );
        // Disjoint regions of one base never alias.
        assert_eq!(
            codes(".base a f64[16] input\nBH_ADD a[0:8:1] a[8:16:1] 1\nBH_SYNC a\n"),
            vec![]
        );
    }

    #[test]
    fn scan_into_a_reversed_view_of_itself_is_v500() {
        assert_eq!(
            codes(
                ".base a f64[4] input\n\
                 BH_ADD_ACCUMULATE a a[::-1] 0\n\
                 BH_SYNC a\n"
            ),
            vec![VerifyCode::AliasedOutput]
        );
    }

    #[test]
    fn reduction_overlapping_its_input_is_flagged() {
        // Slicing preserves rank, so a shape-correct reduction can never
        // alias its input; the aliasing rule still fires (alongside the
        // shape rule) on an overlapping same-base output.
        let cs = codes(
            ".base a f64[4,4] input\n\
             BH_ADD_REDUCE a[0:1:1] a 0\n",
        );
        assert!(cs.contains(&VerifyCode::AliasedOutput), "{cs:?}");
        assert!(cs.contains(&VerifyCode::ReduceShapeMismatch), "{cs:?}");
    }

    #[test]
    fn arity_error_is_v100_and_reported_programmatically() {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(2));
        let a = b.reg("a");
        b.identity_const(a, Scalar::F64(0.0));
        let mut p = b.build();
        p.push(Instruction::unary(
            Opcode::Add,
            ViewRef::full(a),
            Scalar::F64(1.0),
        ));
        let errors = verify(&p).unwrap_err();
        assert_eq!(errors[0].code, VerifyCode::BadArity);
        assert!(errors[0].detail.contains("expects 3 operands"));
    }

    #[test]
    fn output_constant_is_v101() {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(2));
        let a = b.reg("a");
        b.identity_const(a, Scalar::F64(0.0));
        let mut p = b.build();
        p.push(Instruction::binary(
            Opcode::Add,
            ViewRef::full(a),
            ViewRef::full(a),
            Scalar::F64(1.0),
        ));
        // Clobber the output with a constant.
        p.instrs_mut()[1].operands[0] = Operand::Const(Scalar::F64(0.0));
        let errors = verify(&p).unwrap_err();
        assert!(errors.iter().any(|e| e.code == VerifyCode::OutputNotView));
    }

    #[test]
    fn error_display_carries_the_code() {
        let p = parse_program("BH_ADD a [0:4:1] a [0:4:1] 1\n").unwrap();
        let e = &verify(&p).unwrap_err()[0];
        let s = e.to_string();
        assert!(s.contains("V200"), "{s}");
        assert!(s.contains("instruction #0"), "{s}");
        assert_eq!(Reg(0), p.instrs()[0].out_reg().unwrap());
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in VerifyCode::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with('V'));
        }
        assert_eq!(seen.len(), VerifyCode::ALL.len());
        assert_eq!(VerifyCode::ReadBeforeWrite.to_string(), "V200");
    }

    #[test]
    fn strict_bounds_accept_in_range_and_negative_indexing() {
        assert_eq!(codes(".base x f64[4] input\nBH_SYNC x[0:4:1]\n"), vec![]);
        assert_eq!(codes(".base x f64[4] input\nBH_SYNC x[-4:-1:1]\n"), vec![]);
        assert_eq!(codes(".base x f64[4] input\nBH_SYNC x[::-1]\n"), vec![]);
        assert_eq!(
            codes(".base x f64[4] input\nBH_SYNC x[-9::1]\n"),
            vec![VerifyCode::ViewOutOfBounds]
        );
    }

    #[test]
    fn verify_instr_reports_all_local_problems() {
        let p = parse_program(
            ".base x i32[4] input\n\
             .base y i32[5]\n\
             BH_SQRT y x\n",
        )
        .unwrap();
        let errors = verify_instr(&p, &p.instrs()[0]);
        assert!(errors.len() >= 2, "{errors:?}");
        assert!(verify_instr(&p, &Instruction::noop()).is_empty());
    }

    #[test]
    fn slice_too_deep_is_v103() {
        assert_eq!(
            codes(".base x f64[4] input\nBH_SYNC x[0:1:1,0:1:1]\n"),
            vec![VerifyCode::BadView]
        );
    }

    #[test]
    fn dangling_register_is_v103_not_a_panic() {
        // The parser can't produce one, but a decoded wire container
        // can: an instruction naming a register no base declares.
        use crate::operand::{Operand, Reg};
        let mut p = Program::default();
        p.push(crate::Instruction::new(
            Opcode::Add,
            vec![
                Operand::full(Reg(7)),
                Operand::full(Reg(7)),
                Operand::full(Reg(7)),
            ],
        ));
        let errors = verify(&p).unwrap_err();
        assert!(!errors.is_empty());
        assert!(
            errors.iter().all(|e| e.code == VerifyCode::BadView),
            "{errors:?}"
        );
        assert!(verify_instr(&p, &p.instrs()[0])
            .iter()
            .all(|e| e.code == VerifyCode::BadView));
    }

    #[test]
    fn broadcastable_inputs_accepted() {
        assert_eq!(
            codes(
                ".base x f64[1] input\n\
                 .base y f64[5]\n\
                 BH_IDENTITY y 0\n\
                 BH_ADD y y x\n\
                 BH_SYNC y\n"
            ),
            vec![]
        );
    }

    #[test]
    fn dtype_rule_violations() {
        assert_eq!(
            codes(
                ".base x i32[4] input\n\
                 .base y i32[4]\n\
                 BH_SQRT y x\n"
            ),
            vec![VerifyCode::UnsupportedDType]
        );
        assert_eq!(
            codes(
                ".base x f64[4] input\n\
                 .base y i32[4] input\n\
                 .base z f64[4]\n\
                 BH_ADD z x y\n"
            ),
            vec![VerifyCode::InputDTypeMismatch]
        );
    }

    #[test]
    fn comparison_output_must_be_bool() {
        assert_eq!(
            codes(
                ".base x f64[4] input\n\
                 .base y f64[4]\n\
                 BH_GREATER y x x\n"
            ),
            vec![VerifyCode::OutputDTypeMismatch]
        );
        assert_eq!(
            codes(
                ".base x f64[4] input\n\
                 .base m bool[4]\n\
                 BH_GREATER m x x\n\
                 BH_SYNC m\n"
            ),
            vec![]
        );
    }

    #[test]
    fn identity_casts_freely() {
        assert_eq!(
            codes(
                ".base x i32[4] input\n\
                 .base y f64[4]\n\
                 BH_IDENTITY y x\n\
                 BH_SYNC y\n"
            ),
            vec![]
        );
    }

    #[test]
    fn reduction_shapes_and_axis() {
        assert_eq!(
            codes(
                ".base m f64[3,4] input\n\
                 .base s f64[3]\n\
                 BH_ADD_REDUCE s m 1\n\
                 BH_SYNC s\n"
            ),
            vec![]
        );
        assert_eq!(
            codes(
                ".base m f64[3,4] input\n\
                 .base s f64[3]\n\
                 BH_ADD_REDUCE s m 7\n"
            ),
            vec![VerifyCode::BadAxis]
        );
        assert_eq!(
            codes(
                ".base m f64[3,4] input\n\
                 .base s f64[4]\n\
                 BH_ADD_REDUCE s m 1\n"
            ),
            vec![VerifyCode::ReduceShapeMismatch]
        );
    }

    #[test]
    fn scan_preserves_shape() {
        assert_eq!(
            codes(
                ".base m f64[6] input\n\
                 .base c f64[6]\n\
                 BH_ADD_ACCUMULATE c m 0\n\
                 BH_SYNC c\n"
            ),
            vec![]
        );
        assert_eq!(
            codes(
                ".base m f64[6] input\n\
                 .base c f64[5]\n\
                 BH_ADD_ACCUMULATE c m 0\n"
            ),
            vec![VerifyCode::ScanShapeMismatch]
        );
    }

    #[test]
    fn matmul_dims() {
        assert_eq!(
            codes(
                ".base a f64[2,3] input\n\
                 .base b f64[3,4] input\n\
                 .base c f64[2,4]\n\
                 BH_MATMUL c a b\n\
                 BH_SYNC c\n"
            ),
            vec![]
        );
        assert_eq!(
            codes(
                ".base a f64[2,3] input\n\
                 .base b f64[2,4] input\n\
                 .base c f64[2,4]\n\
                 BH_MATMUL c a b\n"
            ),
            vec![VerifyCode::LinalgShapeMismatch]
        );
    }

    #[test]
    fn solve_and_inverse_shapes() {
        assert_eq!(
            codes(
                ".base a f64[3,3] input\n\
                 .base b f64[3] input\n\
                 .base x f64[3]\n\
                 BH_SOLVE x a b\n\
                 BH_SYNC x\n"
            ),
            vec![]
        );
        assert_eq!(
            codes(
                ".base a f64[3,4] input\n\
                 .base i f64[3,4]\n\
                 BH_INVERSE i a\n"
            ),
            vec![VerifyCode::LinalgShapeMismatch]
        );
    }

    #[test]
    fn random_seed_validated() {
        assert_eq!(codes(".base r f64[8]\nBH_RANDOM r 42\nBH_SYNC r\n"), vec![]);
        assert_eq!(
            codes(".base r f64[8]\nBH_RANDOM r 1.5\n"),
            vec![VerifyCode::BadSeed]
        );
    }

    #[test]
    fn free_of_unwritten_base_is_legal() {
        assert_eq!(codes(".base x f64[4]\nBH_FREE x\n"), vec![]);
    }
}
