//! Byte-code programs: base-array declarations plus an instruction sequence.

use crate::instr::Instruction;
use crate::opcode::Opcode;
use crate::operand::{Operand, Reg, ViewRef};
use bh_tensor::{DType, Scalar, Shape, Slice, TensorError, ViewGeom};
use std::collections::HashMap;
use std::fmt;

/// Declaration of one base array (a byte-code register).
#[derive(Debug, Clone, PartialEq)]
pub struct BaseDecl {
    /// Register name as written in the byte-code text (`a0`, `t3`, …).
    pub name: String,
    /// Element dtype of the base.
    pub dtype: DType,
    /// Logical shape of the base allocation.
    pub shape: Shape,
    /// True when the base holds caller-provided data (may be read before
    /// any instruction writes it).
    pub is_input: bool,
}

/// A descriptive vector byte-code sequence.
///
/// # Examples
///
/// Build Listing 2 of the paper programmatically:
///
/// ```
/// use bh_ir::{Program, Instruction, Opcode, ViewRef};
/// use bh_tensor::{DType, Scalar, Shape};
///
/// let mut p = Program::new();
/// let a0 = p.declare("a0", DType::Float64, Shape::vector(10));
/// p.push(Instruction::unary(Opcode::Identity, ViewRef::full(a0), Scalar::F64(0.0)));
/// for _ in 0..3 {
///     p.push(Instruction::binary(
///         Opcode::Add, ViewRef::full(a0), ViewRef::full(a0), Scalar::F64(1.0)));
/// }
/// p.push(Instruction::sync(ViewRef::full(a0)));
/// assert_eq!(p.instrs().len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    bases: Vec<BaseDecl>,
    names: HashMap<String, Reg>,
    instrs: Vec<Instruction>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Declare a base array, returning its register.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already declared (programmatic construction is
    /// expected to pick fresh names; the parser reports a proper error).
    pub fn declare(&mut self, name: &str, dtype: DType, shape: Shape) -> Reg {
        self.try_declare(name, dtype, shape, false)
            .expect("duplicate base declaration")
    }

    /// Declare a base array holding caller-provided input data.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names, like [`Program::declare`].
    pub fn declare_input(&mut self, name: &str, dtype: DType, shape: Shape) -> Reg {
        self.try_declare(name, dtype, shape, true)
            .expect("duplicate base declaration")
    }

    /// Fallible declaration, used by the parser.
    pub fn try_declare(
        &mut self,
        name: &str,
        dtype: DType,
        shape: Shape,
        is_input: bool,
    ) -> Option<Reg> {
        if self.names.contains_key(name) {
            return None;
        }
        let reg = Reg(self.bases.len() as u32);
        self.names.insert(name.to_owned(), reg);
        self.bases.push(BaseDecl {
            name: name.to_owned(),
            dtype,
            shape,
            is_input,
        });
        Some(reg)
    }

    /// Declare a fresh temporary with an auto-generated unique name
    /// (`t0`, `t1`, …). Used by rewrites that must introduce registers.
    pub fn declare_temp(&mut self, dtype: DType, shape: Shape) -> Reg {
        let mut i = self.bases.len();
        loop {
            let name = format!("t{i}");
            if !self.names.contains_key(&name) {
                return self.declare(&name, dtype, shape);
            }
            i += 1;
        }
    }

    /// Append an instruction.
    pub fn push(&mut self, instr: Instruction) {
        self.instrs.push(instr);
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Mutable access to the instruction sequence (the rewrite engine edits
    /// in place).
    pub fn instrs_mut(&mut self) -> &mut Vec<Instruction> {
        &mut self.instrs
    }

    /// All base declarations, indexed by `Reg::index`.
    pub fn bases(&self) -> &[BaseDecl] {
        &self.bases
    }

    /// The declaration behind a register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` does not belong to this program.
    pub fn base(&self, reg: Reg) -> &BaseDecl {
        &self.bases[reg.index()]
    }

    /// Look up a register by its declared name.
    pub fn reg_by_name(&self, name: &str) -> Option<Reg> {
        self.names.get(name).copied()
    }

    /// Number of instructions, excluding `BH_NONE` placeholders.
    pub fn live_len(&self) -> usize {
        self.instrs.iter().filter(|i| !i.is_noop()).count()
    }

    /// Count instructions with the given op-code.
    pub fn count_op(&self, op: Opcode) -> usize {
        self.instrs.iter().filter(|i| i.op == op).count()
    }

    /// Drop `BH_NONE` placeholders left behind by rewrites.
    pub fn compact(&mut self) {
        self.instrs.retain(|i| !i.is_noop());
    }

    /// Resolve a view operand to concrete geometry over its base.
    ///
    /// # Errors
    ///
    /// Propagates slice-resolution failures ([`TensorError`]).
    pub fn resolve_view(&self, view: &ViewRef) -> Result<ViewGeom, TensorError> {
        let base = self.base(view.reg);
        match &view.slices {
            None => Ok(ViewGeom::contiguous(&base.shape)),
            Some(slices) => ViewGeom::from_slices(&base.shape, slices),
        }
    }

    /// True when the view covers its whole base contiguously, so a write
    /// through it replaces the register's entire value. A view without
    /// slices is full by definition and is answered without building
    /// geometry; an unresolvable view is never full.
    pub fn is_full_view(&self, view: &ViewRef) -> bool {
        if view.slices.is_none() {
            return true;
        }
        self.resolve_view(view).is_ok_and(|g| {
            g.offset() == 0 && g.is_contiguous() && g.nelem() == self.base(view.reg).shape.nelem()
        })
    }

    /// True when two view operands address exactly the same elements of
    /// the same register (resolved geometrically, so `a0` and
    /// `a0[0:10:1]` over a 10-element base agree). Unresolvable views are
    /// equivalent to nothing, themselves included. Two views without
    /// slices are answered without building geometry, and syntactically
    /// identical slices resolve once instead of twice.
    pub fn same_elements(&self, a: &ViewRef, b: &ViewRef) -> bool {
        if a.reg != b.reg {
            return false;
        }
        match (&a.slices, &b.slices) {
            (None, None) => true,
            (x, y) if x == y => self.resolve_view(a).is_ok(),
            _ => match (self.resolve_view(a), self.resolve_view(b)) {
                (Ok(ga), Ok(gb)) => ga == gb,
                _ => false,
            },
        }
    }

    /// Logical element count of a view (`None` when its slices do not
    /// resolve); a view without slices answers from the base shape.
    pub fn view_nelem(&self, view: &ViewRef) -> Option<usize> {
        match &view.slices {
            None => Some(self.base(view.reg).shape.nelem()),
            Some(_) => self.resolve_view(view).ok().map(|g| g.nelem()),
        }
    }

    /// The dtype an operand contributes to instruction typing: the base
    /// dtype for views, the scalar's own dtype for constants.
    pub fn operand_dtype(&self, operand: &Operand) -> DType {
        match operand {
            Operand::View(v) => self.base(v.reg).dtype,
            Operand::Const(c) => c.dtype(),
        }
    }

    /// Render in the paper's textual format.
    ///
    /// `style` controls whether full views are written out (`[0:10:1]`,
    /// Listing 2 style) or elided (Listing 3–5 style), and whether the
    /// `.base` declaration header is included (required for round-tripping
    /// non-f64 or multi-dimensional programs).
    pub fn to_text(&self, style: PrintStyle) -> String {
        let mut out = String::new();
        if style.decls {
            for b in &self.bases {
                out.push_str(".base ");
                out.push_str(&b.name);
                out.push(' ');
                out.push_str(b.dtype.short_name());
                out.push('[');
                for (i, d) in b.shape.dims().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&d.to_string());
                }
                out.push(']');
                if b.is_input {
                    out.push_str(" input");
                }
                out.push('\n');
            }
        }
        for instr in &self.instrs {
            out.push_str(&self.instr_to_text(instr, style));
            out.push('\n');
        }
        out
    }

    /// Render one instruction with resolved register names.
    pub fn instr_to_text(&self, instr: &Instruction, style: PrintStyle) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(s, "{}", instr.op);
        for o in &instr.operands {
            match o {
                Operand::Const(c) => {
                    let _ = write!(s, " {c}");
                }
                Operand::View(v) => {
                    let name = &self.base(v.reg).name;
                    let _ = write!(s, " {name}");
                    // A view that geometrically covers the whole base can be
                    // elided (Listing 3–5 style) or spelled out [0:n:1]
                    // (Listing 2 style); partial views always print.
                    let covers_base = self.is_full_view(v);
                    let explicit = match (&v.slices, style.explicit_views) {
                        (Some(sl), _) if !covers_base => Some(sl.clone()),
                        (Some(sl), true) => Some(sl.clone()),
                        (None, true) => {
                            // Materialise the full view in [0:n:1] form.
                            Some(
                                self.base(v.reg)
                                    .shape
                                    .dims()
                                    .iter()
                                    .map(|&n| Slice::new(Some(0), Some(n as i64), 1))
                                    .collect(),
                            )
                        }
                        (None, false) => None,
                        (Some(_), false) => None,
                    };
                    if let Some(slices) = explicit {
                        let _ = write!(s, " [");
                        for (i, sl) in slices.iter().enumerate() {
                            if i > 0 {
                                let _ = write!(s, ",");
                            }
                            let resolved = normalize_slice(*sl, &self.base(v.reg).shape, i);
                            let _ = write!(s, "{resolved}");
                        }
                        let _ = write!(s, "]");
                    }
                }
            }
        }
        s
    }
}

/// Make implicit bounds explicit so `:` prints as `0:10:1` like the paper.
fn normalize_slice(s: Slice, shape: &Shape, axis: usize) -> Slice {
    let n = shape.dims().get(axis).copied().unwrap_or(0) as i64;
    if s.step == 1 {
        Slice::new(Some(s.start.unwrap_or(0)), Some(s.stop.unwrap_or(n)), 1)
    } else {
        s
    }
}

/// Formatting options for [`Program::to_text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrintStyle {
    /// Emit `.base` declaration headers.
    pub decls: bool,
    /// Write full views explicitly (`a0 [0:10:1]`, Listing 2 style) instead
    /// of eliding them (Listing 3 style).
    pub explicit_views: bool,
}

impl PrintStyle {
    /// Listing 2 style: explicit views, no declarations.
    pub const LISTING: PrintStyle = PrintStyle {
        decls: false,
        explicit_views: true,
    };
    /// Listing 3–5 style: views elided.
    pub const COMPACT: PrintStyle = PrintStyle {
        decls: false,
        explicit_views: false,
    };
    /// Round-trippable: declarations + explicit views.
    pub const FULL: PrintStyle = PrintStyle {
        decls: true,
        explicit_views: true,
    };
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text(PrintStyle::COMPACT))
    }
}

/// Convenience builder for tests and examples: emits instructions against a
/// single default-dtype working set.
#[derive(Debug)]
pub struct ProgramBuilder {
    program: Program,
    dtype: DType,
    shape: Shape,
}

impl ProgramBuilder {
    /// Start a builder whose registers share one dtype and shape, matching
    /// the paper's "the view is the same for all registers" convention.
    pub fn new(dtype: DType, shape: Shape) -> ProgramBuilder {
        ProgramBuilder {
            program: Program::new(),
            dtype,
            shape,
        }
    }

    /// Declare (or fetch) a register by name.
    pub fn reg(&mut self, name: &str) -> Reg {
        if let Some(r) = self.program.reg_by_name(name) {
            return r;
        }
        self.program.declare(name, self.dtype, self.shape.clone())
    }

    /// Declare (or fetch) an input register by name.
    pub fn input(&mut self, name: &str) -> Reg {
        if let Some(r) = self.program.reg_by_name(name) {
            return r;
        }
        self.program
            .try_declare(name, self.dtype, self.shape.clone(), true)
            .expect("name checked above")
    }

    /// `BH_IDENTITY out <const>` — initialise a register.
    pub fn identity_const(&mut self, out: Reg, value: Scalar) -> &mut Self {
        self.program.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(out),
            value,
        ));
        self
    }

    /// Binary op on full views / constants.
    pub fn binary(
        &mut self,
        op: Opcode,
        out: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.program
            .push(Instruction::binary(op, ViewRef::full(out), a, b));
        self
    }

    /// Unary op on full views / constants.
    pub fn unary(&mut self, op: Opcode, out: Reg, a: impl Into<Operand>) -> &mut Self {
        self.program
            .push(Instruction::unary(op, ViewRef::full(out), a));
        self
    }

    /// `BH_SYNC reg`.
    pub fn sync(&mut self, reg: Reg) -> &mut Self {
        self.program.push(Instruction::sync(ViewRef::full(reg)));
        self
    }

    /// `BH_FREE reg`.
    pub fn free(&mut self, reg: Reg) -> &mut Self {
        self.program.push(Instruction::free(ViewRef::full(reg)));
        self
    }

    /// Finish and return the program.
    pub fn build(&mut self) -> Program {
        std::mem::take(&mut self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing2() -> Program {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(10));
        let a0 = b.reg("a0");
        b.identity_const(a0, Scalar::F64(0.0));
        for _ in 0..3 {
            b.binary(Opcode::Add, a0, ViewRef::full(a0), Scalar::F64(1.0));
        }
        b.sync(a0);
        b.build()
    }

    #[test]
    fn declare_and_lookup() {
        let mut p = Program::new();
        let r = p.declare("a0", DType::Float64, Shape::vector(4));
        assert_eq!(p.reg_by_name("a0"), Some(r));
        assert_eq!(p.base(r).name, "a0");
        assert!(!p.base(r).is_input);
        assert!(p
            .try_declare("a0", DType::Float64, Shape::vector(4), false)
            .is_none());
    }

    #[test]
    fn declare_temp_is_fresh() {
        let mut p = Program::new();
        p.declare("t0", DType::Float64, Shape::vector(1));
        let t = p.declare_temp(DType::Float64, Shape::vector(1));
        assert_ne!(p.base(t).name, "t0");
    }

    #[test]
    fn listing2_text_matches_paper() {
        let p = listing2();
        let text = p.to_text(PrintStyle::LISTING);
        let expected = "\
BH_IDENTITY a0 [0:10:1] 0.0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1.0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1.0
BH_ADD a0 [0:10:1] a0 [0:10:1] 1.0
BH_SYNC a0 [0:10:1]
";
        assert_eq!(text, expected);
    }

    #[test]
    fn compact_style_elides_views() {
        let p = listing2();
        let text = p.to_text(PrintStyle::COMPACT);
        assert!(text.contains("BH_ADD a0 a0 1.0"));
        assert!(!text.contains("[0:10:1]"));
    }

    #[test]
    fn full_style_emits_decls() {
        let p = listing2();
        let text = p.to_text(PrintStyle::FULL);
        assert!(text.starts_with(".base a0 f64[10]"));
    }

    #[test]
    fn resolve_full_and_sliced_views() {
        let mut p = Program::new();
        let r = p.declare("a0", DType::Float64, Shape::vector(10));
        let full = p.resolve_view(&ViewRef::full(r)).unwrap();
        assert_eq!(full.nelem(), 10);
        let half = p
            .resolve_view(&ViewRef::sliced(r, vec![Slice::range(0, 5)]))
            .unwrap();
        assert_eq!(half.nelem(), 5);
    }

    #[test]
    fn counting_and_compaction() {
        let mut p = listing2();
        assert_eq!(p.count_op(Opcode::Add), 3);
        p.instrs_mut()[1] = Instruction::noop();
        assert_eq!(p.live_len(), 4);
        p.compact();
        assert_eq!(p.instrs().len(), 4);
        assert_eq!(p.count_op(Opcode::Add), 2);
    }

    #[test]
    fn view_predicates_agree_with_resolved_geometry() {
        let mut p = Program::new();
        let a = p.declare("a", DType::Float64, Shape::vector(10));
        let b = p.declare("b", DType::Float64, Shape::vector(10));
        let full = ViewRef::full(a);
        let spelled = ViewRef::sliced(a, vec![Slice::new(Some(0), Some(10), 1)]);
        let half = ViewRef::sliced(a, vec![Slice::range(0, 5)]);
        let strided = ViewRef::sliced(a, vec![Slice::new(None, None, 2)]);
        // Two slices on a rank-1 base never resolve.
        let broken = ViewRef::sliced(a, vec![Slice::full(), Slice::full()]);

        assert!(p.is_full_view(&full) && p.is_full_view(&spelled));
        assert!(!p.is_full_view(&half) && !p.is_full_view(&strided));
        assert!(!p.is_full_view(&broken));

        assert!(p.same_elements(&full, &full) && p.same_elements(&full, &spelled));
        assert!(p.same_elements(&half, &half.clone()));
        assert!(!p.same_elements(&full, &half) && !p.same_elements(&half, &strided));
        assert!(!p.same_elements(&full, &ViewRef::full(b)));
        // An unresolvable view addresses nothing, itself included.
        assert!(!p.same_elements(&broken, &broken.clone()));

        assert_eq!(p.view_nelem(&full), Some(10));
        assert_eq!(p.view_nelem(&half), Some(5));
        assert_eq!(p.view_nelem(&strided), Some(5));
        assert_eq!(p.view_nelem(&broken), None);
    }

    #[test]
    fn operand_dtype() {
        let mut p = Program::new();
        let r = p.declare("a0", DType::Int32, Shape::vector(2));
        assert_eq!(p.operand_dtype(&Operand::full(r)), DType::Int32);
        assert_eq!(
            p.operand_dtype(&Operand::from(Scalar::F64(1.0))),
            DType::Float64
        );
    }

    #[test]
    fn builder_input_flag() {
        let mut b = ProgramBuilder::new(DType::Float64, Shape::vector(3));
        let x = b.input("x");
        let p = b.build();
        assert!(p.base(x).is_input);
    }
}
