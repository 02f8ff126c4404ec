//! The harness's own description of a byte-code program, and the oracle.
//!
//! A [`Spec`] is what the generators produce. It is rendered to the
//! paper's textual byte-code (which is all the system under test ever
//! sees) and, independently, evaluated by [`Spec::eval`]: a scalar
//! interpreter written with plain `f64` loops that shares no code with
//! `bh-ir`'s parser, `bh-opt`, `bh-vm` or the `bh-tensor` kernels. The
//! oracle interprets the *source* program in source order, so every
//! rewrite the optimiser makes is checked against what the front-end
//! asked for.

use std::fmt::Write as _;

/// Element type of a register. The oracle stores every type as `f64`
/// (`i32` values are integers well inside ±2⁵³, `bool` is 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    F64,
    I32,
    Bool,
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::F64 => "f64",
            Ty::I32 => "i32",
            Ty::Bool => "bool",
        }
    }
}

#[derive(Debug, Clone)]
pub struct RegDecl {
    pub name: String,
    pub ty: Ty,
    /// Rank 0, 1 or 2, row-major.
    pub shape: Vec<usize>,
    pub input: bool,
}

impl RegDecl {
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }
}

/// A register seen whole or (rank 1 only) through a unit-stride slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct View {
    pub reg: usize,
    pub range: Option<(usize, usize)>,
}

impl View {
    pub fn full(reg: usize) -> View {
        View { reg, range: None }
    }

    pub fn slice(reg: usize, start: usize, stop: usize) -> View {
        View {
            reg,
            range: Some((start, stop)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    View(View),
    Const(f64),
}

impl From<View> for Arg {
    fn from(v: View) -> Arg {
        Arg::View(v)
    }
}

impl From<f64> for Arg {
    fn from(c: f64) -> Arg {
        Arg::Const(c)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Min,
    Greater,
}

impl Bin {
    fn mnemonic(self) -> &'static str {
        match self {
            Bin::Add => "BH_ADD",
            Bin::Sub => "BH_SUBTRACT",
            Bin::Mul => "BH_MULTIPLY",
            Bin::Div => "BH_DIVIDE",
            Bin::Pow => "BH_POWER",
            Bin::Min => "BH_MINIMUM",
            Bin::Greater => "BH_GREATER",
        }
    }

    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Bin::Add => a + b,
            Bin::Sub => a - b,
            Bin::Mul => a * b,
            Bin::Div => a / b,
            Bin::Pow => pow_by_multiplying(a, b),
            Bin::Min => a.min(b),
            Bin::Greater => f64::from(a > b),
        }
    }
}

/// `a^b` for the small non-negative integer exponents the generators
/// emit, by the definition (repeated multiplication) rather than by any
/// schedule the optimiser might pick.
fn pow_by_multiplying(a: f64, b: f64) -> f64 {
    assert!(
        b >= 0.0 && b.fract() == 0.0 && b <= 64.0,
        "oracle supports small integer exponents only, got {b}"
    );
    let mut acc = 1.0;
    for _ in 0..b as u32 {
        acc *= a;
    }
    acc
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `BH_RANGE dst`: 0, 1, 2, …
    Range { dst: usize },
    /// `BH_IDENTITY dst src`: fill, copy or cast (by the registers' types).
    Copy { dst: View, src: Arg },
    /// Element-wise binary op.
    Bin { op: Bin, dst: View, a: Arg, b: Arg },
    /// `BH_ADD_REDUCE dst src axis`.
    SumReduce { dst: usize, src: usize, axis: usize },
    /// `BH_ADD_ACCUMULATE dst src 0` (rank 1).
    CumSum { dst: usize, src: usize },
    /// `BH_INVERSE dst a`.
    Inverse { dst: usize, a: usize },
    /// `BH_MATMUL dst a b`.
    MatMul { dst: usize, a: usize, b: usize },
    /// `BH_SYNC reg`.
    Sync { reg: usize },
}

/// A whole program: declarations plus instructions.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    pub regs: Vec<RegDecl>,
    pub ops: Vec<Op>,
}

impl Spec {
    pub fn reg(&mut self, name: &str, ty: Ty, shape: &[usize], input: bool) -> usize {
        self.regs.push(RegDecl {
            name: name.to_owned(),
            ty,
            shape: shape.to_vec(),
            input,
        });
        self.regs.len() - 1
    }

    pub fn bin(&mut self, op: Bin, dst: View, a: impl Into<Arg>, b: impl Into<Arg>) {
        self.ops.push(Op::Bin {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        });
    }

    /// In-place `reg = reg op c` on a full view.
    pub fn bin_const(&mut self, op: Bin, reg: usize, c: f64) {
        self.bin(op, View::full(reg), View::full(reg), c);
    }

    pub fn copy(&mut self, dst: View, src: impl Into<Arg>) {
        self.ops.push(Op::Copy {
            dst,
            src: src.into(),
        });
    }

    pub fn sync(&mut self, reg: usize) {
        self.ops.push(Op::Sync { reg });
    }

    /// The program as the textual byte-code the system under test parses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.regs {
            let dims: Vec<String> = r.shape.iter().map(ToString::to_string).collect();
            let _ = write!(out, ".base {} {}[{}]", r.name, r.ty.name(), dims.join(","));
            out.push_str(if r.input { " input\n" } else { "\n" });
        }
        for op in &self.ops {
            match op {
                Op::Range { dst } => {
                    let _ = writeln!(out, "BH_RANGE {}", self.regs[*dst].name);
                }
                Op::Copy { dst, src } => {
                    let _ = writeln!(out, "BH_IDENTITY {} {}", self.view(dst), self.arg(src));
                }
                Op::Bin { op, dst, a, b } => {
                    let _ = writeln!(
                        out,
                        "{} {} {} {}",
                        op.mnemonic(),
                        self.view(dst),
                        self.arg(a),
                        self.arg(b)
                    );
                }
                Op::SumReduce { dst, src, axis } => {
                    let _ = writeln!(
                        out,
                        "BH_ADD_REDUCE {} {} {axis}",
                        self.regs[*dst].name, self.regs[*src].name
                    );
                }
                Op::CumSum { dst, src } => {
                    let _ = writeln!(
                        out,
                        "BH_ADD_ACCUMULATE {} {} 0",
                        self.regs[*dst].name, self.regs[*src].name
                    );
                }
                Op::Inverse { dst, a } => {
                    let _ = writeln!(
                        out,
                        "BH_INVERSE {} {}",
                        self.regs[*dst].name, self.regs[*a].name
                    );
                }
                Op::MatMul { dst, a, b } => {
                    let _ = writeln!(
                        out,
                        "BH_MATMUL {} {} {}",
                        self.regs[*dst].name, self.regs[*a].name, self.regs[*b].name
                    );
                }
                Op::Sync { reg } => {
                    let _ = writeln!(out, "BH_SYNC {}", self.regs[*reg].name);
                }
            }
        }
        out
    }

    fn view(&self, v: &View) -> String {
        let name = &self.regs[v.reg].name;
        match v.range {
            None => name.clone(),
            Some((start, stop)) => format!("{name}[{start}:{stop}:1]"),
        }
    }

    fn arg(&self, a: &Arg) -> String {
        match a {
            Arg::View(v) => self.view(v),
            // `{}` on an f64 prints the shortest text that parses back to
            // the same value, and integers without a fraction.
            Arg::Const(c) => format!("{c}"),
        }
    }

    /// Interpret the program and return the final contents of `result`.
    /// `inputs[i]` holds the data of the i-th register declared `input`,
    /// in declaration order. Linear-algebra ops are not interpreted (the
    /// solve is checked by its residual instead).
    pub fn eval(&self, inputs: Vec<Vec<f64>>, result: usize) -> Vec<f64> {
        let mut mem: Vec<Vec<f64>> = Vec::with_capacity(self.regs.len());
        let mut next_input = inputs.into_iter();
        for r in &self.regs {
            if r.input {
                let data = next_input.next().expect("one data vector per input");
                assert_eq!(data.len(), r.len(), "input `{}` length", r.name);
                mem.push(data);
            } else {
                mem.push(vec![0.0; r.len()]);
            }
        }
        for op in &self.ops {
            match op {
                Op::Range { dst } => {
                    for (i, x) in mem[*dst].iter_mut().enumerate() {
                        *x = i as f64;
                    }
                }
                Op::Copy { dst, src } => {
                    let ty = self.regs[dst.reg].ty;
                    let (lo, hi) = self.bounds(dst);
                    let values: Vec<f64> = (0..hi - lo)
                        .map(|i| cast(self.load(&mem, src, i), ty))
                        .collect();
                    mem[dst.reg][lo..hi].copy_from_slice(&values);
                }
                Op::Bin { op, dst, a, b } => {
                    let (lo, hi) = self.bounds(dst);
                    // Computed into a temporary first: the destination
                    // may alias either operand.
                    let values: Vec<f64> = (0..hi - lo)
                        .map(|i| op.apply(self.load(&mem, a, i), self.load(&mem, b, i)))
                        .collect();
                    mem[dst.reg][lo..hi].copy_from_slice(&values);
                }
                Op::SumReduce { dst, src, axis } => {
                    let out = sum_reduce(&mem[*src], &self.regs[*src].shape, *axis);
                    mem[*dst] = out;
                }
                Op::CumSum { dst, src } => {
                    let mut acc = 0.0;
                    let out: Vec<f64> = mem[*src]
                        .iter()
                        .map(|x| {
                            acc += x;
                            acc
                        })
                        .collect();
                    mem[*dst] = out;
                }
                Op::Inverse { .. } | Op::MatMul { .. } => {
                    panic!("linear algebra is checked by residual, not interpreted")
                }
                Op::Sync { .. } => {}
            }
        }
        mem.swap_remove(result)
    }

    fn bounds(&self, v: &View) -> (usize, usize) {
        v.range.unwrap_or((0, self.regs[v.reg].len()))
    }

    fn load(&self, mem: &[Vec<f64>], a: &Arg, i: usize) -> f64 {
        match a {
            Arg::Const(c) => *c,
            Arg::View(v) => mem[v.reg][self.bounds(v).0 + i],
        }
    }
}

fn cast(x: f64, ty: Ty) -> f64 {
    match ty {
        Ty::F64 => x,
        Ty::I32 => x.trunc(),
        Ty::Bool => f64::from(x != 0.0),
    }
}

fn sum_reduce(data: &[f64], shape: &[usize], axis: usize) -> Vec<f64> {
    match (shape, axis) {
        ([_], 0) => vec![data.iter().sum()],
        ([rows, cols], 0) => {
            let mut out = vec![0.0; *cols];
            for r in 0..*rows {
                for c in 0..*cols {
                    out[c] += data[r * cols + c];
                }
            }
            out
        }
        ([rows, cols], 1) => (0..*rows)
            .map(|r| data[r * cols..(r + 1) * cols].iter().sum())
            .collect(),
        _ => panic!("oracle: unsupported reduction of shape {shape:?} along axis {axis}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_papers_listing_two() {
        let mut s = Spec::default();
        let a = s.reg("a0", Ty::F64, &[10], false);
        s.copy(View::full(a), 0.0);
        for _ in 0..3 {
            s.bin_const(Bin::Add, a, 1.0);
        }
        s.sync(a);
        assert_eq!(
            s.render(),
            ".base a0 f64[10]\nBH_IDENTITY a0 0\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\n\
             BH_ADD a0 a0 1\nBH_SYNC a0\n"
        );
        assert_eq!(s.eval(vec![], a), vec![3.0; 10]);
    }

    #[test]
    fn interprets_slices_casts_and_reductions() {
        let mut s = Spec::default();
        let u = s.reg("u", Ty::F64, &[5], true);
        let v = s.reg("v", Ty::F64, &[5], false);
        s.copy(View::full(v), View::full(u));
        s.bin(
            Bin::Add,
            View::slice(v, 1, 4),
            View::slice(u, 0, 3),
            View::slice(u, 2, 5),
        );
        let got = s.eval(vec![vec![1.0, 2.0, 4.0, 8.0, 16.0]], v);
        assert_eq!(got, vec![1.0, 5.0, 10.0, 20.0, 16.0]);

        let mut s = Spec::default();
        let m = s.reg("m", Ty::F64, &[2, 3], true);
        let r0 = s.reg("r0", Ty::F64, &[3], false);
        let r1 = s.reg("r1", Ty::F64, &[2], false);
        s.ops.push(Op::SumReduce {
            dst: r0,
            src: m,
            axis: 0,
        });
        s.ops.push(Op::SumReduce {
            dst: r1,
            src: m,
            axis: 1,
        });
        let data = vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        assert_eq!(s.eval(vec![data.clone()], r0), vec![11.0, 22.0, 33.0]);
        assert_eq!(s.eval(vec![data], r1), vec![6.0, 60.0]);

        let mut s = Spec::default();
        let k = s.reg("k", Ty::I32, &[3], true);
        let x = s.reg("x", Ty::F64, &[3], false);
        let b = s.reg("b", Ty::Bool, &[3], false);
        s.copy(View::full(x), View::full(k));
        s.bin(Bin::Greater, View::full(b), View::full(x), 1.5);
        assert_eq!(s.eval(vec![vec![1.0, 2.0, 3.0]], b), vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn power_is_repeated_multiplication() {
        assert_eq!(Bin::Pow.apply(1.75, 16.0), 1.75f64.powi(16));
        assert_eq!(Bin::Pow.apply(3.0, 0.0), 1.0);
    }
}
