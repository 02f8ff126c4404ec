//! Seeded generators for the four workload populations, and the
//! expectation each case's output is checked against.
//!
//! `--seed` is the only source of randomness. The seed picks constants,
//! input data and request order; it never changes how many programs a
//! population has, how long they are or which template they come from,
//! so the work per round is (very nearly: the constants decide a few
//! rewrites) the same for every seed and the metrics of two seeds are
//! comparable.
//!
//! Element-wise data is exact by construction: inputs, constants and
//! every intermediate are small dyadic rationals that `f64` holds
//! exactly, so *any* algebraically valid rewrite (re-association,
//! constant merging, power expansion) yields bit-identical results and
//! the oracle can demand equality. Reductions and scans are compared to
//! 1e-9 relative (the VM folds in blocks), the solve by its residual.

use crate::spec::{Bin, Op, Spec, Ty, View};

/// SplitMix64: small, seedable, and good enough to pick constants.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn pick(&mut self, items: &[f64]) -> f64 {
        items[self.below(items.len() as u64) as usize]
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Input data for one register declared `input`.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    F64(Vec<f64>),
    I32(Vec<i32>),
}

impl Data {
    fn as_f64(&self) -> Vec<f64> {
        match self {
            Data::F64(v) => v.clone(),
            Data::I32(v) => v.iter().map(|&x| f64::from(x)).collect(),
        }
    }
}

/// Outputs longer than this are checked by first/last/sum, not in full.
const FULL_CHECK_MAX: usize = 4096;

/// What a correct response looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Every element, to `rel` relative (0 = bit-exact).
    Full { values: Vec<f64>, rel: f64 },
    /// Length, first, last and sum, to `rel` relative (0 = bit-exact; both
    /// sums are taken by the same loop, so equal arrays give equal sums).
    Digest {
        len: usize,
        first: f64,
        last: f64,
        sum: f64,
        rel: f64,
    },
    /// `x` solves `a·x = b` (row-major `m×m`): ‖a·x − b‖∞ ≤ `tol`.
    Residual { a: Vec<f64>, b: Vec<f64>, tol: f64 },
}

fn close(got: f64, want: f64, rel: f64) -> bool {
    if rel == 0.0 {
        got == want
    } else {
        (got - want).abs() <= rel * want.abs().max(1.0)
    }
}

impl Expect {
    fn from_oracle(values: Vec<f64>, rel: f64) -> Expect {
        if values.len() <= FULL_CHECK_MAX {
            Expect::Full { values, rel }
        } else {
            Expect::Digest {
                len: values.len(),
                first: values[0],
                last: values[values.len() - 1],
                sum: values.iter().sum(),
                rel,
            }
        }
    }

    pub fn matches(&self, got: &[f64]) -> bool {
        match self {
            Expect::Full { values, rel } => {
                got.len() == values.len()
                    && got.iter().zip(values).all(|(g, w)| close(*g, *w, *rel))
            }
            Expect::Digest {
                len,
                first,
                last,
                sum,
                rel,
            } => {
                got.len() == *len
                    && close(got[0], *first, *rel)
                    && close(got[len - 1], *last, *rel)
                    && close(got.iter().sum(), *sum, *rel)
            }
            Expect::Residual { a, b, tol } => {
                let m = b.len();
                got.len() == m
                    && (0..m).all(|r| {
                        let ax: f64 = a[r * m..(r + 1) * m]
                            .iter()
                            .zip(got)
                            .map(|(p, q)| p * q)
                            .sum();
                        (ax - b[r]).abs() <= *tol
                    })
            }
        }
    }
}

/// One program of a population with its inputs and expected output.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub spec: Spec,
    /// One entry per register declared `input`, in declaration order.
    pub inputs: Vec<Data>,
    pub result: usize,
    pub expect: Expect,
    /// Elements of the program's main array, the divisor of ns/elem.
    pub elems: usize,
}

impl Case {
    /// Finish a case by running the oracle over the spec.
    fn checked(name: &str, spec: Spec, inputs: Vec<Data>, result: usize, rel: f64) -> Case {
        let data: Vec<Vec<f64>> = inputs.iter().map(Data::as_f64).collect();
        let expect = Expect::from_oracle(spec.eval(data, result), rel);
        let elems = spec.regs.iter().map(|r| r.len()).max().unwrap_or(0);
        Case {
            name: name.to_owned(),
            spec,
            inputs,
            result,
            expect,
            elems,
        }
    }
}

/// Reductions and scans: the VM folds in 4096-element blocks, the
/// oracle left to right.
const FOLD_REL: f64 = 1e-9;

/// Picks ×2 or ×0.5 so the running binary exponent stays within ±`limit`.
fn balanced_pow2(rng: &mut Rng, exponent: &mut i32, limit: i32) -> f64 {
    let up = if *exponent >= limit {
        false
    } else if *exponent <= -limit {
        true
    } else {
        rng.below(2) == 0
    };
    *exponent += if up { 1 } else { -1 };
    if up {
        2.0
    } else {
        0.5
    }
}

/// `wire_hot_small` / the `small` probe population: 8 programs of 24
/// element-wise ops over n = 48…55, alternating three mergeable adds
/// with three mergeable multiplies. The optimised plan keeps one fused
/// group of 8 ops, so a hit still walks the fusion machinery.
pub fn small(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ 0x5EED_0001);
    (0..8)
        .map(|p| {
            let mut s = Spec::default();
            let a = s.reg("a", Ty::F64, &[48 + p], false);
            s.ops.push(Op::Range { dst: a });
            for run in 0..8 {
                if run % 2 == 0 {
                    for _ in 0..3 {
                        let c = rng.pick(&[1.0, 2.0, 3.0]);
                        s.bin_const(Bin::Add, a, c);
                    }
                } else {
                    // Product 2 or ½, never 1: the run must survive
                    // identity simplification for every seed.
                    let mut cs = if rng.below(2) == 0 {
                        [2.0, 2.0, 0.5]
                    } else {
                        [0.5, 0.5, 2.0]
                    };
                    rng.shuffle(&mut cs);
                    for c in cs {
                        s.bin_const(Bin::Mul, a, c);
                    }
                }
            }
            s.sync(a);
            Case::checked(&format!("small{p}"), s, Vec::new(), a, 0.0)
        })
        .collect()
}

pub const CHURN_PROGRAMS: usize = 512;

/// `compile_churn`: 512 programs of 32–128 instructions from five
/// templates. Template, length and n are functions of the index alone
/// (so every seed compiles the same amount of byte-code); the seed
/// picks the constants. `(template, n)` is unique, so no two programs
/// share a digest and a 256-entry cache cycled over them never hits.
pub fn churn(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ 0x5EED_0002);
    (0..CHURN_PROGRAMS)
        .map(|i| {
            let n = 64 + i * 3 / 8;
            let len = 33 + (i / 5) * 95 / 102;
            let name = format!("churn{i}");
            match i % 5 {
                0 => churn_constant_merge(&name, n, len, &mut rng),
                1 => churn_power(&name, n, len, &mut rng),
                2 => churn_identities(&name, n, len, &mut rng),
                3 => churn_temporaries(&name, n, len, &mut rng, false),
                _ => churn_temporaries(&name, n, len, &mut rng, true),
            }
        })
        .collect()
}

/// Runs of mergeable adds and multiplies on one register (Listing 2).
fn churn_constant_merge(name: &str, n: usize, len: usize, rng: &mut Rng) -> Case {
    let mut s = Spec::default();
    let a = s.reg("a", Ty::F64, &[n], false);
    s.ops.push(Op::Range { dst: a });
    s.bin_const(Bin::Min, a, 7.0);
    let mut exponent = 0;
    let mut adding = true;
    while s.ops.len() + 1 < len {
        for _ in 0..2 + rng.below(5) {
            if s.ops.len() + 1 >= len {
                break;
            }
            if adding {
                let c = rng.pick(&[1.0, 2.0, 3.0]);
                s.bin_const(Bin::Add, a, c);
            } else {
                let c = balanced_pow2(rng, &mut exponent, 3);
                s.bin_const(Bin::Mul, a, c);
            }
        }
        adding = !adding;
    }
    s.sync(a);
    Case::checked(name, s, Vec::new(), a, 0.0)
}

/// `acc += x^k` for k in 2..=10 (Eq. 1): x ∈ {1, 1.25, 1.5, 1.75}, so
/// every power and the running sum are exact.
fn churn_power(name: &str, n: usize, len: usize, rng: &mut Rng) -> Case {
    let mut s = Spec::default();
    let x = s.reg("x", Ty::F64, &[n], false);
    let p = s.reg("p", Ty::F64, &[n], false);
    let acc = s.reg("acc", Ty::F64, &[n], false);
    s.ops.push(Op::Range { dst: x });
    s.bin_const(Bin::Min, x, 3.0);
    s.bin_const(Bin::Mul, x, 0.25);
    s.bin_const(Bin::Add, x, 1.0);
    s.copy(View::full(acc), 0.0);
    while s.ops.len() + 2 < len {
        let k = 2 + rng.below(9);
        s.bin(Bin::Pow, View::full(p), View::full(x), k as f64);
        s.bin(Bin::Add, View::full(acc), View::full(acc), View::full(p));
    }
    s.sync(acc);
    Case::checked(name, s, Vec::new(), acc, 0.0)
}

/// Identities (`x+0`, `x·1`, `x¹`, `x/1`, `x−0`), an annihilator
/// (`t = x·0`) and a few real adds between them.
fn churn_identities(name: &str, n: usize, len: usize, rng: &mut Rng) -> Case {
    let mut s = Spec::default();
    let a = s.reg("a", Ty::F64, &[n], false);
    let t = s.reg("t", Ty::F64, &[n], false);
    s.ops.push(Op::Range { dst: a });
    while s.ops.len() + 2 < len {
        match rng.below(8) {
            0 => s.bin_const(Bin::Add, a, 0.0),
            1 => s.bin_const(Bin::Mul, a, 1.0),
            2 => s.bin_const(Bin::Pow, a, 1.0),
            3 => s.bin_const(Bin::Div, a, 1.0),
            4 => s.bin_const(Bin::Sub, a, 0.0),
            5 => {
                s.bin(Bin::Mul, View::full(t), View::full(a), 0.0);
                s.bin(Bin::Add, View::full(a), View::full(a), View::full(t));
            }
            _ => {
                let c = rng.pick(&[1.0, 2.0, 3.0]);
                s.bin_const(Bin::Add, a, c);
            }
        }
    }
    // The annihilator pair may stop one short; every seed must emit
    // exactly `len` instructions.
    while s.ops.len() + 1 < len {
        s.bin_const(Bin::Add, a, 0.0);
    }
    s.sync(a);
    Case::checked(name, s, Vec::new(), a, 0.0)
}

/// A nested expression through temporaries with copies in between
/// (copy propagation, CSE and DCE have work to do); with `reduce_tail`
/// the chain ends in a full sum.
fn churn_temporaries(name: &str, n: usize, len: usize, rng: &mut Rng, reduce_tail: bool) -> Case {
    let mut s = Spec::default();
    let x = s.reg("x", Ty::F64, &[n], false);
    let temps = [
        s.reg("t0", Ty::F64, &[n], false),
        s.reg("t1", Ty::F64, &[n], false),
        s.reg("u", Ty::F64, &[n], false),
    ];
    s.ops.push(Op::Range { dst: x });
    s.bin_const(Bin::Min, x, 15.0);
    let tail = if reduce_tail { 2 } else { 1 };
    let mut src = x;
    let mut exponent = 0;
    let mut step = 0;
    while s.ops.len() + tail < len {
        let dst = temps[step % 3];
        match step % 4 {
            0 => {
                let c = balanced_pow2(rng, &mut exponent, 3);
                s.bin(Bin::Mul, View::full(dst), View::full(src), c);
            }
            2 => s.copy(View::full(dst), View::full(src)),
            _ => {
                let c = rng.pick(&[0.25, 0.5, 1.0, 2.0]);
                s.bin(Bin::Add, View::full(dst), View::full(src), c);
            }
        }
        src = dst;
        step += 1;
    }
    if reduce_tail {
        let total = s.reg("s", Ty::F64, &[], false);
        s.ops.push(Op::SumReduce {
            dst: total,
            src,
            axis: 0,
        });
        s.sync(total);
        Case::checked(name, s, Vec::new(), total, FOLD_REL)
    } else {
        s.sync(src);
        Case::checked(name, s, Vec::new(), src, 0.0)
    }
}

/// Multiples of ¼ in [0, 256): exact under every op the chains apply.
fn dyadic_vector(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.below(1024) as f64 * 0.25).collect()
}

/// 16 element-wise ops through alternating temporaries, ×1.5/×0.5 and
/// +¼k — the byte-code a front-end emits for a nested expression.
fn chain16(s: &mut Spec, x: usize, n: usize, rng: &mut Rng) -> usize {
    let temps = [
        s.reg("t0", Ty::F64, &[n], false),
        s.reg("t1", Ty::F64, &[n], false),
    ];
    let mut src = x;
    for i in 0..16 {
        let dst = temps[i % 2];
        if i % 2 == 0 {
            let c = if i % 4 == 0 { 1.5 } else { 0.5 };
            s.bin(Bin::Mul, View::full(dst), View::full(src), c);
        } else {
            let c = 0.25 * (1 + rng.below(8)) as f64;
            s.bin(Bin::Add, View::full(dst), View::full(src), c);
        }
        src = dst;
    }
    src
}

/// `kernel_stream` / the `kernels` probe population: eight programs
/// over 2²⁰ f64 (8 MiB per array, far beyond L2), each dominated by
/// one kind of `bh-vm`/`bh-tensor` kernel.
pub fn kernels(seed: u64) -> Vec<Case> {
    const N: usize = 1 << 20;
    const SIDE: usize = 1024;
    let mut rng = Rng::new(seed ^ 0x5EED_0003);
    let x_data = dyadic_vector(&mut rng, N);
    let mut out = Vec::with_capacity(8);

    let mut s = Spec::default();
    let x = s.reg("x", Ty::F64, &[N], true);
    let y = chain16(&mut s, x, N, &mut rng);
    s.sync(y);
    out.push(Case::checked(
        "chain16",
        s,
        vec![Data::F64(x_data.clone())],
        y,
        0.0,
    ));

    let mut s = Spec::default();
    let x = s.reg("x", Ty::F64, &[N], true);
    let total = s.reg("s", Ty::F64, &[], false);
    let y = chain16(&mut s, x, N, &mut rng);
    s.ops.push(Op::SumReduce {
        dst: total,
        src: y,
        axis: 0,
    });
    s.sync(total);
    out.push(Case::checked(
        "chain_reduce16",
        s,
        vec![Data::F64(x_data.clone())],
        total,
        FOLD_REL,
    ));

    let mut s = Spec::default();
    let x = s.reg("x", Ty::F64, &[N], true);
    let total = s.reg("s", Ty::F64, &[], false);
    s.ops.push(Op::SumReduce {
        dst: total,
        src: x,
        axis: 0,
    });
    s.sync(total);
    out.push(Case::checked(
        "sum",
        s,
        vec![Data::F64(x_data.clone())],
        total,
        FOLD_REL,
    ));

    let mut s = Spec::default();
    let x = s.reg("x", Ty::F64, &[N], true);
    let c = s.reg("c", Ty::F64, &[N], false);
    s.ops.push(Op::CumSum { dst: c, src: x });
    s.sync(c);
    out.push(Case::checked(
        "cumsum",
        s,
        vec![Data::F64(x_data.clone())],
        c,
        FOLD_REL,
    ));

    // v = ((u[i-1] + u[i+1])/2 + u[i])/2 on the interior, 2²¹ points.
    let n2 = 2 * N;
    let mut s = Spec::default();
    let u = s.reg("u", Ty::F64, &[n2], true);
    let v = s.reg("v", Ty::F64, &[n2], false);
    let inner = View::slice(v, 1, n2 - 1);
    s.copy(View::full(v), View::full(u));
    s.bin(
        Bin::Add,
        inner,
        View::slice(u, 0, n2 - 2),
        View::slice(u, 2, n2),
    );
    s.bin(Bin::Mul, inner, inner, 0.5);
    s.bin(Bin::Add, inner, inner, View::slice(u, 1, n2 - 1));
    s.bin(Bin::Mul, inner, inner, 0.5);
    s.sync(v);
    let u_data = dyadic_vector(&mut rng, n2);
    out.push(Case::checked("heat", s, vec![Data::F64(u_data)], v, 0.0));

    for axis in 0..2 {
        let mut s = Spec::default();
        let m = s.reg("m", Ty::F64, &[SIDE, SIDE], true);
        let r = s.reg("r", Ty::F64, &[SIDE], false);
        s.ops.push(Op::SumReduce {
            dst: r,
            src: m,
            axis,
        });
        s.sync(r);
        out.push(Case::checked(
            &format!("axis{axis}"),
            s,
            vec![Data::F64(x_data.clone())],
            r,
            FOLD_REL,
        ));
    }

    // i32 → f64 cast, arithmetic, compare, bool → f64 cast, mask.
    let mut s = Spec::default();
    let k = s.reg("k", Ty::I32, &[N], true);
    let xf = s.reg("xf", Ty::F64, &[N], false);
    let mask = s.reg("mask", Ty::Bool, &[N], false);
    let y = s.reg("y", Ty::F64, &[N], false);
    s.copy(View::full(xf), View::full(k));
    s.bin_const(Bin::Mul, xf, 0.5);
    s.bin_const(Bin::Add, xf, 1.0);
    s.bin(Bin::Greater, View::full(mask), View::full(xf), 250.0);
    s.copy(View::full(y), View::full(mask));
    s.bin(Bin::Mul, View::full(y), View::full(y), View::full(xf));
    s.sync(y);
    let k_data: Vec<i32> = (0..N).map(|_| rng.below(1000) as i32).collect();
    out.push(Case::checked(
        "cast_cmp",
        s,
        vec![Data::I32(k_data)],
        y,
        0.0,
    ));

    out
}

/// `paper_rewrites` / the `paper` probe population: the paper's
/// listings at sizes where the rewritten byte-code is what runs.
pub fn paper(seed: u64) -> Vec<Case> {
    const N: usize = 1_000_000;
    const M: usize = 256;
    let mut rng = Rng::new(seed ^ 0x5EED_0004);
    let x_data = dyadic_vector(&mut rng, N);
    let quarters: Vec<f64> = (0..N).map(|_| 1.0 + 0.25 * rng.below(4) as f64).collect();
    let mut out = Vec::with_capacity(7);

    // One register copied from the bound input, then `ops` in place.
    let in_place = |name: &str, data: &[f64], ops: &mut dyn FnMut(&mut Spec, usize)| {
        let mut s = Spec::default();
        let x = s.reg("x", Ty::F64, &[N], true);
        let a = s.reg("a", Ty::F64, &[N], false);
        s.copy(View::full(a), View::full(x));
        ops(&mut s, a);
        s.sync(a);
        Case::checked(name, s, vec![Data::F64(data.to_vec())], a, 0.0)
    };

    // Listing 2 → 3 at k = 32.
    out.push(in_place("addchain32", &x_data, &mut |s, a| {
        for _ in 0..32 {
            let c = rng.pick(&[1.0, 2.0, 3.0]);
            s.bin_const(Bin::Add, a, c);
        }
    }));
    let mut exponent = 0;
    out.push(in_place("mulchain32", &x_data, &mut |s, a| {
        for _ in 0..32 {
            let c = balanced_pow2(&mut rng, &mut exponent, 4);
            s.bin_const(Bin::Mul, a, c);
        }
    }));

    // Eq. 1: x ∈ {1, 1.25, 1.5, 1.75} keeps x¹⁶ exact (7¹⁶ < 2⁵³).
    for k in [10u32, 16] {
        let mut s = Spec::default();
        let x = s.reg("x", Ty::F64, &[N], true);
        let y = s.reg("y", Ty::F64, &[N], false);
        s.bin(Bin::Pow, View::full(y), View::full(x), f64::from(k));
        s.sync(y);
        out.push(Case::checked(
            &format!("pow{k}"),
            s,
            vec![Data::F64(quarters.clone())],
            y,
            0.0,
        ));
    }

    // Eq. 2: inverse-then-multiply, which the optimiser turns into a
    // solve. A is diagonally boosted, so it is well conditioned.
    let mut s = Spec::default();
    let a = s.reg("a", Ty::F64, &[M, M], true);
    let b = s.reg("b", Ty::F64, &[M], true);
    let t = s.reg("t", Ty::F64, &[M, M], false);
    let x = s.reg("x", Ty::F64, &[M], false);
    s.ops.push(Op::Inverse { dst: t, a });
    s.ops.push(Op::MatMul { dst: x, a: t, b });
    s.sync(x);
    let mut a_data: Vec<f64> = (0..M * M).map(|_| rng.unit()).collect();
    for i in 0..M {
        a_data[i * M + i] += M as f64;
    }
    let b_data: Vec<f64> = (0..M).map(|_| rng.unit()).collect();
    out.push(Case {
        name: "solve256".to_owned(),
        spec: s,
        inputs: vec![Data::F64(a_data.clone()), Data::F64(b_data.clone())],
        result: x,
        expect: Expect::Residual {
            a: a_data,
            b: b_data,
            tol: 1e-8,
        },
        elems: M * M,
    });

    out.push(in_place("identity_chain", &x_data, &mut |s, a| {
        for i in 0..24 {
            match i % 6 {
                0 => s.bin_const(Bin::Add, a, 0.0),
                1 => s.bin_const(Bin::Mul, a, 1.0),
                2 => s.bin_const(Bin::Pow, a, 1.0),
                3 => s.bin_const(Bin::Div, a, 1.0),
                4 => s.bin_const(Bin::Sub, a, 0.0),
                _ => {
                    let c = rng.pick(&[1.0, 2.0, 3.0]);
                    s.bin_const(Bin::Add, a, c);
                }
            }
        }
    }));

    // x·2 → x+x, x/4 → x·¼, and a `t = a − a` that folds to zero.
    let mut s = Spec::default();
    let x = s.reg("x", Ty::F64, &[N], true);
    let a = s.reg("a", Ty::F64, &[N], false);
    let t = s.reg("t", Ty::F64, &[N], false);
    s.copy(View::full(a), View::full(x));
    for _ in 0..4 {
        s.bin_const(Bin::Mul, a, 2.0);
        s.bin_const(Bin::Div, a, 4.0);
        s.bin(Bin::Sub, View::full(t), View::full(a), View::full(a));
        s.bin(Bin::Add, View::full(a), View::full(a), View::full(t));
        let c = rng.pick(&[1.0, 2.0, 3.0]);
        s.bin_const(Bin::Add, a, c);
    }
    s.sync(a);
    out.push(Case::checked(
        "strength_chain",
        s,
        vec![Data::F64(x_data)],
        a,
        0.0,
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn rendered(cases: &[Case]) -> Vec<String> {
        cases.iter().map(|c| c.spec.render()).collect()
    }

    #[test]
    fn one_seed_generates_byte_identical_populations() {
        assert_eq!(rendered(&small(7)), rendered(&small(7)));
        assert_eq!(rendered(&churn(7)), rendered(&churn(7)));
        assert_ne!(rendered(&small(7)), rendered(&small(8)));
        let (a, b) = (churn(7), churn(7));
        assert!(a.iter().zip(&b).all(|(p, q)| p.expect == q.expect));
    }

    #[test]
    fn churn_programs_are_distinct_and_sized_as_documented() {
        let cases = churn(3);
        assert_eq!(cases.len(), CHURN_PROGRAMS);
        let texts: HashSet<String> = rendered(&cases).into_iter().collect();
        assert_eq!(texts.len(), CHURN_PROGRAMS);
        for c in &cases {
            let n = c.spec.ops.len();
            assert!((32..=128).contains(&n), "{} has {n} instructions", c.name);
            assert!(c.elems <= 256);
        }
        // Same byte-code volume for every seed.
        let volume = |cs: &[Case]| cs.iter().map(|c| c.spec.ops.len()).sum::<usize>();
        assert_eq!(volume(&cases), volume(&churn(4)));
    }

    #[test]
    fn small_programs_have_24_elementwise_ops() {
        for c in small(1) {
            assert_eq!(c.spec.ops.len(), 26);
            assert!((48..56).contains(&c.elems));
        }
    }

    #[test]
    fn expectations_reject_wrong_outputs() {
        let full = Expect::from_oracle(vec![1.0, 2.0], 0.0);
        assert!(full.matches(&[1.0, 2.0]));
        assert!(!full.matches(&[1.0, 2.0 + 1e-12]));
        assert!(!full.matches(&[1.0]));
        let fold = Expect::from_oracle(vec![1e6], FOLD_REL);
        assert!(fold.matches(&[1e6 + 1e-4]));
        assert!(!fold.matches(&[1e6 + 1.0]));
        let big: Vec<f64> = (0..5000).map(f64::from).collect();
        let digest = Expect::from_oracle(big.clone(), 0.0);
        assert!(matches!(digest, Expect::Digest { .. }));
        assert!(digest.matches(&big));
        let mut wrong = big;
        wrong[2500] += 1.0;
        assert!(!digest.matches(&wrong));
        let solve = Expect::Residual {
            a: vec![2.0, 0.0, 0.0, 4.0],
            b: vec![2.0, 4.0],
            tol: 1e-8,
        };
        assert!(solve.matches(&[1.0, 1.0]));
        assert!(!solve.matches(&[1.0, 1.1]));
    }
}
