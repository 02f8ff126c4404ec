//! Translation validation: a static plan auditor.
//!
//! [`check_equiv`] proves — symbolically, without running anything — that
//! a transformed program computes the same observable results as its
//! source. Each instruction is abstractly interpreted into a *symbolic
//! value number* drawn from a hash-consed expression table shared by both
//! programs; algebraic normal forms mirror exactly the rewrite catalogue
//! of `bh-opt` (commutative-operand canonicalisation, identity /
//! annihilator / strength / power / constant-fold closure), and constant
//! links compose into the normal form `k·e + b` through
//! [`crate::affine`], the algebra `constant-merge` folds with. So any plan
//! a sound rule application produced value-numbers identically to its
//! source.
//!
//! The pass is **dtype- and `strict_math`-aware**: float reassociation is
//! only accepted when [`EquivOptions::fast_math`] says the rules were
//! allowed to assume it, mirroring `reassoc_allowed` in the rewrite
//! engine; so is ignoring the sign of a zero. Exact IEEE identities
//! (`x·1`, `x/1`, `x−c ≡ x+(−c)`, `x·2 ≡ x+x`, float `x/2ᵏ ≡ x·2⁻ᵏ`) are
//! accepted unconditionally.
//!
//! The auditor is deliberately one-sided: it may *reject* a correct plan
//! (the caller rolls the rewrite back — graceful degradation), but it
//! never accepts a plan it cannot prove. Constructs outside the symbolic
//! domain report [`EquivCode::Unsupported`] rather than passing.
//!
//! # Observation model
//!
//! Mirrors the dead-code contract of [`crate::analysis::Liveness`]:
//!
//! * **Synced-only** (default): the observables are the values each
//!   `BH_SYNC` sees *at the sync point*, in order. A write after a
//!   register's last sync is unobservable (DCE may delete it).
//! * **All registers** ([`EquivOptions::observe_all`]): additionally,
//!   every register declared by the source program must hold the same
//!   final value at exit.
//!
//! `BH_FREE` effects are compared as a multiset per register name
//! ([`EquivCode::FreeDivergence`]); a freed register reads back as
//! zero-fill afterwards, exactly like the VM's allocation contract.
//!
//! # Example
//!
//! ```
//! use bh_ir::{check_equiv, parse_program, EquivOptions};
//!
//! let before = parse_program(
//!     ".base x f64[8] input\n\
//!      BH_ADD x x 1\n\
//!      BH_ADD x x 2\n\
//!      BH_SYNC x\n")?;
//! let after = parse_program(
//!     ".base x f64[8] input\n\
//!      BH_ADD x x 3\n\
//!      BH_SYNC x\n")?;
//! // Merging (x+1)+2 into x+3 reassociates f64 adds: it is only
//! // accepted when the rules were allowed to assume fast-math.
//! assert!(check_equiv(&before, &after, &EquivOptions::default()).is_ok());
//! assert!(check_equiv(&before, &after, &EquivOptions::default().strict_math()).is_err());
//! # Ok::<(), bh_ir::ParseError>(())
//! ```

use crate::affine::Affine;
use crate::fold::const_eval;
use crate::opcode::{OpKind, Opcode};
use crate::operand::{Operand, ViewRef};
use crate::program::Program;
use bh_tensor::{DType, Scalar, ViewGeom};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

// ---------------------------------------------------------------------------
// Error catalogue
// ---------------------------------------------------------------------------

/// Stable audit error codes (`A1xx` observables, `A2xx` layout, `A3xx`
/// effects and domain limits).
///
/// The numeric code of a variant never changes; new checks get new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EquivCode {
    /// A100 — an observable register's symbolic value differs (at a sync
    /// point, or at exit under [`EquivOptions::observe_all`]).
    ValueMismatch,
    /// A101 — a register observable in the source program is never
    /// observable in the transformed program (sync dropped, or the
    /// register's declaration is gone).
    MissingObservable,
    /// A102 — the transformed program observes (syncs) a register the
    /// source program never did.
    ExtraObservable,
    /// A200 — an observable register's declared shape differs between the
    /// two programs.
    ShapeDivergence,
    /// A201 — an observable register's declared dtype differs between the
    /// two programs.
    DTypeDivergence,
    /// A300 — sync effects were reordered or re-counted: the interleaving
    /// of `BH_SYNC`s changed, or a register is synced a different number
    /// of times (a write moved across an aliasing sync).
    EffectReorder,
    /// A301 — the multiset of `BH_FREE`d registers differs (a release
    /// effect was added or dropped).
    FreeDivergence,
    /// A302 — a construct falls outside the symbolic domain (unresolvable
    /// view, malformed operand pattern); the auditor refuses rather than
    /// guessing.
    Unsupported,
}

impl EquivCode {
    /// Every code, for exhaustive catalogue tests and documentation.
    pub const ALL: [EquivCode; 8] = [
        EquivCode::ValueMismatch,
        EquivCode::MissingObservable,
        EquivCode::ExtraObservable,
        EquivCode::ShapeDivergence,
        EquivCode::DTypeDivergence,
        EquivCode::EffectReorder,
        EquivCode::FreeDivergence,
        EquivCode::Unsupported,
    ];

    /// The stable code string (`"A100"`).
    pub fn as_str(self) -> &'static str {
        match self {
            EquivCode::ValueMismatch => "A100",
            EquivCode::MissingObservable => "A101",
            EquivCode::ExtraObservable => "A102",
            EquivCode::ShapeDivergence => "A200",
            EquivCode::DTypeDivergence => "A201",
            EquivCode::EffectReorder => "A300",
            EquivCode::FreeDivergence => "A301",
            EquivCode::Unsupported => "A302",
        }
    }
}

impl fmt::Display for EquivCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One audit failure: a stable code, the register it concerns (when one
/// can be named) and a human-readable detail.
///
/// `#[non_exhaustive]` so fields can grow without breaking downstream
/// constructors — build one with [`EquivError::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct EquivError {
    /// The stable code.
    pub code: EquivCode,
    /// The register name the failure concerns, when attributable.
    pub register: Option<String>,
    /// Human-readable specifics.
    pub detail: String,
}

impl EquivError {
    /// A failure for `code`, optionally attributed to a register.
    pub fn new(code: EquivCode, register: Option<String>, detail: impl Into<String>) -> EquivError {
        EquivError {
            code,
            register,
            detail: detail.into(),
        }
    }

    /// The stable machine code (`"A100"`…), for wire protocols and logs
    /// that must not match on `Display` text.
    pub fn code(&self) -> &'static str {
        self.code.as_str()
    }
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.register {
            Some(r) => write!(f, "{} at `{}`: {}", self.code, r, self.detail),
            None => write!(f, "{}: {}", self.code, self.detail),
        }
    }
}

impl std::error::Error for EquivError {}

/// Options for [`check_equiv`], mirroring the rewrite context the plan
/// was optimised under. The audit must run with the *same* policy the
/// optimiser used, or sound rewrites will be rejected (fast-math plans
/// audited strictly) — never the reverse: a mismatch can only make the
/// audit more conservative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EquivOptions {
    /// Accept float reassociation (mirror of `RewriteCtx::fast_math`).
    /// Exact IEEE identities are accepted regardless.
    pub fast_math: bool,
    /// Require every source-program register to hold an equal value at
    /// exit (mirror of `LiveAtExit::AllRegisters`).
    pub observe_all: bool,
}

impl Default for EquivOptions {
    fn default() -> EquivOptions {
        EquivOptions {
            fast_math: true,
            observe_all: false,
        }
    }
}

impl EquivOptions {
    /// Strict IEEE float semantics: reject float reassociation.
    pub fn strict_math(mut self) -> EquivOptions {
        self.fast_math = false;
        self
    }

    /// Treat every source register as observable at exit.
    pub fn observe_all(mut self) -> EquivOptions {
        self.observe_all = true;
        self
    }
}

/// Proof record returned by a successful audit. Constructible only by
/// [`check_equiv`] (the struct is `#[non_exhaustive]`).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EquivWitness {
    /// Register names proved observationally equal.
    pub observables: usize,
    /// Individual sync-point observations compared.
    pub sync_points: usize,
    /// Distinct symbolic expressions the proof value-numbered.
    pub exprs: usize,
}

// ---------------------------------------------------------------------------
// Symbolic domain
// ---------------------------------------------------------------------------

type Vn = u32;

/// A symbolic value. Constants are stored as `(dtype, canonical bits)` so
/// the table can be hash-consed (f64 `NaN`s with different payloads stay
/// distinct — conservative, never unsound).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Expr {
    /// Caller-provided contents of an input base, keyed by name.
    Input(String),
    /// Every element equal to one scalar (explicit fill, or the VM's
    /// zero-fill of a fresh / freed allocation).
    Fill(DType, u64),
    /// `BH_RANGE` / `BH_RANDOM` output over a geometry.
    Gen {
        op: Opcode,
        dtype: DType,
        geom: ViewGeom,
        seed: Option<(DType, u64)>,
    },
    /// Reading `src` through a non-full view.
    View { src: Vn, geom: ViewGeom },
    /// `base` with the region `geom` overwritten by `value`.
    Blend { base: Vn, geom: ViewGeom, value: Vn },
    /// `BH_IDENTITY` across dtypes.
    Cast { dtype: DType, src: Vn },
    /// An opaque (or strict-float binary) operation node. Commutative
    /// operands are sorted; under reassociation same-op chains are
    /// flattened into one n-ary node.
    Node { op: Opcode, args: Vec<Vn> },
    /// Reassociated product: sorted factors with exponents. The shared
    /// normal form of `BH_POWER`-expansion, squaring chains and multiply
    /// re-rolls.
    Product { factors: Vec<(Vn, u64)> },
    /// `k·e + b`, either part absent: `e` under a map of the affine
    /// algebra ([`Affine`]) that `e`'s own map does not compose with. Under
    /// reassociation the only way a constant scales or shifts a value.
    Map {
        e: Vn,
        k: Option<(DType, u64)>,
        b: Option<(DType, u64)>,
    },
    /// Reduction or scan of one axis.
    Fold { op: Opcode, src: Vn, axis: usize },
    /// Linear-algebra extension method. `MatMul(Inverse(a), b)` is
    /// normalised to `Solve(a, b)` (the Eq. 2 equivalence, blessed at the
    /// algebra level like the rewrite itself).
    Lin { op: Opcode, args: Vec<Vn> },
}

/// A constant as the auditor's tables key it: dtype plus
/// [`Scalar::to_bits`].
fn scalar_bits(s: Scalar) -> (DType, u64) {
    (s.dtype(), s.to_bits())
}

/// The constant [`scalar_bits`] keyed; the tables hold no other pattern.
fn bits_scalar(dtype: DType, bits: u64) -> Scalar {
    Scalar::from_bits(dtype, bits).expect("the auditor keys constants by scalar_bits")
}

/// Multiply-mix hasher (the rustc/FxHash recipe) for the cons table:
/// `Expr` keys hash on every `mk`, and the default SipHash is the
/// dominant cost of the whole audit on real plans. The optimiser's
/// value-numbering table keys on it too.
///
/// It is unkeyed, and its keys are not trusted: both tables hash
/// constants and slices that a wire client chose. A program crafted to
/// collide them makes its own miss quadratic.
#[derive(Debug, Default)]
pub struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        // The multiply mixes upward only: the low bits, which pick the
        // bucket, would be the same for every float fill (small values
        // have all-zero low mantissa bits). Fold the mixed high half in.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Integer slices (a node's argument list) arrive here as bytes:
        // take them a word at a time.
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Builds [`FxHasher`]s, for `HashMap::with_hasher`.
pub type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// The hash-consed expression table. Shared by both programs so value
/// numbers compare directly.
struct Sym {
    exprs: Vec<Expr>,
    memo: HashMap<Expr, Vn, FxBuild>,
    fast_math: bool,
}

impl Sym {
    /// A table sized for about `instrs` instructions' worth of values.
    fn new(fast_math: bool, instrs: usize) -> Sym {
        Sym {
            exprs: Vec::with_capacity(2 * instrs),
            memo: HashMap::with_capacity_and_hasher(2 * instrs, FxBuild::default()),
            fast_math,
        }
    }

    fn mk(&mut self, e: Expr) -> Vn {
        match self.memo.entry(e) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                let v = self.exprs.len() as Vn;
                self.exprs.push(new.key().clone());
                new.insert(v);
                v
            }
        }
    }

    fn expr(&self, v: Vn) -> &Expr {
        &self.exprs[v as usize]
    }

    fn fill(&mut self, s: Scalar) -> Vn {
        // Fast-math ignores the sign of zero, as its `x + 0 ≡ x` and
        // `x · 0 ≡ 0` already do: `-1 · 0` folds to the same fill as `0`.
        let s = if self.fast_math && s.dtype().is_float() && s.is_zero() {
            Scalar::zero(s.dtype())
        } else {
            s
        };
        let (d, b) = scalar_bits(s);
        self.mk(Expr::Fill(d, b))
    }

    fn as_fill(&self, v: Vn) -> Option<Scalar> {
        match self.expr(v) {
            Expr::Fill(d, b) => Some(bits_scalar(*d, *b)),
            _ => None,
        }
    }

    /// Mirror of `bh_opt::reassoc_allowed`: float reassociation needs
    /// fast-math; integer/bool algebra is exact.
    fn reassoc(&self, dtype: DType) -> bool {
        self.fast_math || !dtype.is_float()
    }

    // -- normal-form constructors -------------------------------------------

    /// Construct `a ⊕ b` in normal form. Every branch mirrors one rewrite
    /// rule's exactness conditions; see the module docs.
    fn binary(&mut self, op: Opcode, dtype: DType, a: Vn, b: Vn) -> Vn {
        // On bool the VM's arithmetic collapses onto the Boolean lattice
        // (see `fold`): add/or/max are OR, multiply/and/min are AND,
        // subtract/xor are XOR. Canonicalising the op-code makes those
        // identities definitional.
        let op = if dtype == DType::Bool {
            match op {
                Opcode::Add | Opcode::LogicalOr | Opcode::Maximum => Opcode::BitwiseOr,
                Opcode::Multiply | Opcode::LogicalAnd | Opcode::Minimum => Opcode::BitwiseAnd,
                Opcode::Subtract | Opcode::LogicalXor => Opcode::BitwiseXor,
                other => other,
            }
        } else {
            op
        };
        // Constant folding in the dtype's domain (constant-merge closure).
        if let (Some(ca), Some(cb)) = (self.as_fill(a), self.as_fill(b)) {
            if let Some(v) = const_eval(op, ca, cb, dtype) {
                return self.fill(v);
            }
        }
        let reassoc = self.reassoc(dtype);

        // x ⊖ x strength forms (mirror `StrengthReduction`).
        if a == b {
            match op {
                Opcode::Subtract if reassoc => return self.fill(Scalar::zero(dtype)),
                Opcode::BitwiseXor if !dtype.is_float() => {
                    return self.fill(Scalar::zero(dtype));
                }
                Opcode::Add => {
                    // x + x ≡ x · 2, exact for every dtype (IEEE included).
                    let two = self.fill(Scalar::from_i64(2, dtype));
                    return self.binary(Opcode::Multiply, dtype, a, two);
                }
                _ => {}
            }
        }

        // A constant link reads through the affine algebra `constant-merge`
        // folds with. Under reassociation it composes into the normal form
        // `k·e + b`; without, it stays one node, spelled canonically
        // (`x − c` as `x + (−c)`, float `x/2ᵏ` as `x·2⁻ᵏ`, both exact).
        let link = match (self.as_fill(a), self.as_fill(b)) {
            (None, Some(c)) => Affine::read(op, 1, c, dtype).map(|m| (a, m)),
            (Some(c), None) => Affine::read(op, 0, c, dtype).map(|m| (b, m)),
            _ => None,
        };
        let (op, a, b) = match link {
            Some((v, m)) if reassoc => return self.affine(dtype, v, m),
            Some((v, m)) => match m.link(dtype, None) {
                Some((op, 0, c)) => (op, self.fill(c), v),
                Some((op, _, c)) => (op, v, self.fill(c)),
                None => (op, a, b),
            },
            None => (op, a, b),
        };
        // Unsigned x / 2ᵏ ≡ x ≫ k (mirror `StrengthReduction`).
        if let (Opcode::Divide, Some(v)) = (op, self.as_fill(b).and_then(Scalar::as_integral)) {
            if dtype.is_unsigned_integer() && v > 0 && (v as u64).is_power_of_two() {
                let k = (v as u64).trailing_zeros() as i64;
                let kc = self.fill(Scalar::from_i64(k, dtype));
                return self.binary(Opcode::RightShift, dtype, a, kc);
            }
        }

        // Identity element / annihilator (mirror `AlgebraicSimplify`,
        // including its exactness gating).
        for (pos, cv) in [(1usize, self.as_fill(b)), (0usize, self.as_fill(a))] {
            let Some(c) = cv else { continue };
            if let Some(e) = op.identity_scalar(dtype) {
                let identity_exact = !matches!(op, Opcode::Add | Opcode::Subtract) || reassoc;
                if identity_exact && e == c && (op.is_commutative() || pos == 1) {
                    return if pos == 1 { a } else { b };
                }
            }
            if let Some(z) = op.annihilator_scalar(dtype) {
                if reassoc && z == c && (op.is_commutative() || pos == 1) {
                    return self.fill(z);
                }
            }
        }

        // Power normal form (mirror `PowerExpansion` / the chain re-roll):
        // the exponent is read as the VM reads it — cast into the dtype.
        if op == Opcode::Power && reassoc {
            if let Some(c) = self.as_fill(b) {
                if let Some(n) = c.as_integral() {
                    if n == 0 {
                        return self.fill(Scalar::one(dtype));
                    }
                    if n > 0 {
                        // n == 1 was already consumed by the identity arm.
                        return self.product_merge(vec![(a, n as u64)], None, dtype);
                    }
                }
            }
        }

        // Reassociated products: multiply chains, squarings, expansions.
        if op == Opcode::Multiply && reassoc {
            let (mut factors, ka) = self.to_factors(a);
            let (fb, kb) = self.to_factors(b);
            factors.extend(fb);
            let k = match (ka, kb) {
                (Some(x), Some(y)) => const_eval(Opcode::Multiply, x, y, dtype),
                (x, y) => x.or(y),
            };
            return self.product_merge(factors, k, dtype);
        }

        // Flatten other associative-commutative chains (constant-merge
        // closure for add / min / max / bitwise / logical).
        if op.is_associative() && op.is_commutative() && reassoc && op != Opcode::Multiply {
            return self.flatten_ac(op, dtype, vec![a, b]);
        }

        // Plain node; commutativity is exact for every dtype.
        let mut args = vec![a, b];
        if op.is_commutative() {
            args.sort_unstable();
        }
        self.mk(Expr::Node { op, args })
    }

    /// `m` applied to `v` in the affine normal form (only called under
    /// reassociation). `v`'s own map composes with `m` when
    /// [`Affine::then`] says so — and the result, recursively, with the map
    /// below it, so a run cancelled back to a power-of-two scale meets the
    /// divide it stopped at. Otherwise `m` goes on top, rebalanced by
    /// [`Affine::split`]. A map never touches the terms of its value, and
    /// only the top two maps of a value change: each step is O(1).
    fn affine(&mut self, dtype: DType, v: Vn, m: Affine) -> Vn {
        let Some(m) = m.trimmed() else {
            return v;
        };
        if let Some((under, inner)) = self.unaffine(dtype, v) {
            if let Some(both) = inner.then(m, dtype) {
                return self.affine(dtype, under, both);
            }
            let (lower, upper) = inner.split(m, dtype);
            if (lower, upper) != (inner, m) {
                let v = match lower.trimmed() {
                    Some(lower) => self.build(dtype, under, lower),
                    None => under,
                };
                return match upper.trimmed() {
                    Some(upper) => self.build(dtype, v, upper),
                    None => v,
                };
            }
        }
        self.build(dtype, v, m)
    }

    /// The value `m` computes from `v`, with nothing composed.
    fn build(&mut self, dtype: DType, v: Vn, m: Affine) -> Vn {
        let (k, b) = match m {
            Affine::Lin(k, b) => (k, b),
            Affine::Div(d) => {
                let d = self.fill(d);
                return self.mk(Expr::Node {
                    op: Opcode::Divide,
                    args: vec![v, d],
                });
            }
        };
        let zero = Scalar::zero(dtype);
        // `x·0 ≡ 0` (reassociation holds), and a map of a constant folds.
        let c = match (k, self.as_fill(v)) {
            (Some(k), _) if k.is_zero() => Some(zero),
            (k, Some(c)) => k.map_or(Some(c), |k| const_eval(Opcode::Multiply, c, k, dtype)),
            _ => None,
        };
        if let Some(c) = c.and_then(|c| const_eval(Opcode::Add, c, b.unwrap_or(zero), dtype)) {
            return self.fill(c);
        }
        self.mk(Expr::Map {
            e: v,
            k: k.map(scalar_bits),
            b: b.map(scalar_bits),
        })
    }

    /// The map [`Sym::build`] put on top of `v`, and the value under it.
    fn unaffine(&self, dtype: DType, v: Vn) -> Option<(Vn, Affine)> {
        match self.expr(v) {
            Expr::Map { e, k, b } => Some((
                *e,
                Affine::Lin(
                    k.map(|(d, x)| bits_scalar(d, x)),
                    b.map(|(d, x)| bits_scalar(d, x)),
                ),
            )),
            Expr::Node {
                op: Opcode::Divide,
                args,
            } => match Affine::read(Opcode::Divide, 1, self.as_fill(args[1])?, dtype)? {
                m @ Affine::Div(_) => Some((args[0], m)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Decompose a value into product factors plus an optional constant.
    fn to_factors(&self, v: Vn) -> (Vec<(Vn, u64)>, Option<Scalar>) {
        match self.expr(v) {
            Expr::Product { factors } => (factors.clone(), None),
            Expr::Map {
                e,
                k: Some((d, bits)),
                b: None,
            } => (self.to_factors(*e).0, Some(bits_scalar(*d, *bits))),
            Expr::Fill(d, b) => (Vec::new(), Some(bits_scalar(*d, *b))),
            _ => (vec![(v, 1)], None),
        }
    }

    /// Normalise a product: merge duplicate factors, scale by the constant,
    /// collapse trivial shapes.
    fn product_merge(
        &mut self,
        mut factors: Vec<(Vn, u64)>,
        k: Option<Scalar>,
        dtype: DType,
    ) -> Vn {
        factors.sort_unstable_by_key(|&(v, _)| v);
        let mut merged: Vec<(Vn, u64)> = Vec::with_capacity(factors.len());
        for (v, e) in factors {
            match merged.last_mut() {
                Some((pv, pe)) if *pv == v => *pe = pe.saturating_add(e),
                _ => merged.push((v, e)),
            }
        }
        let product = match merged[..] {
            [] => self.fill(Scalar::one(dtype)),
            [(v, 1)] => v,
            _ => self.mk(Expr::Product { factors: merged }),
        };
        self.affine(dtype, product, Affine::Lin(k, None))
    }

    /// Flatten an associative-commutative chain into one sorted n-ary
    /// node with its constants folded (only called under reassociation).
    fn flatten_ac(&mut self, op: Opcode, dtype: DType, seeds: Vec<Vn>) -> Vn {
        let mut work = seeds;
        let mut items: Vec<Vn> = Vec::new();
        let mut konst: Option<Scalar> = None;
        while let Some(v) = work.pop() {
            if let Some(c) = self.as_fill(v) {
                konst = match konst {
                    None => Some(c),
                    Some(acc) => match const_eval(op, acc, c, dtype) {
                        Some(f) => Some(f),
                        None => {
                            items.push(v);
                            Some(acc)
                        }
                    },
                };
                continue;
            }
            match self.expr(v) {
                Expr::Node { op: o, args } if *o == op => work.extend(args.iter().copied()),
                // A sum's constant joins the chain's; its term stays.
                &Expr::Map { e, k, b: Some(b) } if op == Opcode::Add => {
                    let term = match k {
                        Some(_) => self.mk(Expr::Map { e, k, b: None }),
                        None => e,
                    };
                    let b = self.fill(bits_scalar(b.0, b.1));
                    work.extend([term, b]);
                }
                _ => items.push(v),
            }
        }
        if let Some(c) = konst {
            if op.annihilator_scalar(dtype) == Some(c) {
                return self.fill(c);
            }
            if op.identity_scalar(dtype) == Some(c) {
                konst = None;
            }
        }
        // Exact multiset algebra: XOR self-cancellation, idempotent
        // deduplication (min/max/and/or). Addition keeps multiplicity.
        items.sort_unstable();
        match op {
            Opcode::BitwiseXor | Opcode::LogicalXor => {
                let mut out = Vec::with_capacity(items.len());
                for v in items {
                    if out.last() == Some(&v) {
                        out.pop();
                    } else {
                        out.push(v);
                    }
                }
                items = out;
            }
            Opcode::Maximum
            | Opcode::Minimum
            | Opcode::BitwiseAnd
            | Opcode::BitwiseOr
            | Opcode::LogicalAnd
            | Opcode::LogicalOr => items.dedup(),
            _ => {}
        }
        if op == Opcode::Add && items.len() > 1 {
            // A sum's constant stays outside its terms, as a shift.
            let terms = self.mk(Expr::Node { op, args: items });
            return self.affine(dtype, terms, Affine::Lin(None, konst));
        }
        if let Some(c) = konst {
            items.push(self.fill(c));
        }
        match items.len() {
            0 => {
                // Everything cancelled; the chain is its identity element.
                let e = op
                    .identity_scalar(dtype)
                    .unwrap_or_else(|| Scalar::zero(dtype));
                self.fill(e)
            }
            1 => items[0],
            _ => self.mk(Expr::Node { op, args: items }),
        }
    }
}

// ---------------------------------------------------------------------------
// Symbolic execution of one program
// ---------------------------------------------------------------------------

/// Everything observable about one program run.
struct Summary {
    /// Global order of sync effects (register names, one per `BH_SYNC`).
    sync_order: Vec<String>,
    /// Per-register sync-time values, in sync order.
    syncs: HashMap<String, Vec<Vn>>,
    /// Final value of every register, by name.
    finals: HashMap<String, Vn>,
    /// Names of freed registers (multiset, sorted).
    frees: Vec<String>,
}

fn unsupported(program: &Program, index: usize, what: &str) -> EquivError {
    EquivError {
        code: EquivCode::Unsupported,
        register: None,
        detail: format!(
            "instruction {index} ({}): {what}",
            program.instrs()[index].op
        ),
    }
}

fn run_program(sym: &mut Sym, program: &Program) -> Result<Summary, EquivError> {
    let n = program.bases().len();
    let mut regs: Vec<Vn> = Vec::with_capacity(n);
    for base in program.bases() {
        let v = if base.is_input {
            sym.mk(Expr::Input(base.name.clone()))
        } else {
            sym.fill(Scalar::zero(base.dtype))
        };
        regs.push(v);
    }
    let mut out = Summary {
        sync_order: Vec::new(),
        syncs: HashMap::new(),
        finals: HashMap::new(),
        frees: Vec::new(),
    };

    // Read a view operand: full views pass the register's value through,
    // partial views wrap it in geometry.
    let read =
        |sym: &mut Sym, regs: &[Vn], view: &ViewRef, index: usize| -> Result<Vn, EquivError> {
            let cur = regs[view.reg.index()];
            // Full views (no slice list) dominate real traffic; skip the
            // geometry materialisation entirely.
            if view.slices.is_none() {
                return Ok(cur);
            }
            let geom = program
                .resolve_view(view)
                .map_err(|e| unsupported(program, index, &format!("unresolvable view: {e}")))?;
            let base = program.base(view.reg);
            if geom == ViewGeom::contiguous(&base.shape) {
                return Ok(cur);
            }
            // A view of a uniform fill is the fill.
            if matches!(sym.expr(cur), Expr::Fill(..)) {
                return Ok(cur);
            }
            // Reading back exactly the region a blend wrote yields the
            // blended value (slice geometries are injective).
            if let Expr::Blend {
                geom: bg, value, ..
            } = sym.expr(cur)
            {
                if *bg == geom {
                    return Ok(*value);
                }
            }
            Ok(sym.mk(Expr::View { src: cur, geom }))
        };

    // Write a value through a view: full writes replace, partial writes
    // blend (with same-region collapse and write-back elision).
    let write = |sym: &mut Sym,
                 regs: &mut [Vn],
                 view: &ViewRef,
                 val: Vn,
                 index: usize|
     -> Result<(), EquivError> {
        let slot = &mut regs[view.reg.index()];
        if view.slices.is_none() {
            *slot = val;
            return Ok(());
        }
        let geom = program
            .resolve_view(view)
            .map_err(|e| unsupported(program, index, &format!("unresolvable view: {e}")))?;
        let base = program.base(view.reg);
        if geom == ViewGeom::contiguous(&base.shape) {
            *slot = val;
            return Ok(());
        }
        let mut cur = *slot;
        // Writing back what the region already holds changes nothing
        // (a self-copy over a partial view).
        if let Expr::View { src, geom: vg } = sym.expr(val) {
            if *src == cur && *vg == geom {
                return Ok(());
            }
        }
        // A blend of the same region is fully overwritten.
        if let Expr::Blend {
            base: inner,
            geom: bg,
            ..
        } = sym.expr(cur)
        {
            if *bg == geom {
                cur = *inner;
            }
        }
        *slot = sym.mk(Expr::Blend {
            base: cur,
            geom,
            value: val,
        });
        Ok(())
    };

    for (index, instr) in program.instrs().iter().enumerate() {
        let op = instr.op;
        match op.kind() {
            OpKind::System => match op {
                Opcode::NoOp => {}
                Opcode::Sync | Opcode::Free => {
                    let Some(target) = instr.inputs().first().and_then(Operand::as_view) else {
                        return Err(unsupported(program, index, "system op without a target"));
                    };
                    let name = program.base(target.reg).name.clone();
                    if op == Opcode::Sync {
                        // run_synced reads the full register after the
                        // run; the observable is the whole-register value
                        // at this point in the effect order.
                        out.syncs
                            .entry(name.clone())
                            .or_default()
                            .push(regs[target.reg.index()]);
                        out.sync_order.push(name);
                    } else {
                        // Freed storage reads back zero-filled.
                        out.frees.push(name);
                        regs[target.reg.index()] =
                            sym.fill(Scalar::zero(program.base(target.reg).dtype));
                    }
                }
                _ => return Err(unsupported(program, index, "unknown system op")),
            },
            OpKind::ElementwiseUnary | OpKind::ElementwiseBinary => {
                let Some(out_view) = instr.out_view().cloned() else {
                    return Err(unsupported(program, index, "elementwise op without output"));
                };
                let out_dtype = program.base(out_view.reg).dtype;
                if op == Opcode::Identity {
                    let val = match instr.inputs().first() {
                        Some(Operand::Const(c)) => sym.fill(c.cast(out_dtype)),
                        Some(Operand::View(v)) => {
                            let raw = read(sym, &regs, v, index)?;
                            if program.base(v.reg).dtype == out_dtype {
                                raw
                            } else {
                                sym.mk(Expr::Cast {
                                    dtype: out_dtype,
                                    src: raw,
                                })
                            }
                        }
                        None => return Err(unsupported(program, index, "identity without input")),
                    };
                    write(sym, &mut regs, &out_view, val, index)?;
                    continue;
                }
                // Constants are cast into the element dtype exactly as
                // the VM binds them.
                let operand_dtype = instr
                    .inputs()
                    .iter()
                    .filter_map(Operand::as_view)
                    .map(|v| program.base(v.reg).dtype)
                    .next()
                    .unwrap_or(out_dtype);
                let mut args = Vec::with_capacity(2);
                for input in instr.inputs() {
                    let v = match input {
                        Operand::Const(c) => sym.fill(c.cast(operand_dtype)),
                        Operand::View(v) => read(sym, &regs, v, index)?,
                    };
                    args.push(v);
                }
                let val = match args.len() {
                    1 => sym.mk(Expr::Node { op, args }),
                    2 => sym.binary(op, operand_dtype, args[0], args[1]),
                    _ => return Err(unsupported(program, index, "unexpected arity")),
                };
                write(sym, &mut regs, &out_view, val, index)?;
            }
            OpKind::Reduction | OpKind::Scan => {
                let Some(out_view) = instr.out_view().cloned() else {
                    return Err(unsupported(program, index, "fold op without output"));
                };
                let Some(src) = instr.inputs().first().and_then(Operand::as_view) else {
                    return Err(unsupported(program, index, "fold input must be a view"));
                };
                let axis = instr
                    .inputs()
                    .get(1)
                    .and_then(Operand::as_const)
                    .and_then(Scalar::as_integral)
                    .and_then(|v| usize::try_from(v).ok());
                let Some(axis) = axis else {
                    return Err(unsupported(program, index, "fold axis must be a constant"));
                };
                let src = read(sym, &regs, src, index)?;
                let val = sym.mk(Expr::Fold { op, src, axis });
                write(sym, &mut regs, &out_view, val, index)?;
            }
            OpKind::Generator => {
                let Some(out_view) = instr.out_view().cloned() else {
                    return Err(unsupported(program, index, "generator without output"));
                };
                let geom = program
                    .resolve_view(&out_view)
                    .map_err(|e| unsupported(program, index, &format!("unresolvable view: {e}")))?;
                let seed = match op {
                    Opcode::Random => {
                        let Some(c) = instr.inputs().first().and_then(Operand::as_const) else {
                            return Err(unsupported(program, index, "random without seed"));
                        };
                        Some(scalar_bits(c))
                    }
                    _ => None,
                };
                let val = sym.mk(Expr::Gen {
                    op,
                    dtype: program.base(out_view.reg).dtype,
                    geom,
                    seed,
                });
                write(sym, &mut regs, &out_view, val, index)?;
            }
            OpKind::LinAlg => {
                let Some(out_view) = instr.out_view().cloned() else {
                    return Err(unsupported(program, index, "linalg op without output"));
                };
                let mut args = Vec::with_capacity(2);
                for input in instr.inputs() {
                    let Some(v) = input.as_view() else {
                        return Err(unsupported(program, index, "linalg inputs must be views"));
                    };
                    args.push(read(sym, &regs, v, index)?);
                }
                // Eq. 2 normal form: A⁻¹·b solves Ax = b. Blessed at the
                // algebra level, exactly like the rewrite.
                let val = if op == Opcode::MatMul && args.len() == 2 {
                    if let Expr::Lin {
                        op: Opcode::Inverse,
                        args: inv_args,
                    } = sym.expr(args[0]).clone()
                    {
                        sym.mk(Expr::Lin {
                            op: Opcode::Solve,
                            args: vec![inv_args[0], args[1]],
                        })
                    } else {
                        sym.mk(Expr::Lin { op, args })
                    }
                } else {
                    sym.mk(Expr::Lin { op, args })
                };
                write(sym, &mut regs, &out_view, val, index)?;
            }
        }
    }

    for (base, &v) in program.bases().iter().zip(&regs) {
        out.finals.insert(base.name.clone(), v);
    }
    out.frees.sort_unstable();
    Ok(out)
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

fn check_decl(before: &Program, after: &Program, name: &str, errors: &mut Vec<EquivError>) -> bool {
    let Some(br) = before.reg_by_name(name) else {
        return true; // synced register always exists in its own program
    };
    let Some(ar) = after.reg_by_name(name) else {
        errors.push(EquivError {
            code: EquivCode::MissingObservable,
            register: Some(name.to_owned()),
            detail: "register is not declared in the transformed program".into(),
        });
        return false;
    };
    let (b, a) = (before.base(br), after.base(ar));
    let mut ok = true;
    if b.shape != a.shape {
        errors.push(EquivError {
            code: EquivCode::ShapeDivergence,
            register: Some(name.to_owned()),
            detail: format!("declared shape changed: {:?} → {:?}", b.shape, a.shape),
        });
        ok = false;
    }
    if b.dtype != a.dtype {
        errors.push(EquivError {
            code: EquivCode::DTypeDivergence,
            register: Some(name.to_owned()),
            detail: format!("declared dtype changed: {} → {}", b.dtype, a.dtype),
        });
        ok = false;
    }
    ok
}

/// Statically prove that `after` is observationally equivalent to
/// `before` (see the module docs for the observation model).
///
/// Returns a proof record, or every divergence found. The check is
/// conservative: a sound transformation pipeline always passes, but a
/// pass does not *certify* arbitrary pairs — it proves equal symbolic
/// normal forms under the blessed algebra.
///
/// # Errors
///
/// A non-empty, deterministic (code-then-register sorted) list of
/// [`EquivError`]s when equivalence could not be proved.
pub fn check_equiv(
    before: &Program,
    after: &Program,
    opts: &EquivOptions,
) -> Result<EquivWitness, Vec<EquivError>> {
    let mut sym = Sym::new(opts.fast_math, before.instrs().len() + after.instrs().len());
    let sb = run_program(&mut sym, before).map_err(|e| vec![e])?;
    let sa = run_program(&mut sym, after).map_err(|e| vec![e])?;
    let mut errors = Vec::new();
    let mut observables = 0usize;
    let mut sync_points = 0usize;

    // Sync observables: per-register value streams.
    let mut names: Vec<&String> = sb.syncs.keys().collect();
    names.sort_unstable();
    for name in &names {
        let bv = &sb.syncs[*name];
        let Some(av) = sa.syncs.get(*name) else {
            errors.push(EquivError {
                code: EquivCode::MissingObservable,
                register: Some((*name).clone()),
                detail: format!(
                    "synced {} time(s) in the source but never in the transformed program",
                    bv.len()
                ),
            });
            continue;
        };
        if !check_decl(before, after, name, &mut errors) {
            continue;
        }
        if bv.len() != av.len() {
            errors.push(EquivError {
                code: EquivCode::EffectReorder,
                register: Some((*name).clone()),
                detail: format!("synced {} time(s) in source, {} after", bv.len(), av.len()),
            });
            continue;
        }
        observables += 1;
        for (k, (x, y)) in bv.iter().zip(av).enumerate() {
            sync_points += 1;
            if x != y {
                errors.push(EquivError {
                    code: EquivCode::ValueMismatch,
                    register: Some((*name).clone()),
                    detail: format!("value at sync #{k} diverges from the source program"),
                });
                break;
            }
        }
    }
    let mut extra: Vec<&String> = sa
        .syncs
        .keys()
        .filter(|n| !sb.syncs.contains_key(*n))
        .collect();
    extra.sort_unstable();
    for name in extra {
        errors.push(EquivError {
            code: EquivCode::ExtraObservable,
            register: Some(name.clone()),
            detail: "transformed program syncs a register the source never observed".into(),
        });
    }
    // Effect interleaving: only meaningful once per-register streams
    // already line up.
    if errors.is_empty() && sb.sync_order != sa.sync_order {
        errors.push(EquivError {
            code: EquivCode::EffectReorder,
            register: None,
            detail: format!(
                "sync interleaving changed: {:?} → {:?}",
                sb.sync_order, sa.sync_order
            ),
        });
    }

    // Exit observables under observe-all: every source register's final
    // value (matching `Liveness::compute_with_exit` over all registers).
    if opts.observe_all {
        for base in before.bases() {
            if !check_decl(before, after, &base.name, &mut errors) {
                continue;
            }
            let bfin = sb.finals[&base.name];
            match sa.finals.get(&base.name) {
                Some(&afin) if afin == bfin => observables += 1,
                Some(_) => errors.push(EquivError {
                    code: EquivCode::ValueMismatch,
                    register: Some(base.name.clone()),
                    detail: "final value at exit diverges from the source program".into(),
                }),
                None => errors.push(EquivError {
                    code: EquivCode::MissingObservable,
                    register: Some(base.name.clone()),
                    detail: "register is not declared in the transformed program".into(),
                }),
            }
        }
    }

    // Release effects: the freed multiset must match.
    if sb.frees != sa.frees {
        errors.push(EquivError {
            code: EquivCode::FreeDivergence,
            register: None,
            detail: format!("freed registers changed: {:?} → {:?}", sb.frees, sa.frees),
        });
    }

    if errors.is_empty() {
        Ok(EquivWitness {
            observables,
            sync_points,
            exprs: sym.exprs.len(),
        })
    } else {
        errors.sort_by(|a, b| (a.code, &a.register).cmp(&(b.code, &b.register)));
        errors.dedup();
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn p(text: &str) -> Program {
        parse_program(text).unwrap()
    }

    fn ok(before: &str, after: &str, opts: EquivOptions) {
        let (b, a) = (p(before), p(after));
        if let Err(e) = check_equiv(&b, &a, &opts) {
            panic!("expected equivalent, got {e:?}");
        }
    }

    fn fails_with(before: &str, after: &str, opts: EquivOptions, code: EquivCode) {
        let (b, a) = (p(before), p(after));
        let errs = check_equiv(&b, &a, &opts).expect_err("expected divergence");
        assert!(
            errs.iter().any(|e| e.code == code),
            "expected {code}, got {errs:?}"
        );
    }

    #[test]
    fn identical_programs_are_equivalent() {
        let text = "BH_ADD a0 [0:8:1] a0 [0:8:1] 1\nBH_SYNC a0\n";
        ok(text, text, EquivOptions::default().strict_math());
    }

    #[test]
    fn listing2_to_listing3_constant_merge() {
        let before = "\
BH_IDENTITY a0 [0:10:1] 0
BH_ADD a0 a0 1
BH_ADD a0 a0 1
BH_ADD a0 a0 1
BH_SYNC a0
";
        let after = "BH_IDENTITY a0 [0:10:1] 0\nBH_ADD a0 a0 3\nBH_SYNC a0\n";
        ok(before, after, EquivOptions::default());
        // The chain is rooted in a constant, so each program folds to the
        // very f64 the VM would compute — exact even under strict math.
        ok(before, after, EquivOptions::default().strict_math());
    }

    #[test]
    fn float_constant_merge_over_an_input_needs_fast_math() {
        let before = "\
.base x f64[8] input
BH_ADD x x 1
BH_ADD x x 2
BH_SYNC x
";
        let after = ".base x f64[8] input\nBH_ADD x x 3\nBH_SYNC x\n";
        ok(before, after, EquivOptions::default());
        // (x+1)+2 ≡ x+3 is a reassociation: rejected under strict IEEE.
        fails_with(
            before,
            after,
            EquivOptions::default().strict_math(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn integer_constant_merge_is_exact_under_strict_math() {
        let before = ".base v i32[8]\nBH_IDENTITY v 5\nBH_ADD v v 1\nBH_ADD v v 2\nBH_SYNC v\n";
        let after = ".base v i32[8]\nBH_IDENTITY v 5\nBH_ADD v v 3\nBH_SYNC v\n";
        ok(before, after, EquivOptions::default().strict_math());
    }

    #[test]
    fn power_expansion_matches() {
        let before = "\
.base x f64[16] input
.base y f64[16]
BH_POWER y x 10
BH_SYNC y
";
        let after = "\
.base x f64[16] input
.base y f64[16]
BH_MULTIPLY y x x
BH_MULTIPLY y y y
BH_MULTIPLY y y x
BH_MULTIPLY y y y
BH_SYNC y
";
        ok(before, after, EquivOptions::default());
        fails_with(
            before,
            after,
            EquivOptions::default().strict_math(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn inverse_solve_is_blessed_even_under_strict_math() {
        let before = "\
.base a f64[8,8] input
.base b f64[8] input
.base t f64[8,8]
.base x f64[8]
BH_INVERSE t a
BH_MATMUL x t b
BH_SYNC x
";
        let after = "\
.base a f64[8,8] input
.base b f64[8] input
.base t f64[8,8]
.base x f64[8]
BH_SOLVE x a b
BH_SYNC x
";
        ok(before, after, EquivOptions::default().strict_math());
        // … but not when every register is observable: t loses its value.
        fails_with(
            before,
            after,
            EquivOptions::default().strict_math().observe_all(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn swapped_noncommutative_operands_mismatch() {
        let before = ".base a f64[4] input\n.base b f64[4] input\n.base c f64[4]\nBH_SUBTRACT c a b\nBH_SYNC c\n";
        let after = ".base a f64[4] input\n.base b f64[4] input\n.base c f64[4]\nBH_SUBTRACT c b a\nBH_SYNC c\n";
        fails_with(
            before,
            after,
            EquivOptions::default(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn commutative_swap_is_fine() {
        let before =
            ".base a f64[4] input\n.base b f64[4] input\n.base c f64[4]\nBH_ADD c a b\nBH_SYNC c\n";
        let after =
            ".base a f64[4] input\n.base b f64[4] input\n.base c f64[4]\nBH_ADD c b a\nBH_SYNC c\n";
        ok(before, after, EquivOptions::default().strict_math());
    }

    #[test]
    fn dropped_sync_is_a_missing_observable() {
        let before = "BH_ADD a0 [0:4:1] a0 [0:4:1] 1\nBH_SYNC a0\n";
        let after = "BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n";
        fails_with(
            before,
            after,
            EquivOptions::default(),
            EquivCode::MissingObservable,
        );
    }

    #[test]
    fn extra_sync_is_an_extra_observable() {
        let before = "BH_ADD a0 [0:4:1] a0 [0:4:1] 1\nBH_SYNC a0\n";
        let after = "BH_ADD a0 [0:4:1] a0 [0:4:1] 1\nBH_SYNC a0\nBH_SYNC a1 [0:4:1]\n";
        fails_with(
            before,
            after,
            EquivOptions::default(),
            EquivCode::ExtraObservable,
        );
    }

    #[test]
    fn write_moved_across_sync_is_caught() {
        let before = "BH_IDENTITY a0 [0:4:1] 1\nBH_SYNC a0\nBH_ADD a0 a0 1\nBH_SYNC a0\n";
        let after = "BH_IDENTITY a0 [0:4:1] 1\nBH_ADD a0 a0 1\nBH_SYNC a0\nBH_SYNC a0\n";
        fails_with(
            before,
            after,
            EquivOptions::default(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn dropped_free_is_a_free_divergence() {
        let before = "BH_ADD a0 [0:4:1] a0 [0:4:1] 1\nBH_SYNC a0\nBH_FREE a0\n";
        let after = "BH_ADD a0 [0:4:1] a0 [0:4:1] 1\nBH_SYNC a0\n";
        fails_with(
            before,
            after,
            EquivOptions::default(),
            EquivCode::FreeDivergence,
        );
    }

    #[test]
    fn decl_divergences_have_their_own_codes() {
        let before = ".base v i32[8]\nBH_IDENTITY v 1\nBH_SYNC v\n";
        fails_with(
            before,
            ".base v i32[4]\nBH_IDENTITY v 1\nBH_SYNC v\n",
            EquivOptions::default(),
            EquivCode::ShapeDivergence,
        );
        fails_with(
            before,
            ".base v i64[8]\nBH_IDENTITY v 1\nBH_SYNC v\n",
            EquivOptions::default(),
            EquivCode::DTypeDivergence,
        );
    }

    #[test]
    fn partial_view_updates_track_geometry() {
        let before = "\
.base v f64[8]
BH_IDENTITY v [0:4:1] 1
BH_IDENTITY v [4:8:1] 2
BH_SYNC v
";
        let reordered = "\
.base v f64[8]
BH_IDENTITY v [4:8:1] 2
BH_IDENTITY v [0:4:1] 1
BH_SYNC v
";
        // Disjoint-region reorder is semantically fine but outside the
        // blessed normal forms: the auditor must conservatively REJECT,
        // never wrongly accept.
        let (b, a) = (p(before), p(reordered));
        assert!(check_equiv(&b, &a, &EquivOptions::default()).is_err());
        // And the same program round-trips.
        ok(before, before, EquivOptions::default().strict_math());
    }

    #[test]
    fn strength_reduction_forms_are_exact() {
        // x·2 ≡ x+x, float x/4 ≡ x·0.25 — both accepted under strict.
        ok(
            ".base x f64[8] input\n.base y f64[8]\nBH_MULTIPLY y x 2\nBH_SYNC y\n",
            ".base x f64[8] input\n.base y f64[8]\nBH_ADD y x x\nBH_SYNC y\n",
            EquivOptions::default().strict_math(),
        );
        ok(
            ".base x f64[8] input\n.base y f64[8]\nBH_DIVIDE y x 4\nBH_SYNC y\n",
            ".base x f64[8] input\n.base y f64[8]\nBH_MULTIPLY y x 0.25\nBH_SYNC y\n",
            EquivOptions::default().strict_math(),
        );
        ok(
            ".base x u32[8] input\n.base y u32[8]\nBH_DIVIDE y x 8\nBH_SYNC y\n",
            ".base x u32[8] input\n.base y u32[8]\nBH_RIGHT_SHIFT y x 3\nBH_SYNC y\n",
            EquivOptions::default().strict_math(),
        );
    }

    #[test]
    fn a_scale_distributes_over_a_sum_of_any_number_of_terms() {
        let before =
            ".base x f64[8] input\n.base a f64[8]\nBH_ADD a x 3\nBH_MULTIPLY a a 2\nBH_SYNC a\n";
        let after =
            ".base x f64[8] input\n.base a f64[8]\nBH_MULTIPLY a x 2\nBH_ADD a a 6\nBH_SYNC a\n";
        ok(before, after, EquivOptions::default());
        fails_with(
            before,
            after,
            EquivOptions::default().strict_math(),
            EquivCode::ValueMismatch,
        );
        // Wrapping integers distribute exactly, so strict math accepts it.
        ok(
            &before.replace("f64", "i64"),
            &after.replace("f64", "i64"),
            EquivOptions::default().strict_math(),
        );
        // A sum of two terms is one `e` of `k·e + b`: (x + y + 1)·2 is
        // (x + y)·2 + 2, and not (x + y)·2 + 1.
        let sum = ".base x f64[8] input\n.base y f64[8] input\n.base a f64[8]\n\
                   BH_ADD a x y\n";
        let before = format!("{sum}BH_ADD a a 1\nBH_MULTIPLY a a 2\nBH_SYNC a\n");
        let after = format!("{sum}BH_MULTIPLY a a 2\nBH_ADD a a 2\nBH_SYNC a\n");
        ok(&before, &after, EquivOptions::default());
        fails_with(
            &before,
            &after.replace("BH_ADD a a 2", "BH_ADD a a 1"),
            EquivOptions::default(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn fast_math_folds_ignore_the_sign_of_zero() {
        // −1 · 0 is −0.0; the annihilator `x · 0 ≡ 0` says +0.0.
        let before = "BH_IDENTITY m [0:4:1] -1\nBH_MULTIPLY m m 0\nBH_SYNC m\n";
        let after = "BH_IDENTITY m [0:4:1] 0.0\nBH_SYNC m\n";
        ok(before, after, EquivOptions::default());
        fails_with(
            before,
            after,
            EquivOptions::default().strict_math(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn changed_constant_mismatches() {
        fails_with(
            "BH_ADD a0 [0:4:1] a0 [0:4:1] 1\nBH_SYNC a0\n",
            "BH_ADD a0 [0:4:1] a0 [0:4:1] 2\nBH_SYNC a0\n",
            EquivOptions::default(),
            EquivCode::ValueMismatch,
        );
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for code in EquivCode::ALL {
            assert!(seen.insert(code.as_str()), "duplicate {code}");
            assert!(code.as_str().starts_with('A'));
        }
        assert_eq!(EquivCode::ALL.len(), seen.len());
    }

    #[test]
    fn witness_reports_proof_size() {
        let text = "BH_ADD a0 [0:8:1] a0 [0:8:1] 1\nBH_SYNC a0\n";
        let w = check_equiv(&p(text), &p(text), &EquivOptions::default()).unwrap();
        assert_eq!(w.observables, 1);
        assert_eq!(w.sync_points, 1);
        assert!(w.exprs >= 2);
    }
}
