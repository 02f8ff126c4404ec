//! The byte-code op-code table.
//!
//! Mirrors Bohrium's `bh_opcode` set (IPDPSW'14, §3): element-wise
//! arithmetic, comparisons, logicals, transcendentals, reductions, scans,
//! generators and system codes, plus the linear-algebra *extension methods*
//! (`BH_MATMUL` et al.) that context-aware transformations such as Eq. 2 of
//! the paper operate on.
//!
//! Each op-code carries the algebraic metadata the transformation engine
//! keys off: arity, commutativity, associativity, identity and annihilator
//! elements, and the dtype rule.

use bh_tensor::{DType, Scalar};
use std::fmt;
use std::str::FromStr;

/// Classification of an op-code, driving validation, scheduling and fusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// One output view, one input (view or constant), applied per element.
    ElementwiseUnary,
    /// One output view, two inputs (views or constants), applied per element.
    ElementwiseBinary,
    /// Reduce one axis: `out`, input view, axis constant.
    Reduction,
    /// Prefix-scan one axis: `out`, input view, axis constant.
    Scan,
    /// Fills the output view from nothing (`BH_RANGE`) or a seed constant
    /// (`BH_RANDOM`).
    Generator,
    /// Runtime directives with no data result: `BH_SYNC`, `BH_FREE`,
    /// `BH_NONE`.
    System,
    /// Whole-tensor linear-algebra extension method.
    LinAlg,
}

/// Dtype rule of an op-code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeRule {
    /// Output dtype equals the (common) input dtype.
    Same,
    /// Inputs any common dtype; output is `Bool` (comparisons, `BH_ISNAN`).
    CompareLike,
    /// Inputs and output `Bool` only.
    BoolOnly,
    /// Inputs and output integer (or bool for the bitwise family).
    IntLike,
    /// Inputs and output floating point only.
    FloatOnly,
    /// `BH_IDENTITY`: output dtype free; value is cast.
    Cast,
    /// No data typing (system ops).
    None,
}

macro_rules! opcodes {
    ($( $variant:ident, $name:literal, $kind:expr, $rule:expr; )*) => {
        /// A byte-code op-code (`BH_ADD`, `BH_MULTIPLY`, …).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Opcode {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )*
        }

        /// Every op-code, for exhaustive iteration in tests and tables.
        pub const ALL_OPCODES: &[Opcode] = &[ $( Opcode::$variant, )* ];

        impl Opcode {
            /// The canonical byte-code mnemonic (`"BH_ADD"`).
            pub const fn name(self) -> &'static str {
                match self { $( Opcode::$variant => $name, )* }
            }

            /// The op-code's classification.
            pub const fn kind(self) -> OpKind {
                match self { $( Opcode::$variant => $kind, )* }
            }

            /// The op-code's dtype rule.
            pub const fn type_rule(self) -> TypeRule {
                match self { $( Opcode::$variant => $rule, )* }
            }
        }

        impl FromStr for Opcode {
            type Err = ParseOpcodeError;
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s { $( $name => Ok(Opcode::$variant), )*
                    _ => Err(ParseOpcodeError { text: s.to_owned() }),
                }
            }
        }
    };
}

use OpKind::*;
use TypeRule::{BoolOnly, Cast, CompareLike, FloatOnly, IntLike, Same};

opcodes! {
    // --- element-wise binary arithmetic ---
    Add,           "BH_ADD",            ElementwiseBinary, Same;
    Subtract,      "BH_SUBTRACT",       ElementwiseBinary, Same;
    Multiply,      "BH_MULTIPLY",       ElementwiseBinary, Same;
    Divide,        "BH_DIVIDE",         ElementwiseBinary, Same;
    Power,         "BH_POWER",          ElementwiseBinary, Same;
    Mod,           "BH_MOD",            ElementwiseBinary, Same;
    Maximum,       "BH_MAXIMUM",        ElementwiseBinary, Same;
    Minimum,       "BH_MINIMUM",        ElementwiseBinary, Same;
    Arctan2,       "BH_ARCTAN2",        ElementwiseBinary, FloatOnly;
    // --- bitwise / shifts (integer & bool family) ---
    BitwiseAnd,    "BH_BITWISE_AND",    ElementwiseBinary, IntLike;
    BitwiseOr,     "BH_BITWISE_OR",     ElementwiseBinary, IntLike;
    BitwiseXor,    "BH_BITWISE_XOR",    ElementwiseBinary, IntLike;
    LeftShift,     "BH_LEFT_SHIFT",     ElementwiseBinary, IntLike;
    RightShift,    "BH_RIGHT_SHIFT",    ElementwiseBinary, IntLike;
    // --- comparisons (bool out) ---
    Greater,       "BH_GREATER",        ElementwiseBinary, CompareLike;
    GreaterEqual,  "BH_GREATER_EQUAL",  ElementwiseBinary, CompareLike;
    Less,          "BH_LESS",           ElementwiseBinary, CompareLike;
    LessEqual,     "BH_LESS_EQUAL",     ElementwiseBinary, CompareLike;
    Equal,         "BH_EQUAL",          ElementwiseBinary, CompareLike;
    NotEqual,      "BH_NOT_EQUAL",      ElementwiseBinary, CompareLike;
    // --- logicals (bool in & out) ---
    LogicalAnd,    "BH_LOGICAL_AND",    ElementwiseBinary, BoolOnly;
    LogicalOr,     "BH_LOGICAL_OR",     ElementwiseBinary, BoolOnly;
    LogicalXor,    "BH_LOGICAL_XOR",    ElementwiseBinary, BoolOnly;
    LogicalNot,    "BH_LOGICAL_NOT",    ElementwiseUnary,  BoolOnly;
    // --- element-wise unary ---
    Identity,      "BH_IDENTITY",       ElementwiseUnary,  Cast;
    Invert,        "BH_INVERT",         ElementwiseUnary,  IntLike;
    Absolute,      "BH_ABSOLUTE",       ElementwiseUnary,  Same;
    Sign,          "BH_SIGN",           ElementwiseUnary,  Same;
    Sqrt,          "BH_SQRT",           ElementwiseUnary,  FloatOnly;
    Exp,           "BH_EXP",            ElementwiseUnary,  FloatOnly;
    Exp2,          "BH_EXP2",           ElementwiseUnary,  FloatOnly;
    Expm1,         "BH_EXPM1",          ElementwiseUnary,  FloatOnly;
    Log,           "BH_LOG",            ElementwiseUnary,  FloatOnly;
    Log2,          "BH_LOG2",           ElementwiseUnary,  FloatOnly;
    Log10,         "BH_LOG10",          ElementwiseUnary,  FloatOnly;
    Log1p,         "BH_LOG1P",          ElementwiseUnary,  FloatOnly;
    Sin,           "BH_SIN",            ElementwiseUnary,  FloatOnly;
    Cos,           "BH_COS",            ElementwiseUnary,  FloatOnly;
    Tan,           "BH_TAN",            ElementwiseUnary,  FloatOnly;
    Sinh,          "BH_SINH",           ElementwiseUnary,  FloatOnly;
    Cosh,          "BH_COSH",           ElementwiseUnary,  FloatOnly;
    Tanh,          "BH_TANH",           ElementwiseUnary,  FloatOnly;
    Arcsin,        "BH_ARCSIN",         ElementwiseUnary,  FloatOnly;
    Arccos,        "BH_ARCCOS",         ElementwiseUnary,  FloatOnly;
    Arctan,        "BH_ARCTAN",         ElementwiseUnary,  FloatOnly;
    Arcsinh,       "BH_ARCSINH",        ElementwiseUnary,  FloatOnly;
    Arccosh,       "BH_ARCCOSH",        ElementwiseUnary,  FloatOnly;
    Arctanh,       "BH_ARCTANH",        ElementwiseUnary,  FloatOnly;
    Ceil,          "BH_CEIL",           ElementwiseUnary,  FloatOnly;
    Floor,         "BH_FLOOR",          ElementwiseUnary,  FloatOnly;
    Trunc,         "BH_TRUNC",          ElementwiseUnary,  FloatOnly;
    Rint,          "BH_RINT",           ElementwiseUnary,  FloatOnly;
    IsNan,         "BH_ISNAN",          ElementwiseUnary,  CompareLike;
    IsInf,         "BH_ISINF",          ElementwiseUnary,  CompareLike;
    // --- reductions (axis constant as second input) ---
    AddReduce,     "BH_ADD_REDUCE",     Reduction, Same;
    MultiplyReduce,"BH_MULTIPLY_REDUCE",Reduction, Same;
    MinimumReduce, "BH_MINIMUM_REDUCE", Reduction, Same;
    MaximumReduce, "BH_MAXIMUM_REDUCE", Reduction, Same;
    // --- scans ---
    AddAccumulate, "BH_ADD_ACCUMULATE", Scan, Same;
    MultiplyAccumulate, "BH_MULTIPLY_ACCUMULATE", Scan, Same;
    // --- generators ---
    Range,         "BH_RANGE",          Generator, Same;
    Random,        "BH_RANDOM",         Generator, Same;
    // --- system ---
    Sync,          "BH_SYNC",           System, TypeRule::None;
    Free,          "BH_FREE",           System, TypeRule::None;
    NoOp,          "BH_NONE",           System, TypeRule::None;
    // --- linear-algebra extension methods ---
    MatMul,        "BH_MATMUL",         LinAlg, FloatOnly;
    Transpose,     "BH_TRANSPOSE",      LinAlg, Same;
    Inverse,       "BH_INVERSE",        LinAlg, FloatOnly;
    Solve,         "BH_SOLVE",          LinAlg, FloatOnly;
}

impl Opcode {
    /// Number of *input* operands (excluding the output view).
    pub const fn arity(self) -> usize {
        match self.kind() {
            ElementwiseUnary | Generator => match self {
                Opcode::Range => 0,
                _ => 1,
            },
            ElementwiseBinary => 2,
            Reduction | Scan => 2, // input view + axis constant
            System => 0,           // the single operand is the target view
            LinAlg => match self {
                Opcode::Transpose | Opcode::Inverse => 1,
                _ => 2,
            },
        }
    }

    /// Total operand count as written in the byte-code text
    /// (output + inputs; 1 for `BH_SYNC`/`BH_FREE`, 0 for `BH_NONE`).
    pub const fn operand_count(self) -> usize {
        match self.kind() {
            System => match self {
                Opcode::NoOp => 0,
                _ => 1,
            },
            _ => 1 + self.arity(),
        }
    }

    /// True for element-wise op-codes (unary or binary): the fusion
    /// candidates.
    pub const fn is_elementwise(self) -> bool {
        matches!(self.kind(), ElementwiseUnary | ElementwiseBinary)
    }

    /// True if the op has a data-producing output view.
    pub const fn has_output(self) -> bool {
        !matches!(self.kind(), System)
    }

    /// `a ⊕ b == b ⊕ a` element-wise.
    pub const fn is_commutative(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Multiply
                | Opcode::Maximum
                | Opcode::Minimum
                | Opcode::BitwiseAnd
                | Opcode::BitwiseOr
                | Opcode::BitwiseXor
                | Opcode::LogicalAnd
                | Opcode::LogicalOr
                | Opcode::LogicalXor
                | Opcode::Equal
                | Opcode::NotEqual
        )
    }

    /// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` element-wise.
    ///
    /// Float `Add`/`Multiply` are only associative up to rounding; rules
    /// that exploit this on float data are gated behind the optimizer's
    /// `fast_math` flag (see `bh-opt`).
    pub const fn is_associative(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Multiply
                | Opcode::Maximum
                | Opcode::Minimum
                | Opcode::BitwiseAnd
                | Opcode::BitwiseOr
                | Opcode::BitwiseXor
                | Opcode::LogicalAnd
                | Opcode::LogicalOr
                | Opcode::LogicalXor
        )
    }

    /// The constant `e` with `x ⊕ e == x`, if the op has a right identity.
    pub fn identity_scalar(self, dtype: DType) -> Option<Scalar> {
        match self {
            Opcode::Add
            | Opcode::Subtract
            | Opcode::BitwiseOr
            | Opcode::BitwiseXor
            | Opcode::LeftShift
            | Opcode::RightShift => Some(Scalar::zero(dtype)),
            Opcode::Multiply | Opcode::Divide | Opcode::Power => Some(Scalar::one(dtype)),
            // All-ones mask: `x & !0 == x`. `-1` wraps to the full mask for
            // every integer width and to `true` for bool; floats have no
            // bitwise identity.
            Opcode::BitwiseAnd if !dtype.is_float() => Some(Scalar::from_i64(-1, dtype)),
            Opcode::LogicalOr | Opcode::LogicalXor => Some(Scalar::Bool(false)),
            Opcode::LogicalAnd => Some(Scalar::Bool(true)),
            _ => None,
        }
    }

    /// The constant `z` with `x ⊕ z == z` for all `x`, if the op has a
    /// right annihilator (exact only for integer dtypes in the `Multiply`
    /// case: `0 * NaN != 0` for floats).
    pub fn annihilator_scalar(self, dtype: DType) -> Option<Scalar> {
        match self {
            Opcode::Multiply | Opcode::BitwiseAnd => Some(Scalar::zero(dtype)),
            Opcode::LogicalAnd => Some(Scalar::Bool(false)),
            Opcode::LogicalOr => Some(Scalar::Bool(true)),
            _ => None,
        }
    }

    /// For a reduction/scan, the element-wise op it folds with.
    pub const fn fold_op(self) -> Option<Opcode> {
        match self {
            Opcode::AddReduce | Opcode::AddAccumulate => Some(Opcode::Add),
            Opcode::MultiplyReduce | Opcode::MultiplyAccumulate => Some(Opcode::Multiply),
            Opcode::MinimumReduce => Some(Opcode::Minimum),
            Opcode::MaximumReduce => Some(Opcode::Maximum),
            _ => None,
        }
    }

    /// Check one input dtype against the rule; returns the *output* dtype on
    /// success (for binary ops both inputs must already agree — enforced by
    /// `bh-ir`'s validator).
    pub fn result_dtype(self, input: DType) -> Result<DType, OpcodeTypeError> {
        let ok = |d| Ok(d);
        let fail = || {
            Err(OpcodeTypeError {
                opcode: self,
                dtype: input,
            })
        };
        match self.type_rule() {
            Same => ok(input),
            CompareLike => ok(DType::Bool),
            BoolOnly => {
                if input == DType::Bool {
                    ok(DType::Bool)
                } else {
                    fail()
                }
            }
            IntLike => {
                if input.is_integer() || input == DType::Bool {
                    ok(input)
                } else {
                    fail()
                }
            }
            FloatOnly => {
                if input.is_float() {
                    ok(input)
                } else {
                    fail()
                }
            }
            Cast => ok(input), // output dtype is the *output view's*; checked upstream
            TypeRule::None => ok(input),
        }
    }

    /// Abstract per-element cost in "flop units", counted by the VM's
    /// `flops` statistic; set by the conventional wisdom the paper leans on
    /// (`BH_POWER` ≫ `BH_MULTIPLY`).
    pub const fn unit_cost(self) -> u64 {
        match self {
            Opcode::Identity | Opcode::NoOp | Opcode::Sync | Opcode::Free => 1,
            Opcode::Add
            | Opcode::Subtract
            | Opcode::Maximum
            | Opcode::Minimum
            | Opcode::BitwiseAnd
            | Opcode::BitwiseOr
            | Opcode::BitwiseXor
            | Opcode::LeftShift
            | Opcode::RightShift
            | Opcode::LogicalAnd
            | Opcode::LogicalOr
            | Opcode::LogicalXor
            | Opcode::LogicalNot
            | Opcode::Invert
            | Opcode::Absolute
            | Opcode::Sign
            | Opcode::Greater
            | Opcode::GreaterEqual
            | Opcode::Less
            | Opcode::LessEqual
            | Opcode::Equal
            | Opcode::NotEqual
            | Opcode::IsNan
            | Opcode::IsInf
            | Opcode::Ceil
            | Opcode::Floor
            | Opcode::Trunc
            | Opcode::Rint => 1,
            Opcode::Multiply => 1,
            Opcode::Divide | Opcode::Mod => 4,
            Opcode::Sqrt => 6,
            Opcode::Exp
            | Opcode::Exp2
            | Opcode::Expm1
            | Opcode::Log
            | Opcode::Log2
            | Opcode::Log10
            | Opcode::Log1p
            | Opcode::Sin
            | Opcode::Cos
            | Opcode::Tan
            | Opcode::Sinh
            | Opcode::Cosh
            | Opcode::Tanh
            | Opcode::Arcsin
            | Opcode::Arccos
            | Opcode::Arctan
            | Opcode::Arcsinh
            | Opcode::Arccosh
            | Opcode::Arctanh
            | Opcode::Arctan2 => 20,
            // pow(x, y) via exp/log on the slow path — the cost the paper's
            // §4 benchmark claim hinges on.
            Opcode::Power => 40,
            Opcode::AddReduce
            | Opcode::MultiplyReduce
            | Opcode::MinimumReduce
            | Opcode::MaximumReduce
            | Opcode::AddAccumulate
            | Opcode::MultiplyAccumulate => 1,
            Opcode::Range | Opcode::Random => 2,
            // LinAlg ops are super-linear; the VM counts their flops from
            // `bh-linalg`'s flop model, this is the per-output-element floor.
            Opcode::MatMul | Opcode::Transpose | Opcode::Inverse | Opcode::Solve => 1,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing an op-code mnemonic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpcodeError {
    text: String,
}

impl fmt::Display for ParseOpcodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown op-code `{}`", self.text)
    }
}

impl std::error::Error for ParseOpcodeError {}

/// Error from [`Opcode::result_dtype`]: dtype not supported by the op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpcodeTypeError {
    /// The op-code that rejected the dtype.
    pub opcode: Opcode,
    /// The offending dtype.
    pub dtype: DType,
}

impl fmt::Display for OpcodeTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} does not support dtype {}", self.opcode, self.dtype)
    }
}

impl std::error::Error for OpcodeTypeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_tensor::ALL_DTYPES;

    #[test]
    fn names_round_trip() {
        for &op in ALL_OPCODES {
            assert_eq!(op.name().parse::<Opcode>().unwrap(), op);
        }
        assert!("BH_BOGUS".parse::<Opcode>().is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL_OPCODES.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_OPCODES.len());
    }

    #[test]
    fn paper_opcodes_present() {
        // Every op-code appearing in the paper's listings or prose.
        for name in [
            "BH_IDENTITY",
            "BH_ADD",
            "BH_SYNC",
            "BH_MULTIPLY",
            "BH_POWER",
        ] {
            assert!(name.parse::<Opcode>().is_ok(), "{name}");
        }
    }

    #[test]
    fn arity_table() {
        assert_eq!(Opcode::Add.arity(), 2);
        assert_eq!(Opcode::Identity.arity(), 1);
        assert_eq!(Opcode::Sync.arity(), 0);
        assert_eq!(Opcode::Sync.operand_count(), 1);
        assert_eq!(Opcode::Add.operand_count(), 3);
        assert_eq!(Opcode::Range.operand_count(), 1);
        assert_eq!(Opcode::Random.operand_count(), 2);
        assert_eq!(Opcode::AddReduce.operand_count(), 3);
        assert_eq!(Opcode::MatMul.operand_count(), 3);
        assert_eq!(Opcode::Inverse.operand_count(), 2);
    }

    #[test]
    fn commutative_implies_binary() {
        for &op in ALL_OPCODES {
            if op.is_commutative() {
                assert_eq!(op.arity(), 2, "{op}");
            }
        }
    }

    #[test]
    fn associative_ops_are_commutative_here() {
        // In this op set every associative op is also commutative; the
        // optimizer relies on checking both flags independently, but the
        // table should stay consistent with itself.
        for &op in ALL_OPCODES {
            if op.is_associative() {
                assert!(op.is_commutative(), "{op}");
            }
        }
    }

    #[test]
    fn identities_are_identities() {
        // x + 0 == x, x * 1 == x, x ^ 1 == x over f64 samples.
        let x = 3.7f64;
        assert_eq!(
            x + Opcode::Add
                .identity_scalar(DType::Float64)
                .unwrap()
                .as_f64(),
            x
        );
        assert_eq!(
            x * Opcode::Multiply
                .identity_scalar(DType::Float64)
                .unwrap()
                .as_f64(),
            x
        );
        assert_eq!(
            x.powf(
                Opcode::Power
                    .identity_scalar(DType::Float64)
                    .unwrap()
                    .as_f64()
            ),
            x
        );
        assert_eq!(Opcode::Greater.identity_scalar(DType::Float64), None);
    }

    #[test]
    fn annihilators_annihilate() {
        let z = Opcode::Multiply.annihilator_scalar(DType::Int64).unwrap();
        assert_eq!(7i64 * z.as_f64() as i64, 0);
        assert_eq!(Opcode::Add.annihilator_scalar(DType::Int64), None);
    }

    #[test]
    fn type_rules() {
        assert_eq!(
            Opcode::Add.result_dtype(DType::Float64).unwrap(),
            DType::Float64
        );
        assert_eq!(
            Opcode::Greater.result_dtype(DType::Int32).unwrap(),
            DType::Bool
        );
        assert!(Opcode::Sqrt.result_dtype(DType::Int32).is_err());
        assert!(Opcode::LogicalAnd.result_dtype(DType::Float64).is_err());
        assert!(Opcode::BitwiseAnd.result_dtype(DType::Float32).is_err());
        assert_eq!(
            Opcode::BitwiseAnd.result_dtype(DType::Bool).unwrap(),
            DType::Bool
        );
        for &d in &ALL_DTYPES {
            assert!(Opcode::Identity.result_dtype(d).is_ok());
        }
    }

    #[test]
    fn power_costs_more_than_multiply_chain_of_five() {
        // The economics behind Listing 5: five multiplies must be cheaper
        // than one BH_POWER for the rewrite to pay off.
        assert!(5 * Opcode::Multiply.unit_cost() < Opcode::Power.unit_cost());
    }

    #[test]
    fn fold_ops_match() {
        assert_eq!(Opcode::AddReduce.fold_op(), Some(Opcode::Add));
        assert_eq!(Opcode::MaximumReduce.fold_op(), Some(Opcode::Maximum));
        assert_eq!(Opcode::Add.fold_op(), None);
    }

    #[test]
    fn elementwise_classification() {
        assert!(Opcode::Add.is_elementwise());
        assert!(Opcode::Sqrt.is_elementwise());
        assert!(!Opcode::AddReduce.is_elementwise());
        assert!(!Opcode::Sync.is_elementwise());
        assert!(!Opcode::MatMul.is_elementwise());
    }

    #[test]
    fn has_output() {
        assert!(Opcode::Add.has_output());
        assert!(Opcode::Range.has_output());
        assert!(!Opcode::Sync.has_output());
        assert!(!Opcode::Free.has_output());
    }

    #[test]
    fn display_is_mnemonic() {
        assert_eq!(Opcode::Multiply.to_string(), "BH_MULTIPLY");
    }
}
