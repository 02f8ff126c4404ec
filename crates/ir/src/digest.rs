//! Structural program digests, the key of the runtime transformation cache.
//!
//! Two recordings of the same logical byte-code sequence — possibly made by
//! different front-end contexts, so with different register *names* — must
//! map to the same cache entry, while any semantic difference (op-codes,
//! operand wiring, constants, dtypes, shapes, slices, input-ness) must
//! produce a different key. [`Program::structural_digest`] therefore
//! serialises the program into a canonical byte string in which registers
//! are identified purely by declaration index and names never appear.
//!
//! The canonical encoding itself is the cache key: every field is tagged
//! and length-prefixed, so distinct programs encode to distinct byte
//! strings and equality of digests is equality of structure — no
//! hash-collision caveats. A 64-bit FNV-1a [`ProgramDigest::fingerprint`]
//! is derived for logging and `Display`.

use crate::operand::Operand;
use crate::program::Program;
use bh_tensor::{Scalar, Slice};

/// Canonical structural identity of a [`Program`].
///
/// Equality ignores register names and nothing else. Usable as a
/// `HashMap` key, but not cheap: hashing, cloning and comparing each cost
/// O(encoding length), and a 20 000-instruction chain encodes to
/// 2 779 898 B. A fixed-size identity is ROADMAP item 9.
///
/// # Examples
///
/// ```
/// use bh_ir::parse_program;
///
/// // Same structure, different register names → same digest.
/// let a = parse_program("BH_IDENTITY a0 [0:4:1] 1\nBH_SYNC a0\n")?;
/// let b = parse_program("BH_IDENTITY zz [0:4:1] 1\nBH_SYNC zz\n")?;
/// assert_eq!(a.structural_digest(), b.structural_digest());
///
/// // Different constant → different digest.
/// let c = parse_program("BH_IDENTITY a0 [0:4:1] 2\nBH_SYNC a0\n")?;
/// assert_ne!(a.structural_digest(), c.structural_digest());
/// # Ok::<(), bh_ir::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramDigest {
    bytes: Vec<u8>,
}

impl ProgramDigest {
    /// The canonical encoding (stable across processes and runs).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// 64-bit FNV-1a fingerprint of the canonical encoding, for logging.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &self.bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl std::fmt::Display for ProgramDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.fingerprint())
    }
}

/// Encoding version; bump when the canonical format changes so persisted
/// digests can never alias across versions.
const VERSION: u8 = 1;

impl Program {
    /// The canonical structural digest of this program (see module docs).
    pub fn structural_digest(&self) -> ProgramDigest {
        let mut e = Encoder {
            out: Vec::with_capacity(64 + self.instrs().len() * 24),
        };
        e.out.push(VERSION);
        e.usize_(self.bases().len());
        for base in self.bases() {
            // Names are deliberately omitted: a register is its index.
            e.str_(base.dtype.short_name());
            e.usize_(base.shape.dims().len());
            for &d in base.shape.dims() {
                e.u64_(d as u64);
            }
            e.out.push(base.is_input as u8);
        }
        e.usize_(self.instrs().len());
        for instr in self.instrs() {
            e.str_(instr.op.name());
            e.usize_(instr.operands.len());
            for operand in &instr.operands {
                match operand {
                    Operand::View(v) => {
                        e.out.push(0);
                        e.u64_(v.reg.index() as u64);
                        // Encode the *resolved* geometry, so syntactically
                        // different spellings of the same elements (`a0`,
                        // `a0[:]`, `a0[0:10:1]`) digest identically. An
                        // unresolvable view (invalid slice) falls back to
                        // the raw slice list under tag 1, and a register no
                        // base declares (the verifier's V103) under tag 2
                        // without looking up a base: digesting is total, so
                        // admission can reject such a program instead of
                        // panicking while building the request.
                        let resolved = if v.reg.index() < self.bases().len() {
                            self.resolve_view(v).map_err(|_| 1)
                        } else {
                            Err(2)
                        };
                        match resolved {
                            Ok(geom) => {
                                e.out.push(0);
                                e.u64_(geom.offset() as u64);
                                e.usize_(geom.dims().len());
                                for d in geom.dims() {
                                    e.u64_(d.len as u64);
                                    e.u64_(d.stride as u64);
                                }
                            }
                            Err(tag) => {
                                e.out.push(tag);
                                let slices = v.slices.as_deref().unwrap_or(&[]);
                                e.usize_(slices.len());
                                for s in slices {
                                    e.slice(s);
                                }
                            }
                        }
                    }
                    Operand::Const(c) => {
                        e.out.push(1);
                        e.scalar(c);
                    }
                }
            }
        }
        ProgramDigest { bytes: e.out }
    }
}

struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    fn u64_(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn usize_(&mut self, v: usize) {
        self.u64_(v as u64);
    }

    fn str_(&mut self, s: &str) {
        self.usize_(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.out.push(0),
            Some(v) => {
                self.out.push(1);
                self.u64_(v as u64);
            }
        }
    }

    fn slice(&mut self, s: &Slice) {
        self.opt_i64(s.start);
        self.opt_i64(s.stop);
        self.u64_(s.step as u64);
    }

    fn scalar(&mut self, c: &Scalar) {
        // Tag by dtype, then the value's bit pattern widened to 64 bits —
        // floats via their IEEE bits, so every NaN payload and signed zero
        // is distinguished (a rewrite may behave differently on them).
        self.str_(c.dtype().short_name());
        self.u64_(c.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_program;

    fn digest_of(text: &str) -> super::ProgramDigest {
        parse_program(text)
            .expect("test program parses")
            .structural_digest()
    }

    #[test]
    fn names_are_canonicalised_away() {
        let a = digest_of("BH_IDENTITY a0 [0:10:1] 0\nBH_ADD a0 a0 1\nBH_SYNC a0\n");
        let b = digest_of("BH_IDENTITY x9 [0:10:1] 0\nBH_ADD x9 x9 1\nBH_SYNC x9\n");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn constants_shapes_dtypes_all_distinguish() {
        let base = digest_of("BH_IDENTITY a [0:10:1] 1\nBH_SYNC a\n");
        for other in [
            "BH_IDENTITY a [0:10:1] 2\nBH_SYNC a\n",   // constant value
            "BH_IDENTITY a [0:10:1] 1.0\nBH_SYNC a\n", // constant dtype
            "BH_IDENTITY a [0:11:1] 1\nBH_SYNC a\n",   // shape
            ".base a i32[10]\nBH_IDENTITY a 1\nBH_SYNC a\n", // base dtype
            ".base a f64[10] input\nBH_IDENTITY a 1\nBH_SYNC a\n", // input flag
            "BH_IDENTITY a [0:10:1] 1\n",              // instruction count
            "BH_IDENTITY a [0:10:2] 1\nBH_SYNC a\n",   // slice geometry
        ] {
            assert_ne!(base, digest_of(other), "{other}");
        }
    }

    #[test]
    fn opcode_and_wiring_distinguish() {
        let add = digest_of(".base a f64[4] input\n.base b f64[4]\nBH_ADD b a a\nBH_SYNC b\n");
        let mul = digest_of(".base a f64[4] input\n.base b f64[4]\nBH_MULTIPLY b a a\nBH_SYNC b\n");
        let wiring = digest_of(".base a f64[4] input\n.base b f64[4]\nBH_ADD b b a\nBH_SYNC b\n");
        assert_ne!(add, mul);
        assert_ne!(add, wiring);
    }

    #[test]
    fn digest_is_stable_across_clones_and_reparses() {
        let text = ".base m f64[3,3] input\nBH_INVERSE m m\nBH_SYNC m\n";
        let p = parse_program(text).unwrap();
        assert_eq!(p.structural_digest(), p.clone().structural_digest());
        // Round-trip through the printer yields the same structure.
        let q = parse_program(&p.to_text(crate::PrintStyle::FULL)).unwrap();
        assert_eq!(p.structural_digest(), q.structural_digest());
    }

    #[test]
    fn a_dangling_register_digests_without_panicking() {
        // The parser cannot name an undeclared register, but a decoded
        // container can: `BH_IDENTITY a0 <register 7>` over one base.
        use crate::{Instruction, Opcode, Operand, Program, Reg, ViewRef};
        use bh_tensor::{DType, Shape};
        let with_source = |src: Reg| {
            let mut p = Program::new();
            let a0 = p.declare("a0", DType::Float64, Shape::vector(4));
            p.push(Instruction::unary(
                Opcode::Identity,
                ViewRef::full(a0),
                Operand::full(src),
            ));
            p.structural_digest()
        };
        let dangling = with_source(Reg(7));
        assert_eq!(dangling, with_source(Reg(7)));
        assert_ne!(dangling, with_source(Reg(0)));
        assert_ne!(dangling, with_source(Reg(8)));
    }

    #[test]
    fn display_is_hex_fingerprint() {
        let d = digest_of("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        assert_eq!(d.to_string(), format!("{:016x}", d.fingerprint()));
        assert_eq!(d.as_bytes()[0], super::VERSION);
    }
}
