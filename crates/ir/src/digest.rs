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
//! Every field of the encoding is tagged and length-prefixed, so distinct
//! programs encode to distinct byte strings. A digest keeps that encoding
//! once, behind an `Arc`, next to a 64-bit hash of it computed at
//! construction: hashing a digest hashes that one word, and equality
//! compares the hashes first and the bytes only when they match. Equality
//! of digests is therefore equality of structure — no hash-collision
//! caveats — at O(1) for almost every unequal pair. A [`ProgramHandle`]
//! carries a program together with its digest, so a caller that keys
//! work by digest encodes the program once.

use crate::operand::Operand;
use crate::program::Program;
use crate::verify::slice_bound_ok;
use bh_tensor::{Scalar, Slice};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Canonical structural identity of a [`Program`].
///
/// Equality ignores register names and nothing else. Cloning shares the
/// encoding, hashing writes the stored 64-bit hash, and comparing costs
/// one `memcmp` only when the hashes match.
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
#[derive(Debug, Clone)]
pub struct ProgramDigest {
    hash: u64,
    bytes: Arc<[u8]>,
}

impl ProgramDigest {
    fn new(bytes: Vec<u8>) -> ProgramDigest {
        ProgramDigest {
            hash: hash64(&bytes),
            bytes: Arc::from(bytes),
        }
    }

    /// The canonical encoding (stable across processes and runs).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The 64-bit hash of the canonical encoding, computed once when the
    /// digest was built. Stable across processes, builds and hosts, so it
    /// can label logs and exported metrics.
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// A digest of `bytes` carrying `hash` instead of the hash of `bytes`:
    /// two different encodings sharing one hash, as a collision would.
    #[cfg(test)]
    fn with_hash(bytes: &[u8], hash: u64) -> ProgramDigest {
        ProgramDigest {
            hash,
            bytes: Arc::from(bytes),
        }
    }
}

impl PartialEq for ProgramDigest {
    fn eq(&self, other: &ProgramDigest) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.bytes, &other.bytes) || self.bytes == other.bytes)
    }
}

impl Eq for ProgramDigest {}

impl Hash for ProgramDigest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl std::fmt::Display for ProgramDigest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.fingerprint())
    }
}

/// A program paired with its structural digest, computed here and only
/// here, so the pair cannot disagree.
///
/// A caller that keys work by digest — a serving layer batching requests,
/// a runtime probing its plan cache — digests a program once, builds a
/// handle, and passes the handle on instead of encoding the program again.
/// Cloning bumps two reference counts. Clients serving repeated traffic
/// should build one handle per logical program and reuse it.
#[derive(Clone)]
pub struct ProgramHandle {
    program: Arc<Program>,
    digest: ProgramDigest,
}

impl ProgramHandle {
    /// Digest and wrap a program.
    pub fn new(program: Program) -> ProgramHandle {
        ProgramHandle::from_arc(Arc::new(program))
    }

    /// Digest an already-shared program.
    pub fn from_arc(program: Arc<Program>) -> ProgramHandle {
        let digest = program.structural_digest();
        ProgramHandle { program, digest }
    }

    /// The wrapped program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The wrapped program's structural digest.
    pub fn digest(&self) -> &ProgramDigest {
        &self.digest
    }
}

impl std::fmt::Debug for ProgramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProgramHandle({} instrs, digest {})",
            self.program.instrs().len(),
            self.digest
        )
    }
}

/// Deterministic 64-bit hash of `bytes`: four independent lanes of
/// xxHash64-style multiply–rotate rounds over 32-byte stripes of
/// little-endian words, the leftover words and zero-padded tail bytes
/// folded in after the lanes merge, then a final avalanche. The length is
/// mixed in, so a zero-padded tail cannot alias a longer input.
fn hash64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    fn fold(h: u64, word: u64) -> u64 {
        (h ^ round(0, word))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P3)
    }
    fn word(chunk: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(w)
    }
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, chunk) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(chunk));
        }
    }
    let mut h = (bytes.len() as u64).wrapping_mul(P3);
    for lane in lanes {
        h = fold(h, lane);
    }
    for chunk in stripes.remainder().chunks(8) {
        h = fold(h, word(chunk));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Encoding version; bump when the canonical format changes so persisted
/// digests can never alias across versions. Moving slice bounds past
/// their axis from tag 0 to tag 1 kept version 1: only programs the
/// verifier rejects changed bytes, and their new bytes (the raw slices)
/// are no other program's.
const VERSION: u8 = 1;

impl Program {
    /// The canonical structural digest of this program (see module docs).
    pub fn structural_digest(&self) -> ProgramDigest {
        let mut out = Vec::with_capacity(encoded_len_estimate(self));
        Encoder { out: &mut out }.program(self);
        ProgramDigest::new(out)
    }
}

/// A capacity the encoding of `program` rarely outgrows: a base costs
/// at most a few dozen bytes, an instruction its name and count plus
/// ~50 bytes per operand of rank ≤ 2.
fn encoded_len_estimate(program: &Program) -> usize {
    16 + 48 * program.bases().len() + 192 * program.instrs().len()
}

struct Encoder<'a> {
    out: &'a mut Vec<u8>,
}

impl Encoder<'_> {
    fn program(&mut self, program: &Program) {
        let bases = program.bases();
        self.out.push(VERSION);
        self.usize_(bases.len());
        for base in bases {
            // Names are deliberately omitted: a register is its index.
            self.str_(base.dtype.short_name());
            self.usize_(base.shape.dims().len());
            for &d in base.shape.dims() {
                self.u64_(d as u64);
            }
            self.out.push(base.is_input as u8);
        }
        self.usize_(program.instrs().len());
        for instr in program.instrs() {
            self.str_(instr.op.name());
            self.usize_(instr.operands.len());
            for operand in &instr.operands {
                match operand {
                    Operand::View(v) => {
                        self.out.push(0);
                        self.u64_(v.reg.index() as u64);
                        // Encode the *resolved* geometry, so syntactically
                        // different spellings of the same elements (`a0`,
                        // `a0[:]`, `a0[0:10:1]`) digest identically. A view
                        // without slices is its base's row-major layout,
                        // written straight from the shape. A view that
                        // does not resolve (invalid slice), or resolves
                        // only by clamping an explicit bound past its axis
                        // (`a0[0:20:1]` over ten elements, the verifier's
                        // V104), falls back to the raw slice list under
                        // tag 1: such a spelling fails verification, so it
                        // must not share a key with the in-range spelling
                        // whose plan may be resident. A register no base
                        // declares (the verifier's V103) goes under tag 2
                        // without looking up a base: digesting is total,
                        // so admission can reject such a program instead
                        // of panicking while building the request.
                        let Some(base) = bases.get(v.reg.index()) else {
                            self.raw_slices(2, v.slices.as_deref());
                            continue;
                        };
                        let Some(slices) = &v.slices else {
                            self.contiguous(base.shape.dims());
                            continue;
                        };
                        let in_range = slices.iter().zip(base.shape.dims()).all(|(s, &n)| {
                            slice_bound_ok(s.start, n as i64) && slice_bound_ok(s.stop, n as i64)
                        });
                        let geom = in_range.then(|| program.resolve_view(v).ok()).flatten();
                        match geom {
                            Some(geom) => {
                                self.out.push(0);
                                self.u64_(geom.offset() as u64);
                                self.usize_(geom.dims().len());
                                for d in geom.dims() {
                                    self.u64_(d.len as u64);
                                    self.u64_(d.stride as u64);
                                }
                            }
                            None => self.raw_slices(1, Some(slices)),
                        }
                    }
                    Operand::Const(c) => {
                        self.out.push(1);
                        self.scalar(c);
                    }
                }
            }
        }
    }

    /// Tag 0 geometry of the full row-major view of a base of extents
    /// `dims`: offset 0, then (len, stride) per axis, the stride of an
    /// axis being the product of the extents inside it.
    fn contiguous(&mut self, dims: &[usize]) {
        self.out.push(0);
        self.u64_(0);
        self.usize_(dims.len());
        for (axis, &len) in dims.iter().enumerate() {
            let stride = dims[axis + 1..]
                .iter()
                .fold(1usize, |s, &d| s.wrapping_mul(d));
            self.usize_(len);
            self.usize_(stride);
        }
    }

    fn raw_slices(&mut self, tag: u8, slices: Option<&[Slice]>) {
        self.out.push(tag);
        let slices = slices.unwrap_or(&[]);
        self.usize_(slices.len());
        for s in slices {
            self.slice(s);
        }
    }

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

    /// One program per encoder path: views without slices over a rank-0,
    /// a rank-1, a rank-2 and a zero-length-dim base, an offset/strided
    /// slice, an unresolvable slice (tag 1) and a dangling register
    /// (tag 2).
    fn pinned_programs() -> Vec<(&'static str, crate::Program)> {
        use crate::{Instruction, Opcode, Operand, Program, Reg, ViewRef};
        use bh_tensor::{DType, Scalar, Shape, Slice};
        let slice = |start, stop, step| Slice { start, stop, step };
        let mut out = Vec::new();

        let mut p = Program::new();
        let s = p.declare("s", DType::Float64, Shape::scalar());
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(s),
            Operand::Const(Scalar::F64(1.5)),
        ));
        p.push(Instruction::sync(ViewRef::full(s)));
        out.push(("rank0", p));

        let mut p = Program::new();
        let a = p.declare_input("a", DType::Float64, Shape::vector(4));
        let b = p.declare("b", DType::Float64, Shape::vector(4));
        p.push(Instruction::binary(
            Opcode::Add,
            ViewRef::full(b),
            Operand::full(a),
            Operand::Const(Scalar::I32(2)),
        ));
        p.push(Instruction::sync(ViewRef::full(b)));
        out.push(("rank1", p));

        let mut p = Program::new();
        let m = p.declare("m", DType::Int32, Shape::matrix(2, 3));
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(m),
            Operand::Const(Scalar::I32(7)),
        ));
        p.push(Instruction::sync(ViewRef::full(m)));
        out.push(("rank2", p));

        let mut p = Program::new();
        let z = p.declare("z", DType::Float64, Shape::from(vec![2, 0, 3]));
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(z),
            Operand::Const(Scalar::F64(0.0)),
        ));
        out.push(("zero_len_dim", p));

        let mut p = Program::new();
        let m = p.declare("m", DType::Float64, Shape::matrix(4, 5));
        let v = p.declare("v", DType::Float64, Shape::vector(10));
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::sliced(v, vec![slice(Some(2), Some(9), 3)]),
            Operand::sliced(m, vec![slice(Some(1), Some(4), 1), slice(None, None, -2)]),
        ));
        out.push(("sliced", p));

        let mut p = Program::new();
        let a = p.declare("a", DType::Float64, Shape::vector(4));
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::sliced(a, vec![slice(Some(0), None, 0)]),
            Operand::Const(Scalar::F64(1.0)),
        ));
        out.push(("unresolvable", p));

        let mut p = Program::new();
        let a = p.declare("a", DType::Float64, Shape::vector(4));
        p.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(a),
            Operand::sliced(Reg(7), vec![slice(None, Some(-1), 1)]),
        ));
        out.push(("dangling", p));
        out
    }

    /// `as_bytes()` of [`pinned_programs`], hex-encoded, as the encoder
    /// wrote them before views without slices skipped building geometry.
    const PINNED: [(&str, &str); 7] = [
        (
            "rank0",
            "010100000000000000030000000000000066363400000000000000000002000000000000\
             000b0000000000000042485f4944454e5449545902000000000000000000000000000000\
             000000000000000000000000000000000000010300000000000000663634000000000000\
             f83f070000000000000042485f53594e4301000000000000000000000000000000000000\
             000000000000000000000000000000",
        ),
        (
            "rank1",
            "010200000000000000030000000000000066363401000000000000000400000000000000\
             010300000000000000663634010000000000000004000000000000000002000000000000\
             00060000000000000042485f414444030000000000000000010000000000000000000000\
             000000000001000000000000000400000000000000010000000000000000000000000000\
             000000000000000000000001000000000000000400000000000000010000000000000001\
             03000000000000006933320200000000000000070000000000000042485f53594e430100\
             000000000000000100000000000000000000000000000000010000000000000004000000\
             000000000100000000000000",
        ),
        (
            "rank2",
            "010100000000000000030000000000000069333202000000000000000200000000000000\
             03000000000000000002000000000000000b0000000000000042485f4944454e54495459\
             020000000000000000000000000000000000000000000000000002000000000000000200\
             000000000000030000000000000003000000000000000100000000000000010300000000\
             0000006933320700000000000000070000000000000042485f53594e4301000000000000\
             000000000000000000000000000000000000000200000000000000020000000000000003\
             0000000000000003000000000000000100000000000000",
        ),
        (
            "zero_len_dim",
            "010100000000000000030000000000000066363403000000000000000200000000000000\
             000000000000000003000000000000000001000000000000000b0000000000000042485f\
             4944454e5449545902000000000000000000000000000000000000000000000000000300\
             000000000000020000000000000000000000000000000000000000000000030000000000\
             000003000000000000000100000000000000010300000000000000663634000000000000\
             0000",
        ),
        (
            "sliced",
            "010200000000000000030000000000000066363402000000000000000400000000000000\
             050000000000000000030000000000000066363401000000000000000a00000000000000\
             0001000000000000000b0000000000000042485f4944454e544954590200000000000000\
             000100000000000000000200000000000000010000000000000003000000000000000300\
             000000000000000000000000000000000900000000000000020000000000000003000000\
             0000000005000000000000000300000000000000feffffffffffffff",
        ),
        (
            "unresolvable",
            "010100000000000000030000000000000066363401000000000000000400000000000000\
             0001000000000000000b0000000000000042485f4944454e544954590200000000000000\
             000000000000000000010100000000000000010000000000000000000000000000000000\
             010300000000000000663634000000000000f03f",
        ),
        (
            "dangling",
            "010100000000000000030000000000000066363401000000000000000400000000000000\
             0001000000000000000b0000000000000042485f4944454e544954590200000000000000\
             000000000000000000000000000000000000010000000000000004000000000000000100\
             0000000000000007000000000000000201000000000000000001ffffffffffffffff0100\
             000000000000",
        ),
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn the_encoding_is_pinned_byte_for_byte() {
        let programs = pinned_programs();
        assert_eq!(programs.len(), PINNED.len());
        for ((name, program), (pinned_name, pinned)) in programs.iter().zip(PINNED) {
            assert_eq!(*name, pinned_name);
            assert_eq!(
                hex(program.structural_digest().as_bytes()),
                pinned,
                "{name}"
            );
        }
    }

    #[test]
    fn fingerprints_are_known_answers() {
        // Fingerprints label logs and exported metrics, so they must not
        // move across processes, builds or hosts.
        let want = [
            ("rank0", "f35ef29d60524a3b"),
            ("rank1", "badd848dd73d9a23"),
            ("rank2", "9655fdfcf438b3f3"),
            ("zero_len_dim", "a8e5c4b961b8d0c1"),
            ("sliced", "0fa96d30f7248f23"),
            ("unresolvable", "31860b03204d21b2"),
            ("dangling", "5b767e57ed454c13"),
        ];
        for ((name, program), (want_name, want_fp)) in pinned_programs().iter().zip(want) {
            assert_eq!(*name, want_name);
            assert_eq!(program.structural_digest().to_string(), want_fp, "{name}");
        }
        assert_eq!(super::hash64(b""), 0x1570_c1e5_63e4_e7f0);
        assert_eq!(super::hash64(b"abc"), 0xbb7e_ba41_89c9_185a);
    }

    #[test]
    fn every_bit_and_every_length_moves_the_hash() {
        use std::collections::HashSet;
        let base: Vec<u8> = (0..100u8).collect();
        let mut seen = HashSet::from([super::hash64(&base)]);
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(super::hash64(&flipped)), "bit {bit}");
        }
        // Zero-padding the tail word must not alias a longer input.
        let zeros = [0u8; 80];
        for len in 0..=zeros.len() {
            assert!(seen.insert(super::hash64(&zeros[..len])), "{len} zeros");
        }
    }

    #[test]
    fn views_without_slices_match_their_resolved_spelling() {
        use crate::{Instruction, Opcode, Operand, Program, ViewRef};
        use bh_tensor::{DType, Scalar, Shape, Slice};
        for dims in [vec![], vec![5], vec![3, 4], vec![2, 0, 3], vec![2, 3, 4, 5]] {
            let digest = |slices: Option<Vec<Slice>>| {
                let mut p = Program::new();
                let a = p.declare("a", DType::Float64, Shape::from(dims.clone()));
                p.push(Instruction::unary(
                    Opcode::Identity,
                    ViewRef { reg: a, slices },
                    Operand::Const(Scalar::F64(1.0)),
                ));
                p.structural_digest()
            };
            let full = vec![Slice::full(); dims.len()];
            assert_eq!(digest(None), digest(Some(full)), "{dims:?}");
        }
    }

    #[test]
    fn a_bound_past_its_axis_digests_apart_from_its_clamp() {
        // The verifier rejects an explicit bound past the axis (V104), so
        // such a spelling must not share the key of the in-range spelling
        // it would clamp to; in-range spellings still share one key.
        let program =
            |slice: &str| format!(".base a f64[10]\nBH_IDENTITY a {slice} 1\nBH_SYNC a\n");
        let in_range = digest_of(&program("[0:10:1]"));
        assert_eq!(in_range, digest_of(&program("[:]")));
        assert_eq!(in_range, digest_of(&program("[-10:10:1]")));
        for past in ["[0:20:1]", "[-20:10:1]", "[11::1]"] {
            let text = program(past);
            assert!(
                crate::verify(&parse_program(&text).unwrap()).is_err(),
                "{past}"
            );
            assert_ne!(in_range, digest_of(&text), "{past}");
        }
        assert_ne!(
            digest_of(&program("[0:20:1]")),
            digest_of(&program("[0:30:1]"))
        );
    }

    #[test]
    fn a_hash_collision_still_compares_the_bytes() {
        use super::ProgramDigest;
        use std::collections::HashMap;
        let a = ProgramDigest::with_hash(b"one encoding", 42);
        let b = ProgramDigest::with_hash(b"another encoding", 42);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(a, ProgramDigest::with_hash(b"one encoding", 42));
        let mut map = HashMap::new();
        map.insert(a.clone(), 1);
        map.insert(b.clone(), 2);
        assert_eq!(map.len(), 2);
        assert_eq!((map[&a], map[&b]), (1, 2));
    }

    #[test]
    fn display_is_hex_fingerprint() {
        let d = digest_of("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n");
        assert_eq!(d.to_string(), format!("{:016x}", d.fingerprint()));
        assert_eq!(d.as_bytes()[0], super::VERSION);
    }
}
