//! Little-endian encoder/decoder primitives and the program payload
//! codec.
//!
//! The encoder mirrors the canonical-digest encoder in `bh_ir::digest`
//! (everything length-prefixed, every multi-byte integer little-endian)
//! but, unlike the digest, keeps register *names* and the raw slice
//! spellings: a container must round-trip the program bit-identically,
//! not canonicalise it.
//!
//! The decoder is fail-closed and allocation-bounded: every count field
//! is validated against the number of bytes that could possibly back it
//! *before* any `Vec` is sized from it, so a hostile length can at most
//! make us reject — never over-allocate.

use crate::error::ContainerError;
use bh_ir::{Instruction, Opcode, Operand, Program, Reg, ViewRef};
use bh_tensor::{DType, Scalar, Shape, Slice};
use std::str::FromStr;

/// Operand tag bytes (shared with `bh_ir::digest`'s convention).
const TAG_VIEW: u8 = 0;
const TAG_CONST: u8 = 1;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) struct Enc {
    pub(crate) out: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc { out: Vec::new() }
    }

    pub(crate) fn u8_(&mut self, v: u8) {
        self.out.push(v);
    }

    pub(crate) fn u16_(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32_(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64_(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize_(&mut self, v: usize) {
        self.u64_(v as u64);
    }

    pub(crate) fn str_(&mut self, s: &str) {
        self.usize_(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            None => self.u8_(0),
            Some(v) => {
                self.u8_(1);
                self.u64_(v as u64);
            }
        }
    }

    fn scalar(&mut self, c: &Scalar) {
        self.str_(c.dtype().short_name());
        self.u64_(c.to_bits());
    }

    /// Encode a full program: bases (with names), then instructions with
    /// their raw operand spellings.
    pub(crate) fn program(&mut self, p: &Program) {
        self.usize_(p.bases().len());
        for base in p.bases() {
            self.str_(&base.name);
            self.str_(base.dtype.short_name());
            self.usize_(base.shape.dims().len());
            for &d in base.shape.dims() {
                self.u64_(d as u64);
            }
            self.u8_(base.is_input as u8);
        }
        self.usize_(p.instrs().len());
        for instr in p.instrs() {
            self.str_(instr.op.name());
            self.usize_(instr.operands.len());
            for operand in &instr.operands {
                match operand {
                    Operand::View(v) => {
                        self.u8_(TAG_VIEW);
                        self.u32_(v.reg.index() as u32);
                        match &v.slices {
                            None => self.u8_(0),
                            Some(slices) => {
                                self.u8_(1);
                                self.usize_(slices.len());
                                for s in slices {
                                    self.opt_i64(s.start);
                                    self.opt_i64(s.stop);
                                    self.u64_(s.step as u64);
                                }
                            }
                        }
                    }
                    Operand::Const(c) => {
                        self.u8_(TAG_CONST);
                        self.scalar(c);
                    }
                }
            }
        }
    }
}

/// Rebuild a scalar from its dtype and 64-bit pattern, rejecting
/// non-canonical encodings (so decode∘encode is the identity and two
/// distinct byte strings never decode to equal scalars).
fn scalar_from_bits(dtype: DType, bits: u64) -> Result<Scalar, ContainerError> {
    Scalar::from_bits(dtype, bits).ok_or(ContainerError::BadScalar { dtype, bits })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn bytes(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], ContainerError> {
        if n > self.remaining() {
            return Err(ContainerError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8_(&mut self, context: &'static str) -> Result<u8, ContainerError> {
        Ok(self.bytes(1, context)?[0])
    }

    pub(crate) fn u16_(&mut self, context: &'static str) -> Result<u16, ContainerError> {
        let b = self.bytes(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32_(&mut self, context: &'static str) -> Result<u32, ContainerError> {
        let b = self.bytes(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64_(&mut self, context: &'static str) -> Result<u64, ContainerError> {
        let b = self.bytes(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a count of items, each occupying at least `min_item_bytes`
    /// of the remaining input. Rejects before any allocation.
    pub(crate) fn count(
        &mut self,
        context: &'static str,
        min_item_bytes: usize,
    ) -> Result<usize, ContainerError> {
        let n = self.u64_(context)?;
        let cap = (self.remaining() / min_item_bytes.max(1)) as u64;
        if n > cap {
            return Err(ContainerError::HostileLength {
                context,
                requested: n,
                available: cap,
            });
        }
        Ok(n as usize)
    }

    pub(crate) fn str_(&mut self, context: &'static str) -> Result<&'a str, ContainerError> {
        let n = self.count(context, 1)?;
        let raw = self.bytes(n, context)?;
        std::str::from_utf8(raw).map_err(|_| ContainerError::BadUtf8 { context })
    }

    fn opt_i64(&mut self, context: &'static str) -> Result<Option<i64>, ContainerError> {
        match self.u8_(context)? {
            0 => Ok(None),
            1 => Ok(Some(self.u64_(context)? as i64)),
            value => Err(ContainerError::BadTag { context, value }),
        }
    }

    fn dtype(&mut self, context: &'static str) -> Result<DType, ContainerError> {
        let name = self.str_(context)?;
        DType::from_str(name).map_err(|_| ContainerError::UnknownDType { name: name.into() })
    }

    fn scalar(&mut self) -> Result<Scalar, ContainerError> {
        let dtype = self.dtype("constant dtype")?;
        let bits = self.u64_("constant bits")?;
        scalar_from_bits(dtype, bits)
    }

    /// Decode a full program. The result is structurally faithful to the
    /// bytes but *unchecked*: callers must route it through
    /// `bh_ir::verify` before execution.
    pub(crate) fn program(&mut self) -> Result<Program, ContainerError> {
        // Smallest possible base: empty name (8) + 1-byte dtype name (9)
        // + rank 0 (8) + input flag (1) = 26 bytes.
        let nbases = self.count("base count", 26)?;
        let mut program = Program::default();
        for _ in 0..nbases {
            let name = self.str_("base name")?;
            let dtype = self.dtype("base dtype")?;
            let rank = self.count("base rank", 8)?;
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                let d = self.u64_("base dim")?;
                let d = usize::try_from(d).map_err(|_| ContainerError::HostileLength {
                    context: "base dim",
                    requested: d,
                    available: usize::MAX as u64,
                })?;
                dims.push(d);
            }
            let is_input = match self.u8_("input flag")? {
                0 => false,
                1 => true,
                value => {
                    return Err(ContainerError::BadTag {
                        context: "input flag",
                        value,
                    })
                }
            };
            if program
                .try_declare(name, dtype, Shape::from(dims), is_input)
                .is_none()
            {
                return Err(ContainerError::DuplicateBase { name: name.into() });
            }
        }
        // Smallest possible instruction: 1-byte mnemonic (9) + operand
        // count 0 (8) = 17 bytes.
        let ninstrs = self.count("instruction count", 17)?;
        for _ in 0..ninstrs {
            let mnemonic = self.str_("opcode mnemonic")?;
            let op = Opcode::from_str(mnemonic).map_err(|_| ContainerError::UnknownOpcode {
                name: mnemonic.into(),
            })?;
            // Smallest operand: tag (1) + reg (4) + slices flag (1) = 6.
            let nops = self.count("operand count", 6)?;
            let mut operands = Vec::with_capacity(nops);
            for _ in 0..nops {
                operands.push(self.operand()?);
            }
            program.push(Instruction::new(op, operands));
        }
        Ok(program)
    }

    fn operand(&mut self) -> Result<Operand, ContainerError> {
        match self.u8_("operand tag")? {
            TAG_VIEW => {
                let reg = Reg(self.u32_("register index")?);
                let slices = match self.u8_("slices flag")? {
                    0 => None,
                    1 => {
                        // Smallest slice: two absent endpoints (1+1) +
                        // step (8) = 10 bytes.
                        let n = self.count("slice count", 10)?;
                        let mut slices = Vec::with_capacity(n);
                        for _ in 0..n {
                            let start = self.opt_i64("slice start")?;
                            let stop = self.opt_i64("slice stop")?;
                            let step = self.u64_("slice step")? as i64;
                            slices.push(Slice::new(start, stop, step));
                        }
                        Some(slices)
                    }
                    value => {
                        return Err(ContainerError::BadTag {
                            context: "slices flag",
                            value,
                        })
                    }
                };
                Ok(Operand::View(match slices {
                    None => ViewRef::full(reg),
                    Some(s) => ViewRef::sliced(reg, s),
                }))
            }
            TAG_CONST => Ok(Operand::Const(self.scalar()?)),
            value => Err(ContainerError::BadTag {
                context: "operand tag",
                value,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_tensor::ALL_DTYPES;

    #[test]
    fn scalar_bits_round_trip_every_dtype() {
        for &dtype in &ALL_DTYPES {
            let c = Scalar::from_i64(1, dtype);
            let back = scalar_from_bits(dtype, c.to_bits()).unwrap();
            assert_eq!(c, back, "{dtype}");
        }
    }

    #[test]
    fn non_canonical_scalars_are_rejected() {
        for (dtype, bits) in [
            (DType::Bool, 2),
            (DType::UInt8, 256),
            (DType::UInt16, 1 << 16),
            (DType::UInt32, 1 << 32),
            (DType::Int8, 128),
            (DType::Int16, 1 << 15),
            (DType::Int32, 1 << 31),
            (DType::Float32, 1 << 32),
        ] {
            let err = scalar_from_bits(dtype, bits).unwrap_err();
            assert_eq!(err.code(), "C109", "{dtype} {bits:#x}");
        }
    }

    #[test]
    fn negative_integers_survive_sign_extension() {
        for c in [Scalar::I8(-5), Scalar::I16(-300), Scalar::I32(-70_000)] {
            let back = scalar_from_bits(c.dtype(), c.to_bits()).unwrap();
            assert_eq!(c, back);
        }
    }

    #[test]
    fn hostile_count_rejects_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut dec = Dec::new(&bytes);
        let err = dec.count("base count", 26).unwrap_err();
        assert_eq!(err.code(), "C105");
    }
}
