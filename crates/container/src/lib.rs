//! Versioned binary containers for byte-code programs — the wire format
//! of the stack.
//!
//! A container is what crosses a trust boundary: a client ships a
//! program over TCP and the server decodes it. The format is
//! deliberately boring and fully explicit — no serde, no reflection:
//!
//! ```text
//! ┌─────────────────────────────────────────────────────────────┐
//! │ magic  "BHPC"            4 bytes                            │
//! │ format version           u16 LE   (currently 1)             │
//! │ section count            u16 LE                             │
//! │ section table            count × { id: u16 LE, len: u64 LE }│
//! │ section payloads         concatenated, in table order       │
//! └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! Section `1` (required) carries the [`Program`]. Unknown section ids
//! are skipped, so older readers tolerate newer writers that append
//! sections; a bumped *format version* is the breaking-change channel.
//! Section id `2` is retired and never reused: format version 1 once
//! carried an optimised plan there, so such a container still decodes to
//! its program, the plan bytes bounded by the section table and
//! otherwise unread (DESIGN.md §16 records why plans are not persisted).
//!
//! # Trust boundary
//!
//! Decoding performs **syntactic** validation only (every structural
//! error is a stable [`ContainerError`] code, never a panic) and
//! deliberately cannot mint a `bh_ir::Verified` witness: the program
//! comes back as a plain [`Program`]. Wire bytes are untrusted
//! regardless of who claims to have written them — the consumer must
//! run `bh_ir::verify` before the program touches the unchecked hot
//! path, which is what `bh-runtime` does on every cache miss.
//!
//! # Examples
//!
//! ```
//! use bh_container::Container;
//! use bh_ir::parse_program;
//!
//! let program = parse_program("BH_ADD a0 [0:8:1] a0 [0:8:1] 1\nBH_SYNC a0\n")?;
//! let bytes = Container::program(program.clone()).encode();
//! let back = Container::decode(&bytes)?;
//! assert_eq!(back.program, program);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod codec;
mod error;

pub use error::ContainerError;

use bh_ir::Program;
use codec::{Dec, Enc};

/// The four magic bytes every container starts with ("BHPC": Bohrium
/// plan container).
pub const MAGIC: [u8; 4] = *b"BHPC";

/// The container format version this crate reads and writes.
///
/// Bumped on any change to the section payloads' encoding; readers
/// reject newer versions rather than misparse them.
pub const FORMAT_VERSION: u16 = 1;

/// Section id of the (required) program payload.
pub const SECTION_PROGRAM: u16 = 1;

/// A decoded (or to-be-encoded) container: a program.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    /// The program.
    pub program: Program,
}

impl Container {
    /// A container carrying a program (the wire shape clients submit).
    pub fn program(program: Program) -> Container {
        Container { program }
    }

    /// Encode to the versioned binary format.
    ///
    /// Encoding is canonical: a given `Container` value always produces
    /// the same bytes, and `decode(encode(c)) == c` (see the round-trip
    /// proptest).
    pub fn encode(&self) -> Vec<u8> {
        let mut prog = Enc::new();
        prog.program(&self.program);

        let mut out = Enc::new();
        out.out.extend_from_slice(&MAGIC);
        out.u16_(FORMAT_VERSION);
        out.u16_(1); // section count
        out.u16_(SECTION_PROGRAM);
        out.u64_(prog.out.len() as u64);
        out.out.extend_from_slice(&prog.out);
        out.out
    }

    /// Decode from bytes, fail-closed.
    ///
    /// # Errors
    ///
    /// A structured [`ContainerError`] for any violation — truncation,
    /// bad magic, version skew, inconsistent section tables, hostile
    /// lengths, unknown opcodes/dtypes, non-canonical scalars. Never
    /// panics, and never allocates more than the input size admits.
    pub fn decode(bytes: &[u8]) -> Result<Container, ContainerError> {
        let mut dec = Dec::new(bytes);
        let magic = dec.bytes(4, "magic").map_err(|_| {
            let mut found = [0u8; 4];
            found[..bytes.len().min(4)].copy_from_slice(&bytes[..bytes.len().min(4)]);
            ContainerError::BadMagic { found }
        })?;
        if magic != MAGIC {
            return Err(ContainerError::BadMagic {
                found: magic.try_into().expect("4 bytes"),
            });
        }
        let version = dec.u16_("format version")?;
        if version != FORMAT_VERSION {
            return Err(ContainerError::UnsupportedVersion { found: version });
        }
        let nsections = dec.u16_("section count")? as usize;
        let table = dec.bytes(nsections * 10, "section table")?;
        let mut sections: Vec<(u16, u64)> = Vec::with_capacity(nsections);
        for entry in table.chunks_exact(10) {
            let id = u16::from_le_bytes([entry[0], entry[1]]);
            let len = u64::from_le_bytes(entry[2..10].try_into().expect("8 bytes"));
            if sections.iter().any(|&(seen, _)| seen == id) {
                return Err(ContainerError::SectionTable {
                    detail: format!("section {id} listed twice"),
                });
            }
            sections.push((id, len));
        }
        let total: u64 = sections
            .iter()
            .try_fold(0u64, |acc, &(_, len)| acc.checked_add(len))
            .ok_or_else(|| ContainerError::SectionTable {
                detail: "section lengths overflow".into(),
            })?;
        if total != dec.remaining() as u64 {
            return Err(ContainerError::SectionTable {
                detail: format!(
                    "payloads claim {total} bytes but {} remain",
                    dec.remaining()
                ),
            });
        }

        let mut program = None;
        for (id, len) in sections {
            let payload = dec.bytes(len as usize, "section payload")?;
            // Unknown sections are skipped: a newer writer may append
            // payloads this reader has no use for, and an older one a plan
            // (retired section id 2).
            if id == SECTION_PROGRAM {
                let mut d = Dec::new(payload);
                program = Some(d.program()?);
                if d.remaining() != 0 {
                    return Err(ContainerError::SectionTable {
                        detail: format!("program section has {} trailing bytes", d.remaining()),
                    });
                }
            }
        }
        let program = program.ok_or(ContainerError::MissingSection {
            id: SECTION_PROGRAM,
        })?;
        Ok(Container { program })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;

    fn sample() -> Program {
        parse_program(
            ".base x f64[4,4] input\n.base y f64[4,4]\n\
             BH_MULTIPLY y x 2.0\nBH_ADD y y [0:4:1,0:4:1] 1.0\nBH_SYNC y\n",
        )
        .unwrap()
    }

    #[test]
    fn program_round_trips() {
        let p = sample();
        let bytes = Container::program(p.clone()).encode();
        let back = Container::decode(&bytes).unwrap();
        assert_eq!(back.program, p);
    }

    #[test]
    fn encode_decode_encode_is_identity() {
        let c = Container::program(sample());
        let bytes = c.encode();
        let again = Container::decode(&bytes).unwrap().encode();
        assert_eq!(bytes, again);
    }
}
