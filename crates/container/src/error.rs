//! Structured decode errors (`C1xx`).
//!
//! Every way a container can fail to decode has a stable machine code,
//! mirroring the verifier's `V` codes and the auditor's `A` codes: the
//! code string for a variant never changes once shipped, so wire
//! protocols and logs can match on `code()` instead of `Display` text.

use bh_tensor::DType;
use std::fmt;

/// Why a byte string is not a valid container.
///
/// Decoding is fail-closed: the first violation aborts with one of these,
/// and no partially-decoded value escapes. The variant set may grow in
/// future format versions, hence `#[non_exhaustive]`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ContainerError {
    /// C100 — the first four bytes are not [`crate::MAGIC`].
    BadMagic {
        /// What was found instead (zero-padded if the input was shorter).
        found: [u8; 4],
    },
    /// C101 — the format version is newer than this decoder understands.
    UnsupportedVersion {
        /// The version field as read.
        found: u16,
    },
    /// C102 — the input ended before a field it promised.
    Truncated {
        /// Which field was being read.
        context: &'static str,
    },
    /// C103 — the section table is inconsistent: duplicate section ids,
    /// lengths that overflow, or payloads that do not tile the input
    /// exactly.
    SectionTable {
        /// Human-readable specifics.
        detail: String,
    },
    /// C104 — a required section is absent.
    MissingSection {
        /// The section id that was expected.
        id: u16,
    },
    /// C105 — a count or length field exceeds what the remaining input
    /// could possibly hold. Rejected *before* any allocation, so hostile
    /// lengths cannot force over-allocation.
    HostileLength {
        /// Which field carried the length.
        context: &'static str,
        /// The length as read.
        requested: u64,
        /// Upper bound the remaining input admits.
        available: u64,
    },
    /// C106 — an opcode mnemonic no [`bh_ir::Opcode`] answers to.
    UnknownOpcode {
        /// The mnemonic as read.
        name: String,
    },
    /// C107 — a dtype short-name no [`DType`] answers to.
    UnknownDType {
        /// The short-name as read.
        name: String,
    },
    /// C108 — a tag byte outside its variant range.
    BadTag {
        /// Which tagged field.
        context: &'static str,
        /// The tag as read.
        value: u8,
    },
    /// C109 — a scalar bit pattern that is not canonical for its dtype
    /// (e.g. a `bool` encoded as 7, or `u8` bits above 255).
    BadScalar {
        /// The scalar's declared dtype.
        dtype: DType,
        /// The 64-bit pattern as read.
        bits: u64,
    },
    /// C110 — two bases share a name; the decoded program would alias
    /// registers.
    DuplicateBase {
        /// The colliding name.
        name: String,
    },
    /// C111 — a string field holds invalid UTF-8. (`C112`, a bad plan tier
    /// byte, is retired with the plan section and never reused.)
    BadUtf8 {
        /// Which string field.
        context: &'static str,
    },
}

impl ContainerError {
    /// The stable machine code (`"C100"`–`"C111"`).
    pub fn code(&self) -> &'static str {
        match self {
            ContainerError::BadMagic { .. } => "C100",
            ContainerError::UnsupportedVersion { .. } => "C101",
            ContainerError::Truncated { .. } => "C102",
            ContainerError::SectionTable { .. } => "C103",
            ContainerError::MissingSection { .. } => "C104",
            ContainerError::HostileLength { .. } => "C105",
            ContainerError::UnknownOpcode { .. } => "C106",
            ContainerError::UnknownDType { .. } => "C107",
            ContainerError::BadTag { .. } => "C108",
            ContainerError::BadScalar { .. } => "C109",
            ContainerError::DuplicateBase { .. } => "C110",
            ContainerError::BadUtf8 { .. } => "C111",
        }
    }
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.code())?;
        match self {
            ContainerError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}")
            }
            ContainerError::UnsupportedVersion { found } => {
                write!(f, "unsupported container version {found}")
            }
            ContainerError::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            ContainerError::SectionTable { detail } => {
                write!(f, "inconsistent section table: {detail}")
            }
            ContainerError::MissingSection { id } => {
                write!(f, "required section {id} missing")
            }
            ContainerError::HostileLength {
                context,
                requested,
                available,
            } => write!(
                f,
                "{context} claims {requested} but at most {available} remain"
            ),
            ContainerError::UnknownOpcode { name } => {
                write!(f, "unknown opcode mnemonic `{name}`")
            }
            ContainerError::UnknownDType { name } => {
                write!(f, "unknown dtype `{name}`")
            }
            ContainerError::BadTag { context, value } => {
                write!(f, "bad tag byte {value} for {context}")
            }
            ContainerError::BadScalar { dtype, bits } => {
                write!(f, "bit pattern {bits:#x} is not a canonical {dtype} scalar")
            }
            ContainerError::DuplicateBase { name } => {
                write!(f, "duplicate base declaration `{name}`")
            }
            ContainerError::BadUtf8 { context } => {
                write!(f, "invalid UTF-8 in {context}")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let samples = [
            ContainerError::BadMagic { found: [0; 4] },
            ContainerError::UnsupportedVersion { found: 9 },
            ContainerError::Truncated { context: "x" },
            ContainerError::SectionTable { detail: "d".into() },
            ContainerError::MissingSection { id: 1 },
            ContainerError::HostileLength {
                context: "x",
                requested: 9,
                available: 1,
            },
            ContainerError::UnknownOpcode { name: "OP".into() },
            ContainerError::UnknownDType { name: "q8".into() },
            ContainerError::BadTag {
                context: "operand",
                value: 7,
            },
            ContainerError::BadScalar {
                dtype: DType::Bool,
                bits: 7,
            },
            ContainerError::DuplicateBase { name: "a".into() },
            ContainerError::BadUtf8 { context: "name" },
        ];
        let mut seen = std::collections::HashSet::new();
        for e in &samples {
            assert!(seen.insert(e.code()), "duplicate {}", e.code());
            assert!(e.code().starts_with('C'));
            assert!(e.to_string().starts_with(e.code()), "{e}");
        }
        assert_eq!(seen.len(), 12);
    }
}
