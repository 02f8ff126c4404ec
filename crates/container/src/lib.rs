//! Versioned binary containers for byte-code programs and their
//! optimised plans — the persistence and wire format of the stack.
//!
//! A container is what crosses a trust boundary: a process writes its
//! hot transformation-cache entries to disk, a client ships a program
//! over TCP, a restarted server reads yesterday's plans back. The format
//! is deliberately boring and fully explicit — no serde, no reflection:
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
//! Section `1` (required) carries the source [`Program`]; section `2`
//! (optional) carries its optimised plan: the transformed instruction
//! sequence, a fingerprint of the optimiser options, and the source
//! program's canonical digest. Unknown section ids are skipped, so older
//! readers tolerate newer writers that append sections; a bumped *format
//! version* is the breaking-change channel.
//!
//! # Trust boundary
//!
//! Decoding performs **syntactic** validation only (every structural
//! error is a stable [`ContainerError`] code, never a panic) and
//! deliberately cannot mint a `bh_ir::Verified` witness: the plan
//! program comes back as a plain [`Program`]. Disk and wire bytes are
//! untrusted regardless of who claims to have written them — the
//! consumer must re-run `bh_ir::verify` and `bh_ir::check_equiv` before
//! the plan touches the unchecked hot path. `bh-runtime`'s warm-start
//! loader does exactly that and counts rejects rather than trusting
//! blindly.
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
mod fingerprint;

pub use error::ContainerError;
pub use fingerprint::{stable_fingerprint, StableHasher};

use bh_ir::{Program, ProgramDigest};
use codec::{Dec, Enc};

/// The four magic bytes every container starts with ("BHPC": Bohrium
/// plan container).
pub const MAGIC: [u8; 4] = *b"BHPC";

/// The container format version this crate reads and writes.
///
/// Bumped on any change to the section payloads' encoding; readers
/// reject newer versions rather than misparse them.
pub const FORMAT_VERSION: u16 = 1;

/// Section id of the (required) source program payload.
pub const SECTION_PROGRAM: u16 = 1;

/// Section id of the (optional) optimised-plan payload.
pub const SECTION_PLAN: u16 = 2;

/// First byte of every plan payload. Format version 1 once stored an
/// optimisation tier here (`0` = cheap first compile, `2` = full
/// strength); only full-strength plans exist now, so the writer emits
/// the constant and the reader rejects anything else as `C112` — a
/// snapshot left by an older process can never smuggle in a weak plan.
const PLAN_TIER_BYTE: u8 = 2;

/// An optimised plan travelling alongside its source program.
///
/// Everything in here is a *claim* until re-checked: the fingerprint
/// says how the plan was built, the digest says which source it belongs
/// to, and the program is the transformed instruction sequence — none of
/// it is trusted by consumers until verification and audit re-establish
/// it (see the crate docs' trust-boundary argument).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSection {
    /// The optimised instruction sequence (unchecked).
    pub program: Program,
    /// [`stable_fingerprint`] of the optimiser options the plan was
    /// built under. A loader whose live options hash differently must
    /// discard the plan.
    pub options_fingerprint: u64,
    /// The source program's canonical digest bytes
    /// ([`ProgramDigest::as_bytes`]) at write time. Integrity check
    /// only: the loader recomputes the digest from the decoded source
    /// and compares.
    pub source_digest: Vec<u8>,
}

impl PlanSection {
    /// Does the stored digest match `digest` byte-for-byte?
    pub fn digest_matches(&self, digest: &ProgramDigest) -> bool {
        self.source_digest == digest.as_bytes()
    }
}

/// A decoded (or to-be-encoded) container: a program, optionally with
/// its optimised plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    /// The source program.
    pub program: Program,
    /// The optimised plan, if the writer included one.
    pub plan: Option<PlanSection>,
}

impl Container {
    /// A container carrying just a program (the wire shape clients
    /// submit).
    pub fn program(program: Program) -> Container {
        Container {
            program,
            plan: None,
        }
    }

    /// A container carrying a program and its optimised plan (the
    /// persistence shape the runtime snapshots).
    pub fn with_plan(program: Program, plan: PlanSection) -> Container {
        Container {
            program,
            plan: Some(plan),
        }
    }

    /// Encode to the versioned binary format.
    ///
    /// Encoding is canonical: a given `Container` value always produces
    /// the same bytes, and `decode(encode(c)) == c` (see the round-trip
    /// proptest).
    pub fn encode(&self) -> Vec<u8> {
        let mut prog = Enc::new();
        prog.program(&self.program);

        let plan_payload = self.plan.as_ref().map(|plan| {
            let mut e = Enc::new();
            e.u8_(PLAN_TIER_BYTE);
            e.u64_(plan.options_fingerprint);
            e.bytes_(&plan.source_digest);
            e.program(&plan.program);
            e.out
        });

        let mut out = Enc::new();
        out.out.extend_from_slice(&MAGIC);
        out.u16_(FORMAT_VERSION);
        let nsections = 1 + plan_payload.is_some() as u16;
        out.u16_(nsections);
        out.u16_(SECTION_PROGRAM);
        out.u64_(prog.out.len() as u64);
        if let Some(p) = &plan_payload {
            out.u16_(SECTION_PLAN);
            out.u64_(p.len() as u64);
        }
        out.out.extend_from_slice(&prog.out);
        if let Some(p) = plan_payload {
            out.out.extend_from_slice(&p);
        }
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
        let mut plan = None;
        for (id, len) in sections {
            let payload = dec.bytes(len as usize, "section payload")?;
            match id {
                SECTION_PROGRAM => {
                    let mut d = Dec::new(payload);
                    program = Some(d.program()?);
                    check_drained(&d, "program section")?;
                }
                SECTION_PLAN => {
                    let mut d = Dec::new(payload);
                    let tier = d.u8_("tier byte")?;
                    if tier != PLAN_TIER_BYTE {
                        return Err(ContainerError::BadTier { value: tier });
                    }
                    let options_fingerprint = d.u64_("options fingerprint")?;
                    let source_digest = d.vec_("source digest")?;
                    let plan_program = d.program()?;
                    check_drained(&d, "plan section")?;
                    plan = Some(PlanSection {
                        program: plan_program,
                        options_fingerprint,
                        source_digest,
                    });
                }
                // Unknown sections are skipped: a newer writer may append
                // payloads this reader has no use for.
                _ => {}
            }
        }
        let program = program.ok_or(ContainerError::MissingSection {
            id: SECTION_PROGRAM,
        })?;
        Ok(Container { program, plan })
    }
}

fn check_drained(dec: &Dec<'_>, what: &str) -> Result<(), ContainerError> {
    if dec.remaining() != 0 {
        return Err(ContainerError::SectionTable {
            detail: format!("{what} has {} trailing bytes", dec.remaining()),
        });
    }
    Ok(())
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
        assert!(back.plan.is_none());
    }

    #[test]
    fn plan_round_trips_with_metadata() {
        let p = sample();
        let digest = p.structural_digest();
        let c = Container::with_plan(
            p.clone(),
            PlanSection {
                program: p.clone(),
                options_fingerprint: 0xdead_beef,
                source_digest: digest.as_bytes().to_vec(),
            },
        );
        let back = Container::decode(&c.encode()).unwrap();
        assert_eq!(back, c);
        let plan = back.plan.unwrap();
        assert!(plan.digest_matches(&digest));
        assert!(!plan.digest_matches(&Program::default().structural_digest()));
    }

    #[test]
    fn encode_decode_encode_is_identity() {
        let c = Container::program(sample());
        let bytes = c.encode();
        let again = Container::decode(&bytes).unwrap().encode();
        assert_eq!(bytes, again);
    }

    #[test]
    fn decode_never_trusts_plan_contents() {
        // A plan section claiming a digest that is not the source's must
        // still decode (syntax is fine) — rejecting the *claim* is the
        // loader's job, via digest_matches.
        let p = sample();
        let c = Container::with_plan(
            p.clone(),
            PlanSection {
                program: p.clone(),
                options_fingerprint: 0,
                source_digest: vec![1, 2, 3],
            },
        );
        let back = Container::decode(&c.encode()).unwrap();
        assert!(!back.plan.unwrap().digest_matches(&p.structural_digest()));
    }
}
