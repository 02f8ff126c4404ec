//! Plan-cache persistence: snapshot the transformation cache to disk as
//! a stream of `bh-container` plan containers, and warm-start a fresh
//! runtime from yesterday's snapshot.
//!
//! The snapshot is an optimisation artefact, never a trust anchor: every
//! entry read back is decoded fail-closed, its source program
//! re-verified, its digest recomputed and compared, its plan re-verified
//! *and* re-proven equivalent to the source with `bh_ir::check_equiv`
//! before it may enter the cache. An entry failing any step is counted
//! in [`crate::RuntimeStats::warm_rejects`] and dropped — a stale or
//! tampered snapshot degrades to a cold start, it never serves an
//! unchecked plan.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────┐
//! │ magic  "BHSS"            4 bytes                       │
//! │ snapshot version         u16 LE   (currently 1)        │
//! │ entry count              u64 LE                        │
//! │ entries                  count × { len: u64 LE, bytes }│
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! Each entry's bytes are one [`bh_container::Container`] carrying the
//! plan's source program plus the optimised plan section (options
//! fingerprint, source digest).

use crate::cache::{CacheKey, EvalPlan};
use bh_container::{stable_fingerprint, Container, PlanSection};
use bh_opt::{OptOptions, OptReport};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The four magic bytes every snapshot starts with ("BHSS": Bohrium
/// snapshot stream).
const SNAPSHOT_MAGIC: [u8; 4] = *b"BHSS";

/// Snapshot framing version (independent of the container format
/// version inside each entry).
const SNAPSHOT_VERSION: u16 = 1;

/// Serialise `entries` into snapshot bytes. Entries whose options differ
/// from `options` are the caller's responsibility to filter out first —
/// this function writes exactly what it is given.
pub(crate) fn snapshot_bytes(entries: &[(CacheKey, Arc<EvalPlan>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (key, plan) in entries {
        let container = Container::with_plan(
            (*plan.source).clone(),
            PlanSection {
                program: bh_ir::Program::clone(&plan.program),
                options_fingerprint: stable_fingerprint(&key.options),
                source_digest: key.digest.as_bytes().to_vec(),
            },
        );
        let bytes = container.encode();
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Write `entries` to `path` atomically: the bytes land in a sibling
/// temporary file which is then renamed over the target, so a crash
/// mid-write leaves the previous snapshot (or no snapshot) intact —
/// never a torn one.
pub(crate) fn write_snapshot(
    path: &Path,
    entries: &[(CacheKey, Arc<EvalPlan>)],
) -> io::Result<usize> {
    let bytes = snapshot_bytes(entries);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    {
        let mut f = fs::File::create(tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(tmp, path)?;
    Ok(entries.len())
}

/// Read the container blobs out of the snapshot at `path`. Lenient by
/// design: a missing file, unreadable file, or malformed framing yields
/// the entries recovered so far (possibly none) — a broken snapshot is a
/// cold start, not an error. Per-entry *content* validation happens
/// later, in [`revalidate`].
pub(crate) fn read_containers(path: &Path) -> Vec<Vec<u8>> {
    let mut bytes = Vec::new();
    let Ok(mut f) = fs::File::open(path) else {
        return Vec::new();
    };
    if f.read_to_end(&mut bytes).is_err() {
        return Vec::new();
    }
    parse_snapshot(&bytes)
}

fn parse_snapshot(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    if bytes.len() < 14 || bytes[..4] != SNAPSHOT_MAGIC {
        return out;
    }
    if u16::from_le_bytes([bytes[4], bytes[5]]) != SNAPSHOT_VERSION {
        return out;
    }
    let count = u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes"));
    let mut rest = &bytes[14..];
    for _ in 0..count {
        let Some(len_bytes) = rest.get(..8) else {
            break;
        };
        let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes"));
        // A hostile length must not drive allocation past the file size
        // (and must not overflow the range arithmetic either).
        let Some(end) = usize::try_from(len).ok().and_then(|l| l.checked_add(8)) else {
            break;
        };
        let Some(blob) = rest.get(8..end) else { break };
        out.push(blob.to_vec());
        rest = &rest[end..];
    }
    out
}

/// Re-establish everything a snapshot entry *claims*, from scratch, and
/// build the cache entry — or reject. The chain is ordered so nothing
/// derived from untrusted bytes is consumed before its prerequisite
/// holds:
///
/// 1. decode fail-closed (syntax only — [`Container::decode`]),
/// 2. the plan's options fingerprint must match this runtime's live
///    options (a plan built under different rewrite semantics — e.g.
///    fast-math vs strict — must never be served),
/// 3. the *source* program must verify (also makes its digest total),
/// 4. the recomputed source digest must match the stored one,
/// 5. the *plan* program must verify (this mints the only
///    [`bh_ir::Verified`] witness — never the decoder),
/// 6. the plan must re-prove observationally equivalent to the source
///    under the live options' audit policy — unconditionally, even on
///    runtimes built without [`crate::RuntimeBuilder::audit`]: disk
///    bytes do not get the benefit of the doubt that a plan the process
///    just optimised itself gets.
///
/// The returned plan carries a synthetic [`OptReport`] (zero rewrite
/// iterations — the fixpoint genuinely did not run, which is the whole
/// point of warm-starting) whose before/after costs are re-estimated
/// from the decoded programs and whose `audits: 1` records step 6.
pub(crate) fn revalidate(bytes: &[u8], options: &OptOptions) -> Option<(CacheKey, Arc<EvalPlan>)> {
    let container = Container::decode(bytes).ok()?;
    let plan = container.plan?;
    if plan.options_fingerprint != stable_fingerprint(options) {
        return None;
    }
    let source = container.program;
    bh_ir::verify(&source).ok()?;
    let digest = source.structural_digest();
    if !plan.digest_matches(&digest) {
        return None;
    }
    let verified = bh_ir::verify_owned(plan.program).ok()?;
    bh_ir::check_equiv(&source, &verified, &options.equiv_options()).ok()?;
    let report = OptReport {
        iterations: 0,
        by_rule: Vec::new(),
        before: bh_opt::estimate(&source, &options.cost_params),
        after: bh_opt::estimate(&verified, &options.cost_params),
        audits: 1,
        audit_rollbacks: 0,
    };
    let eval_plan = Arc::new(EvalPlan::new(
        verified,
        report,
        digest.fingerprint(),
        Arc::new(source),
    ));
    Some((
        CacheKey {
            digest,
            options: options.clone(),
        },
        eval_plan,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;
    use bh_opt::Optimizer;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn entry_for(text: &str, options: &OptOptions) -> (CacheKey, Arc<EvalPlan>) {
        let source = parse_program(text).unwrap();
        let digest = source.structural_digest();
        let mut program = source.clone();
        let report = Optimizer::new(options.clone()).run(&mut program);
        let fingerprint = digest.fingerprint();
        (
            CacheKey {
                digest,
                options: options.clone(),
            },
            Arc::new(EvalPlan::new(
                bh_ir::verify_owned(program).expect("verifies"),
                report,
                fingerprint,
                Arc::new(source),
            )),
        )
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bh_persist_{tag}_{}_{n}.bhss", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips_through_revalidation() {
        let options = OptOptions::default();
        let entry = entry_for(
            "BH_IDENTITY a0 [0:8:1] 0\nBH_ADD a0 a0 1\nBH_ADD a0 a0 1\nBH_SYNC a0\n",
            &options,
        );
        let path = temp_path("roundtrip");
        write_snapshot(&path, std::slice::from_ref(&entry)).unwrap();
        let blobs = read_containers(&path);
        assert_eq!(blobs.len(), 1);
        let (key, plan) = revalidate(&blobs[0], &options).expect("valid entry");
        assert_eq!(key, entry.0);
        assert_eq!(plan.source_fingerprint, entry.1.source_fingerprint);
        assert_eq!(*plan.program, *entry.1.program);
        // The fixpoint did not run on load; the audit did.
        assert_eq!(plan.report.iterations, 0);
        assert_eq!(plan.report.audits, 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn options_mismatch_is_rejected() {
        let options = OptOptions::default();
        let entry = entry_for(
            "BH_IDENTITY a0 [0:4:1] 0\nBH_ADD a0 a0 1\nBH_SYNC a0\n",
            &options,
        );
        let bytes = snapshot_bytes(std::slice::from_ref(&entry));
        let blobs = parse_snapshot(&bytes);
        let mut strict = options.clone();
        strict.ctx.fast_math = false;
        assert!(revalidate(&blobs[0], &strict).is_none());
        assert!(revalidate(&blobs[0], &options).is_some());
    }

    #[test]
    fn tier_byte_zero_is_rejected_never_served() {
        // What an older process's cheap first-compile plan looks like on
        // disk: the plan payload's leading tier byte is `0`. The decoder
        // refuses it (C112), so the entry is a warm reject, not a plan.
        let options = OptOptions::default();
        let entry = entry_for(
            "BH_IDENTITY a0 [0:4:1] 0\nBH_ADD a0 a0 1\nBH_SYNC a0\n",
            &options,
        );
        let mut bytes = snapshot_bytes(std::slice::from_ref(&entry));
        assert!(revalidate(&parse_snapshot(&bytes)[0], &options).is_some());
        // One entry: snapshot header (14) + entry length (8), then the
        // container, whose second section-table entry sizes the plan
        // payload that ends the file.
        let plan_len = u64::from_le_bytes(bytes[22 + 20..22 + 28].try_into().unwrap()) as usize;
        let tier_at = bytes.len() - plan_len;
        assert_eq!(bytes[tier_at], 2);
        bytes[tier_at] = 0;
        let blob = &parse_snapshot(&bytes)[0];
        assert_eq!(Container::decode(blob).unwrap_err().code(), "C112");
        assert!(revalidate(blob, &options).is_none());
        // End to end: a runtime pointed at such a snapshot counts the
        // reject and compiles the digest cold.
        let path = temp_path("tierbyte");
        fs::write(&path, &bytes).unwrap();
        let rt = crate::Runtime::builder().persist_path(&path).build();
        let stats = rt.stats();
        assert_eq!((stats.warm_loads, stats.warm_rejects), (0, 1));
        assert_eq!(rt.cached_plans(), 0);
        let (_, hit) = rt.prepare(&entry.1.source).unwrap();
        assert!(!hit);
        drop(rt);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn inequivalent_plan_is_rejected() {
        // A container whose plan computes something other than its
        // source must fail the load-time audit even though both programs
        // verify and the digest matches.
        let options = OptOptions::default();
        let source =
            parse_program("BH_IDENTITY a0 [0:4:1] 0\nBH_ADD a0 a0 1\nBH_SYNC a0\n").unwrap();
        let lying_plan = parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 2\nBH_SYNC a0\n").unwrap();
        let digest = source.structural_digest();
        let container = Container::with_plan(
            source,
            PlanSection {
                program: lying_plan,
                options_fingerprint: stable_fingerprint(&options),
                source_digest: digest.as_bytes().to_vec(),
            },
        );
        assert!(revalidate(&container.encode(), &options).is_none());
    }

    #[test]
    fn digest_mismatch_is_rejected() {
        let options = OptOptions::default();
        let source =
            parse_program("BH_IDENTITY a0 [0:4:1] 0\nBH_ADD a0 a0 1\nBH_SYNC a0\n").unwrap();
        let container = Container::with_plan(
            source.clone(),
            PlanSection {
                program: source,
                options_fingerprint: stable_fingerprint(&options),
                source_digest: vec![0xde, 0xad],
            },
        );
        assert!(revalidate(&container.encode(), &options).is_none());
    }

    #[test]
    fn broken_framing_degrades_to_fewer_entries_never_a_panic() {
        let options = OptOptions::default();
        let entry = entry_for(
            "BH_IDENTITY a0 [0:4:1] 0\nBH_ADD a0 a0 1\nBH_SYNC a0\n",
            &options,
        );
        let bytes = snapshot_bytes(&[entry.clone(), entry]);
        // Every truncation parses to a (possibly empty) prefix.
        for cut in 0..bytes.len() {
            let blobs = parse_snapshot(&bytes[..cut]);
            assert!(blobs.len() <= 2);
        }
        // Bad magic / version / hostile entry length: all cold starts.
        assert!(parse_snapshot(b"NOPE").is_empty());
        let mut skewed = bytes.clone();
        skewed[4] = 0xff;
        assert!(parse_snapshot(&skewed).is_empty());
        let mut hostile = bytes;
        hostile[14..22].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(parse_snapshot(&hostile).is_empty());
    }

    #[test]
    fn missing_file_reads_empty() {
        assert!(read_containers(Path::new("/nonexistent/bh.bhss")).is_empty());
    }
}
