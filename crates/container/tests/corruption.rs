//! Corruption corpus: every malformed input must fail closed with the
//! documented `C1xx` code — no panics, no over-allocation, no partially
//! decoded value. This file is deterministic (no proptest) so the
//! nightly miri job can run it whole.

use bh_container::{Container, ContainerError, FORMAT_VERSION, MAGIC};
use bh_ir::{parse_program, Program};

fn sample() -> Container {
    Container::program(
        parse_program(
            ".base x f64[4,4] input\n.base y f64[4,4]\n\
             BH_MULTIPLY y x 2.0\nBH_ADD y y [0:4:1,0:4:1] 1.0\nBH_SYNC y\n",
        )
        .unwrap(),
    )
}

// --- handcrafted-payload helpers -----------------------------------------

fn u64le(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&u64le(s.len() as u64));
    out.extend_from_slice(s.as_bytes());
}

/// A container holding exactly the given section payloads.
fn container_with(sections: &[(u16, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u16).to_le_bytes());
    for (id, payload) in sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&u64le(payload.len() as u64));
    }
    for (_, payload) in sections {
        out.extend_from_slice(payload);
    }
    out
}

fn program_container(payload: &[u8]) -> Vec<u8> {
    container_with(&[(1, payload)])
}

fn expect_code(bytes: &[u8], code: &str) {
    match Container::decode(bytes) {
        Ok(c) => panic!("expected {code}, decoded {c:?}"),
        Err(e) => assert_eq!(e.code(), code, "{e}"),
    }
}

// --- header-level corruption ---------------------------------------------

#[test]
fn empty_and_tiny_inputs_are_bad_magic() {
    expect_code(&[], "C100");
    expect_code(b"BH", "C100");
    expect_code(b"BHP", "C100");
}

#[test]
fn every_corrupted_magic_byte_is_detected() {
    let good = sample().encode();
    for i in 0..4 {
        let mut bad = good.clone();
        bad[i] ^= 0xff;
        expect_code(&bad, "C100");
    }
}

#[test]
fn version_skew_is_rejected_not_misparsed() {
    let good = sample().encode();
    for version in [0u16, FORMAT_VERSION + 1, u16::MAX] {
        let mut bad = good.clone();
        bad[4..6].copy_from_slice(&version.to_le_bytes());
        expect_code(&bad, "C101");
    }
}

#[test]
fn every_truncation_fails_closed() {
    let good = sample().encode();
    for len in 0..good.len() {
        match Container::decode(&good[..len]) {
            Ok(c) => panic!("prefix of {len} bytes decoded: {c:?}"),
            Err(e) => assert!(e.code().starts_with('C'), "{e}"),
        }
    }
}

#[test]
fn every_single_byte_flip_is_panic_free() {
    let good = sample().encode();
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        // A flip may still decode (e.g. inside a register index); it
        // must never panic, and anything it produces must re-encode.
        if let Ok(c) = Container::decode(&bad) {
            let _ = c.encode();
        }
    }
}

// --- section-table corruption --------------------------------------------

#[test]
fn flipped_section_lengths_are_rejected() {
    let good = sample().encode();
    // Section table starts at byte 8; first entry's length field at 10.
    for delta in [1u64, 7, u64::MAX / 2] {
        let mut bad = good.clone();
        let old = u64::from_le_bytes(bad[10..18].try_into().unwrap());
        bad[10..18].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
        match Container::decode(&bad) {
            Ok(c) => panic!("tampered table decoded: {c:?}"),
            Err(e) => assert!(
                matches!(e.code(), "C102" | "C103" | "C105"),
                "unexpected {e}"
            ),
        }
    }
}

#[test]
fn duplicate_sections_are_rejected() {
    let bytes = container_with(&[(1, &[0u8; 16]), (1, &[0u8; 16])]);
    expect_code(&bytes, "C103");
}

#[test]
fn overflowing_section_lengths_are_rejected() {
    let bytes = container_with(&[(1, &[0u8; 16]), (2, &[0u8; 8])]);
    let mut bad = bytes;
    // Rewrite both length fields to u64::MAX so their sum overflows.
    bad[10..18].copy_from_slice(&u64le(u64::MAX));
    bad[20..28].copy_from_slice(&u64le(u64::MAX));
    expect_code(&bad, "C103");
}

#[test]
fn trailing_bytes_inside_a_section_are_rejected() {
    // A valid empty program (two zero counts) plus one stray byte.
    let mut payload = vec![0u8; 16];
    payload.push(0xaa);
    expect_code(&program_container(&payload), "C103");
}

#[test]
fn missing_program_section_is_rejected() {
    // Plan-only container: syntactically fine table, no program.
    let bytes = container_with(&[(3, &[0u8; 4])]);
    expect_code(&bytes, "C104");
}

#[test]
fn unknown_sections_are_skipped_not_fatal() {
    let empty_program = [0u8; 16];
    let bytes = container_with(&[(1, &empty_program), (99, b"future payload")]);
    let c = Container::decode(&bytes).unwrap();
    assert_eq!(c.program, Program::default());
}

// --- hostile lengths ------------------------------------------------------

#[test]
fn hostile_base_count_rejects_before_allocating() {
    expect_code(&program_container(&u64le(u64::MAX)), "C105");
}

#[test]
fn hostile_instruction_count_rejects_before_allocating() {
    let mut payload = u64le(0).to_vec(); // zero bases
    payload.extend_from_slice(&u64le(u64::MAX)); // absurd instr count
    expect_code(&program_container(&payload), "C105");
}

#[test]
fn hostile_rank_rejects_before_allocating() {
    let mut payload = u64le(1).to_vec();
    push_str(&mut payload, "x");
    push_str(&mut payload, "f64");
    payload.extend_from_slice(&u64le(u64::MAX)); // absurd rank
    expect_code(&program_container(&payload), "C105");
}

#[test]
fn hostile_string_length_rejects_before_allocating() {
    let mut payload = u64le(1).to_vec();
    payload.extend_from_slice(&u64le(u64::MAX >> 1)); // absurd name length
    expect_code(&program_container(&payload), "C105");
}

// --- payload-level corruption ---------------------------------------------

#[test]
fn unknown_dtype_is_c107() {
    let mut payload = u64le(1).to_vec();
    push_str(&mut payload, "x");
    push_str(&mut payload, "q8");
    // Filler so the base-count plausibility guard passes; the dtype
    // error fires before it is ever read.
    payload.extend_from_slice(&[0u8; 16]);
    expect_code(&program_container(&payload), "C107");
}

#[test]
fn invalid_utf8_name_is_c111() {
    let mut payload = u64le(1).to_vec();
    payload.extend_from_slice(&u64le(1));
    payload.push(0xff); // not UTF-8
                        // Filler so the base-count plausibility guard passes.
    payload.extend_from_slice(&[0u8; 24]);
    expect_code(&program_container(&payload), "C111");
}

#[test]
fn duplicate_base_name_is_c110() {
    let mut payload = u64le(2).to_vec();
    for _ in 0..2 {
        push_str(&mut payload, "x");
        push_str(&mut payload, "f64");
        payload.extend_from_slice(&u64le(0)); // rank 0
        payload.push(0); // not input
    }
    payload.extend_from_slice(&u64le(0)); // zero instructions
    expect_code(&program_container(&payload), "C110");
}

#[test]
fn bad_input_flag_is_c108() {
    let mut payload = u64le(1).to_vec();
    push_str(&mut payload, "x");
    push_str(&mut payload, "f64");
    payload.extend_from_slice(&u64le(0));
    payload.push(7); // input flag must be 0 or 1
    expect_code(&program_container(&payload), "C108");
}

#[test]
fn unknown_opcode_is_c106() {
    let mut payload = u64le(0).to_vec();
    payload.extend_from_slice(&u64le(1));
    push_str(&mut payload, "BH_BOGUS");
    payload.extend_from_slice(&u64le(0));
    expect_code(&program_container(&payload), "C106");
}

#[test]
fn bad_operand_tag_is_c108() {
    let mut payload = u64le(0).to_vec();
    payload.extend_from_slice(&u64le(1));
    push_str(&mut payload, "BH_ADD");
    payload.extend_from_slice(&u64le(1)); // one operand
    payload.push(9); // tag must be 0 or 1
                     // Filler so the operand-count plausibility guard passes.
    payload.extend_from_slice(&[0u8; 8]);
    expect_code(&program_container(&payload), "C108");
}

#[test]
fn non_canonical_scalar_is_c109() {
    let mut payload = u64le(0).to_vec();
    payload.extend_from_slice(&u64le(1));
    push_str(&mut payload, "BH_ADD");
    payload.extend_from_slice(&u64le(1));
    payload.push(1); // const operand
    push_str(&mut payload, "bool");
    payload.extend_from_slice(&u64le(7)); // bool must be 0 or 1
    expect_code(&program_container(&payload), "C109");
}

/// The retirement promise for section id 2. Format version 1 once
/// carried an optimised plan there (`fixtures/plan_v1.hex`, written by an
/// older commit from this file's `sample()` program): such a container
/// still decodes to its program, whose payload is byte-for-byte what
/// this commit writes, and the plan bytes are bounded by the section
/// table but otherwise unread — garbage of the declared length is as
/// good as a plan.
#[test]
fn v1_plan_container_still_decodes_to_its_program() {
    let fixture: Vec<u8> = include_str!("fixtures/plan_v1.hex")
        .split_whitespace()
        .flat_map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex fixture"))
        })
        .collect();
    assert_eq!(Container::decode(&fixture).unwrap(), sample());

    // Header (8) + one table entry (10) today; two entries (20) then.
    let today = sample().encode();
    let program_payload = &today[18..];
    assert_eq!(&fixture[28..28 + program_payload.len()], program_payload);

    let plan_len = fixture.len() - 28 - program_payload.len();
    let garbage = container_with(&[(1, program_payload), (2, &vec![0xa5; plan_len])]);
    assert_eq!(Container::decode(&garbage).unwrap(), sample());
}

#[test]
fn codes_survive_the_error_trait() {
    let err = Container::decode(&[]).unwrap_err();
    let as_dyn: &dyn std::error::Error = &err;
    assert!(as_dyn.to_string().starts_with("C100"));
    assert!(matches!(err, ContainerError::BadMagic { .. }));
}
