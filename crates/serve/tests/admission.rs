//! Admission reads the runtime's plan cache: a digest whose plan is
//! resident is admitted on that probe, any other digest is verified.
//!
//! The runtime holds one plan (`cache_capacity(1)`), so serving one
//! program evicts the last, and the server runs with `.workers(0)` so
//! every batch is stepped by `service_once`.

use bh_ir::parse_program;
use bh_runtime::Runtime;
use bh_serve::{ProgramHandle, Request, ServeError, Server};

/// `k` constant-adds over an `n`-vector: distinct (n, k) → distinct digest.
fn chain(n: usize, k: usize) -> ProgramHandle {
    let mut text = format!("BH_IDENTITY a [0:{n}:1] 0\n");
    for _ in 0..k {
        text.push_str("BH_ADD a a 1\n");
    }
    text.push_str("BH_SYNC a\n");
    ProgramHandle::new(parse_program(&text).unwrap())
}

/// Submit `handle`, run its batch and return the value read back.
fn serve(server: &Server, handle: &ProgramHandle) -> Vec<f64> {
    let reg = handle.program().reg_by_name("a").unwrap();
    let ticket = server
        .submit(Request::with_handle("t", handle).read(reg))
        .expect("admitted");
    assert!(server.service_once());
    ticket.wait().unwrap().value.unwrap().to_f64_vec()
}

fn one_plan_server() -> Server {
    Server::builder(Runtime::builder().cache_capacity(1).build_shared())
        .workers(0)
        .build()
}

#[test]
fn admission_follows_the_plan_cache_through_eviction() {
    let server = one_plan_server();
    let rt = server.runtime();
    let (a, b) = (chain(8, 2), chain(8, 3));

    // A: not resident, so verified, then admitted and served.
    assert!(!rt.has_plan(a.digest()));
    assert_eq!(serve(&server, &a), vec![2.0; 8]);
    assert!(rt.has_plan(a.digest()));

    // B is served and takes the only slot.
    assert_eq!(serve(&server, &b), vec![3.0; 8]);
    assert!(rt.has_plan(b.digest()));
    assert!(!rt.has_plan(a.digest()), "B evicts A");

    // A malformed program bounces at admission and is counted.
    let bad = ProgramHandle::new(parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n").unwrap());
    let rejected = server.submit(Request::with_handle("t", &bad)).unwrap_err();
    assert!(matches!(rejected.reason, ServeError::Malformed(_)));
    assert_eq!(server.stats().rejected, 1);

    // A is no longer resident: verified again, admitted, and compiled
    // again by its batch.
    let misses = rt.stats().cache_misses;
    assert_eq!(serve(&server, &a), vec![2.0; 8]);
    assert_eq!(rt.stats().cache_misses, misses + 1);
    assert!(rt.has_plan(a.digest()));

    let stats = server.stats();
    assert_eq!(
        (stats.submitted, stats.completed, stats.rejected),
        (3, 3, 1)
    );
}

#[test]
fn a_digest_prepared_through_the_runtime_is_admitted() {
    let server = one_plan_server();
    let rt = server.runtime();
    let a = chain(4, 1);
    rt.prepare(a.program()).unwrap();
    assert_eq!(serve(&server, &a), vec![1.0; 4]);
    assert_eq!(
        rt.stats().cache_misses,
        1,
        "the batch hit the prepared plan"
    );

    // Its source reads a register nothing wrote, so it fails
    // verification; its O2 plan is empty and valid. Prepared through
    // the runtime first, its digest is resident and admission takes it.
    let unverifiable =
        ProgramHandle::new(parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n").unwrap());
    assert!(bh_ir::verify(unverifiable.program()).is_err());
    rt.prepare(unverifiable.program()).unwrap();
    let ticket = server
        .submit(Request::with_handle("t", &unverifiable))
        .expect("a resident digest is admitted");
    assert!(server.service_once());
    let response = ticket.wait().unwrap();
    assert!(response.outcome.cache_hit);
    assert_eq!(response.outcome.plan.program.instrs().len(), 0);

    // Once evicted, the same program is verified at admission again and
    // bounces.
    assert_eq!(serve(&server, &a), vec![1.0; 4]);
    assert!(!rt.has_plan(unverifiable.digest()));
    let rejected = server
        .submit(Request::with_handle("t", &unverifiable))
        .unwrap_err();
    assert!(matches!(rejected.reason, ServeError::Malformed(_)));
    assert_eq!(server.stats().rejected, 1);
}

#[test]
fn an_out_of_range_spelling_is_verified_while_its_in_range_twin_is_resident() {
    let server = one_plan_server();
    let parse = |text: &str| ProgramHandle::new(parse_program(text).unwrap());
    let in_range = parse(".base a f64[10]\nBH_IDENTITY a [0:10:1] 1\nBH_SYNC a\n");
    // `[0:20:1]` would clamp to the same ten elements, but an explicit
    // bound past the axis fails verification, so it digests apart and the
    // resident in-range plan does not admit it.
    let past_end = parse(".base a f64[10]\nBH_IDENTITY a [0:20:1] 1\nBH_SYNC a\n");
    assert_ne!(in_range.digest(), past_end.digest());
    assert_eq!(serve(&server, &in_range), vec![1.0; 10]);
    assert!(server.runtime().has_plan(in_range.digest()));
    let rejected = server
        .submit(Request::with_handle("t", &past_end))
        .unwrap_err();
    assert!(matches!(rejected.reason, ServeError::Malformed(_)));
    assert_eq!(server.stats().rejected, 1);
}
