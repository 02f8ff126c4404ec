//! Scheduler-semantics tests: backpressure, weighted fairness, batching,
//! deadlines, the non-blocking ticket surface, drain-on-shutdown, and
//! exactly-once resolution under concurrent load.
//!
//! Deterministic tests build the server with `.workers(0)` and step it
//! with `service_once`, so batch formation and round-robin order are
//! observable without sleeps or races.

use bh_ir::{parse_program, Instruction, Opcode, Operand, Program, Reg, ViewRef};
use bh_runtime::Runtime;
use bh_serve::{ProgramHandle, Request, ServeError, Server, Ticket};
use bh_tensor::{DType, Shape, Tensor};
use std::sync::Arc;
use std::time::Duration;

/// `k` constant-adds over an `n`-vector: distinct (n, k) → distinct digest.
fn chain(n: usize, k: usize) -> ProgramHandle {
    let mut text = format!("BH_IDENTITY a [0:{n}:1] 0\n");
    for _ in 0..k {
        text.push_str("BH_ADD a a 1\n");
    }
    text.push_str("BH_SYNC a\n");
    ProgramHandle::new(parse_program(&text).unwrap())
}

/// `y = x * x` over an 8-vector bound input.
fn square() -> ProgramHandle {
    ProgramHandle::new(
        parse_program(".base x f64[8] input\n.base y f64[8]\nBH_MULTIPLY y x x\nBH_SYNC y\n")
            .unwrap(),
    )
}

#[test]
fn backpressure_rejects_at_capacity_and_hands_the_request_back() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .queue_capacity(4)
        .build();
    let h = chain(8, 2);
    let reg = h.program().reg_by_name("a").unwrap();

    let tickets: Vec<_> = (0..4)
        .map(|_| {
            server
                .submit(Request::with_handle("t", &h).read(reg))
                .unwrap()
        })
        .collect();
    let overflow = server.submit(Request::with_handle("t", &h).read(reg));
    let rejected = overflow.unwrap_err();
    assert!(matches!(
        rejected.reason,
        ServeError::QueueFull { capacity: 4 }
    ));
    // The request comes back intact for a retry.
    assert_eq!(rejected.request.tenant(), "t");
    assert_eq!(server.queue_depth(), 4);

    // Draining frees capacity again.
    while server.service_once() {}
    for t in tickets {
        assert_eq!(t.wait().unwrap().value.unwrap().to_f64_vec(), vec![2.0; 8]);
    }
    assert!(server
        .submit(Request::with_handle("t", &h).read(reg))
        .is_ok());

    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.peak_queue_depth, 4);
}

#[test]
fn round_robin_keeps_a_flooding_tenant_from_starving_others() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .max_batch(1) // isolate pure round-robin order
        .build();
    let flood_program = chain(8, 1);
    let quiet_program = chain(8, 2);
    let flood: Vec<_> = (0..10)
        .map(|_| {
            server
                .submit(Request::with_handle("flood", &flood_program))
                .unwrap()
        })
        .collect();
    let quiet: Vec<_> = (0..2)
        .map(|_| {
            server
                .submit(Request::with_handle("quiet", &quiet_program))
                .unwrap()
        })
        .collect();

    // Leaders alternate flood, quiet, flood, quiet, …: after four steps
    // the quiet tenant is fully served even though it queued last behind
    // ten flooding requests.
    for _ in 0..4 {
        assert!(server.service_once());
    }
    assert!(quiet.iter().all(|t| t.is_done()));
    assert_eq!(flood.iter().filter(|t| t.is_done()).count(), 2);
    while server.service_once() {}
    assert!(flood.into_iter().all(|t| t.wait().is_ok()));
}

#[test]
fn weighted_tenants_split_service_by_their_weight_ratio() {
    // Two flooding tenants with weights 2:1 and distinct digests (so the
    // gather never crosses lanes). Smooth weighted round-robin must hand
    // "gold" two of every three leader picks.
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .max_batch(1)
        .tenant_weight("gold", 2)
        .tenant_weight("silver", 1)
        .build();
    let gold_program = chain(8, 1);
    let silver_program = chain(8, 2);
    let gold: Vec<_> = (0..30)
        .map(|_| {
            server
                .submit(Request::with_handle("gold", &gold_program))
                .unwrap()
        })
        .collect();
    let silver: Vec<_> = (0..30)
        .map(|_| {
            server
                .submit(Request::with_handle("silver", &silver_program))
                .unwrap()
        })
        .collect();

    for _ in 0..12 {
        assert!(server.service_once());
    }
    let quotas = server.stats().tenants;
    assert_eq!(quotas.served("gold"), 8, "2 of each 3 picks");
    assert_eq!(quotas.served("silver"), 4, "1 of each 3 picks");
    assert!((quotas.share("gold") - 2.0 / 3.0).abs() < 1e-12);

    // The lighter tenant is never starved: it advances every cycle.
    assert_eq!(silver.iter().filter(|t| t.is_done()).count(), 4);
    while server.service_once() {}
    assert!(gold.into_iter().all(|t| t.wait().is_ok()));
    assert!(silver.into_iter().all(|t| t.wait().is_ok()));
    let quotas = server.stats().tenants;
    assert_eq!(quotas.served("gold"), 30);
    assert_eq!(quotas.served("silver"), 30);
}

#[test]
fn unweighted_tenants_fall_back_to_the_default_weight() {
    // A default weight of 2 with one explicit weight-1 tenant inverts
    // the usual shape: the *configured* tenant is the deprioritised one.
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .max_batch(1)
        .default_tenant_weight(2)
        .tenant_weight("throttled", 1)
        .build();
    let a = chain(8, 1);
    let b = chain(8, 2);
    for _ in 0..12 {
        server.submit(Request::with_handle("normal", &a)).unwrap();
        server
            .submit(Request::with_handle("throttled", &b))
            .unwrap();
    }
    for _ in 0..9 {
        assert!(server.service_once());
    }
    let quotas = server.stats().tenants;
    assert_eq!(quotas.served("normal"), 6);
    assert_eq!(quotas.served("throttled"), 3);
    while server.service_once() {}
}

#[test]
fn max_batch_caps_a_same_digest_backlog() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .max_batch(16)
        .build();
    let h = chain(8, 3);
    let tickets: Vec<_> = server
        .submit_many((0..40).map(|i| Request::with_handle(format!("tenant-{}", i % 3), &h)))
        .into_iter()
        .map(|outcome| outcome.unwrap())
        .collect();

    // 40 matching requests under a limit of 16 run as 16 + 16 + 8.
    for left in [24, 8, 0] {
        assert!(server.service_once());
        assert_eq!(server.queue_depth(), left);
    }
    assert!(!server.service_once());
    for t in tickets {
        assert!(t.wait().unwrap().batch_size <= 16);
    }
    let stats = server.stats();
    assert_eq!(stats.batches, 3);
    assert_eq!(stats.batch_sizes.max_seen(), 16);
    assert_eq!(stats.batch_sizes.batches_of(16), 2);
    assert_eq!(stats.batch_sizes.batches_of(8), 1);
    assert_eq!(stats.completed, 40);
}

#[test]
fn try_wait_returns_none_before_completion_and_the_value_after() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .build();
    let h = chain(8, 2);
    let reg = h.program().reg_by_name("a").unwrap();
    let mut ticket = server
        .submit(Request::with_handle("t", &h).read(reg))
        .unwrap();

    assert!(ticket.try_wait().is_none());
    assert!(ticket.try_wait().is_none(), "polling is repeatable");
    // A bounded wait with nothing servicing times out, ticket intact.
    assert!(ticket.wait_timeout(Duration::from_millis(5)).is_none());

    assert!(server.service_once());
    let response = ticket.try_wait().expect("serviced").unwrap();
    assert_eq!(response.value.unwrap().to_f64_vec(), vec![2.0; 8]);

    // wait_timeout also redeems an already-resolved ticket immediately.
    let mut second = server.submit(Request::with_handle("t", &h)).unwrap();
    assert!(server.service_once());
    assert!(second
        .wait_timeout(Duration::from_secs(60))
        .expect("already resolved")
        .is_ok());
}

#[test]
fn on_done_callbacks_fire_on_resolution_or_immediately() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .build();
    let h = chain(8, 1);
    let reg = h.program().reg_by_name("a").unwrap();
    let (tx, rx) = std::sync::mpsc::channel();

    // Registered before resolution: fires from the servicing thread,
    // with the ticket itself long dropped (fire-and-forget).
    let tx1 = tx.clone();
    server
        .submit(Request::with_handle("t", &h).read(reg))
        .unwrap()
        .on_done(move |result| tx1.send(("pending", result)).unwrap());
    assert!(rx.try_recv().is_err(), "nothing serviced yet");
    assert!(server.service_once());
    let (tag, result) = rx.try_recv().expect("callback fired during service");
    assert_eq!(tag, "pending");
    assert_eq!(
        result.unwrap().value.unwrap().to_f64_vec(),
        vec![1.0; 8],
        "callback receives the full response"
    );

    // Registered after resolution: fires immediately on this thread.
    let ticket = server.submit(Request::with_handle("t", &h)).unwrap();
    assert!(server.service_once());
    let tx2 = tx.clone();
    ticket.on_done(move |result| tx2.send(("resolved", result)).unwrap());
    assert_eq!(rx.try_recv().expect("immediate").0, "resolved");

    // Deadline expiry reaches callbacks too — every accepted request
    // resolves exactly once, through whichever surface observes it.
    server
        .submit(Request::with_handle("t", &h).deadline(Duration::ZERO))
        .unwrap()
        .on_done(move |result| tx.send(("expired", result)).unwrap());
    std::thread::sleep(Duration::from_millis(2));
    assert!(server.service_once());
    let (tag, result) = rx.try_recv().expect("expiry delivered");
    assert_eq!(tag, "expired");
    assert!(matches!(result, Err(ServeError::DeadlineExceeded { .. })));
}

#[test]
fn submit_many_accepts_and_bounces_per_request() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .queue_capacity(4)
        .build();
    let h = chain(8, 1);
    let outcomes =
        server.submit_many((0..6).map(|i| Request::with_handle(format!("t{}", i % 2), &h)));
    assert_eq!(outcomes.len(), 6);
    let (accepted, bounced): (Vec<_>, Vec<_>) = outcomes.into_iter().partition(Result::is_ok);
    assert_eq!(accepted.len(), 4);
    assert_eq!(bounced.len(), 2);
    for rejected in bounced {
        let rejected = rejected.unwrap_err();
        assert!(matches!(
            rejected.reason,
            ServeError::QueueFull { capacity: 4 }
        ));
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.rejected, 2);

    while server.service_once() {}
    for ticket in accepted {
        assert!(ticket.unwrap().wait().is_ok());
    }

    server.shutdown();
    let after = server.submit_many((0..2).map(|_| Request::with_handle("t", &h)));
    assert!(after
        .into_iter()
        .all(|o| matches!(o.unwrap_err().reason, ServeError::Shutdown)));
}

#[test]
fn rejected_chains_its_source_and_converts_into_serve_error() {
    use std::error::Error as _;

    // A fallible submit path can `?` straight to ServeError.
    fn forward(server: &Server, request: Request) -> Result<Ticket, ServeError> {
        Ok(server.submit(request)?)
    }

    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .queue_capacity(1)
        .build();
    let h = chain(8, 1);
    forward(&server, Request::with_handle("t", &h)).unwrap();
    let rejected = server.submit(Request::with_handle("t", &h)).unwrap_err();
    assert!(rejected.to_string().contains("queue full"));
    let source = rejected.source().expect("reason is chained");
    assert!(source.to_string().contains("capacity 1"));
    assert!(matches!(
        forward(&server, Request::with_handle("t", &h)),
        Err(ServeError::QueueFull { capacity: 1 })
    ));
    while server.service_once() {}
}

#[test]
fn same_digest_requests_batch_across_tenants_under_one_plan() {
    let rt = Runtime::builder().build_shared();
    let server = Server::builder(Arc::clone(&rt))
        .workers(0)
        .max_batch(16)
        .build();
    let h = square();
    let x = h.program().reg_by_name("x").unwrap();
    let y = h.program().reg_by_name("y").unwrap();
    let other = chain(16, 3);

    // Six same-program requests spread over three tenants, with one
    // unrelated program wedged in the middle of tenant-1's queue.
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let input = Tensor::from_vec(vec![i as f64; 8]);
            server
                .submit(
                    Request::with_handle(format!("tenant-{}", i % 3), &h)
                        .bind(x, input)
                        .read(y),
                )
                .unwrap()
        })
        .collect();
    let odd = server
        .submit(Request::with_handle("tenant-1", &other))
        .unwrap();

    // First service call takes all six matching requests as one batch —
    // gathered across every tenant queue — and leaves the odd one.
    assert!(server.service_once());
    assert_eq!(server.queue_depth(), 1);
    for (i, t) in tickets.into_iter().enumerate() {
        let r = t.wait().unwrap();
        assert_eq!(r.batch_size, 6);
        // Rebinding on the pinned VM kept every request's own input.
        let expected = (i as f64) * (i as f64);
        assert_eq!(r.value.unwrap().to_f64_vec(), vec![expected; 8]);
        assert!(r.turnaround >= r.queue_wait);
    }
    assert!(server.service_once());
    assert!(odd.wait().is_ok());
    assert!(!server.service_once());

    // One optimiser run served the whole six-request batch.
    assert_eq!(rt.stats().evals, 7);
    assert_eq!(rt.stats().cache_misses, 2); // square() once, chain() once
    let stats = server.stats();
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.batch_sizes.max_seen(), 6);
}

#[test]
fn expired_deadlines_fail_fast_without_executing() {
    let rt = Runtime::builder().build_shared();
    let server = Server::builder(Arc::clone(&rt)).workers(0).build();
    let h = chain(8, 1);
    let expired = server
        .submit(Request::with_handle("t", &h).deadline(Duration::ZERO))
        .unwrap();
    let alive = server.submit(Request::with_handle("t", &h)).unwrap();
    std::thread::sleep(Duration::from_millis(2));
    while server.service_once() {}

    match expired.wait() {
        Err(ServeError::DeadlineExceeded { missed_by }) => {
            assert!(missed_by >= Duration::from_millis(1));
        }
        other => panic!("expected deadline expiry, got {other:?}"),
    }
    assert!(alive.wait().is_ok());
    // The expired request never reached the runtime.
    assert_eq!(rt.stats().evals, 1);
    let stats = server.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn default_deadline_applies_when_requests_carry_none() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .default_deadline(Duration::from_nanos(1))
        .build();
    let h = chain(8, 1);
    let t = server.submit(Request::with_handle("t", &h)).unwrap();
    std::thread::sleep(Duration::from_millis(1));
    server.service_once();
    assert!(matches!(t.wait(), Err(ServeError::DeadlineExceeded { .. })));
}

#[test]
fn a_deadline_too_far_out_to_represent_never_expires() {
    // `Duration::MAX` is the natural spelling of "no deadline"; adding it
    // to `Instant::now()` overflows, which must not panic in `submit`.
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .default_deadline(Duration::MAX)
        .build();
    let h = chain(8, 2);
    let reg = h.program().reg_by_name("a").unwrap();
    let explicit = server
        .submit(
            Request::with_handle("t", &h)
                .deadline(Duration::MAX)
                .read(reg),
        )
        .unwrap();
    let defaulted = server
        .submit(Request::with_handle("t", &h).read(reg))
        .unwrap();
    while server.service_once() {}
    for t in [explicit, defaulted] {
        assert_eq!(t.wait().unwrap().value.unwrap().to_f64_vec(), vec![2.0; 8]);
    }
    assert_eq!(server.stats().expired, 0);
}

#[test]
fn invalid_programs_never_reach_a_batch() {
    // Reads a never-written register. Before the admission verifier this
    // was enqueued and failed every request of its batch at plan build;
    // now it bounces at submit time and never occupies queue space.
    let rt = Runtime::builder()
        .opt_level(bh_opt::OptLevel::O0)
        .build_shared();
    let server = Server::builder(rt).workers(0).build();
    let bad = ProgramHandle::new(parse_program("BH_ADD a [0:4:1] a [0:4:1] 1\n").unwrap());
    for _ in 0..2 {
        let rejected = server.submit(Request::with_handle("t", &bad)).unwrap_err();
        assert!(matches!(rejected.reason, ServeError::Malformed(_)));
    }
    assert!(!server.service_once());
    assert_eq!(server.stats().rejected, 2);
    assert_eq!(server.stats().failed, 0);
}

#[test]
fn tenant_state_is_dropped_when_a_tenant_drains() {
    // Ephemeral tenant IDs must not accumulate scheduler state: after
    // draining, the server tracks zero tenants however many distinct IDs
    // it has ever seen.
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .build();
    let h = chain(8, 1);
    for wave in 0..3 {
        let tickets: Vec<_> = (0..20)
            .map(|i| {
                server
                    .submit(Request::with_handle(format!("user-{wave}-{i}"), &h))
                    .unwrap()
            })
            .collect();
        assert_eq!(server.active_tenants(), 20);
        while server.service_once() {}
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
        assert_eq!(server.active_tenants(), 0);
        assert_eq!(server.queue_depth(), 0);
    }
    assert_eq!(server.stats().completed, 60);
}

#[test]
fn batched_request_omitting_a_binding_sees_zeros_not_another_tenants_data() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .max_batch(4)
        .build();
    let h = ProgramHandle::new(
        parse_program(".base x f64[4] input\n.base y f64[4]\nBH_ADD y x 1\nBH_SYNC y\n").unwrap(),
    );
    let x = h.program().reg_by_name("x").unwrap();
    let y = h.program().reg_by_name("y").unwrap();
    // Tenant A binds a "secret" input; tenant B legally omits the
    // binding (unbound inputs are zero-filled). Batched on one pinned
    // VM, B must still see zeros — not A's data.
    let a = server
        .submit(
            Request::with_handle("a", &h)
                .bind(x, Tensor::from_vec(vec![42.0f64; 4]))
                .read(y),
        )
        .unwrap();
    let b = server
        .submit(Request::with_handle("b", &h).read(y))
        .unwrap();
    assert!(server.service_once());
    assert_eq!(a.wait().unwrap().value.unwrap().to_f64_vec(), vec![43.0; 4]);
    assert_eq!(b.wait().unwrap().value.unwrap().to_f64_vec(), vec![1.0; 4]);
}

#[test]
fn batched_partial_write_programs_match_fresh_vm_semantics() {
    // `y[0:2] = 5; y += 1; sync y` validates, but the tail of y is read
    // without being written, so reusing y's storage without zero-filling
    // it would leak the first run's values into the second. Both
    // identical requests in one batch must produce the fresh-VM answer.
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .max_batch(4)
        .build();
    let h = ProgramHandle::new(
        parse_program(".base y f64[4]\nBH_IDENTITY y [0:2:1] 5\nBH_ADD y y 1\nBH_SYNC y\n")
            .unwrap(),
    );
    assert_eq!(
        bh_ir::first_touch(h.program()),
        [bh_ir::FirstTouch::Observes]
    );
    let y = h.program().reg_by_name("y").unwrap();
    let t1 = server
        .submit(Request::with_handle("t", &h).read(y))
        .unwrap();
    let t2 = server
        .submit(Request::with_handle("t", &h).read(y))
        .unwrap();
    assert!(server.service_once());
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    assert_eq!(r1.batch_size, 2);
    assert_eq!(r1.value.unwrap().to_f64_vec(), vec![6.0, 6.0, 1.0, 1.0]);
    assert_eq!(r2.value.unwrap().to_f64_vec(), vec![6.0, 6.0, 1.0, 1.0]);
}

#[test]
fn a_binding_or_read_of_an_undeclared_register_fails_the_request_not_the_worker() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .max_batch(4)
        .build();
    let h = square();
    let x = h.program().reg_by_name("x").unwrap();
    let y = h.program().reg_by_name("y").unwrap();
    let input = || Tensor::from_vec(vec![3.0f64; 8]);
    // Admission verifies the program, not the registers a request names:
    // Reg(9) on a 2-base program reaches the batch.
    let bad_bind = server
        .submit(
            Request::with_handle("t", &h)
                .bind(x, input())
                .bind(Reg(9), input())
                .read(y),
        )
        .unwrap();
    let bad_read = server
        .submit(Request::with_handle("t", &h).bind(x, input()).read(Reg(9)))
        .unwrap();
    let good = server
        .submit(Request::with_handle("t", &h).bind(x, input()).read(y))
        .unwrap();
    assert!(server.service_once());
    assert!(matches!(bad_bind.wait(), Err(ServeError::Eval(_))));
    assert!(matches!(bad_read.wait(), Err(ServeError::Eval(_))));
    let response = good.wait().unwrap();
    assert_eq!(response.batch_size, 3);
    assert_eq!(response.value.unwrap().to_f64_vec(), vec![9.0; 8]);
    assert_eq!(server.stats().failed, 2);
}

#[test]
fn shutdown_drains_queued_work_then_rejects() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(2)
        .build();
    let h = chain(64, 4);
    let reg = h.program().reg_by_name("a").unwrap();
    let tickets: Vec<_> = (0..32)
        .map(|i| {
            server
                .submit(Request::with_handle(format!("t{}", i % 4), &h).read(reg))
                .unwrap()
        })
        .collect();
    server.shutdown();
    // Every accepted request was completed, not dropped …
    for t in tickets {
        assert_eq!(t.wait().unwrap().value.unwrap().to_f64_vec(), vec![4.0; 64]);
    }
    // … and new work is turned away.
    let after = server.submit(Request::with_handle("t0", &h)).unwrap_err();
    assert!(matches!(after.reason, ServeError::Shutdown));
    // Idempotent.
    server.shutdown();
}

#[test]
fn concurrent_stress_every_request_resolves_exactly_once() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 50;

    let rt = Runtime::builder().build_shared();
    let server = Arc::new(
        Server::builder(Arc::clone(&rt))
            .workers(2)
            .queue_capacity(CLIENTS * PER_CLIENT)
            .max_batch(8)
            .build(),
    );
    // Three program shapes cycling, so batches of mixed provenance form.
    let handles: Vec<ProgramHandle> = (1..=3).map(|k| chain(32, k)).collect();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = Arc::clone(&server);
            let handles = handles.clone();
            std::thread::spawn(move || {
                let mut ok = 0usize;
                let tickets: Vec<_> = (0..PER_CLIENT)
                    .map(|i| {
                        let h = &handles[(c + i) % handles.len()];
                        let reg = h.program().reg_by_name("a").unwrap();
                        server
                            .submit(Request::with_handle(format!("client-{c}"), h).read(reg))
                            .expect("capacity covers every in-flight request")
                    })
                    .collect();
                for (i, t) in tickets.into_iter().enumerate() {
                    let expected = ((c + i) % handles.len() + 1) as f64;
                    let r = t.wait().expect("no deadline, no invalid program");
                    assert_eq!(r.value.unwrap().to_f64_vec(), vec![expected; 32]);
                    ok += 1;
                }
                ok
            })
        })
        .collect();

    let total: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(total, CLIENTS * PER_CLIENT);
    server.shutdown();

    let report = server.report();
    assert_eq!(report.serve.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(report.serve.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(report.serve.resolved(), report.serve.submitted);
    assert_eq!(report.serve.failed + report.serve.expired, 0);
    assert_eq!(report.runtime.evals, (CLIENTS * PER_CLIENT) as u64);
    // Three distinct structures → exactly three optimiser runs, however
    // the requests raced (at worst a few concurrent misses).
    assert!(report.runtime.cache_misses <= 6, "{}", report.runtime);
    assert_eq!(report.serve.queue_depth, 0);
    assert!(report.serve.latency.count() >= 1);
}

#[test]
fn malformed_programs_bounce_at_admission_with_their_verify_code() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .build();
    // Reads `a0` before anything writes it: verifier code V200.
    let bad = ProgramHandle::new(parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n").unwrap());

    let rejected = server.submit(Request::with_handle("t", &bad)).unwrap_err();
    match &rejected.reason {
        ServeError::Malformed(errors) => {
            assert!(!errors.is_empty());
            assert_eq!(errors[0].code, bh_ir::VerifyCode::ReadBeforeWrite);
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    // The request comes back intact, nothing was enqueued, and the
    // bounce is counted like any other rejection.
    assert_eq!(rejected.request.tenant(), "t");
    assert_eq!(server.queue_depth(), 0);
    assert!(!server.service_once());
    assert_eq!(server.stats().rejected, 1);

    // submit_wait surfaces the same structured error.
    match server.submit_wait(Request::with_handle("t", &bad)) {
        Err(ServeError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn submit_many_bounces_only_the_malformed_requests() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .build();
    let good = chain(8, 1);
    let bad = ProgramHandle::new(parse_program("BH_ADD a0 [0:4:1] a0 [0:4:1] 1\n").unwrap());

    let outcomes = server.submit_many(vec![
        Request::with_handle("t", &good),
        Request::with_handle("t", &bad),
        Request::with_handle("t", &good),
    ]);
    assert!(outcomes[0].is_ok());
    assert!(matches!(
        outcomes[1].as_ref().unwrap_err().reason,
        ServeError::Malformed(_)
    ));
    assert!(outcomes[2].is_ok());
    assert_eq!(server.queue_depth(), 2);

    // The two admitted requests still run. Both were verified at
    // admission: no plan for their digest is resident until their batch
    // runs.
    while server.service_once() {}
    for outcome in outcomes.into_iter().flatten() {
        outcome.wait().unwrap();
    }
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.stats().completed, 2);
}

#[test]
fn a_dangling_register_is_malformed_not_a_panic() {
    let server = Server::builder(Runtime::builder().build_shared())
        .workers(0)
        .build();
    // One declared base and an operand naming register 7: the parser
    // cannot write this, a decoded container can. Building the request
    // digests the program, which must not index the missing base.
    let mut program = Program::new();
    let a0 = program.declare("a0", DType::Float64, Shape::vector(4));
    program.push(Instruction::unary(
        Opcode::Identity,
        ViewRef::full(a0),
        Operand::full(Reg(7)),
    ));

    let rejected = server.submit(Request::new("t", program)).unwrap_err();
    match &rejected.reason {
        ServeError::Malformed(errors) => {
            assert_eq!(errors[0].code, bh_ir::VerifyCode::BadView, "{errors:?}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.queue_depth(), 0);
    assert!(!server.service_once());
}

#[test]
fn churn_backlog_compiles_once_per_batch_not_per_request() {
    // The churn regime: more distinct programs (16 tenants, one digest
    // each) than the plan cache holds (8). Batching compiles each digest
    // once for its whole backlog; the one-eval-per-request loop over the
    // same round-robin trace evicts every plan before its next use.
    const TENANTS: usize = 16;
    const PER_TENANT: usize = 16;
    let handles: Vec<ProgramHandle> = (0..TENANTS).map(|t| chain(48 + t, 24)).collect();

    let rt = Runtime::builder().cache_capacity(8).build_shared();
    let server = Server::builder(Arc::clone(&rt))
        .workers(0)
        .max_batch(16)
        .build();
    let mut tickets = Vec::new();
    for _ in 0..PER_TENANT {
        for (t, h) in handles.iter().enumerate() {
            let reg = h.program().reg_by_name("a").unwrap();
            let request = Request::with_handle(format!("tenant-{t}"), h).read(reg);
            tickets.push((t, server.submit(request).unwrap()));
        }
    }
    while server.service_once() {}
    for (t, ticket) in tickets {
        let r = ticket.wait().unwrap();
        assert_eq!(r.batch_size, PER_TENANT);
        assert_eq!(r.value.unwrap().to_f64_vec(), vec![24.0; 48 + t]);
    }
    let stats = server.stats();
    assert_eq!(stats.batches, TENANTS as u64);
    assert_eq!(stats.batch_sizes.batches_of(PER_TENANT), TENANTS as u64);
    assert_eq!(stats.completed, (TENANTS * PER_TENANT) as u64);
    assert_eq!(rt.stats().cache_misses, TENANTS as u64);

    let naive = Runtime::builder().cache_capacity(8).build();
    for _ in 0..PER_TENANT {
        for h in &handles {
            let reg = h.program().reg_by_name("a").unwrap();
            naive.eval(h.program(), &[], reg).unwrap();
        }
    }
    assert_eq!(naive.stats().cache_misses, (TENANTS * PER_TENANT) as u64);
}
