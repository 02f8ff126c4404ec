//! Integration tests for the TCP front door: the happy path, the
//! hostile-input trust boundary, and the ≥8-connection abuse run that
//! drives backpressure and deadline expiry end to end.

use bh_ir::{parse_program, Instruction, Opcode, Operand, Program, Reg};
use bh_net::{codes, Frame, NetClient, NetEvent, NetServer};
use bh_runtime::Runtime;
use bh_serve::Server;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn sample_program() -> Program {
    parse_program("BH_IDENTITY a [0:8:1] 0\nBH_ADD a a 5\nBH_SYNC a\n").unwrap()
}

fn front_door(server: Server) -> (NetServer, Arc<Server>) {
    let server = Arc::new(server);
    let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind loopback");
    (door, server)
}

#[test]
fn round_trips_a_result_over_tcp() {
    let (door, server) = front_door(
        Server::builder(Runtime::builder().build_shared())
            .workers(1)
            .build(),
    );
    let program = sample_program();
    let reg = program.reg_by_name("a").unwrap();

    let mut client = NetClient::connect(door.local_addr(), "acme").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match client.call(&program, Some(reg), None).expect("call") {
        NetEvent::Result(r) => {
            assert_eq!(r.request_id, 1);
            assert_eq!(r.value.as_deref(), Some(&[5.0f64; 8][..]));
            assert!(r.batch_size >= 1);
        }
        NetEvent::Rejected(r) => panic!("rejected: {} ({})", r.code, r.detail),
    }
    // A second call on the same connection reuses the handshake.
    let event = client.call(&program, Some(reg), None).expect("second call");
    assert_eq!(event.request_id(), 2);
    assert!(matches!(event, NetEvent::Result(_)));

    door.close();
    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.completed, 2);
    let net = door.stats();
    assert_eq!(net.connections, 1);
    assert_eq!(net.results_sent, 2);
    assert_eq!(net.errors_sent, 0);
}

#[test]
fn connections_bind_their_tenant_for_scheduling() {
    let (door, server) = front_door(
        Server::builder(Runtime::builder().build_shared())
            .workers(1)
            .build(),
    );
    let program = sample_program();
    for tenant in ["alpha", "beta"] {
        let mut client = NetClient::connect(door.local_addr(), tenant).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for _ in 0..3 {
            assert!(matches!(
                client.call(&program, None, None).expect("call"),
                NetEvent::Result(_)
            ));
        }
    }
    door.close();
    server.shutdown();
    let quotas = server.stats().tenants;
    assert_eq!(quotas.served("alpha"), 3);
    assert_eq!(quotas.served("beta"), 3);
}

#[test]
fn hostile_submissions_become_typed_error_frames() {
    let (door, server) = front_door(
        Server::builder(Runtime::builder().build_shared())
            .workers(1)
            .build(),
    );
    let mut client = NetClient::connect(door.local_addr(), "mallory").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Garbage container bytes: fail-closed decode, typed frame, and the
    // connection survives for the next submission.
    let id = client
        .submit_container(b"not a container".to_vec(), None, None)
        .unwrap();
    let NetEvent::Rejected(r) = client.read_event().unwrap() else {
        panic!("garbage container must be rejected");
    };
    assert_eq!((r.request_id, r.code.as_str()), (id, codes::BAD_CONTAINER));
    assert!(
        r.detail.starts_with('C'),
        "carries the container code: {}",
        r.detail
    );

    // A syntactically valid container whose program fails byte-code
    // verification (dangling register): digested (digesting is total),
    // then rejected by the scheduler's admission verification before it
    // is queued, and counted there.
    let mut dangling = Program::default();
    dangling.push(Instruction::new(
        Opcode::Add,
        vec![
            Operand::full(Reg(7)),
            Operand::full(Reg(7)),
            Operand::full(Reg(7)),
        ],
    ));
    let bytes = bh_container::Container::program(dangling).encode();
    let id = client.submit_container(bytes, None, None).unwrap();
    let NetEvent::Rejected(r) = client.read_event().unwrap() else {
        panic!("unverifiable program must be rejected");
    };
    assert_eq!((r.request_id, r.code.as_str()), (id, codes::MALFORMED));
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.stats().submitted, 0);

    // A valid program with an out-of-range read-back register.
    let id = client
        .submit(&sample_program(), Some(Reg(99)), None)
        .unwrap();
    let NetEvent::Rejected(r) = client.read_event().unwrap() else {
        panic!("out-of-range read must be rejected");
    };
    assert_eq!((r.request_id, r.code.as_str()), (id, codes::BAD_REGISTER));

    // The connection is still healthy after three rejections.
    let reg = sample_program().reg_by_name("a").unwrap();
    assert!(matches!(
        client.call(&sample_program(), Some(reg), None).unwrap(),
        NetEvent::Result(_)
    ));

    door.close();
    server.shutdown();
}

/// Section id 2 is retired: a format-v1 container that still carries an
/// optimised plan (the container crate's checked-in fixture, written by
/// an older commit) is served from its program section alone.
#[test]
fn a_v1_plan_container_is_served_from_its_program_section() {
    let (door, server) = front_door(
        Server::builder(Runtime::builder().build_shared())
            .workers(1)
            .build(),
    );
    let hex = include_str!("../../container/tests/fixtures/plan_v1.hex");
    let bytes: Vec<u8> = hex
        .split_whitespace()
        .flat_map(|line| {
            (0..line.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&line[i..i + 2], 16).expect("hex fixture"))
        })
        .collect();
    let program = bh_container::Container::decode(&bytes).unwrap().program;
    let y = program.reg_by_name("y").unwrap();

    let mut client = NetClient::connect(door.local_addr(), "legacy").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let id = client
        .submit_container(bytes, Some(y.index() as u32), None)
        .unwrap();
    let NetEvent::Result(r) = client.read_event().unwrap() else {
        panic!("a v1 plan container must still evaluate");
    };
    assert_eq!(r.request_id, id);
    // y = x * 2 + 1 over the unbound (zero) input x.
    assert_eq!(r.value.as_deref(), Some(&[1.0f64; 16][..]));

    door.close();
    server.shutdown();
    assert_eq!(door.stats().results_sent, 1);
    assert_eq!(door.stats().errors_sent, 0);
}

#[test]
fn handshake_violations_are_refused_with_codes() {
    let (door, server) = front_door(
        Server::builder(Runtime::builder().build_shared())
            .workers(0)
            .build(),
    );

    // Version skew.
    let stream = TcpStream::connect(door.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Frame::Hello {
        version: 99,
        tenant: "t".into(),
    }
    .write_to(&mut (&stream))
    .unwrap();
    let Frame::Error { code, .. } = Frame::read_from(&mut (&stream)).unwrap() else {
        panic!("version skew must be refused");
    };
    assert_eq!(code, codes::UNSUPPORTED_VERSION);

    // First frame is not HELLO.
    let stream = TcpStream::connect(door.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Frame::Submit {
        request_id: 1,
        read: None,
        deadline_ms: None,
        container: Vec::new(),
    }
    .write_to(&mut (&stream))
    .unwrap();
    let Frame::Error { code, .. } = Frame::read_from(&mut (&stream)).unwrap() else {
        panic!("submit before hello must be refused");
    };
    assert_eq!(code, codes::EXPECTED_HELLO);

    // The client-side constructor surfaces the refusal as a handshake
    // error rather than a success.
    let err = NetClient::connect(door.local_addr(), "t")
        .map(|_| ())
        .map_err(|e| e.code());
    assert_eq!(err, Ok(())); // sanity: a well-formed handshake still works

    door.close();
    server.shutdown();
}

/// The acceptance-criteria abuse run: ≥8 concurrent connections driven
/// through deterministic backpressure and deadline expiry, every
/// rejection a typed frame, exactly-once delivery asserted end to end.
#[test]
fn eight_connections_survive_backpressure_and_deadline_expiry_exactly_once() {
    const CONNS: usize = 8;
    const PHASE1_PER_CONN: usize = 4; // 32 submissions into a queue of 8
    const CAPACITY: usize = 8;
    const PHASE2_PER_CONN: usize = 2;

    // workers(0): nothing drains until the test says so, making the
    // backpressure split exact — of the 32 phase-1 submissions exactly
    // `CAPACITY` enqueue and the rest bounce with `queue_full`.
    let (door, server) = front_door(
        Server::builder(Runtime::builder().build_shared())
            .workers(0)
            .queue_capacity(CAPACITY)
            .build(),
    );
    let program = sample_program();
    let reg = program.reg_by_name("a").unwrap();

    // Barrier A: all phase-1 submissions are on the wire and answered
    // or queued. Barrier B: the drain driver is running, phase 2 may
    // start closed-loop traffic.
    let barrier_a = Arc::new(Barrier::new(CONNS + 1));
    let barrier_b = Arc::new(Barrier::new(CONNS + 1));

    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            let addr = door.local_addr();
            let program = program.clone();
            let barrier_a = Arc::clone(&barrier_a);
            let barrier_b = Arc::clone(&barrier_b);
            std::thread::spawn(move || {
                let mut client =
                    NetClient::connect(addr, format!("tenant-{c}").as_str()).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                // Phase 1: pipeline a burst with a deadline far shorter
                // than the drain delay.
                let ids: Vec<u64> = (0..PHASE1_PER_CONN)
                    .map(|_| {
                        client
                            .submit(&program, Some(reg), Some(Duration::from_millis(50)))
                            .expect("submit")
                    })
                    .collect();
                // Read the burst's events *before* barrier A: every
                // submission is answered (queue_full immediately, or
                // deadline_exceeded once the main thread drains) —
                // waiting here also proves no response goes missing.
                barrier_a.wait();
                let mut codes_seen: HashMap<u64, String> = HashMap::new();
                for _ in 0..PHASE1_PER_CONN {
                    match client.read_event().expect("phase-1 event") {
                        NetEvent::Rejected(r) => {
                            let dup = codes_seen.insert(r.request_id, r.code);
                            assert!(dup.is_none(), "duplicate event for {}", r.request_id);
                        }
                        NetEvent::Result(r) => {
                            panic!("phase-1 request {} must expire or bounce", r.request_id)
                        }
                    }
                }
                for id in &ids {
                    let code = codes_seen.get(id).expect("every id answered");
                    assert!(
                        code == "queue_full" || code == "deadline_exceeded",
                        "unexpected code {code}"
                    );
                }
                let queue_full = codes_seen.values().filter(|c| *c == "queue_full").count();

                // Phase 2: closed-loop traffic against the live drain
                // driver completes normally on the same connections.
                barrier_b.wait();
                for _ in 0..PHASE2_PER_CONN {
                    match client
                        .call(&program, Some(reg), None)
                        .expect("phase-2 call")
                    {
                        NetEvent::Result(r) => {
                            assert_eq!(r.value.as_deref(), Some(&[5.0f64; 8][..]));
                        }
                        NetEvent::Rejected(r) => panic!("phase-2 rejected: {}", r.code),
                    }
                }
                queue_full
            })
        })
        .collect();

    barrier_a.wait();
    // The clients' frames are on the wire but the reader threads race
    // us: wait until every phase-1 submission has been admitted or
    // bounced, at which point the queue holds exactly CAPACITY requests
    // whose 50ms deadlines then expire.
    let poll_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = server.stats();
        if s.submitted + s.rejected == (CONNS * PHASE1_PER_CONN) as u64 {
            break;
        }
        assert!(
            Instant::now() < poll_deadline,
            "submissions never processed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.queue_depth(), CAPACITY);
    std::thread::sleep(Duration::from_millis(80));
    while server.service_once() {}

    // Phase 2 drain driver.
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if !server.service_once() {
                    std::thread::yield_now();
                }
            }
        })
    };
    barrier_b.wait();

    let queue_full_total: usize = clients.into_iter().map(|c| c.join().expect("client")).sum();
    stop.store(true, Ordering::Release);
    driver.join().expect("driver");
    door.close();
    server.shutdown();

    // The deterministic split: everything over capacity bounced.
    assert_eq!(queue_full_total, CONNS * PHASE1_PER_CONN - CAPACITY);
    let stats = server.stats();
    assert_eq!(stats.rejected, queue_full_total as u64);
    assert_eq!(stats.expired, CAPACITY as u64);
    assert_eq!(stats.completed, (CONNS * PHASE2_PER_CONN) as u64);
    // Exactly-once on the wire: one frame per submission, no extras.
    let net = door.stats();
    assert_eq!(net.connections, CONNS as u64);
    assert_eq!(net.results_sent, (CONNS * PHASE2_PER_CONN) as u64);
    assert_eq!(
        net.errors_sent,
        (CONNS * PHASE1_PER_CONN) as u64 // queue_full + deadline_exceeded
    );
}

#[test]
fn pipelined_connections_on_live_workers_resolve_every_request_once() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 32;
    const DEPTH: usize = 8;
    let (door, server) = front_door(
        Server::builder(Runtime::builder().build_shared())
            .workers(2)
            .build(),
    );

    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            let addr = door.local_addr();
            std::thread::spawn(move || {
                // A distinct program per connection: `a = c + 1` over a
                // vector of its own length.
                let n = 8 + c;
                let program = parse_program(&format!(
                    "BH_IDENTITY a [0:{n}:1] 0\nBH_ADD a a {}\nBH_SYNC a\n",
                    c + 1
                ))
                .unwrap();
                let reg = program.reg_by_name("a").unwrap();
                let expected = vec![(c + 1) as f64; n];
                let mut client =
                    NetClient::connect(addr, format!("tenant-{c}").as_str()).expect("connect");
                // Only a guard against a hang; nothing is timed.
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let (mut in_flight, mut submitted) = (Vec::with_capacity(DEPTH), 0);
                for _ in 0..PER_CONN {
                    while submitted < PER_CONN && in_flight.len() < DEPTH {
                        in_flight.push(client.submit(&program, Some(reg), None).expect("submit"));
                        submitted += 1;
                    }
                    match client.read_event().expect("response frame") {
                        NetEvent::Result(r) => {
                            let slot = in_flight.iter().position(|id| *id == r.request_id);
                            in_flight.swap_remove(slot.expect("answers one in-flight id"));
                            assert_eq!(r.value.as_deref(), Some(&expected[..]));
                        }
                        NetEvent::Rejected(r) => panic!("rejected: {} ({})", r.code, r.detail),
                    }
                }
                assert!(in_flight.is_empty());
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client");
    }

    door.close();
    server.shutdown();
    let net = door.stats();
    assert_eq!(net.connections, CONNS as u64);
    assert_eq!(net.results_sent, (CONNS * PER_CONN) as u64);
    assert_eq!(net.errors_sent, 0);
    assert_eq!(server.stats().completed, (CONNS * PER_CONN) as u64);
}
