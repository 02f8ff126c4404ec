//! Probes on the fixed populations: per-layer timings that belong to
//! one kind of program (`small`, `kernels`, `paper`) and are measured
//! on it whichever workload is being traced, so every traced run prints
//! every per-layer metric.

use crate::gen;
use crate::ledger::Values;
use crate::measure::Tally;
use crate::stack::{self, Fixture, Loaded, Tuning, Wire, PIPELINE_DEPTH};
use crate::stats::{self, micros};
use bh_container::Container;
use bh_net::{Frame, NetEvent};
use bh_opt::OptLevel;
use bh_runtime::Runtime;
use bh_serve::{ProgramHandle, Request, Server};
use std::time::{Duration, Instant};

/// Timed calls per small program for the µs-scale probes.
const SMALL_REPS: usize = 250;
/// Timed runs per large program; the median is reported.
const LARGE_REPS: usize = 5;
/// Requests of the loaded serve and wire probes.
const LOADED_REQUESTS: usize = 20_000;

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let begun = Instant::now();
    let out = f();
    (out, begun.elapsed())
}

fn in_us(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| micros(*d)).collect()
}

fn median_us(samples: &[Duration]) -> f64 {
    stats::median(&in_us(samples))
}

fn mean_us(samples: &[Duration]) -> f64 {
    stats::mean(&in_us(samples))
}

pub fn run(seed: u64, values: &mut Values, tally: &mut Tally) {
    small_programs(seed, values, tally);
    kernel_programs(seed, values, tally);
    paper_programs(seed, values, tally);
}

/// Everything measured on the `wire_hot_small` programs: the unloaded
/// cost of each nested entry point, then serve and net under load.
fn small_programs(seed: u64, values: &mut Values, tally: &mut Tally) {
    let cases = gen::small(seed);
    let fixtures: Vec<Fixture<'_>> = cases.iter().map(Fixture::new).collect();
    let loaded: Vec<Loaded> = fixtures.iter().map(Fixture::load).collect();
    let tuning = Tuning::default();

    // Runtime entry points, one request at a time. Profiling on and
    // off alternate per program so drift hits both alike.
    let rt = stack::runtime(&tuning);
    let bare = stack::runtime(&Tuning {
        no_profiling: true,
        ..tuning.clone()
    });
    let (mut eval, mut eval_bare, mut prepare, mut prepared, mut vm_run) =
        (vec![], vec![], vec![], vec![], vec![]);
    for (l, f) in loaded.iter().zip(&fixtures) {
        for rt in [&rt, &bare] {
            tally.check(
                matches!(rt.eval(&l.program, &l.bindings, l.result), Ok((v, _)) if f.accepts(&v)),
            );
        }
        for _ in 0..SMALL_REPS {
            eval.push(time(|| rt.eval(&l.program, &l.bindings, l.result)).1);
            eval_bare.push(time(|| bare.eval(&l.program, &l.bindings, l.result)).1);
            let (plan, took) = time(|| rt.prepare(&l.program));
            prepare.push(took);
            let (plan, _) = plan.expect("resident plan");
            let mut vm = rt.lease_vm();
            prepared.push(
                time(|| rt.eval_prepared(&plan, &mut vm, &l.bindings, Some(l.result), true)).1,
            );
            // The small programs start from BH_RANGE, so the same leased
            // VM can run them again without rebinding.
            vm_run.push(time(|| vm.run_verified(plan.program.as_verified())).1);
        }
    }
    let eval_hit = mean_us(&eval);
    values.insert("runtime.eval_hit_us", eval_hit);
    values.insert("runtime.eval_prepared_us", mean_us(&prepared));
    values.insert(
        "runtime.glue_us",
        eval_hit - mean_us(&prepare) - mean_us(&prepared),
    );
    values.insert("vm.run_verified_small_us", mean_us(&vm_run));
    values.insert(
        "observe.profile_overhead_share",
        1.0 - mean_us(&eval_bare) / eval_hit,
    );

    // Serve and net, one request in flight.
    let mut wire = Wire::start(&tuning, stack::client_count());
    let mut submit_wait = vec![];
    let mut call = vec![];
    for (l, f) in loaded.iter().zip(&fixtures) {
        for rep in 0..=SMALL_REPS {
            let request = Request::new("tenant-0", l.program.clone()).read(l.result);
            let (response, took) = time(|| wire.server.submit_wait(request));
            let client = &mut wire.clients[0];
            let (event, took_call) = time(|| client.call(&l.program, Some(l.result), None));
            if rep == 0 {
                // First touch compiles the plan: checked, not timed.
                tally.check(
                    matches!(response, Ok(r) if r.value.as_ref().is_some_and(|v| f.accepts(v))),
                );
                tally.check(matches!(event, Ok(NetEvent::Result(r)) if f.accepts_remote(&r)));
            } else {
                submit_wait.push(took);
                call.push(took_call);
            }
        }
    }
    let (submit_wait_us, call_us) = (mean_us(&submit_wait), mean_us(&call));
    values.insert("serve.submit_wait_us", submit_wait_us);
    values.insert("serve.overhead_us", submit_wait_us - eval_hit);
    values.insert("net.call_us", call_us);
    values.insert("net.overhead_us", call_us - submit_wait_us);

    // Net and serve under the workload's own load, with the server-side
    // timings every response carries.
    let serve_before = wire.server.stats();
    let net_before = wire.door.stats();
    let order: Vec<usize> = (0..LOADED_REQUESTS).map(|i| i % loaded.len()).collect();
    let round = wire.round_detailed(&fixtures, &loaded, &order);
    tally.count(order.len(), &round.round);
    let serve_after = wire.server.stats();
    let net_after = wire.door.stats();
    let p50 = |xs: Vec<f64>| stats::percentile(&stats::sorted(xs), 0.5);
    let d = &round.details;
    values.insert(
        "serve.queue_wait_p50_us",
        p50(d.iter().map(|x| micros(x.queue_wait)).collect()),
    );
    values.insert(
        "serve.service_p50_us",
        p50(d
            .iter()
            .map(|x| micros(x.turnaround.saturating_sub(x.queue_wait)))
            .collect()),
    );
    values.insert(
        "net.wire_p50_us",
        p50(d
            .iter()
            .map(|x| micros(x.latency.saturating_sub(x.turnaround)))
            .collect()),
    );
    values.insert(
        "serve.mean_batch",
        stats::mean(
            &d.iter()
                .map(|x| f64::from(x.batch_size))
                .collect::<Vec<_>>(),
        ),
    );
    values.insert(
        "serve.peak_queue_depth",
        serve_after.peak_queue_depth as f64,
    );
    values.insert(
        "serve.rejected",
        (serve_after.rejected - serve_before.rejected) as f64,
    );
    values.insert(
        "net.frames_per_req",
        (net_after.frames_received - net_before.frames_received) as f64 / order.len() as f64,
    );

    // The same mix and client threads with no socket in between.
    let (round, wall) = time(|| submit_many_round(&wire.server, &fixtures, &loaded, &order));
    tally.count(order.len(), &round);
    values.insert(
        "serve.inproc_req_per_s",
        round.latencies.len() as f64 / wall.as_secs_f64(),
    );
    wire.stop();

    frames(&loaded, values);
}

/// `client_count()` threads, each submitting [`PIPELINE_DEPTH`] requests
/// at a time through `Server::submit_many` and waiting for all of them.
fn submit_many_round(
    server: &Server,
    fixtures: &[Fixture<'_>],
    loaded: &[Loaded],
    order: &[usize],
) -> stack::Round {
    let handles: Vec<ProgramHandle> = loaded
        .iter()
        .map(|l| ProgramHandle::new(l.program.clone()))
        .collect();
    let lanes = stack::client_count();
    let mut total = stack::Round::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..lanes)
            .map(|lane| {
                let handles = &handles;
                scope.spawn(move || {
                    let mine: Vec<usize> =
                        order.iter().copied().skip(lane).step_by(lanes).collect();
                    let tenant = format!("tenant-{lane}");
                    let mut round = stack::Round::default();
                    for burst in mine.chunks(PIPELINE_DEPTH) {
                        let begun = Instant::now();
                        let tickets = server.submit_many(burst.iter().map(|&i| {
                            Request::with_handle(tenant.as_str(), &handles[i])
                                .read(loaded[i].result)
                        }));
                        for (ticket, &i) in tickets.into_iter().zip(burst) {
                            let value = ticket
                                .ok()
                                .and_then(|t| t.wait().ok())
                                .and_then(|r| r.value);
                            if value.is_some_and(|v| fixtures[i].accepts(&v)) {
                                round.latencies.push(begun.elapsed());
                            } else {
                                round.failed += 1;
                            }
                        }
                    }
                    round
                })
            })
            .collect();
        for t in threads {
            total.absorb(t.join().expect("submitter thread"));
        }
    });
    total
}

/// Encode and decode cost of the frames one small request puts on the
/// wire: a SUBMIT carrying the program's container and a RESULT
/// carrying its value.
fn frames(loaded: &[Loaded], values: &mut Values) {
    let (mut encode, mut decode) = (vec![], vec![]);
    for (request_id, l) in loaded.iter().enumerate() {
        let elements = l.program.base(l.result).shape.nelem();
        let pair = [
            Frame::Submit {
                request_id: request_id as u64,
                read: Some(l.result.0),
                deadline_ms: None,
                container: Container::program(l.program.clone()).encode(),
            },
            Frame::Result {
                request_id: request_id as u64,
                batch_size: 2,
                queue_wait_nanos: 250_000,
                turnaround_nanos: 300_000,
                value: Some((0..elements).map(|i| i as f64).collect()),
            },
        ];
        for _ in 0..SMALL_REPS {
            let mut pair_encode = Duration::ZERO;
            let mut pair_decode = Duration::ZERO;
            for frame in &pair {
                let mut bytes = Vec::new();
                pair_encode += time(|| frame.write_to(&mut bytes).expect("write to memory")).1;
                let (back, took) = time(|| Frame::read_from(&mut bytes.as_slice()));
                pair_decode += took;
                assert_eq!(back.ok().as_ref(), Some(frame), "frames must round-trip");
            }
            encode.push(pair_encode / 2);
            decode.push(pair_decode / 2);
        }
    }
    values.insert("net.frame_encode_us", mean_us(&encode));
    values.insert("net.frame_decode_us", mean_us(&decode));
}

/// `Vm::run_verified` per `kernel_stream` program on a leased VM.
fn kernel_programs(seed: u64, values: &mut Values, tally: &mut Tally) {
    const NAMES: [&str; 8] = [
        "vm.ns_per_elem.chain16",
        "vm.ns_per_elem.chain_reduce16",
        "vm.ns_per_elem.sum",
        "vm.ns_per_elem.cumsum",
        "vm.ns_per_elem.heat",
        "vm.ns_per_elem.axis0",
        "vm.ns_per_elem.axis1",
        "vm.ns_per_elem.cast_cmp",
    ];
    let cases = gen::kernels(seed);
    let rt = stack::runtime(&Tuning::default());
    for (case, name) in cases.iter().zip(NAMES) {
        assert!(
            name.ends_with(&case.name),
            "probe table out of step with the generator"
        );
        let fixture = Fixture::new(case);
        let l = fixture.load();
        let (plan, _) = rt.prepare(&l.program).expect("generated program compiles");
        let mut runs = Vec::with_capacity(LARGE_REPS);
        let mut ok = true;
        for _ in 0..=LARGE_REPS {
            let Some(mut vm) = l.lease_bound(&rt, &plan) else {
                ok = false;
                continue;
            };
            let (ran, took) = time(|| vm.run_verified(plan.program.as_verified()));
            runs.push(took);
            let read = vm.read(&plan.program, l.result);
            ok &= ran.is_ok() && read.is_ok_and(|v| fixture.accepts(&v));
        }
        tally.check(ok);
        // The first run faults the output pages in; it is not timed.
        values.insert(name, median_us(&runs[1..]) * 1e3 / case.elems as f64);
    }
}

/// Each paper program under the configured runtime and under the same
/// runtime at `O0`: what the optimiser's output is worth at run time.
fn paper_programs(seed: u64, values: &mut Values, tally: &mut Tally) {
    const NAMES: [&str; 7] = [
        "opt.speedup_vs_o0.addchain32",
        "opt.speedup_vs_o0.mulchain32",
        "opt.speedup_vs_o0.pow10",
        "opt.speedup_vs_o0.pow16",
        "opt.speedup_vs_o0.solve256",
        "opt.speedup_vs_o0.identity_chain",
        "opt.speedup_vs_o0.strength_chain",
    ];
    let cases = gen::paper(seed);
    let configured = stack::runtime(&Tuning::default());
    let unoptimised = stack::runtime(&Tuning {
        opt_level: Some(OptLevel::O0),
        ..Tuning::default()
    });
    let mut log_sum = 0.0;
    for (case, name) in cases.iter().zip(NAMES) {
        assert!(
            name.ends_with(&case.name),
            "probe table out of step with the generator"
        );
        let fixture = Fixture::new(case);
        let l = fixture.load();
        let mut median_of = |rt: &Runtime| {
            let mut runs = Vec::with_capacity(LARGE_REPS);
            let mut ok = true;
            for _ in 0..=LARGE_REPS {
                let (outcome, took) = time(|| rt.eval(&l.program, &l.bindings, l.result));
                runs.push(took);
                ok &= matches!(outcome, Ok((v, _)) if fixture.accepts(&v));
            }
            tally.check(ok);
            // The first eval compiles the plan; it is not timed.
            median_us(&runs[1..])
        };
        let (fast, slow) = (median_of(&configured), median_of(&unoptimised));
        values.insert(name, slow / fast);
        log_sum += (slow / fast).ln();
        if case.name == "solve256" {
            values.insert("linalg.solve256_ms", fast / 1e3);
            values.insert("linalg.inverse_matmul256_ms", slow / 1e3);
        }
    }
    values.insert("opt.speedup_vs_o0", (log_sum / cases.len() as f64).exp());
}
