//! The system under test in its one fixed deployment configuration, and
//! the closed-loop drivers that send it requests.
//!
//! Everything here goes through public entry points: `Runtime::builder`,
//! `Server::builder`, `NetServer::bind`, `NetClient`. Apart from the
//! engine and the auditor every knob stays at its default, so a later
//! change to a default is measured the way a user would feel it.

use crate::gen::{Case, Data};
use bh_ir::{Program, Reg};
use bh_net::{NetClient, NetEvent, NetServer, RemoteResponse};
use bh_observe::TraceSink;
use bh_opt::OptLevel;
use bh_runtime::{EvalPlan, Runtime};
use bh_serve::Server;
use bh_tensor::{Shape, Tensor};
use bh_vm::{Engine, PooledVm};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fused-block size of the configured engine.
pub const FUSE_BLOCK: usize = 4096;
/// Submissions each wire connection keeps in flight.
pub const PIPELINE_DEPTH: usize = 8;

/// The fixed configuration as recorded in every output.
pub const CONFIG: &str = "Runtime::builder().engine(Engine::Fusing { block: 4096 }).audit(true), \
     Server::builder(rt) and NetServer::bind at their defaults";

/// Wire clients (and in-process submitters): `min(nproc, 4)`.
pub fn client_count() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The deviations from the fixed configuration that probes may ask
/// for; `Tuning::default()` is the configuration itself.
#[derive(Clone, Default)]
pub struct Tuning {
    /// `Some(O0)` for the un-optimised baseline of `opt.speedup_vs_o0`.
    pub opt_level: Option<OptLevel>,
    /// Turn the per-digest profile table off (it is on by default).
    pub no_profiling: bool,
    /// Flight recorder installed on runtime and server (traced pass only).
    pub tracer: Option<Arc<dyn TraceSink>>,
}

pub fn runtime(tuning: &Tuning) -> Arc<Runtime> {
    let mut b = Runtime::builder()
        .engine(Engine::Fusing { block: FUSE_BLOCK })
        .audit(true);
    if let Some(level) = tuning.opt_level {
        b = b.opt_level(level);
    }
    if tuning.no_profiling {
        b = b.profiling(false);
    }
    if let Some(t) = &tuning.tracer {
        b = b.trace_sink(Arc::clone(t));
    }
    b.build_shared()
}

pub fn server(rt: Arc<Runtime>, tuning: &Tuning) -> Arc<Server> {
    let mut b = Server::builder(rt);
    if let Some(t) = &tuning.tracer {
        b = b.trace_sink(Arc::clone(t));
    }
    Arc::new(b.build())
}

/// A case's input data as tensors. Built once per process, outside
/// every timed region: filling arrays is the harness's cost, not the
/// system's.
pub struct Fixture<'c> {
    pub case: &'c Case,
    tensors: Vec<Tensor>,
}

impl<'c> Fixture<'c> {
    pub fn new(case: &'c Case) -> Fixture<'c> {
        let tensors = case
            .spec
            .regs
            .iter()
            .filter(|r| r.input)
            .zip(&case.inputs)
            .map(|(decl, data)| {
                let shape = Shape::from(decl.shape.clone());
                match data {
                    Data::F64(v) => Tensor::from_shape_vec(shape, v.clone()),
                    Data::I32(v) => Tensor::from_shape_vec(shape, v.clone()),
                }
                .expect("generated data matches its declaration")
            })
            .collect();
        Fixture { case, tensors }
    }

    /// Parse and verify the rendered byte-code and attach the inputs:
    /// what a front-end does before its first request. Every generated
    /// program must pass `bh_ir::verify` before anything is timed.
    pub fn load(&self) -> Loaded {
        let program = bh_ir::parse_program(&self.case.spec.render())
            .unwrap_or_else(|e| panic!("{}: generated byte-code must parse: {e}", self.case.name));
        if let Err(errors) = bh_ir::verify(&program) {
            panic!(
                "{}: generated byte-code must verify: {errors:?}",
                self.case.name
            );
        }
        let reg = |idx: usize| {
            program
                .reg_by_name(&self.case.spec.regs[idx].name)
                .expect("declared register")
        };
        let inputs = (0..self.case.spec.regs.len()).filter(|&i| self.case.spec.regs[i].input);
        let bindings = inputs
            .zip(&self.tensors)
            .map(|(i, t)| (reg(i), t.clone()))
            .collect();
        Loaded {
            result: reg(self.case.result),
            program,
            bindings,
        }
    }

    /// Does `value` match the oracle's expectation?
    pub fn accepts(&self, value: &Tensor) -> bool {
        match value.as_slice::<f64>() {
            Some(v) => self.case.expect.matches(v),
            None => self.case.expect.matches(&value.to_f64_vec()),
        }
    }

    /// [`Fixture::accepts`] for a RESULT frame's value.
    pub fn accepts_remote(&self, response: &RemoteResponse) -> bool {
        response
            .value
            .as_deref()
            .is_some_and(|v| self.case.expect.matches(v))
    }
}

/// A parsed, verified program with its bindings, ready to submit.
pub struct Loaded {
    pub program: Program,
    pub bindings: Vec<(Reg, Tensor)>,
    pub result: Reg,
}

impl Loaded {
    /// A VM leased from `rt` with this request's inputs bound, ready for
    /// `Vm::run_verified(plan)`; `None` if a binding was refused.
    pub fn lease_bound<'r>(&self, rt: &'r Runtime, plan: &EvalPlan) -> Option<PooledVm<'r>> {
        let mut vm = rt.lease_vm();
        self.bindings
            .iter()
            .all(|(reg, tensor)| vm.bind(&plan.program, *reg, tensor).is_ok())
            .then_some(vm)
    }
}

/// What one round of requests did. A failed request (error, rejection
/// or wrong output) has no latency sample.
#[derive(Debug, Default)]
pub struct Round {
    pub latencies: Vec<Duration>,
    pub failed: usize,
}

impl Round {
    pub fn absorb(&mut self, other: Round) {
        self.latencies.extend(other.latencies);
        self.failed += other.failed;
    }
}

/// What the server said about one completed wire request.
#[derive(Debug, Clone, Copy)]
pub struct Detail {
    /// Client-observed latency.
    pub latency: Duration,
    pub queue_wait: Duration,
    pub turnaround: Duration,
    pub batch_size: u32,
}

#[derive(Debug, Default)]
pub struct DetailedRound {
    pub round: Round,
    pub details: Vec<Detail>,
}

/// One in-process caller: `Runtime::eval` per request, next request
/// when the previous one returned.
pub fn eval_round(
    rt: &Runtime,
    fixtures: &[Fixture<'_>],
    loaded: &[Loaded],
    order: &[usize],
) -> Round {
    let mut round = Round::default();
    round.latencies.reserve(order.len());
    for &i in order {
        let l = &loaded[i];
        let begun = Instant::now();
        let outcome = rt.eval(&l.program, &l.bindings, l.result);
        let took = begun.elapsed();
        match outcome {
            Ok((value, _)) if fixtures[i].accepts(&value) => round.latencies.push(took),
            _ => round.failed += 1,
        }
    }
    round
}

/// The whole serving stack on loopback with its clients connected.
pub struct Wire {
    pub server: Arc<Server>,
    pub door: NetServer,
    pub clients: Vec<NetClient>,
}

impl Wire {
    pub fn start(tuning: &Tuning, clients: usize) -> Wire {
        let server = server(runtime(tuning), tuning);
        let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind loopback");
        let clients = (0..clients)
            .map(|j| connect(door.local_addr(), j))
            .collect();
        Wire {
            server,
            door,
            clients,
        }
    }

    /// One round: the order is dealt round-robin to the connections,
    /// each keeps [`PIPELINE_DEPTH`] submissions in flight and sends its
    /// next one when a slot frees.
    pub fn round(&mut self, fixtures: &[Fixture<'_>], loaded: &[Loaded], order: &[usize]) -> Round {
        self.round_with(fixtures, loaded, order, false).round
    }

    /// [`Wire::round`] that also keeps the server-side timings each
    /// RESULT frame carries.
    pub fn round_detailed(
        &mut self,
        fixtures: &[Fixture<'_>],
        loaded: &[Loaded],
        order: &[usize],
    ) -> DetailedRound {
        self.round_with(fixtures, loaded, order, true)
    }

    fn round_with(
        &mut self,
        fixtures: &[Fixture<'_>],
        loaded: &[Loaded],
        order: &[usize],
        detailed: bool,
    ) -> DetailedRound {
        let lanes = self.clients.len();
        let mut total = DetailedRound::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(lane, client)| {
                    scope.spawn(move || {
                        let mine: Vec<usize> =
                            order.iter().copied().skip(lane).step_by(lanes).collect();
                        pipelined(client, fixtures, loaded, &mine, detailed)
                    })
                })
                .collect();
            for h in handles {
                let lane = h.join().expect("client thread");
                total.round.absorb(lane.round);
                total.details.extend(lane.details);
            }
        });
        total
    }

    pub fn stop(self) {
        drop(self.clients);
        self.door.close();
        self.server.shutdown();
    }
}

fn connect(addr: SocketAddr, lane: usize) -> NetClient {
    let client = NetClient::connect(addr, &format!("tenant-{lane}")).expect("connect loopback");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("socket option");
    client
}

fn pipelined(
    client: &mut NetClient,
    fixtures: &[Fixture<'_>],
    loaded: &[Loaded],
    order: &[usize],
    detailed: bool,
) -> DetailedRound {
    let mut out = DetailedRound::default();
    let DetailedRound { round, details } = &mut out;
    round.latencies.reserve(order.len());
    let mut in_flight: Vec<(u64, usize, Instant)> = Vec::with_capacity(PIPELINE_DEPTH);
    let mut next = 0;
    while next < order.len() || !in_flight.is_empty() {
        while next < order.len() && in_flight.len() < PIPELINE_DEPTH {
            let i = order[next];
            next += 1;
            let begun = Instant::now();
            match client.submit(&loaded[i].program, Some(loaded[i].result), None) {
                Ok(id) => in_flight.push((id, i, begun)),
                Err(_) => round.failed += 1,
            }
        }
        if in_flight.is_empty() {
            continue;
        }
        let Ok(event) = client.read_event() else {
            // Transport failure: everything still in flight is lost.
            round.failed += in_flight.len() + (order.len() - next);
            return out;
        };
        let Some(slot) = in_flight
            .iter()
            .position(|(id, ..)| *id == event.request_id())
        else {
            round.failed += 1;
            continue;
        };
        let (_, i, begun) = in_flight.swap_remove(slot);
        match event {
            NetEvent::Result(r) if fixtures[i].accepts_remote(&r) => {
                let latency = begun.elapsed();
                round.latencies.push(latency);
                if detailed {
                    details.push(Detail {
                        latency,
                        queue_wait: r.queue_wait,
                        turnaround: r.turnaround,
                        batch_size: r.batch_size,
                    });
                }
            }
            _ => round.failed += 1,
        }
    }
    out
}
