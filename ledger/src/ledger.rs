//! The traced run (`--trace 1`) of one workload: tracing's own cost,
//! then a single-client sample replayed through every nested entry
//! point with a span around each call, giving the ledger row (self time
//! per layer) and the workload's own per-layer counts and timings.

use crate::measure::{run_rounds, Tally};
use crate::stack::{self, Fixture, Loaded, Tuning};
use crate::stats::{self, micros};
use crate::trace::{ledger_row, Layer, LedgerRow, Recorder, SpanId};
use crate::workload::{Entry, Live, Target, Workload};
use bh_net::NetEvent;
use bh_observe::{RingTraceSink, Stage};
use bh_opt::Optimizer;
use bh_runtime::{Runtime, RuntimeStats};
use bh_serve::{Request, Server};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Events the flight recorder keeps during the traced pass.
const RING_EVENTS: usize = 4096;

pub type Values = BTreeMap<&'static str, f64>;

pub struct Traced {
    pub values: Values,
    pub row: LedgerRow,
    pub recorder: Recorder,
    pub tally: Tally,
    /// Loaded rounds measured without and with the flight recorder.
    pub rounds_untraced: usize,
    pub rounds_traced: usize,
}

/// The runtimes behind the nested entry points. Each sees the same
/// request sequence through *one* entry point only, so each stays in
/// the workload's cache regime: `compile_churn` misses in all of them.
struct Nested {
    /// `Server::submit_wait` (wire workloads only).
    serve: Option<Arc<Server>>,
    /// `Runtime::eval`.
    eval: Arc<Runtime>,
    /// `Runtime::prepare` + `Runtime::eval_prepared` + `Vm::run_verified`.
    prepared: Arc<Runtime>,
}

pub fn run(workload: &Workload, fixtures: &[Fixture<'_>], seed: u64, seconds: f64) -> Traced {
    let mut tally = Tally::default();
    let order = workload.round_order(seed);
    let warm_order = workload.warm_up_order(seed);

    // Tracing's own cost: the same loaded rounds without and with a
    // flight recorder on runtime and server.
    let (mut plain, warm) = workload.set_up(fixtures, &Tuning::default(), seed);
    tally.count(warm_order.len(), &warm);
    let untraced = run_rounds(&mut plain, &order, seconds / 3.0, &mut tally);
    plain.tear_down();

    let tuning = Tuning {
        tracer: Some(RingTraceSink::shared(RING_EVENTS)),
        ..Tuning::default()
    };
    let (mut live, warm) = workload.set_up(fixtures, &tuning, seed);
    tally.count(warm_order.len(), &warm);
    let traced = run_rounds(&mut live, &order, seconds / 3.0, &mut tally);

    let mut values = Values::new();
    let (recorder, row) =
        traced_sample(workload, &mut live, &tuning, seed, &mut values, &mut tally);
    live.tear_down();
    per_program(fixtures, &mut values);

    let (untraced_best, traced_best) = (untraced.summary(), traced.summary());
    values.insert(
        "observe.trace_overhead_share",
        1.0 - traced_best.req_per_s / untraced_best.req_per_s,
    );
    let tops = stats::sorted(
        recorder
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.nanos() as f64 / 1e3)
            .collect(),
    );
    let loaded_p50 = stats::percentile(&untraced_best.latencies_us, 0.5);
    values.insert(
        "ledger.queueing_share",
        1.0 - stats::percentile(&tops, 0.5) / loaded_p50,
    );
    Traced {
        row,
        values,
        recorder,
        tally,
        rounds_untraced: untraced.wall.len(),
        rounds_traced: traced.wall.len(),
    }
}

/// Replay the workload's traced sample on a warm `live` stack and book
/// the ledger row and the sample's counts into `values`.
fn traced_sample(
    workload: &Workload,
    live: &mut Live<'_>,
    tuning: &Tuning,
    seed: u64,
    values: &mut Values,
    tally: &mut Tally,
) -> (Recorder, LedgerRow) {
    // The nested entry points get stacks of their own, warmed the same way.
    let warm_order = workload.warm_up_order(seed);
    let nested = Nested::warm(workload, live, tuning, &warm_order, tally);
    let sample: Vec<usize> = workload
        .round_order(seed)
        .into_iter()
        .cycle()
        .take(workload.trace_sample)
        .collect();
    let mut recorder = Recorder::new();
    let (eval_before, eval_after) = replay(
        &mut recorder,
        &sample,
        warm_order.len(),
        live,
        &nested,
        tally,
    );
    let row = ledger_row(&recorder.spans);
    assert!(row.balances(), "ledger row must sum to its top span");

    values.insert("ledger.top_us", row.top_us());
    for (layer, name) in [
        (Layer::Net, "ledger.self_us.net"),
        (Layer::Serve, "ledger.self_us.serve"),
        (Layer::Runtime, "ledger.self_us.runtime"),
        (Layer::Opt, "ledger.self_us.opt"),
        (Layer::Ir, "ledger.self_us.ir"),
        (Layer::Vm, "ledger.self_us.vm"),
    ] {
        values.insert(name, row.self_us(layer));
    }

    // Counts over the sample, from the runtime that saw one plain
    // `Runtime::eval` per request.
    let evals = (eval_after.evals - eval_before.evals).max(1) as f64;
    let exec = eval_after.exec.since(&eval_before.exec);
    values.insert("vm.kernels_per_eval", exec.kernels as f64 / evals);
    values.insert("vm.fused_groups_per_eval", exec.fused_groups as f64 / evals);
    values.insert("vm.bytes_moved_per_eval", exec.bytes_total() as f64 / evals);
    values.insert("vm.par_shards_per_eval", exec.par_shards as f64 / evals);
    let hits = eval_after.cache_hits - eval_before.cache_hits;
    let misses = eval_after.cache_misses - eval_before.cache_misses;
    values.insert(
        "runtime.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.insert(
        "runtime.verifications_per_miss",
        eval_after.verifications as f64 / eval_after.cache_misses.max(1) as f64,
    );
    values.insert(
        "opt.audit_rollbacks",
        (eval_after.audits.rolled_back - eval_before.audits.rolled_back) as f64,
    );
    stage_means(&nested.eval, values);
    nested.stop();
    (recorder, row)
}

impl Nested {
    fn warm(
        workload: &Workload,
        live: &Live<'_>,
        tuning: &Tuning,
        warm_order: &[usize],
        tally: &mut Tally,
    ) -> Nested {
        let (fixtures, loaded) = (live.fixtures, &live.loaded);
        let (serve, eval) = match workload.entry {
            Entry::Wire => {
                let serve = stack::server(stack::runtime(tuning), tuning);
                for &i in warm_order {
                    tally.check(submit_wait(&serve, &loaded[i], &fixtures[i]));
                }
                let eval = stack::runtime(tuning);
                let round = stack::eval_round(&eval, fixtures, loaded, warm_order);
                tally.count(warm_order.len(), &round);
                (Some(serve), eval)
            }
            // The traced live runtime *is* the plain-eval entry point.
            Entry::Eval => (None, Arc::clone(live.runtime())),
        };
        let prepared = stack::runtime(tuning);
        for &i in warm_order {
            let l = &loaded[i];
            let value = prepared.prepare(&l.program).and_then(|(plan, hit)| {
                let mut vm = prepared.lease_vm();
                prepared.eval_prepared(&plan, &mut vm, &l.bindings, Some(l.result), hit)
            });
            tally.check(matches!(value, Ok((Some(v), _)) if fixtures[i].accepts(&v)));
        }
        Nested {
            serve,
            eval,
            prepared,
        }
    }

    fn stop(self) {
        if let Some(serve) = self.serve {
            serve.shutdown();
        }
    }
}

fn submit_wait(serve: &Server, l: &Loaded, fixture: &Fixture<'_>) -> bool {
    let request = Request::new("tenant-0", l.program.clone()).read(l.result);
    matches!(serve.submit_wait(request), Ok(r) if r.value.as_ref().is_some_and(|v| fixture.accepts(v)))
}

/// The sample through every nested entry point, one span per call.
///
/// The sample is cut into blocks of one warm-up's length (at least one
/// full rotation of the workload's programs), and each block is swept
/// once per entry point, outermost first. Not one request through all
/// entry points back to back: a re-execution right after its parent
/// finds the parent's buffers already mapped and its inputs in cache,
/// and the difference is booked to the parent as self time — in a sweep
/// every call follows a *different* program, as it does under load. And
/// not one sweep of the whole sample per entry point either: the host's
/// speed changes every few seconds, and sweeps seconds apart differ by
/// more than the layers they are meant to separate. Spans of one
/// request share its index and are linked by parent id across sweeps.
///
/// Returns the plain-eval runtime's counters before and after; only the
/// `runtime.eval` sweeps touch that runtime.
fn replay(
    rec: &mut Recorder,
    sample: &[usize],
    block_len: usize,
    live: &mut Live<'_>,
    nested: &Nested,
    tally: &mut Tally,
) -> (RuntimeStats, RuntimeStats) {
    let (fixtures, loaded) = (live.fixtures, &live.loaded);
    let rt = &nested.prepared;
    let options = rt.options().clone();
    let equiv = options.equiv_options();
    let eval_before = nested.eval.stats();

    for (block_index, block) in sample.chunks(block_len).enumerate() {
        // (request index in the sample, case index) of this block.
        let requests = || {
            block
                .iter()
                .enumerate()
                .map(move |(k, &i)| (block_index * block_len + k, i))
        };
        let mut parents: Vec<Option<SpanId>> = vec![None; block.len()];

        if let Target::Wire(wire) = &mut live.target {
            let client = &mut wire.clients[0];
            for ((request, i), parent) in requests().zip(&mut parents) {
                let l = &loaded[i];
                let (event, id) = rec.span("net.call", Layer::Net, None, request, || {
                    client.call(&l.program, Some(l.result), None)
                });
                tally.check(
                    matches!(event, Ok(NetEvent::Result(r)) if fixtures[i].accepts_remote(&r)),
                );
                *parent = Some(id);
            }
        }
        if let Some(serve) = &nested.serve {
            for ((request, i), parent) in requests().zip(&mut parents) {
                let (answered, id) =
                    rec.span("serve.submit_wait", Layer::Serve, *parent, request, || {
                        submit_wait(serve, &loaded[i], &fixtures[i])
                    });
                tally.check(answered);
                *parent = Some(id);
            }
        }
        for ((request, i), parent) in requests().zip(&mut parents) {
            let l = &loaded[i];
            let (outcome, id) = rec.span("runtime.eval", Layer::Runtime, *parent, request, || {
                nested.eval.eval(&l.program, &l.bindings, l.result)
            });
            tally.check(matches!(outcome, Ok((v, _)) if fixtures[i].accepts(&v)));
            *parent = Some(id);
        }

        // Each request's `runtime.eval_prepared` span and the plan it ran.
        let mut prepared = Vec::with_capacity(block.len());
        for ((request, i), parent) in requests().zip(&parents) {
            let l = &loaded[i];
            let (outcome, prepare_id) =
                rec.span("runtime.prepare", Layer::Runtime, *parent, request, || {
                    rt.prepare(&l.program)
                });
            let Ok((plan, hit)) = outcome else {
                tally.check(false);
                prepared.push(None);
                continue;
            };
            rec.span("ir.digest", Layer::Ir, Some(prepare_id), request, || {
                std::hint::black_box(l.program.structural_digest());
            });
            if !hit {
                // What the miss did inside `prepare`, re-executed from outside.
                let options = options.clone();
                let mut optimised = l.program.clone();
                rec.span("opt.run", Layer::Opt, Some(prepare_id), request, || {
                    std::hint::black_box(Optimizer::new(options).run(&mut optimised));
                });
                let (proved, _) =
                    rec.span("ir.audit", Layer::Ir, Some(prepare_id), request, || {
                        bh_ir::check_equiv(&l.program, &optimised, &equiv).is_ok()
                    });
                let (verified, _) =
                    rec.span("ir.verify", Layer::Ir, Some(prepare_id), request, || {
                        bh_ir::verify(&optimised).is_ok()
                    });
                tally.check(proved && verified);
            }
            let mut vm = rt.lease_vm();
            let (value, id) = rec.span(
                "runtime.eval_prepared",
                Layer::Runtime,
                *parent,
                request,
                || rt.eval_prepared(&plan, &mut vm, &l.bindings, Some(l.result), hit),
            );
            tally.check(matches!(value, Ok((Some(v), _)) if fixtures[i].accepts(&v)));
            prepared.push(Some((id, plan)));
        }

        for ((request, i), ran_before) in requests().zip(prepared) {
            let Some((parent, plan)) = ran_before else {
                continue;
            };
            let l = &loaded[i];
            let Some(mut vm) = l.lease_bound(rt, &plan) else {
                tally.check(false);
                continue;
            };
            let (ran, _) = rec.span("vm.run_verified", Layer::Vm, Some(parent), request, || {
                vm.run_verified(plan.program.as_verified())
            });
            let read = vm.read(&plan.program, l.result);
            tally.check(ran.is_ok() && read.is_ok_and(|v| fixtures[i].accepts(&v)));
        }
    }
    (eval_before, nested.eval.stats())
}

/// Mean Bind / Execute / ReadBack time per eval from the runtime's own
/// per-digest profile table.
fn stage_means(rt: &Runtime, values: &mut Values) {
    let profiles = rt.profile(usize::MAX);
    for (stage, name) in [
        (Stage::Bind, "runtime.stage_bind_us"),
        (Stage::Execute, "runtime.stage_execute_us"),
        (Stage::ReadBack, "runtime.stage_readback_us"),
    ] {
        let (nanos, count) = profiles.iter().fold((0u128, 0u64), |(n, c), p| {
            let h = p.stages.get(stage);
            (n + h.total_nanos(), c + h.count())
        });
        values.insert(name, nanos as f64 / 1e3 / count.max(1) as f64);
    }
}

/// Compile-side cost and counts of each distinct program of the
/// population, outside any cache: what a miss pays, measured on every
/// workload (on the cache-hot ones nothing pays it in steady state).
fn per_program(fixtures: &[Fixture<'_>], values: &mut Values) {
    // Enough repetitions for ~500 timings whatever the population size.
    let reps = 512usize.div_ceil(fixtures.len());
    let rt = stack::runtime(&Tuning::default());
    let options = rt.options().clone();
    let equiv = options.equiv_options();
    let mut t = BTreeMap::<&'static str, Vec<f64>>::new();
    let mut timed = |name: &'static str, begun: Instant| {
        t.entry(name).or_default().push(micros(begun.elapsed()))
    };
    let (mut instrs_in, mut instrs_out, mut fired, mut sweeps) = (0usize, 0usize, 0usize, 0usize);
    for fixture in fixtures {
        let l = fixture.load();
        for rep in 0..reps {
            let begun = Instant::now();
            std::hint::black_box(l.program.structural_digest());
            timed("ir.digest_us", begun);

            let mut optimised = l.program.clone();
            let begun = Instant::now();
            let report = Optimizer::new(options.clone()).run(&mut optimised);
            timed("opt.run_us", begun);

            let begun = Instant::now();
            let proved = bh_ir::check_equiv(&l.program, &optimised, &equiv).is_ok();
            timed("ir.audit_us", begun);

            let begun = Instant::now();
            let verified = bh_ir::verify(&optimised).is_ok();
            timed("ir.verify_us", begun);
            std::hint::black_box((proved, verified));

            rt.clear_cache();
            let begun = Instant::now();
            let missed = rt.prepare(&l.program);
            timed("runtime.prepare_miss_us", begun);
            let begun = Instant::now();
            let hit = rt.prepare(&l.program);
            timed("runtime.prepare_hit_us", begun);
            assert!(
                matches!((missed, hit), (Ok((_, false)), Ok((_, true)))),
                "{}: prepare must miss after clear_cache and hit right after",
                fixture.case.name
            );

            if rep == 0 {
                instrs_in += l.program.instrs().len();
                instrs_out += optimised.instrs().len();
                fired += report.total_applications();
                sweeps += report.iterations;
            }
        }
    }
    for (name, samples) in t {
        values.insert(name, stats::mean(&samples));
    }
    let programs = fixtures.len() as f64;
    values.insert("ir.instrs_in", instrs_in as f64 / programs);
    values.insert("ir.instrs_out", instrs_out as f64 / programs);
    values.insert("opt.rules_fired_per_prog", fired as f64 / programs);
    values.insert("opt.sweeps_per_prog", sweeps as f64 / programs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Source, PER_LAYER};
    use crate::workload::TINY;

    /// Everything a traced run takes from the workload's own requests,
    /// on a population small enough for a debug build.
    fn workload_values(workload: &Workload, seed: u64) -> (Values, Recorder, Tally) {
        let cases = workload.population(seed);
        let fixtures: Vec<Fixture<'_>> = cases.iter().map(Fixture::new).collect();
        let tuning = Tuning {
            tracer: Some(RingTraceSink::shared(RING_EVENTS)),
            ..Tuning::default()
        };
        let mut tally = Tally::default();
        let mut values = Values::new();
        let (mut live, warm) = workload.set_up(&fixtures, &tuning, seed);
        tally.count(workload.warm_up_order(seed).len(), &warm);
        let (recorder, row) =
            traced_sample(workload, &mut live, &tuning, seed, &mut values, &mut tally);
        live.tear_down();
        assert!(row.balances());
        per_program(&fixtures, &mut values);
        (values, recorder, tally)
    }

    #[test]
    fn exact_metrics_repeat_exactly_and_every_row_balances() {
        for workload in &TINY {
            let (first, _, tally) = workload_values(workload, 11);
            let (second, ..) = workload_values(workload, 11);
            assert_eq!(
                tally.failed, 0,
                "{}: every output matches the oracle",
                workload.name
            );
            assert!(tally.attempted > workload.trace_sample);
            let exact = PER_LAYER.iter().filter(|m| {
                m.exact && m.source == Source::Workload && m.name != "ledger.failed_share"
            });
            for m in exact {
                assert!(first.contains_key(m.name), "{} not measured", m.name);
                assert_eq!(
                    first[m.name], second[m.name],
                    "{} on {}",
                    m.name, workload.name
                );
            }
            assert_eq!(first["runtime.hit_rate"], 1.0);
            assert_eq!(first["runtime.verifications_per_miss"], 1.0);
            assert_eq!(first["ir.instrs_in"], 26.0);
        }
    }

    #[test]
    fn spans_follow_the_entry_points_outermost_first() {
        let (values, recorder, _) = workload_values(&TINY[0], 5);
        let chain: Vec<&str> = {
            let mut names = Vec::new();
            // The innermost span of request 0 and its ancestors.
            let mut at = recorder
                .spans
                .iter()
                .position(|s| s.name == "vm.run_verified" && s.request == 0);
            while let Some(id) = at {
                names.push(recorder.spans[id].name);
                at = recorder.spans[id].parent;
            }
            names
        };
        assert_eq!(
            chain,
            [
                "vm.run_verified",
                "runtime.eval_prepared",
                "runtime.eval",
                "serve.submit_wait",
                "net.call"
            ]
        );
        // On a cache-hot workload nothing is booked to the optimiser.
        assert_eq!(values["ledger.self_us.opt"], 0.0);
        assert!(values["ledger.self_us.net"] != 0.0);
    }
}
