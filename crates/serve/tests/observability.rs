//! Serve-layer observability tests: queue-wait lands in the runtime's
//! per-digest profile, the trace sink sees tenant-tagged queue/batch
//! spans, and `Server::metrics` exports all three layers (scheduler,
//! runtime, profile) through one `MetricSet`.
//!
//! Like the scheduler tests, everything runs with `.workers(0)` and
//! `service_once`, so span ordering and profile counts are deterministic.

use bh_ir::parse_program;
use bh_observe::{RingTraceSink, Stage, TracePhase};
use bh_runtime::Runtime;
use bh_serve::{ProgramHandle, Request, Server};
use std::sync::Arc;

/// `k` constant-adds over an `n`-vector.
fn chain(n: usize, k: usize) -> ProgramHandle {
    let mut text = format!("BH_IDENTITY a [0:{n}:1] 0\n");
    for _ in 0..k {
        text.push_str("BH_ADD a a 1\n");
    }
    text.push_str("BH_SYNC a\n");
    ProgramHandle::new(parse_program(&text).unwrap())
}

#[test]
fn queue_wait_is_charged_to_the_digest_profile() {
    let runtime = Runtime::builder().build_shared();
    let server = Server::builder(Arc::clone(&runtime)).workers(0).build();
    let h = chain(16, 2);
    let reg = h.program().reg_by_name("a").unwrap();

    let tickets: Vec<_> = (0..3)
        .map(|_| {
            server
                .submit(Request::with_handle("t", &h).read(reg))
                .unwrap()
        })
        .collect();
    while server.service_once() {}
    for t in tickets {
        t.wait().unwrap();
    }

    let top = runtime.profile(1);
    assert_eq!(top.len(), 1);
    let profile = &top[0];
    assert_eq!(profile.hits, 3);
    // Every request in the batch charged its wait to the digest — the
    // first-ever batch included (queue wait is recorded after `prepare`,
    // when the profile entry is guaranteed to exist).
    assert_eq!(profile.stages.get(Stage::QueueWait).count(), 3);
    assert_eq!(profile.stages.get(Stage::Execute).count(), 3);
}

#[test]
fn trace_sink_sees_tenant_tagged_queue_and_batch_spans() {
    let sink = RingTraceSink::shared(64);
    let runtime = Runtime::builder().build_shared();
    let server = Server::builder(Arc::clone(&runtime))
        .workers(0)
        .trace_sink(sink.clone())
        .build();
    let h = chain(8, 1);
    let reg = h.program().reg_by_name("a").unwrap();

    let ta = server
        .submit(Request::with_handle("acme", &h).read(reg))
        .unwrap();
    let tb = server
        .submit(Request::with_handle("beta", &h).read(reg))
        .unwrap();
    while server.service_once() {}
    ta.wait().unwrap();
    tb.wait().unwrap();

    let events = sink.events();
    let spans = |stage: &str, phase: TracePhase| {
        events
            .iter()
            .filter(|e| e.stage == stage && e.phase == phase)
            .count()
    };
    // One queue span per request, opened at enqueue and closed when the
    // batch pulled it; one batch span for the single micro-batch.
    assert_eq!(spans("queue", TracePhase::Begin), 2);
    assert_eq!(spans("queue", TracePhase::End), 2);
    assert_eq!(spans("batch", TracePhase::Begin), 1);
    assert_eq!(spans("batch", TracePhase::End), 1);
    // Queue events carry the submitting tenant.
    let tenants: Vec<_> = events
        .iter()
        .filter(|e| e.stage == "queue" && e.phase == TracePhase::Begin)
        .map(|e| e.tenant.as_deref().unwrap().to_owned())
        .collect();
    assert_eq!(tenants, vec!["acme", "beta"]);
    // Queue spans and the batch span reference the same digest
    // fingerprint (both requests share one program).
    let fps: Vec<u64> = events.iter().map(|e| e.fingerprint).collect();
    assert!(fps.windows(2).all(|w| w[0] == w[1]), "{fps:?}");
    let dump = sink.dump();
    assert!(dump.contains("tenant=acme"), "{dump}");
    assert!(dump.contains("B queue"), "{dump}");
}

#[test]
fn server_metrics_exports_scheduler_runtime_and_profile_layers() {
    let runtime = Runtime::builder().build_shared();
    let server = Server::builder(Arc::clone(&runtime)).workers(0).build();
    let h = chain(8, 3);
    let reg = h.program().reg_by_name("a").unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|_| {
            server
                .submit(Request::with_handle("t", &h).read(reg))
                .unwrap()
        })
        .collect();
    while server.service_once() {}
    for t in tickets {
        t.wait().unwrap();
    }

    let text = server.metrics().to_prometheus();
    for family in [
        "bh_serve_completed_total 4",
        "bh_runtime_evals_total 4",
        "bh_vm_instructions_total",
        "bh_profile_digest_hits_total",
        "bh_profile_stage_nanos_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    let json = server.metrics().to_json();
    assert!(json.contains("\"bh_serve_completed_total\""), "{json}");
    assert!(json.contains("\"bh_profile_digest_hits_total\""), "{json}");
}

#[test]
fn profiling_disabled_runtime_still_serves_and_exports() {
    let runtime = Runtime::builder().profiling(false).build_shared();
    let server = Server::builder(Arc::clone(&runtime)).workers(0).build();
    let h = chain(8, 1);
    let reg = h.program().reg_by_name("a").unwrap();
    let t = server
        .submit(Request::with_handle("t", &h).read(reg))
        .unwrap();
    while server.service_once() {}
    t.wait().unwrap();

    assert!(runtime.profile(8).is_empty());
    let text = server.metrics().to_prometheus();
    assert!(text.contains("bh_serve_completed_total 1"), "{text}");
    assert!(!text.contains("bh_profile_digest_hits_total"), "{text}");
}
