//! Serving quickstart: a multi-tenant batching server over one
//! runtime.
//!
//! Three tenants fire concurrent requests; two of them submit the *same*
//! program structure, so their requests batch under one plan on one
//! pinned VM while the third tenant is still served fairly in between —
//! at twice the scheduling weight, with completions delivered through
//! the non-blocking ticket surface (`submit_many` + `on_done`).
//!
//! Run with: `cargo run --release --example serve_quickstart`

use bohrium_repro::ir::parse_program;
use bohrium_repro::runtime::Runtime;
use bohrium_repro::serve::{ProgramHandle, Request, Server};
use bohrium_repro::tensor::Tensor;
use std::sync::mpsc;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runtime = Runtime::builder().build_shared();
    let server = Arc::new(
        Server::builder(Arc::clone(&runtime))
            .workers(2)
            .queue_capacity(256)
            .max_batch(32)
            // tenant-2's niche endpoint gets twice the default share.
            .tenant_weight("tenant-2", 2)
            .build(),
    );

    // The popular endpoint: `y = x*x + 1` — two tenants hit it.
    let popular = ProgramHandle::new(parse_program(
        ".base x f64[6] input\n.base y f64[6]\n\
         BH_MULTIPLY y x x\nBH_ADD y y 1\nBH_SYNC y\n",
    )?);
    // A niche endpoint only the third tenant uses.
    let niche = ProgramHandle::new(parse_program(
        "BH_IDENTITY a [0:6:1] 2\nBH_ADD a a 2\nBH_ADD a a 2\nBH_SYNC a\n",
    )?);

    let x = popular.program().reg_by_name("x").unwrap();
    let y = popular.program().reg_by_name("y").unwrap();
    let a = niche.program().reg_by_name("a").unwrap();

    // One burst of every tenant's traffic, enqueued under a single lock
    // acquisition; no thread blocks per request — each ticket hands its
    // response to a callback, multiplexed over one channel.
    let requests = (0..12).map(|i| {
        let tenant = i % 3;
        if tenant < 2 {
            let input = Tensor::from_vec(vec![(tenant + i / 3) as f64; 6]);
            Request::with_handle(format!("tenant-{tenant}"), &popular)
                .bind(x, input)
                .read(y)
        } else {
            Request::with_handle("tenant-2", &niche).read(a)
        }
    });
    let (tx, rx) = mpsc::channel();
    let mut accepted = 0usize;
    for (i, outcome) in server.submit_many(requests).into_iter().enumerate() {
        let ticket = outcome.map_err(|rejected| rejected.reason)?;
        accepted += 1;
        let tx = tx.clone();
        ticket.on_done(move |result| {
            tx.send((i, result)).expect("receiver outlives the burst");
        });
    }

    for _ in 0..accepted {
        let (i, result) = rx.recv()?;
        let response = result?;
        let value = response.value.expect("read requested");
        println!(
            "tenant-{} req {i:>2}: {:?} (batch of {}, cache hit: {}, turnaround {:?})",
            i % 3,
            &value.to_f64_vec()[..2],
            response.batch_size,
            response.outcome.cache_hit,
            response.turnaround,
        );
    }

    server.shutdown();
    let report = server.report();
    println!("\n{report}");
    for (tenant, served) in report.serve.tenants.iter() {
        println!(
            "{tenant}: {served} requests ({:.0}%)",
            report.serve.tenants.share(tenant) * 100.0
        );
    }
    Ok(())
}
