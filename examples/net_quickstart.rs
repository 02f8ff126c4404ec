//! Wire protocol quickstart: a runtime served over TCP.
//!
//! ```text
//! cargo run --release --example net_quickstart
//! ```
//!
//! A `NetServer` front door over a batching `Server`, a `NetClient`
//! speaking length-prefixed container frames, a second pass that is all
//! plan-cache hits, and a hostile submission answered by a typed error
//! frame instead of a panic.

use bh_net::{NetClient, NetEvent, NetServer};
use bh_runtime::Runtime;
use bh_serve::Server;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let programs: Vec<bh_ir::Program> = (0..4)
        .map(|i| {
            let n = 64 + i;
            let mut text = format!("BH_IDENTITY a [0:{n}:1] 0\n");
            for _ in 0..48 {
                text.push_str("BH_ADD a a 1\n");
            }
            text.push_str("BH_SYNC a\n");
            bh_ir::parse_program(&text).expect("quickstart program parses")
        })
        .collect();

    let rt = Runtime::builder().build_shared();
    let server = Arc::new(Server::builder(Arc::clone(&rt)).workers(1).build());
    let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server))?;
    println!("front door on {}", door.local_addr());

    let mut client = NetClient::connect(door.local_addr(), "tenant-a")?;
    for pass in ["first", "second"] {
        for p in &programs {
            let a = p.reg_by_name("a").unwrap();
            match client.call(p, Some(a), None)? {
                NetEvent::Result(r) => assert_eq!(r.value.unwrap()[0], 48.0),
                NetEvent::Rejected(r) => panic!("rejected: {} ({})", r.code, r.detail),
            }
        }
        let stats = rt.stats();
        println!(
            "{pass} pass: {} requests over TCP so far, {} optimiser runs, {} cache hits",
            stats.evals, stats.cache_misses, stats.cache_hits
        );
    }
    assert_eq!(rt.stats().cache_misses, programs.len() as u64);
    assert_eq!(rt.stats().cache_hits, programs.len() as u64);

    // Hostile bytes become a typed error frame, never a panic.
    let id = client.submit_container(b"BHPC but not really".to_vec(), None, None)?;
    match client.read_event()? {
        NetEvent::Rejected(r) => {
            assert_eq!(r.request_id, id);
            println!(
                "hostile container rejected with code {:?} ({})",
                r.code, r.detail
            );
        }
        NetEvent::Result(_) => unreachable!("garbage must not evaluate"),
    }

    door.close();
    server.shutdown();
    Ok(())
}
