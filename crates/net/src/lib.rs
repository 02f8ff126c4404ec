//! # bh-net — the TCP front door over the batching scheduler
//!
//! `bh-serve` turns a shared runtime into an in-process traffic-serving
//! system; this crate puts it on the wire. A [`NetServer`] listens on a
//! TCP socket and speaks a small length-prefixed frame protocol
//! (DESIGN.md §16): clients `HELLO` once to bind the connection to a
//! tenant, then pipeline `SUBMIT` frames whose payload is an encoded
//! [`bh_container::Container`]; every submission is answered by exactly
//! one `RESULT` or `ERROR` frame, correlated by a client-chosen request
//! id.
//!
//! The design carries the stack's two core disciplines across the
//! socket:
//!
//! * **The trust boundary holds.** Wire bytes are untrusted: containers
//!   decode fail-closed, a decoded program passes `bh_ir::verify` at
//!   `bh-serve` admission before it is queued (only its total structural
//!   digest is taken first), and any plan section a client ships is
//!   ignored — the server compiles and proves its own plans. Hostile
//!   input becomes a typed error frame, never a panic.
//! * **Backpressure and deadlines stay typed.** Scheduler outcomes map
//!   to stable machine codes ([`bh_serve::ServeError::code`] passes
//!   through verbatim; the front door's own codes live in [`codes`]),
//!   so clients dispatch on codes, never on message text.
//!
//! No thread blocks per in-flight request: the server resolves
//! submissions through [`bh_serve::Ticket::on_done`], writing response
//! frames from whichever thread completes the batch.
//!
//! # Example
//!
//! ```
//! use bh_net::{NetClient, NetEvent, NetServer};
//! use bh_runtime::Runtime;
//! use bh_serve::Server;
//! use std::sync::Arc;
//!
//! let server = Arc::new(Server::builder(Runtime::builder().build_shared()).build());
//! let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server))?;
//!
//! let program = bh_ir::parse_program("BH_IDENTITY a [0:8:1] 0\nBH_ADD a a 3\nBH_SYNC a\n")?;
//! let reg = program.reg_by_name("a").unwrap();
//!
//! let mut client = NetClient::connect(door.local_addr(), "tenant-a")?;
//! match client.call(&program, Some(reg), None)? {
//!     NetEvent::Result(r) => assert_eq!(r.value.unwrap(), vec![3.0; 8]),
//!     NetEvent::Rejected(r) => panic!("rejected: {}", r.code),
//! }
//!
//! door.close();
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod error;
mod frame;
mod server;

pub use client::{NetClient, NetEvent, RemoteReject, RemoteResponse};
pub use error::{codes, NetError};
pub use frame::{Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{NetServer, NetStats};
