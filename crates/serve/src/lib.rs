//! # bh-serve — multi-tenant batching scheduler for concurrent eval traffic
//!
//! The paper's premise is that algebraically transformed byte-code is
//! cheap to *re-execute* once rewritten; the runtime's transformation
//! cache realises that per process. This crate realises it per *request
//! stream*: a [`Server`] sits on top of a shared
//! [`bh_runtime::Runtime`] and turns the stack into a traffic-serving
//! system. The scheduling invariants are specified in DESIGN.md §8
//! (queueing, batching, exactly-once resolution) and §9 (weighted
//! fairness).
//!
//! * **Bounded submission queue with backpressure** — overload is
//!   rejected at submit time ([`ServeError::QueueFull`]), never buffered
//!   without limit.
//! * **Digest-keyed micro-batching** — concurrent requests whose
//!   programs share a [`bh_ir::ProgramDigest`] are grouped and executed
//!   back-to-back on one pinned VM, so the plan lookup (or the whole
//!   optimiser run, on a cache miss) amortises across the batch. The VM
//!   is recycled after every request, and the next run reuses its
//!   storage, zero-filled wherever that run could observe what it held
//!   (DESIGN.md §7). The transformed
//!   program is a shared, reusable artifact; the batcher is what makes N
//!   concurrent callers actually share it.
//! * **Weighted tenant scheduling** — batch leaders are picked by
//!   smooth weighted round-robin over tenant lanes
//!   ([`ServerBuilder::tenant_weight`]); a flooding tenant cannot starve
//!   the rest, weights split service proportionally under backlog, and
//!   [`ServeStats::tenants`] audits the realised shares.
//! * **Non-blocking front door** — a [`Ticket`] can be blocked on
//!   ([`Ticket::wait`]), polled ([`Ticket::try_wait`],
//!   [`Ticket::wait_timeout`]) or handed a completion callback
//!   ([`Ticket::on_done`]), so one thread can multiplex thousands of
//!   in-flight requests; [`Server::submit_many`] enqueues pre-batched
//!   bursts under one lock acquisition.
//! * **Deadlines** — requests whose deadline passes while queued fail
//!   fast instead of occupying a worker.
//! * **[`ServeStats`]** — throughput counters, queue depth, batch-size
//!   distribution, latency percentiles and tenant quotas, composing
//!   with [`bh_runtime::RuntimeStats`] into one [`ServeReport`].
//!
//! # Example
//!
//! ```
//! use bh_ir::parse_program;
//! use bh_runtime::Runtime;
//! use bh_serve::{ProgramHandle, Request, Server};
//!
//! let server = Server::builder(Runtime::builder().build_shared())
//!     .workers(2)
//!     .max_batch(64)                // most same-digest requests per batch
//!     .tenant_weight("tenant-0", 2) // twice tenant-1's share under backlog
//!     .build();
//!
//! // One handle per logical program: the batching digest is computed once.
//! let handle = ProgramHandle::new(parse_program(
//!     "BH_IDENTITY a [0:32:1] 0\nBH_ADD a a 1\nBH_ADD a a 1\nBH_SYNC a\n",
//! )?);
//! let reg = handle.program().reg_by_name("a").unwrap();
//!
//! // Concurrent same-program submissions share one plan and one VM.
//! let tickets = server.submit_many(
//!     (0..8).map(|i| Request::with_handle(format!("tenant-{}", i % 2), &handle).read(reg)),
//! );
//! for t in tickets {
//!     let ticket = t.map_err(|r| r.reason)?;
//!     assert_eq!(ticket.wait()?.value.unwrap().to_f64_vec(), vec![2.0; 32]);
//! }
//! server.shutdown();
//! // After shutdown the counters are exact (drained, workers joined).
//! let stats = server.stats();
//! assert_eq!(stats.completed, 8);
//! assert!(stats.mean_batch_size() >= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod request;
mod server;
mod stats;

pub use bh_ir::ProgramHandle;
pub use error::ServeError;
pub use request::{Request, Response, Ticket};
pub use server::{Rejected, Server, ServerBuilder};
pub use stats::{BatchSizeDist, LatencyHistogram, ServeReport, ServeStats, TenantQuotas};
