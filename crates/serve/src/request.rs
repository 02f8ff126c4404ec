//! Requests, responses and the completion ticket.

use crate::error::ServeError;
use bh_ir::{Program, ProgramDigest, ProgramHandle, Reg};
use bh_runtime::EvalOutcome;
use bh_tensor::Tensor;
use parking_lot::Mutex;
use std::fmt;
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// One unit of work for the server: which tenant it belongs to, what to
/// run, what to bind, what to read back, and how long it may wait.
pub struct Request {
    pub(crate) tenant: String,
    pub(crate) handle: ProgramHandle,
    pub(crate) bindings: Vec<(Reg, Tensor)>,
    pub(crate) result: Option<Reg>,
    pub(crate) deadline: Option<Duration>,
}

impl Request {
    /// A request for `tenant` running `program` (digested here; prefer
    /// [`Request::with_handle`] on repeated traffic).
    pub fn new(tenant: impl Into<String>, program: Program) -> Request {
        Request::with_handle(tenant, &ProgramHandle::new(program))
    }

    /// A request reusing a [`ProgramHandle`]'s program and digest.
    pub fn with_handle(tenant: impl Into<String>, handle: &ProgramHandle) -> Request {
        Request {
            tenant: tenant.into(),
            handle: handle.clone(),
            bindings: Vec::new(),
            result: None,
            deadline: None,
        }
    }

    /// Bind an input tensor to a register (O(1): copy-on-write share).
    #[must_use]
    pub fn bind(mut self, reg: Reg, tensor: Tensor) -> Request {
        self.bindings.push((reg, tensor));
        self
    }

    /// Read this register back as [`Response::value`] after execution.
    #[must_use]
    pub fn read(mut self, reg: Reg) -> Request {
        self.result = Some(reg);
        self
    }

    /// Fail fast with [`ServeError::DeadlineExceeded`] if execution has
    /// not *started* within `deadline` of submission (overrides the
    /// server's default deadline).
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// The tenant this request is scheduled under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The digest this request batches under.
    pub fn digest(&self) -> &ProgramDigest {
        self.handle.digest()
    }
}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request")
            .field("tenant", &self.tenant)
            .field("digest", &self.handle.digest().to_string())
            .field("bindings", &self.bindings.len())
            .field("result", &self.result)
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// What a completed request resolves to.
#[derive(Debug, Clone)]
pub struct Response {
    /// The tensor read back, when the request asked for one.
    pub value: Option<Tensor>,
    /// Plan, per-run counters and cache-hit flag from the runtime.
    pub outcome: EvalOutcome,
    /// How many requests shared this request's batch (including it).
    pub batch_size: usize,
    /// Time spent queued before its batch started executing.
    pub queue_wait: Duration,
    /// Total time from submission to completion.
    pub turnaround: Duration,
}

/// Callback registered with [`Ticket::on_done`], invoked with the
/// request's resolution.
type DoneCallback = Box<dyn FnOnce(Result<Response, ServeError>) + Send>;

/// Lifecycle of a completion slot: the worker moves `Pending → Ready`
/// exactly once; redeeming the result (`wait`, `try_wait`,
/// `wait_timeout`) or delivering it to an [`Ticket::on_done`] callback
/// moves `Ready → Taken`.
enum SlotState {
    Pending,
    Ready(Result<Response, ServeError>),
    Taken,
}

struct SlotInner {
    state: SlotState,
    callback: Option<DoneCallback>,
}

/// One-shot completion slot shared between a [`Ticket`] and the worker
/// that resolves it. Every submitted request resolves exactly once.
pub(crate) struct Slot {
    inner: Mutex<SlotInner>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Arc<Slot> {
        Arc::new(Slot {
            inner: Mutex::new(SlotInner {
                state: SlotState::Pending,
                callback: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Resolve the request. Panics if it was already resolved — the
    /// scheduler owns each queued request exclusively, so a double
    /// completion is a scheduler bug, not a recoverable condition.
    pub(crate) fn complete(&self, result: Result<Response, ServeError>) {
        let callback = {
            let mut inner = self.inner.lock();
            assert!(
                matches!(inner.state, SlotState::Pending),
                "request completed twice"
            );
            match inner.callback.take() {
                // A callback consumes the result directly; nothing is
                // stored and no waiter can exist (registering the
                // callback consumed the ticket).
                Some(cb) => {
                    inner.state = SlotState::Taken;
                    Some(cb)
                }
                None => {
                    inner.state = SlotState::Ready(result);
                    self.cv.notify_all();
                    return;
                }
            }
        };
        // Invoked outside the slot lock: the callback is free to submit
        // follow-up requests or inspect other tickets.
        if let Some(cb) = callback {
            cb(result);
        }
    }

    /// Take the result if it is ready. Panics if it was already taken.
    fn take_ready(inner: &mut SlotInner) -> Option<Result<Response, ServeError>> {
        match std::mem::replace(&mut inner.state, SlotState::Taken) {
            SlotState::Ready(result) => Some(result),
            SlotState::Pending => {
                inner.state = SlotState::Pending;
                None
            }
            SlotState::Taken => panic!("ticket result already taken"),
        }
    }
}

/// Handle returned by a successful submission; redeem it with
/// [`Ticket::wait`] (blocking), poll it with [`Ticket::try_wait`] /
/// [`Ticket::wait_timeout`] (non-blocking multiplexing), or hand it a
/// completion callback with [`Ticket::on_done`].
///
/// A ticket may be dropped without being redeemed; the request still
/// executes and any registered callback still fires.
///
/// # Examples
///
/// Polling thousands of in-flight requests without one thread each:
///
/// ```
/// use bh_ir::parse_program;
/// use bh_runtime::Runtime;
/// use bh_serve::{ProgramHandle, Request, Server};
///
/// let server = Server::builder(Runtime::builder().build_shared())
///     .workers(0) // drive explicitly below
///     .build();
/// let handle = ProgramHandle::new(parse_program(
///     "BH_IDENTITY a [0:8:1] 0\nBH_ADD a a 2\nBH_SYNC a\n",
/// )?);
/// let reg = handle.program().reg_by_name("a").unwrap();
///
/// let mut tickets: Vec<_> = (0..4)
///     .map(|_| server.submit(Request::with_handle("t", &handle).read(reg)))
///     .collect::<Result<_, _>>()?;
/// // Nothing has run yet: polling is non-blocking and returns None.
/// assert!(tickets.iter_mut().all(|t| t.try_wait().is_none()));
///
/// while server.service_once() {}
/// for mut t in tickets {
///     let response = t.try_wait().expect("serviced")?;
///     assert_eq!(response.value.unwrap().to_f64_vec(), vec![2.0; 8]);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Ticket {
    pub(crate) slot: Arc<Slot>,
}

impl Ticket {
    /// Block until the request resolves (completion, deadline expiry or
    /// evaluation failure).
    ///
    /// # Errors
    ///
    /// The [`ServeError`] the scheduler resolved the request with.
    ///
    /// # Panics
    ///
    /// If the result was already taken by an earlier
    /// [`Ticket::try_wait`] / [`Ticket::wait_timeout`] that returned
    /// `Some`.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut inner = self.slot.inner.lock();
        loop {
            if let Some(result) = Slot::take_ready(&mut inner) {
                return result;
            }
            // The vendored parking_lot guard *is* a std guard, so the std
            // condvar pairs with it; recover rather than propagate poison.
            inner = self.slot.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking poll: `None` while the request is still queued or
    /// executing, `Some(result)` once it has resolved. The result is
    /// *taken* — it is yielded exactly once, after which the ticket is
    /// spent.
    ///
    /// # Panics
    ///
    /// If the result was already taken by an earlier call that returned
    /// `Some`.
    pub fn try_wait(&mut self) -> Option<Result<Response, ServeError>> {
        Slot::take_ready(&mut self.slot.inner.lock())
    }

    /// Block for at most `timeout`: `None` on timeout (the ticket stays
    /// redeemable), `Some(result)` once the request resolves within it.
    ///
    /// # Panics
    ///
    /// If the result was already taken by an earlier [`Ticket::try_wait`]
    /// / `wait_timeout` call that returned `Some`.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<Response, ServeError>> {
        // A timeout too large to represent as a deadline (e.g.
        // `Duration::MAX` as "effectively forever") degrades to an
        // untimed wait instead of overflowing.
        let deadline = std::time::Instant::now().checked_add(timeout);
        let mut inner = self.slot.inner.lock();
        loop {
            if let Some(result) = Slot::take_ready(&mut inner) {
                return Some(result);
            }
            inner = match deadline {
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                    if remaining.is_zero() {
                        return None;
                    }
                    self.slot
                        .cv
                        .wait_timeout(inner, remaining)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => self.slot.cv.wait(inner).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }

    /// Consume the ticket and deliver the result to `callback` instead:
    /// fire-and-forget completion without a blocked thread per request.
    ///
    /// If the request has already resolved, the callback runs immediately
    /// on the calling thread; otherwise it runs on the worker thread that
    /// resolves the request (or the thread driving
    /// [`crate::Server::service_once`] / `shutdown`). Callbacks should be
    /// short — they run on the serving hot path — and must not call
    /// `Server::shutdown` (which joins that same worker). Submitting
    /// follow-up requests from a callback is fine.
    ///
    /// # Panics
    ///
    /// If the result was already taken by an earlier [`Ticket::try_wait`]
    /// / [`Ticket::wait_timeout`] that returned `Some`.
    pub fn on_done(self, callback: impl FnOnce(Result<Response, ServeError>) + Send + 'static) {
        let result = {
            let mut inner = self.slot.inner.lock();
            match Slot::take_ready(&mut inner) {
                Some(result) => result,
                None => {
                    inner.callback = Some(Box::new(callback));
                    return;
                }
            }
        };
        // Already resolved: deliver on this thread, outside the lock.
        callback(result);
    }

    /// True once the request has resolved ([`Ticket::wait`] won't block).
    pub fn is_done(&self) -> bool {
        !matches!(self.slot.inner.lock().state, SlotState::Pending)
    }
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ticket(done: {})", self.is_done())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_ir::parse_program;

    #[test]
    fn handle_precomputes_the_digest() {
        let p = parse_program("BH_IDENTITY a [0:4:1] 1\nBH_SYNC a\n").unwrap();
        let h = ProgramHandle::new(p.clone());
        assert_eq!(h.digest(), &p.structural_digest());
        let r = Request::with_handle("acme", &h);
        assert_eq!(r.digest(), h.digest());
        assert_eq!(r.tenant(), "acme");
    }

    #[test]
    fn ticket_resolves_once() {
        let slot = Slot::new();
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        assert!(!ticket.is_done());
        slot.complete(Err(ServeError::Shutdown));
        assert!(ticket.is_done());
        assert!(matches!(ticket.wait(), Err(ServeError::Shutdown)));
    }

    #[test]
    fn wait_blocks_until_completed_from_another_thread() {
        let slot = Slot::new();
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        let t = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(10));
        slot.complete(Err(ServeError::Shutdown));
        assert!(matches!(t.join().unwrap(), Err(ServeError::Shutdown)));
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_is_a_bug() {
        let slot = Slot::new();
        slot.complete(Err(ServeError::Shutdown));
        slot.complete(Err(ServeError::Shutdown));
    }
}
