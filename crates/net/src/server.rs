//! The TCP front door: accepts connections, decodes container frames,
//! and drives the [`bh_serve::Server`] through its non-blocking ticket
//! surface.

use crate::error::{codes, NetError};
use crate::frame::{Frame, PROTOCOL_VERSION};
use bh_container::Container;
use bh_ir::Reg;
use bh_serve::{Request, Server};
use parking_lot::Mutex;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Counters the front door keeps about itself (the scheduler's own
/// numbers live in [`bh_serve::ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted since bind.
    pub connections: u64,
    /// Frames read from clients (handshakes and submissions).
    pub frames_received: u64,
    /// `RESULT` frames sent.
    pub results_sent: u64,
    /// `ERROR` frames sent (protocol errors and scheduler rejections).
    pub errors_sent: u64,
}

struct Shared {
    serve: Arc<Server>,
    addr: SocketAddr,
    closing: AtomicBool,
    /// Stream clones of live connections, shut down to unblock their
    /// reader threads when the front door closes.
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    connections: AtomicU64,
    frames_received: AtomicU64,
    results_sent: AtomicU64,
    errors_sent: AtomicU64,
}

/// A connection's serialised write half. Completion callbacks run on
/// scheduler worker threads while the reader thread sends its own error
/// frames, so every frame goes out under this one lock — frames are
/// never interleaved mid-write.
struct ConnWriter {
    shared: Arc<Shared>,
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Best-effort send: a client that hung up stops caring about its
    /// responses, so write failures are swallowed (the reader thread
    /// notices the closed socket and winds the connection down).
    fn send(&self, frame: &Frame) {
        let mut stream = self.stream.lock();
        if frame.write_to(&mut *stream).is_ok() {
            match frame {
                Frame::Error { .. } => {
                    self.shared.errors_sent.fetch_add(1, Ordering::Relaxed);
                }
                Frame::Result { .. } => {
                    self.shared.results_sent.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
    }

    fn send_error(&self, request_id: u64, code: &str, detail: String) {
        self.send(&Frame::Error {
            request_id,
            code: code.to_owned(),
            detail,
        });
    }
}

/// A TCP listener serving the wire protocol over a [`bh_serve::Server`].
///
/// One reader thread per connection decodes frames; submissions are
/// verified, enqueued, and resolved through [`bh_serve::Ticket::on_done`]
/// — no thread blocks per in-flight request, and each `SUBMIT` is
/// answered by exactly one `RESULT` or `ERROR` frame (the scheduler's
/// exactly-once slot semantics carry through to the wire).
///
/// The front door owns only the transport: dropping (or
/// [`NetServer::close`]-ing) it stops accepting and tears down
/// connections, but the [`bh_serve::Server`] and its queued work belong
/// to the caller.
pub struct NetServer {
    shared: Arc<Shared>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections for `serve`.
    ///
    /// # Errors
    ///
    /// The bind failure, if the address is unavailable.
    pub fn bind(addr: impl ToSocketAddrs, serve: Arc<Server>) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            serve,
            addr,
            closing: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
            connections: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            results_sent: AtomicU64::new(0),
            errors_sent: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("bh-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(NetServer {
            shared,
            accept_thread: Mutex::new(Some(accept)),
        })
    }

    /// The address the front door is listening on (with the ephemeral
    /// port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The scheduler this front door feeds.
    pub fn serve(&self) -> &Arc<Server> {
        &self.shared.serve
    }

    /// Transport counters (see [`NetStats`]).
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            frames_received: self.shared.frames_received.load(Ordering::Relaxed),
            results_sent: self.shared.results_sent.load(Ordering::Relaxed),
            errors_sent: self.shared.errors_sent.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, tear down every connection and join the
    /// transport threads. Idempotent; also runs on drop. The underlying
    /// [`bh_serve::Server`] is left running — shut it down separately
    /// once its queued work should drain.
    pub fn close(&self) {
        if self.shared.closing.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; the loop
        // re-checks the flag per iteration.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        for conn in self.shared.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let threads: Vec<_> = self.shared.conn_threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.shared.addr)
            .field("closing", &self.shared.closing.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.closing.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if shared.closing.load(Ordering::Acquire) {
            return;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().push(clone);
        }
        let conn_shared = Arc::clone(shared);
        // A spawn failure drops the stream: the client sees EOF.
        if let Ok(handle) = std::thread::Builder::new()
            .name("bh-net-conn".into())
            .spawn(move || connection(&conn_shared, stream))
        {
            shared.conn_threads.lock().push(handle);
        }
    }
}

/// One connection's lifecycle: handshake, then submissions until the
/// client disconnects or a framing error makes the byte stream
/// unrecoverable.
fn connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer = Arc::new(ConnWriter {
        shared: Arc::clone(shared),
        stream: Mutex::new(stream),
    });

    // Handshake: the first frame must be HELLO at our protocol version.
    // Refusals are answered with a connection-level error frame (id 0)
    // so the client learns *why* before the close.
    let tenant = match Frame::read_from(&mut reader) {
        Ok(Frame::Hello { version, tenant }) if version == PROTOCOL_VERSION => {
            shared.frames_received.fetch_add(1, Ordering::Relaxed);
            tenant
        }
        Ok(Frame::Hello { version, .. }) => {
            writer.send_error(
                0,
                codes::UNSUPPORTED_VERSION,
                format!("server speaks version {PROTOCOL_VERSION}, client sent {version}"),
            );
            return;
        }
        Ok(_) => {
            writer.send_error(
                0,
                codes::EXPECTED_HELLO,
                "first frame on a connection must be HELLO".into(),
            );
            return;
        }
        Err(e) => {
            if let NetError::BadFrame { detail } = &e {
                writer.send_error(0, codes::BAD_FRAME, detail.clone());
            }
            return;
        }
    };
    writer.send(&Frame::HelloAck {
        version: PROTOCOL_VERSION,
    });

    loop {
        match Frame::read_from(&mut reader) {
            Ok(Frame::Submit {
                request_id,
                read,
                deadline_ms,
                container,
            }) => {
                shared.frames_received.fetch_add(1, Ordering::Relaxed);
                submit(
                    shared,
                    &writer,
                    &tenant,
                    request_id,
                    read,
                    deadline_ms,
                    &container,
                );
            }
            Ok(_) => {
                shared.frames_received.fetch_add(1, Ordering::Relaxed);
                writer.send_error(
                    0,
                    codes::BAD_FRAME,
                    "only SUBMIT frames are valid after the handshake".into(),
                );
                return;
            }
            Err(NetError::BadFrame { detail }) => {
                writer.send_error(0, codes::BAD_FRAME, detail);
                return;
            }
            Err(NetError::FrameTooLarge { len }) => {
                writer.send_error(
                    0,
                    codes::BAD_FRAME,
                    format!("frame of {len} bytes over cap"),
                );
                return;
            }
            Err(_) => return, // disconnect or transport failure
        }
    }
}

/// Decode and enqueue one submission; arrange for exactly one response
/// frame.
fn submit(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    tenant: &str,
    request_id: u64,
    read: Option<u32>,
    deadline_ms: Option<u64>,
    container: &[u8],
) {
    // Syntactic trust boundary: hostile bytes become a structured error
    // frame, never a panic (the container decoder is fail-closed).
    let decoded = match Container::decode(container) {
        Ok(c) => c,
        Err(e) => {
            writer.send_error(request_id, codes::BAD_CONTAINER, e.to_string());
            return;
        }
    };
    // Semantic trust boundary: digesting is total on any decoded program,
    // and `Server::submit` verifies it (or finds a plan for its digest
    // resident in the runtime's cache) before it is queued, so an
    // unverifiable program is answered `malformed` from there, exactly
    // once.
    let program = decoded.program;
    if let Some(reg) = read {
        if reg as usize >= program.bases().len() {
            writer.send_error(
                request_id,
                codes::BAD_REGISTER,
                format!(
                    "read register {reg} out of range ({} bases)",
                    program.bases().len()
                ),
            );
            return;
        }
    }
    let mut request = Request::new(tenant, program);
    if let Some(reg) = read {
        request = request.read(Reg(reg));
    }
    if let Some(ms) = deadline_ms {
        request = request.deadline(Duration::from_millis(ms));
    }
    match shared.serve.submit(request) {
        Err(rejected) => {
            writer.send_error(
                request_id,
                rejected.reason.code(),
                rejected.reason.to_string(),
            );
        }
        Ok(ticket) => {
            // The slot resolves exactly once, so exactly one frame
            // answers this request id; the callback runs on whichever
            // thread resolves the request and holds no locks but the
            // writer's.
            let writer = Arc::clone(writer);
            ticket.on_done(move |result| match result {
                Ok(response) => {
                    let as_nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                    writer.send(&Frame::Result {
                        request_id,
                        batch_size: response.batch_size as u32,
                        queue_wait_nanos: as_nanos(response.queue_wait),
                        turnaround_nanos: as_nanos(response.turnaround),
                        value: response.value.map(|t| t.to_f64_vec()),
                    });
                }
                Err(e) => {
                    writer.send_error(request_id, e.code(), e.to_string());
                }
            });
        }
    }
}
