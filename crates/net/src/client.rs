//! A blocking protocol client: the counterpart the integration tests and
//! the `ledger` benchmark drive the front door with.

use crate::error::NetError;
use crate::frame::{Frame, PROTOCOL_VERSION};
use bh_container::Container;
use bh_ir::{Program, Reg};
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A completed remote evaluation (one `RESULT` frame).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResponse {
    /// The id of the submission this resolves.
    pub request_id: u64,
    /// How many requests shared the server-side micro-batch.
    pub batch_size: u32,
    /// Time the request spent queued on the server.
    pub queue_wait: Duration,
    /// Server-side submission-to-completion time.
    pub turnaround: Duration,
    /// The read-back value, when the submission asked for one.
    pub value: Option<Vec<f64>>,
}

/// A rejected or failed remote evaluation (one `ERROR` frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteReject {
    /// The id of the submission this resolves (0 for connection-level
    /// errors not tied to one submission).
    pub request_id: u64,
    /// The stable machine code (see [`crate::codes`] and
    /// [`bh_serve::ServeError::code`]).
    pub code: String,
    /// Human-readable context from the server.
    pub detail: String,
}

/// One server frame answering a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// The submission completed.
    Result(RemoteResponse),
    /// The submission was rejected or failed.
    Rejected(RemoteReject),
}

impl NetEvent {
    /// The request id this event resolves.
    pub fn request_id(&self) -> u64 {
        match self {
            NetEvent::Result(r) => r.request_id,
            NetEvent::Rejected(r) => r.request_id,
        }
    }
}

/// A blocking client over one connection: submissions are pipelined
/// (submit as many as you like, then read the events back); each
/// submission is answered by exactly one event.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl NetClient {
    /// Connect to `addr`, bind this connection to `tenant` and complete
    /// the handshake.
    ///
    /// # Errors
    ///
    /// [`NetError::Handshake`] when the server refuses the handshake
    /// (e.g. version skew), or a transport-level [`NetError`].
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<NetClient, NetError> {
        let writer = TcpStream::connect(addr)?;
        let _ = writer.set_nodelay(true);
        let mut reader = BufReader::new(writer.try_clone()?);
        Frame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_owned(),
        }
        .write_to(&mut (&writer))?;
        match Frame::read_from(&mut reader)? {
            Frame::HelloAck { .. } => Ok(NetClient {
                reader,
                writer,
                next_id: 1,
            }),
            Frame::Error { code, detail, .. } => Err(NetError::Handshake { code, detail }),
            other => Err(NetError::BadFrame {
                detail: format!("expected HELLO_ACK, got {other:?}"),
            }),
        }
    }

    /// Bound how long [`NetClient::read_event`] may block (`None` waits
    /// indefinitely).
    ///
    /// # Errors
    ///
    /// The socket's failure, if the option cannot be set.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Submit a program, returning the request id to match its event
    /// by. The program is shipped as a [`Container`]; `read` asks for a
    /// register's value back; `deadline` fails the request fast if it
    /// has not started executing in time.
    ///
    /// # Errors
    ///
    /// Transport failures only — rejections arrive as
    /// [`NetEvent::Rejected`].
    pub fn submit(
        &mut self,
        program: &Program,
        read: Option<Reg>,
        deadline: Option<Duration>,
    ) -> Result<u64, NetError> {
        let container = Container::program(program.clone()).encode();
        self.submit_container(container, read.map(|r| r.0), deadline)
    }

    /// Submit pre-encoded container bytes (the escape hatch abuse tests
    /// use to send hostile payloads).
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn submit_container(
        &mut self,
        container: Vec<u8>,
        read: Option<u32>,
        deadline: Option<Duration>,
    ) -> Result<u64, NetError> {
        let request_id = self.next_id;
        self.next_id += 1;
        Frame::Submit {
            request_id,
            read,
            deadline_ms: deadline.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            container,
        }
        .write_to(&mut (&self.writer))?;
        Ok(request_id)
    }

    /// Block for the next event from the server.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the server closes the
    /// connection, or a transport/framing failure.
    pub fn read_event(&mut self) -> Result<NetEvent, NetError> {
        match Frame::read_from(&mut self.reader)? {
            Frame::Result {
                request_id,
                batch_size,
                queue_wait_nanos,
                turnaround_nanos,
                value,
            } => Ok(NetEvent::Result(RemoteResponse {
                request_id,
                batch_size,
                queue_wait: Duration::from_nanos(queue_wait_nanos),
                turnaround: Duration::from_nanos(turnaround_nanos),
                value,
            })),
            Frame::Error {
                request_id,
                code,
                detail,
            } => Ok(NetEvent::Rejected(RemoteReject {
                request_id,
                code,
                detail,
            })),
            other => Err(NetError::BadFrame {
                detail: format!("unexpected frame from server: {other:?}"),
            }),
        }
    }

    /// Closed-loop convenience: submit and block until *this*
    /// submission's event arrives (events for earlier pipelined
    /// submissions are read and dropped — use [`NetClient::submit`] +
    /// [`NetClient::read_event`] to multiplex).
    ///
    /// # Errors
    ///
    /// Transport failures; rejections are an `Ok(NetEvent::Rejected)`.
    pub fn call(
        &mut self,
        program: &Program,
        read: Option<Reg>,
        deadline: Option<Duration>,
    ) -> Result<NetEvent, NetError> {
        let id = self.submit(program, read, deadline)?;
        loop {
            let event = self.read_event()?;
            if event.request_id() == id {
                return Ok(event);
            }
        }
    }
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("peer", &self.writer.peer_addr().ok())
            .field("next_id", &self.next_id)
            .finish()
    }
}
