//! Client/transport-side errors and the stable protocol error codes.

use std::fmt;

/// Stable machine codes carried in protocol error frames
/// ([`crate::Frame::Error`]).
///
/// Scheduler outcomes pass through [`bh_serve::ServeError::code`]
/// unchanged (`"queue_full"`, `"malformed"`, `"deadline_exceeded"`,
/// `"shutdown"`, `"eval_failed"`); the constants here are the codes the
/// front door itself originates. All of them are wire surface and never
/// change once shipped.
pub mod codes {
    /// The first frame on a connection was not `HELLO` (fatal: the
    /// connection is closed after the error frame).
    pub const EXPECTED_HELLO: &str = "expected_hello";
    /// The client's `HELLO` carried a protocol version this server does
    /// not speak (fatal).
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// A frame was structurally invalid or of an unexpected type
    /// (fatal — framing is unrecoverable once desynchronised).
    pub const BAD_FRAME: &str = "bad_frame";
    /// A submission's container failed to decode (per-request: the
    /// connection stays up; the detail carries the
    /// [`bh_container::ContainerError::code`]).
    pub const BAD_CONTAINER: &str = "bad_container";
    /// A submission's read-back register does not exist in the decoded
    /// program (per-request).
    pub const BAD_REGISTER: &str = "bad_register";
    /// The decoded program failed byte-code verification at admission:
    /// the code [`bh_serve::ServeError::Malformed`] maps to.
    pub const MALFORMED: &str = "malformed";
}

/// Transport and framing failures on a connection.
///
/// Rejections the *server* sends (backpressure, deadlines, malformed
/// programs) are not errors at this layer — they arrive as
/// [`crate::NetEvent::Rejected`] events carrying their stable code.
/// `#[non_exhaustive]`: transports grow failure modes; keep a wildcard
/// arm and dispatch on [`NetError::code`].
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer closed the connection at a frame boundary.
    Disconnected,
    /// A length prefix exceeded [`crate::MAX_FRAME_LEN`] (reading) or a
    /// frame body would (writing).
    FrameTooLarge {
        /// The offending length.
        len: u64,
    },
    /// A frame body was structurally invalid.
    BadFrame {
        /// What was wrong with it.
        detail: String,
    },
    /// The handshake failed: the peer answered `HELLO` with an error
    /// frame (or something other than `HELLO_ACK`).
    Handshake {
        /// The stable code from the peer's error frame.
        code: String,
        /// Human-readable context from the peer.
        detail: String,
    },
}

impl NetError {
    /// The stable machine code for this failure class: `"io"`,
    /// `"disconnected"`, `"frame_too_large"`, `"bad_frame"` or
    /// `"handshake_refused"`.
    pub fn code(&self) -> &'static str {
        match self {
            NetError::Io(_) => "io",
            NetError::Disconnected => "disconnected",
            NetError::FrameTooLarge { .. } => "frame_too_large",
            NetError::BadFrame { .. } => "bad_frame",
            NetError::Handshake { .. } => "handshake_refused",
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {} cap",
                    crate::MAX_FRAME_LEN
                )
            }
            NetError::BadFrame { detail } => write!(f, "invalid frame: {detail}"),
            NetError::Handshake { code, detail } => {
                write!(f, "handshake refused ({code}): {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let samples = [
            NetError::Io(std::io::Error::other("boom")),
            NetError::Disconnected,
            NetError::FrameTooLarge { len: 1 << 40 },
            NetError::BadFrame { detail: "x".into() },
            NetError::Handshake {
                code: "unsupported_version".into(),
                detail: "v9".into(),
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for e in &samples {
            assert!(seen.insert(e.code()), "duplicate {}", e.code());
            assert!(!e.to_string().is_empty());
        }
        use std::error::Error;
        assert!(samples[0].source().is_some());
        assert!(samples[1].source().is_none());
    }
}
