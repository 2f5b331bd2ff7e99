//! Blocking framed connection shared by leader and follower.
//!
//! One CRC frame ([`terp_net::frame`]) carries one [`ReplMsg`]. Until the
//! handshake is done the peer is unvetted outside input, so reads run
//! under [`HANDSHAKE_TIMEOUT`]; [`Conn::handshake_done`] clears it, and from
//! then on [`Conn::recv`] blocks until a message arrives or the socket dies.
//! A stream thread is stopped by shutting its socket down (its owner keeps
//! a `try_clone` for that), never by a timeout. Dropping a [`Conn`] shuts
//! the socket down too, so such a clone cannot keep the connection open.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use terp_net::repl::ReplMsg;
use terp_net::{frame_into, FrameDecoder, ServiceError};

/// The longest a peer may take over its side of the handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) fn disconnected(e: impl std::fmt::Display) -> ServiceError {
    ServiceError::Disconnected(e.to_string())
}

pub(crate) struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Result<Self, ServiceError> {
        stream.set_nodelay(true).map_err(disconnected)?;
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(disconnected)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
        })
    }

    /// The peer has shaken hands: reads block from now on.
    pub(crate) fn handshake_done(&self) -> Result<(), ServiceError> {
        self.stream.set_read_timeout(None).map_err(disconnected)
    }

    /// A second handle on the same socket (reader/writer split).
    pub(crate) fn split(&self) -> Result<Conn, ServiceError> {
        Ok(Conn {
            stream: self.stream.try_clone().map_err(disconnected)?,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
        })
    }

    pub(crate) fn send(&mut self, msg: &ReplMsg) -> Result<(), ServiceError> {
        self.out.clear();
        frame_into(&mut self.out, |o| msg.encode_into(o))
            .map_err(|e| ServiceError::Protocol(e.to_string()))?;
        self.stream.write_all(&self.out).map_err(disconnected)
    }

    /// Receives one message. A handshake that outlives its timeout is a
    /// dead connection.
    pub(crate) fn recv(&mut self) -> Result<ReplMsg, ServiceError> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => return ReplMsg::decode(payload),
                Ok(None) => {}
                Err(e) => return Err(ServiceError::Protocol(e.to_string())),
            }
            let read = self.decoder.read_from(&mut self.stream);
            if read.map_err(disconnected)? == 0 {
                return Err(disconnected("peer closed the stream"));
            }
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}
