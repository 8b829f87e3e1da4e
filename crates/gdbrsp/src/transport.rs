//! Byte transports for the RSP session: TCP for real debuggers, an
//! in-memory duplex pipe for deterministic tests.
//!
//! The session itself is transport-free ([`crate::session`]); everything
//! here just moves bytes. [`serve`] is the generic pump loop:
//! read → [`Session::handle_bytes_into`] → write, until the peer hangs up
//! or the client detaches.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::{Error, Result};
use crate::packet::{encode_packet, Framer, Item};
use crate::session::Session;
use crate::target::Target;

/// A blocking byte pipe.
pub trait Transport {
    /// Reads at least one byte (blocking); `Ok(0)` means the peer closed.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on transport failure.
    fn read(&mut self, buf: &mut [u8]) -> Result<usize>;

    /// Writes every byte.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on transport failure.
    fn write_all(&mut self, bytes: &[u8]) -> Result<()>;
}

/// Pumps a session over a transport until the client detaches (`D`), kills
/// (`k`), or hangs up.
///
/// # Errors
///
/// [`Error::Io`] on transport failure; a clean hang-up is `Ok`.
pub fn serve<T: Target, P: Transport>(session: &mut Session<T>, transport: &mut P) -> Result<()> {
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    loop {
        let n = transport.read(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        out.clear();
        session.handle_bytes_into(&buf[..n], &mut out);
        if !out.is_empty() {
            transport.write_all(&out)?;
        }
        if session.finished() {
            return Ok(());
        }
    }
}

/// TCP transport (one GDB connection).
#[derive(Debug)]
pub(crate) struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream. `TCP_NODELAY` is enabled — RSP is a
    /// ping-pong protocol and Nagle ruins its latency.
    pub(crate) fn new(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        TcpTransport { stream }
    }
}

impl Transport for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        Ok(self.stream.read(buf)?)
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        Ok(self.stream.write_all(bytes)?)
    }
}

/// A TCP server that accepts GDB connections and serves each one to
/// completion, sequentially.
#[derive(Debug)]
pub struct GdbServer {
    listener: TcpListener,
}

impl GdbServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the bind fails.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        Ok(GdbServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address, e.g. to print `target remote <addr>`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the socket is gone.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts one connection and serves it until the debugger detaches.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on accept or transport failure.
    pub fn serve_one<T: Target>(&self, session: &mut Session<T>) -> Result<()> {
        let (stream, _) = self.listener.accept()?;
        let mut transport = TcpTransport::new(stream);
        serve(session, &mut transport)
    }
}

/// Shared half-duplex byte queue with close tracking.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// A thread panicked while holding the pipe's lock: the peer is gone.
fn poisoned<G>(_: std::sync::PoisonError<G>) -> Error {
    Error::Io("pipe poisoned by a panicked peer".into())
}

impl Pipe {
    fn write(&self, bytes: &[u8]) -> Result<()> {
        let mut st = self.state.lock().map_err(poisoned)?;
        if st.closed {
            return Err(Error::Io("pipe closed".into()));
        }
        st.buf.extend(bytes);
        self.readable.notify_all();
        Ok(())
    }

    fn read(&self, buf: &mut [u8]) -> Result<usize> {
        let mut st = self.state.lock().map_err(poisoned)?;
        while st.buf.is_empty() {
            if st.closed {
                return Ok(0);
            }
            st = self.readable.wait(st).map_err(poisoned)?;
        }
        let n = buf.len().min(st.buf.len());
        let (front, back) = st.buf.as_slices();
        let k = n.min(front.len());
        buf[..k].copy_from_slice(&front[..k]);
        buf[k..n].copy_from_slice(&back[..n - k]);
        st.buf.drain(..n);
        Ok(n)
    }

    /// Marks the pipe closed and wakes its reader. A poisoned lock is
    /// taken anyway: closing only sets a flag, valid in any state.
    fn close(&self) {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.closed = true;
        self.readable.notify_all();
    }
}

/// One end of an in-memory duplex byte pipe (the no-socket transport the
/// protocol tests run the full serve loop over).
#[derive(Debug)]
pub struct DuplexEnd {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl Transport for DuplexEnd {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.rx.read(buf)
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<()> {
        self.tx.write(bytes)
    }
}

impl Drop for DuplexEnd {
    fn drop(&mut self) {
        // Closing both directions wakes a peer blocked in read().
        self.tx.close();
        self.rx.close();
    }
}

/// An in-memory duplex pipe pair: what one end writes, the other reads.
pub fn duplex_pair() -> (DuplexEnd, DuplexEnd) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        DuplexEnd {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        DuplexEnd { rx: b, tx: a },
    )
}

/// A minimal RSP *client* — the test-side stand-in for GDB. Sends command
/// packets, consumes acks, returns decoded reply payloads.
#[derive(Debug)]
pub struct RspClient<P: Transport> {
    transport: P,
    framer: Framer,
    pending: VecDeque<Item>,
}

impl<P: Transport> RspClient<P> {
    /// Wraps a transport.
    pub fn new(transport: P) -> Self {
        RspClient {
            transport,
            framer: Framer::new(),
            pending: VecDeque::new(),
        }
    }

    /// Sends `cmd` as a packet and returns the reply payload as text.
    /// Acks from the server are consumed transparently.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the server hangs up before replying;
    /// [`Error::Frame`] on a corrupt reply.
    pub fn command(&mut self, cmd: &str) -> Result<String> {
        self.transport.write_all(&encode_packet(cmd.as_bytes()))?;
        loop {
            match self.next_item()? {
                Item::Packet(p) => {
                    // Ack the reply, best-effort: harmless in no-ack mode,
                    // and after a `D`/`k` reply the server may already
                    // have hung up.
                    let _ = self.transport.write_all(b"+");
                    return Ok(String::from_utf8_lossy(&p).into_owned());
                }
                Item::Ack | Item::Nak | Item::Interrupt => continue,
            }
        }
    }

    fn next_item(&mut self) -> Result<Item> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Ok(item);
            }
            let mut buf = [0u8; 4096];
            let n = self.transport.read(&mut buf)?;
            if n == 0 {
                return Err(Error::Io("server hung up".into()));
            }
            for item in self.framer.push_bytes(&buf[..n]) {
                self.pending.push_back(item?);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::DebugTarget;
    use mpsoc_platform::isa::assemble;
    use mpsoc_platform::platform::PlatformBuilder;
    use mpsoc_platform::Frequency;
    use mpsoc_vpdebug::Debugger;

    fn target() -> DebugTarget {
        let mut p = PlatformBuilder::new()
            .cores(1, Frequency::mhz(100))
            .shared_words(256)
            .cache(None)
            .build()
            .unwrap();
        let prog = assemble("movi r1, 7\nmovi r2, 0x30\nst r1, r2, 0\nhalt").unwrap();
        p.load_program(0, prog, 0).unwrap();
        DebugTarget::new(Debugger::new(p))
    }

    #[test]
    fn duplex_serve_loop_full_protocol() {
        let (server_end, client_end) = duplex_pair();
        let handle = std::thread::spawn(move || {
            let mut session = Session::new(target());
            let mut t = server_end;
            serve(&mut session, &mut t).expect("serve loop");
        });
        let mut client = RspClient::new(client_end);
        assert!(client.command("qSupported").unwrap().contains("PacketSize"));
        assert_eq!(client.command("QStartNoAckMode").unwrap(), "OK");
        assert_eq!(client.command("?").unwrap(), "S05");
        assert_eq!(client.command("c").unwrap(), "W00");
        // Memory observable after the run.
        let m = client.command("m30,1").unwrap();
        assert_eq!(m, crate::packet::to_hex(&7u64.to_le_bytes()));
        assert_eq!(client.command("D").unwrap(), "OK");
        handle.join().expect("server thread");
    }

    #[test]
    fn tcp_round_trip_when_loopback_available() {
        // Loopback sockets can be unavailable in sandboxes; skip (with a
        // note) rather than fail — the duplex test covers the protocol.
        let server = match GdbServer::bind(("127.0.0.1", 0)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("skipping TCP transport test: {e}");
                return;
            }
        };
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut session = Session::new(target());
            server.serve_one(&mut session).expect("tcp serve");
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut client = RspClient::new(TcpTransport::new(stream));
        assert_eq!(client.command("?").unwrap(), "S05");
        assert_eq!(client.command("c").unwrap(), "W00");
        drop(client); // hang up: the server returns on end of stream
        handle.join().expect("server thread");
    }
}
