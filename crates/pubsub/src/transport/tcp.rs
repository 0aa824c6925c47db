//! TCP transport: real sockets on localhost, bridged to [`FrameDuplex`]
//! channels by reader/writer threads. This mirrors TCPROS: the subscriber
//! connects to the publisher, sends a handshake frame, receives the
//! publisher's handshake frame, then both sides exchange length-prefixed
//! message frames over the same socket (data forward, acknowledgements in
//! reverse).

use super::FrameDuplex;
use crate::wire::{read_frame, write_frame, Handshake};
use crate::PubSubError;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

/// Socket-level deadlines for one bridged stream. `None` fields block
/// forever (the default, matching stock TCPROS).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketTimeouts {
    /// Applied to the reader thread's socket: a link silent for this long
    /// is treated as dead and the duplex disconnects.
    pub read: Option<Duration>,
    /// Applied to the writer thread's socket: a send stalled for this long
    /// (peer not draining, send buffer full) disconnects the duplex.
    pub write: Option<Duration>,
}

impl SocketTimeouts {
    /// No deadlines (block forever).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Wraps an established, handshake-complete stream into a [`FrameDuplex`]
/// by spawning a reader and a writer thread.
pub fn bridge_stream(stream: TcpStream) -> Result<FrameDuplex, PubSubError> {
    bridge_stream_tuned(stream, None, SocketTimeouts::none())
}

/// Full-control variant: an outgoing bound of `out_cap` frames (ROS
/// `queue_size`; a full queue drops frames at the sender) plus socket
/// read/write deadlines.
///
/// A timeout firing is indistinguishable from a dead peer by design — the
/// reader (or writer) thread exits and the duplex reports disconnection,
/// which the owning node converts into teardown + evidence flushing rather
/// than an indefinitely wedged thread.
///
/// # Errors
///
/// Propagates socket errors (including failures to apply the timeouts).
pub fn bridge_stream_tuned(
    stream: TcpStream,
    out_cap: Option<usize>,
    timeouts: SocketTimeouts,
) -> Result<FrameDuplex, PubSubError> {
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let write_half = stream;
    read_half.set_read_timeout(timeouts.read)?;
    write_half.set_write_timeout(timeouts.write)?;

    let (in_tx, in_rx) = crossbeam::channel::unbounded::<Vec<u8>>();
    let (out_tx, out_rx) = match out_cap {
        Some(cap) => crossbeam::channel::bounded::<Vec<u8>>(cap.max(1)),
        None => crossbeam::channel::unbounded::<Vec<u8>>(),
    };

    thread::Builder::new()
        .name("tcp-frame-reader".into())
        .spawn(move || {
            let mut r = std::io::BufReader::new(read_half);
            while let Ok(Some(frame)) = read_frame(&mut r) {
                if in_tx.send(frame).is_err() {
                    break;
                }
            }
            // EOF, error, or read timeout: dropping in_tx closes the
            // receiving side.
        })
        .map_err(|e| PubSubError::Io(format!("spawn tcp reader: {e}")))?;

    thread::Builder::new()
        .name("tcp-frame-writer".into())
        .spawn(move || {
            let mut w = BufWriter::new(write_half);
            while let Ok(frame) = out_rx.recv() {
                if write_frame(&mut w, &frame).is_err() {
                    break;
                }
                // Flush per frame: latency matters more than syscall count
                // for the protocol's request/ack pattern.
                if std::io::Write::flush(&mut w).is_err() {
                    break;
                }
            }
            if let Ok(s) = w.into_inner() {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
        })
        .map_err(|e| PubSubError::Io(format!("spawn tcp writer: {e}")))?;

    Ok(FrameDuplex {
        tx: out_tx,
        rx: in_rx,
        drop_on_full: out_cap.is_some(),
    })
}

/// Binds a listener for a TCP publisher on an ephemeral localhost port.
///
/// # Errors
///
/// Propagates socket errors.
pub fn bind() -> Result<TcpListener, PubSubError> {
    Ok(TcpListener::bind(("127.0.0.1", 0))?)
}

/// Subscriber side: connects, sends `handshake`, reads the publisher's
/// handshake, and returns the duplex plus the peer's handshake.
///
/// # Errors
///
/// Returns transport errors, or [`PubSubError::Disconnected`] if the
/// publisher closes during the handshake.
pub fn dial(
    addr: SocketAddr,
    handshake: &Handshake,
) -> Result<(FrameDuplex, Handshake), PubSubError> {
    dial_tuned(addr, handshake, SocketTimeouts::none())
}

/// Like [`dial`], applying socket deadlines to the bridged stream. The
/// handshake runs under the same deadlines, so a publisher that accepts
/// but never answers cannot wedge the subscriber forever.
///
/// # Errors
///
/// Same as [`dial`].
pub fn dial_tuned(
    addr: SocketAddr,
    handshake: &Handshake,
    timeouts: SocketTimeouts,
) -> Result<(FrameDuplex, Handshake), PubSubError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeouts.read)?;
    stream.set_write_timeout(timeouts.write)?;
    write_frame(&mut stream, &handshake.encode())?;
    let peer_frame = read_frame(&mut stream)?.ok_or(PubSubError::Disconnected)?;
    let peer = Handshake::decode(&peer_frame)?;
    Ok((bridge_stream_tuned(stream, None, timeouts)?, peer))
}

/// Publisher side of the handshake on a freshly accepted stream: reads the
/// subscriber's handshake and sends back `reply`.
///
/// # Errors
///
/// Returns transport or decode errors.
pub fn accept_handshake(
    stream: &mut TcpStream,
    reply: &Handshake,
) -> Result<Handshake, PubSubError> {
    let frame = read_frame(stream)?.ok_or(PubSubError::Disconnected)?;
    let peer = Handshake::decode(&frame)?;
    write_frame(stream, &reply.encode())?;
    Ok(peer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_and_frames_roundtrip() {
        let listener = bind().unwrap();
        let addr = listener.local_addr().unwrap();

        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let peer =
                accept_handshake(&mut stream, &Handshake::new().with("publisher", "cam")).unwrap();
            assert_eq!(peer.get("subscriber"), Some("det"));
            let duplex = bridge_stream(stream).unwrap();
            // Forward a data frame, then expect an ack frame back.
            duplex.send(b"frame-1".to_vec());
            let ack = duplex.rx.recv().unwrap();
            assert_eq!(ack, b"ack-1");
        });

        let (duplex, peer) = dial(addr, &Handshake::new().with("subscriber", "det")).unwrap();
        assert_eq!(peer.get("publisher"), Some("cam"));
        assert_eq!(duplex.rx.recv().unwrap(), b"frame-1");
        duplex.send(b"ack-1".to_vec());
        server.join().unwrap();
    }

    #[test]
    fn large_frames_cross_the_socket() {
        let listener = bind().unwrap();
        let addr = listener.local_addr().unwrap();
        let payload = vec![0xa5u8; 1_000_000];
        let expected = payload.clone();

        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            accept_handshake(&mut stream, &Handshake::new()).unwrap();
            let duplex = bridge_stream(stream).unwrap();
            duplex.send(payload);
            // Keep the connection alive until the client has read.
            let _ = duplex.rx.recv();
        });

        let (duplex, _) = dial(addr, &Handshake::new()).unwrap();
        assert_eq!(duplex.rx.recv().unwrap(), expected);
        duplex.send(vec![1]);
        server.join().unwrap();
    }

    #[test]
    fn dial_refused_port_errors() {
        // Bind and immediately drop to get a (very likely) dead port.
        let addr = {
            let l = bind().unwrap();
            l.local_addr().unwrap()
        };
        assert!(matches!(
            dial(addr, &Handshake::new()),
            Err(PubSubError::Io(_))
        ));
    }
}
