//! The live transport backend: a real `UdpSocket` behind the
//! [`Transport`] seam.
//!
//! A background receive thread pulls datagrams off the socket and feeds
//! a **bounded** channel; when the consumer falls behind, datagrams are
//! dropped at the channel mouth and counted (backpressure — exactly
//! what a congested serial bridge would do). Sends are paced per peer
//! with a configurable minimum inter-datagram gap so a chatty
//! workstation cannot saturate the bridge link.
//!
//! Frames larger than one datagram are split into chunks with a small
//! 9-byte header and reassembled on the receive side, so the session
//! layer above sees whole frames regardless of size:
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0x4C, 'L')
//! 1       4     frame id (per-sender, wrapping, big-endian)
//! 5       2     chunk index (big-endian)
//! 7       2     chunk count (big-endian)
//! 9       n     chunk payload
//! ```
//!
//! UDP semantics are inherited deliberately: chunks can be lost, so a
//! partially reassembled frame is abandoned once its slot is recycled,
//! and the request/response layer above retries whole requests. A
//! partial frame holds only the chunks that have arrived, and is
//! dropped once it holds more bytes than [`Transport::max_frame`].

use liteview::transport::{frame, PeerId, Transport, TransportError};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Chunk header length.
const CHUNK_HEADER: usize = 9;

/// Chunk header magic byte.
const MAGIC: u8 = 0x4C;

/// Most partially reassembled frames retained at once.
const MAX_PARTIALS: usize = 64;

/// Tuning knobs for [`UdpTransport`].
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Bounded receive-queue depth, in datagrams; the rx thread drops
    /// (and counts) datagrams when the queue is full.
    pub recv_queue: usize,
    /// Chunk payload bytes per datagram (header excluded).
    pub chunk_bytes: usize,
    /// Minimum gap between consecutive datagrams to the same peer
    /// (`None` = unpaced).
    pub pace: Option<Duration>,
    /// Socket read timeout of the rx thread — bounds shutdown latency.
    pub read_timeout: Duration,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            recv_queue: 256,
            chunk_bytes: 32 * 1024,
            pace: None,
            read_timeout: Duration::from_millis(25),
        }
    }
}

/// A frame whose chunks are still arriving. It holds only the chunks
/// that have arrived, so a header announcing 65,535 chunks reserves
/// nothing for the ones that have not.
struct PartialFrame {
    /// The chunk count every datagram of the frame announces.
    total: usize,
    /// The chunks received so far, by index.
    chunks: BTreeMap<usize, Vec<u8>>,
    /// Payload bytes held in `chunks`.
    bytes: usize,
}

/// A threaded UDP backend for the [`Transport`] seam.
///
/// One instance is one endpoint: a server binds a well-known address
/// and hears from many peers (each interned to a [`PeerId`] on first
/// contact); a client connects to one peer (always peer 0).
pub struct UdpTransport {
    socket: UdpSocket,
    cfg: UdpConfig,
    rx: Receiver<(SocketAddr, Vec<u8>)>,
    stop: Arc<AtomicBool>,
    rx_thread: Option<JoinHandle<()>>,
    dropped: Arc<AtomicU64>,
    peers: Vec<SocketAddr>,
    peer_ids: HashMap<SocketAddr, PeerId>,
    last_send: Vec<Option<Instant>>,
    next_frame_id: u32,
    partials: HashMap<(PeerId, u32), PartialFrame>,
    partial_order: VecDeque<(PeerId, u32)>,
    closed: bool,
}

impl UdpTransport {
    /// Bind a serving endpoint on `addr` (e.g. `"127.0.0.1:7171"`, or
    /// port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: UdpConfig) -> io::Result<UdpTransport> {
        let socket = UdpSocket::bind(addr)?;
        Self::from_socket(socket, cfg)
    }

    /// Bind an ephemeral client endpoint and intern `remote` as peer 0.
    pub fn connect<A: ToSocketAddrs>(remote: A, cfg: UdpConfig) -> io::Result<UdpTransport> {
        let remote = remote
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let bind_on = if remote.is_ipv4() {
            "0.0.0.0:0"
        } else {
            "[::]:0"
        };
        let socket = UdpSocket::bind(bind_on)?;
        let mut t = Self::from_socket(socket, cfg)?;
        t.intern(remote);
        Ok(t)
    }

    fn from_socket(socket: UdpSocket, cfg: UdpConfig) -> io::Result<UdpTransport> {
        let rx_socket = socket.try_clone()?;
        rx_socket.set_read_timeout(Some(cfg.read_timeout))?;
        let (tx, rx) = std::sync::mpsc::sync_channel(cfg.recv_queue.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicU64::new(0));
        let datagram_cap = CHUNK_HEADER + cfg.chunk_bytes;
        let rx_thread = {
            let stop = Arc::clone(&stop);
            let dropped = Arc::clone(&dropped);
            std::thread::spawn(move || rx_loop(rx_socket, tx, stop, dropped, datagram_cap))
        };
        Ok(UdpTransport {
            socket,
            cfg,
            rx,
            stop,
            rx_thread: Some(rx_thread),
            dropped,
            peers: Vec::new(),
            peer_ids: HashMap::new(),
            last_send: Vec::new(),
            next_frame_id: 0,
            partials: HashMap::new(),
            partial_order: VecDeque::new(),
            closed: false,
        })
    }

    /// The endpoint's bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Datagrams dropped at the bounded receive queue since creation —
    /// the backpressure signal.
    pub fn rx_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The socket address behind a [`PeerId`], if known.
    pub fn peer_addr(&self, peer: PeerId) -> Option<SocketAddr> {
        self.peers.get(peer as usize).copied()
    }

    /// Intern `addr`, minting a fresh [`PeerId`] on first sight.
    pub fn intern(&mut self, addr: SocketAddr) -> PeerId {
        if let Some(&id) = self.peer_ids.get(&addr) {
            return id;
        }
        let id = self.peers.len() as PeerId;
        self.peers.push(addr);
        self.last_send.push(None);
        self.peer_ids.insert(addr, id);
        id
    }

    fn pace_for(&mut self, peer: PeerId) {
        let Some(gap) = self.cfg.pace else { return };
        if let Some(Some(last)) = self.last_send.get(peer as usize) {
            let elapsed = last.elapsed();
            if elapsed < gap {
                std::thread::sleep(gap - elapsed);
            }
        }
        if let Some(slot) = self.last_send.get_mut(peer as usize) {
            *slot = Some(Instant::now());
        }
    }

    fn deliver_chunk(&mut self, peer: PeerId, datagram: &[u8]) -> Option<Vec<u8>> {
        if datagram.len() < CHUNK_HEADER || datagram[0] != MAGIC {
            return None;
        }
        let frame_id = u32::from_be_bytes([datagram[1], datagram[2], datagram[3], datagram[4]]);
        let idx = u16::from_be_bytes([datagram[5], datagram[6]]) as usize;
        let total = u16::from_be_bytes([datagram[7], datagram[8]]) as usize;
        let chunk = &datagram[CHUNK_HEADER..];
        if total == 0 || idx >= total {
            return None;
        }
        if total == 1 {
            return Some(chunk.to_vec());
        }
        let key = (peer, frame_id);
        let max = self.max_frame();
        let order = &mut self.partial_order;
        let partial = self.partials.entry(key).or_insert_with(|| {
            order.push_back(key);
            PartialFrame {
                total,
                chunks: BTreeMap::new(),
                bytes: 0,
            }
        });
        if let Entry::Vacant(slot) = partial.chunks.entry(idx) {
            partial.bytes += chunk.len();
            slot.insert(chunk.to_vec());
        }
        if partial.total != total || partial.bytes > max {
            // Header disagreement, or more bytes than any frame holds —
            // drop the whole frame.
            self.forget_partial(&key);
            return None;
        }
        if partial.chunks.len() == total {
            let done = self.forget_partial(&key)?;
            let mut frame = Vec::with_capacity(done.bytes);
            for c in done.chunks.values() {
                frame.extend_from_slice(c);
            }
            return Some(frame);
        }
        // Bound the reassembly table: recycle the oldest slots. Because
        // completed/aborted frames are pruned from `partial_order` too,
        // every queued key here is a live partial and popping the front
        // recycles the genuinely oldest one.
        while self.partials.len() > MAX_PARTIALS {
            if let Some(old) = self.partial_order.pop_front() {
                self.partials.remove(&old);
            } else {
                break;
            }
        }
        None
    }

    /// Remove a partial frame from both the table and the age queue so
    /// `partial_order` stays in lockstep with `partials` (it would
    /// otherwise grow without bound on a long-lived transport).
    fn forget_partial(&mut self, key: &(PeerId, u32)) -> Option<PartialFrame> {
        let dropped = self.partials.remove(key);
        if dropped.is_some() {
            if let Some(pos) = self.partial_order.iter().position(|k| k == key) {
                self.partial_order.remove(pos);
            }
        }
        dropped
    }
}

fn rx_loop(
    socket: UdpSocket,
    tx: SyncSender<(SocketAddr, Vec<u8>)>,
    stop: Arc<AtomicBool>,
    dropped: Arc<AtomicU64>,
    datagram_cap: usize,
) {
    let mut buf = vec![0u8; datagram_cap.max(2048)];
    while !stop.load(Ordering::Relaxed) {
        match socket.recv_from(&mut buf) {
            Ok((n, from)) => match tx.try_send((from, buf[..n].to_vec())) {
                Ok(()) => {}
                // Full queue: drop the datagram and record the
                // backpressure.
                Err(TrySendError::Full(_)) => {
                    dropped.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, peer: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let Some(addr) = self.peer_addr(peer) else {
            return Err(TransportError::Io(format!("unknown peer {peer}")));
        };
        let max = self.max_frame();
        if frame.len() > max {
            return Err(TransportError::TooBig {
                len: frame.len(),
                max,
            });
        }
        let chunk_bytes = self.cfg.chunk_bytes.max(1);
        let total = frame.len().div_ceil(chunk_bytes).max(1);
        let frame_id = self.next_frame_id;
        self.next_frame_id = self.next_frame_id.wrapping_add(1);
        for (idx, chunk) in frame.chunks(chunk_bytes).enumerate().take(total) {
            self.pace_for(peer);
            let mut datagram = Vec::with_capacity(CHUNK_HEADER + chunk.len());
            datagram.push(MAGIC);
            datagram.extend_from_slice(&frame_id.to_be_bytes());
            datagram.extend_from_slice(&(idx as u16).to_be_bytes());
            datagram.extend_from_slice(&(total as u16).to_be_bytes());
            datagram.extend_from_slice(chunk);
            self.socket
                .send_to(&datagram, addr)
                .map_err(|e| TransportError::Io(e.to_string()))?;
        }
        if frame.is_empty() {
            // Zero-length frames still travel as one header-only datagram.
            self.pace_for(peer);
            let mut datagram = Vec::with_capacity(CHUNK_HEADER);
            datagram.push(MAGIC);
            datagram.extend_from_slice(&frame_id.to_be_bytes());
            datagram.extend_from_slice(&0u16.to_be_bytes());
            datagram.extend_from_slice(&1u16.to_be_bytes());
            self.socket
                .send_to(&datagram, addr)
                .map_err(|e| TransportError::Io(e.to_string()))?;
        }
        Ok(())
    }

    fn recv(
        &mut self,
        wait: Option<Duration>,
    ) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let deadline = wait.map(|d| Instant::now() + d);
        loop {
            let next = match deadline {
                None => match self.rx.try_recv() {
                    Ok(x) => Some(x),
                    Err(TryRecvError::Empty) => None,
                    // The rx thread is gone: surface it instead of
                    // letting pollers spin on a dead transport forever.
                    Err(TryRecvError::Disconnected) => return Err(TransportError::Closed),
                },
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(left) {
                        Ok(x) => Some(x),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
                    }
                }
            };
            let Some((from, datagram)) = next else {
                return Ok(None);
            };
            let peer = self.intern(from);
            if let Some(frame) = self.deliver_chunk(peer, &datagram) {
                return Ok(Some((peer, frame)));
            }
            // Incomplete or malformed — keep draining until the queue
            // is empty (poll) or the wait budget runs out (block).
        }
    }

    fn shutdown(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.rx_thread.take() {
            let _ = h.join();
        }
    }

    /// The chunk header's 16-bit count bounds a frame, and so does the
    /// session framing: nothing longer than one framed session message
    /// decodes.
    fn max_frame(&self) -> usize {
        let chunked = self.cfg.chunk_bytes.max(1) * usize::from(u16::MAX);
        chunked.min(frame::HEADER_LEN + frame::MAX_PAYLOAD)
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn pair() -> (UdpTransport, UdpTransport) {
        let server = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let client = UdpTransport::connect(addr, UdpConfig::default()).unwrap();
        (server, client)
    }

    #[test]
    fn loopback_roundtrip() {
        let (mut server, mut client) = pair();
        client.send(0, b"hello server").unwrap();
        let (peer, frame) = server
            .recv(Some(Duration::from_secs(5)))
            .unwrap()
            .expect("frame arrives");
        assert_eq!(frame, b"hello server");
        server.send(peer, b"hello client").unwrap();
        let (_, back) = client
            .recv(Some(Duration::from_secs(5)))
            .unwrap()
            .expect("reply arrives");
        assert_eq!(back, b"hello client");
    }

    #[test]
    fn large_frames_chunk_and_reassemble() {
        let cfg = UdpConfig {
            chunk_bytes: 128,
            ..UdpConfig::default()
        };
        let mut server = UdpTransport::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = UdpTransport::connect(addr, cfg).unwrap();

        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        client.send(0, &big).unwrap();
        let (_, frame) = server
            .recv(Some(Duration::from_secs(5)))
            .unwrap()
            .expect("reassembled");
        assert_eq!(frame, big);
    }

    #[test]
    fn oversized_frame_is_refused() {
        let cfg = UdpConfig {
            chunk_bytes: 16,
            ..UdpConfig::default()
        };
        let mut t = UdpTransport::bind("127.0.0.1:0", cfg).unwrap();
        let addr = t.local_addr().unwrap();
        let peer = t.intern(addr);
        let too_big = vec![0u8; 16 * usize::from(u16::MAX) + 1];
        assert!(matches!(
            t.send(peer, &too_big),
            Err(TransportError::TooBig { .. })
        ));
    }

    #[test]
    fn shutdown_then_send_fails() {
        let (mut server, mut client) = pair();
        client.shutdown();
        assert_eq!(client.send(0, b"x"), Err(TransportError::Closed));
        server.shutdown();
    }

    /// Craft a raw chunk datagram as `send` would emit it.
    fn datagram(frame_id: u32, idx: u16, total: u16, payload: &[u8]) -> Vec<u8> {
        let mut d = Vec::with_capacity(CHUNK_HEADER + payload.len());
        d.push(MAGIC);
        d.extend_from_slice(&frame_id.to_be_bytes());
        d.extend_from_slice(&idx.to_be_bytes());
        d.extend_from_slice(&total.to_be_bytes());
        d.extend_from_slice(payload);
        d
    }

    #[test]
    fn completed_frames_drain_the_reassembly_queue() {
        // Soak: many completed multi-chunk frames must not leave keys
        // behind in `partial_order` (it used to grow one entry per
        // completed frame, unbounded).
        let mut t = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
        let peer: PeerId = 0;
        for id in 0..1000u32 {
            assert!(t
                .deliver_chunk(peer, &datagram(id, 0, 2, b"first|"))
                .is_none());
            let frame = t
                .deliver_chunk(peer, &datagram(id, 1, 2, b"second"))
                .expect("frame completes");
            assert_eq!(frame, b"first|second");
            assert!(t.partials.is_empty(), "no live partials after completion");
            assert!(
                t.partial_order.is_empty(),
                "partial_order leaked {} keys by frame {id}",
                t.partial_order.len()
            );
        }
    }

    #[test]
    fn header_disagreement_drains_both_tables() {
        let mut t = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
        let peer: PeerId = 0;
        assert!(t.deliver_chunk(peer, &datagram(9, 0, 3, b"a")).is_none());
        assert_eq!(t.partial_order.len(), 1);
        // Same frame id, contradictory chunk count: abort the frame.
        assert!(t.deliver_chunk(peer, &datagram(9, 1, 5, b"b")).is_none());
        assert!(t.partials.is_empty());
        assert!(
            t.partial_order.is_empty(),
            "aborted frame left its key queued"
        );
    }

    #[test]
    fn lossy_partials_recycle_and_wrapped_frame_ids_do_not_splice() {
        let mut t = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
        let peer: PeerId = 0;
        // A frame loses its second chunk and lingers as a partial.
        assert!(t
            .deliver_chunk(peer, &datagram(7, 0, 2, b"STALE!"))
            .is_none());
        // Enough later incomplete frames cycle the MAX_PARTIALS slots…
        for id in 0..MAX_PARTIALS as u32 {
            assert!(t
                .deliver_chunk(peer, &datagram(1000 + id, 0, 2, b"x"))
                .is_none());
            assert!(t.partials.len() <= MAX_PARTIALS);
            assert_eq!(
                t.partials.len(),
                t.partial_order.len(),
                "tables in lockstep"
            );
        }
        // …which must have recycled the stale frame, oldest first.
        assert!(
            !t.partials.contains_key(&(peer, 7)),
            "stale partial survived {MAX_PARTIALS} newer slots"
        );
        // A later frame reusing the wrapped id 7 reassembles cleanly
        // from its own chunks only.
        assert!(t
            .deliver_chunk(peer, &datagram(7, 0, 2, b"fresh-"))
            .is_none());
        let frame = t
            .deliver_chunk(peer, &datagram(7, 1, 2, b"frame"))
            .expect("reused id completes");
        assert_eq!(
            frame, b"fresh-frame",
            "stale chunks spliced into reused frame id"
        );
    }

    #[test]
    fn poll_recv_reports_closed_when_rx_thread_dies() {
        let mut t = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
        // Kill the rx thread without marking the transport closed — as
        // if the thread panicked or its socket died.
        t.stop.store(true, Ordering::Relaxed);
        if let Some(h) = t.rx_thread.take() {
            h.join().unwrap();
        }
        // Poll mode must surface Closed, not report an idle transport.
        assert_eq!(t.recv(None), Err(TransportError::Closed));
        // And the blocking path agrees.
        assert_eq!(
            t.recv(Some(Duration::from_millis(5))),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn pacing_spaces_datagrams() {
        let cfg = UdpConfig {
            pace: Some(Duration::from_millis(5)),
            chunk_bytes: 8,
            ..UdpConfig::default()
        };
        let mut server = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let mut client = UdpTransport::connect(addr, cfg).unwrap();

        // 4 chunks with a 5 ms gap → at least ~15 ms of pacing.
        let start = Instant::now();
        client.send(0, &[7u8; 32]).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(10));
        let (_, frame) = server
            .recv(Some(Duration::from_secs(5)))
            .unwrap()
            .expect("paced frame arrives");
        assert_eq!(frame, [7u8; 32]);
    }

    #[test]
    fn partial_over_max_frame_is_dropped() {
        let cfg = UdpConfig {
            chunk_bytes: 1,
            ..UdpConfig::default()
        };
        let mut t = UdpTransport::bind("127.0.0.1:0", cfg).unwrap();
        // One-byte chunks cap a frame at 65,535 bytes: 63 KiB fit.
        let fits = t.max_frame() / 1024;
        let big = [0u8; 1024];
        for idx in 0..fits as u16 {
            assert!(t
                .deliver_chunk(0, &datagram(3, idx, u16::MAX, &big))
                .is_none());
        }
        assert_eq!(t.partials.len(), 1);
        // One more holds more bytes than any frame: the partial goes.
        let over = datagram(3, fits as u16, u16::MAX, &big);
        assert!(t.deliver_chunk(0, &over).is_none());
        assert!(t.partials.is_empty());
        assert!(t.partial_order.is_empty());
    }

    /// A datagram a lossy or hostile network may deliver, from one of
    /// three peers: a chunk header over a few reused or random frame
    /// ids, indices and counts, or raw bytes.
    fn any_datagram() -> impl Strategy<Value = (PeerId, Vec<u8>)> {
        let chunk = (
            prop_oneof![0u32..4, any::<u32>()],
            prop_oneof![0u16..4, any::<u16>()],
            prop_oneof![0u16..5, any::<u16>()],
            collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(id, idx, total, payload)| datagram(id, idx, total, &payload));
        (
            0u64..3,
            prop_oneof![chunk, collection::vec(any::<u8>(), 0..24)],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn any_datagrams_keep_reassembly_bounded(
            datagrams in collection::vec(any_datagram(), 0..300),
        ) {
            let mut t = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
            for (peer, d) in &datagrams {
                t.deliver_chunk(*peer, d);
                prop_assert_eq!(t.partials.len(), t.partial_order.len());
                prop_assert!(t.partials.len() <= MAX_PARTIALS);
            }
        }

        #[test]
        fn shuffled_duplicated_chunks_reassemble_byte_exact(
            frame in collection::vec(any::<u8>(), 17..=640),
            dups in collection::vec(any::<u16>(), 0..8),
            keys in collection::vec(any::<u64>(), 48),
        ) {
            // Split the way `send` does: 16-byte chunks, one frame id.
            let cfg = UdpConfig {
                chunk_bytes: 16,
                ..UdpConfig::default()
            };
            let mut t = UdpTransport::bind("127.0.0.1:0", cfg).unwrap();
            let chunks: Vec<&[u8]> = frame.chunks(16).collect();
            let total = chunks.len();
            // Every chunk once plus a few duplicates, shuffled by keys.
            let extra = dups.iter().map(|d| usize::from(*d) % total);
            let mut order: Vec<(u64, usize)> = keys.iter().copied().zip((0..total).chain(extra)).collect();
            order.sort_unstable();
            let mut done = Vec::new();
            for (_, i) in order {
                let d = datagram(5, i as u16, total as u16, chunks[i]);
                done.extend(t.deliver_chunk(0, &d));
            }
            // Duplicates after completion may start (or, if they cover
            // every chunk, finish) a second copy, never a different one.
            prop_assert!(!done.is_empty());
            for f in &done {
                prop_assert_eq!(f, &frame);
            }
        }
    }
}
