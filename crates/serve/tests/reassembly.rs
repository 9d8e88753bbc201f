//! Heap held by UDP chunk reassembly, measured by a counting global
//! allocator: header-only datagrams that each announce 65,535 chunks
//! must not reserve room for chunks that never arrive.

use liteview::transport::Transport;
use lv_serve::{UdpConfig, UdpTransport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Live heap bytes of this test binary.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: forwards every call to `System` unchanged; it only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A chunk datagram as `UdpTransport::send` lays it out: magic, frame
/// id, chunk index, chunk count, payload.
fn chunk(id: u32, idx: u16, total: u16, payload: &[u8]) -> Vec<u8> {
    let mut d = vec![0x4C];
    d.extend_from_slice(&id.to_be_bytes());
    d.extend_from_slice(&idx.to_be_bytes());
    d.extend_from_slice(&total.to_be_bytes());
    d.extend_from_slice(payload);
    d
}

#[test]
fn header_only_datagrams_reserve_no_chunk_slots() {
    let mut server = UdpTransport::bind("127.0.0.1:0", UdpConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
    // 64 datagrams of 9 bytes, each chunk 0 of 65,535 of its own frame,
    // then a one-chunk frame: once it arrives, all 64 were read.
    let datagrams: Vec<Vec<u8>> = (0..64).map(|id| chunk(id, 0, u16::MAX, b"")).collect();
    let marker = chunk(u32::MAX, 0, 1, b"!");
    let before = LIVE.load(Ordering::Relaxed);
    for d in &datagrams {
        probe.send_to(d, addr).unwrap();
    }
    probe.send_to(&marker, addr).unwrap();
    let (_, frame) = server
        .recv(Some(Duration::from_secs(5)))
        .unwrap()
        .expect("the marker frame arrives");
    assert_eq!(frame, b"!");
    drop(frame);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!(server.rx_dropped(), 0, "every datagram reached the table");
    assert!(
        held < 64 * 1024,
        "576 bytes of chunk headers hold {held} bytes of reassembly state"
    );
}
