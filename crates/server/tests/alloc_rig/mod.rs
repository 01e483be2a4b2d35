//! The allocation-counting rig shared by the zero-allocation relay
//! proofs (`alloc_relay.rs`, `alloc_relay_compressed.rs`): a counting
//! `#[global_allocator]` wrapping the system allocator, and a scripted
//! transport whose receive side appends pre-encoded bodies into the
//! reusable [`FrameBatch`] and whose transmit side counts raw sends
//! without touching the heap — so every allocation observed during a
//! measured window is the server's own. The count is process-global:
//! each test file that uses the rig holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rnl_net::time::Instant;
use rnl_tunnel::msg::{ImageRegion, Msg, PortInfo, RegisterInfo, RouterInfo};
use rnl_tunnel::transport::{FrameBatch, Transport, TransportError};

struct CountingAllocator;

/// Every allocation in the process since start (the count the tests
/// difference across their measured window).
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A transport whose inbound side replays pre-encoded frame bodies
/// (`per_poll` at a time) and whose outbound side counts raw sends
/// without touching the heap.
pub struct Scripted {
    frames: Vec<Vec<u8>>,
    cursor: usize,
    per_poll: Arc<AtomicUsize>,
    raw_sent: Arc<AtomicU64>,
}

impl Scripted {
    /// A transport replaying `frames`, with handles to its per-poll
    /// burst size (starts at 1) and its count of raw sends.
    pub fn new(frames: Vec<Vec<u8>>) -> (Scripted, Arc<AtomicUsize>, Arc<AtomicU64>) {
        let per_poll = Arc::new(AtomicUsize::new(1));
        let raw_sent = Arc::new(AtomicU64::new(0));
        (
            Scripted {
                frames,
                cursor: 0,
                per_poll: per_poll.clone(),
                raw_sent: raw_sent.clone(),
            },
            per_poll,
            raw_sent,
        )
    }
}

impl Transport for Scripted {
    fn send(&mut self, _msg: &Msg, _now: Instant) -> Result<(), TransportError> {
        // Acks and control pushes are swallowed (registration only).
        Ok(())
    }

    fn send_raw(&mut self, body: &[u8], _now: Instant) -> Result<(), TransportError> {
        // The relay's forward lands here: count it, allocate nothing.
        let _ = body.len();
        self.raw_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn poll(&mut self, _now: Instant) -> Result<Vec<Msg>, TransportError> {
        Ok(Vec::new())
    }

    fn poll_into(
        &mut self,
        _now: Instant,
        batch: &mut FrameBatch,
    ) -> Result<usize, TransportError> {
        let burst = self.per_poll.load(Ordering::Relaxed);
        let mut appended = 0;
        while appended < burst && self.cursor < self.frames.len() {
            batch.push(&self.frames[self.cursor]);
            self.cursor += 1;
            appended += 1;
        }
        Ok(appended)
    }

    fn is_connected(&self) -> bool {
        true
    }
}

/// An encoded `Register` for a RIS fronting one single-port router.
pub fn register_frame(pc: &str) -> Vec<u8> {
    Msg::Register(RegisterInfo {
        pc_name: pc.to_string(),
        epoch: Default::default(),
        routers: vec![RouterInfo {
            local_id: 0,
            description: "alloc port".to_string(),
            model: "alloc".to_string(),
            image: "alloc.png".to_string(),
            ports: vec![PortInfo {
                description: "p0".to_string(),
                nic: "nic0".to_string(),
                region: ImageRegion::default(),
            }],
            console_com: None,
        }],
    })
    .encode()
}
