//! Proves that template-compressed frames (§4) ride the zero-copy relay
//! too: steady-state relay of `DataCompressed` frames through
//! [`RouteServer::poll`] performs **zero per-frame heap allocations**.
//!
//! Same rig as `alloc_relay.rs` (`alloc_rig/`): a counting
//! `#[global_allocator]` and scripted transports whose receive side
//! appends pre-encoded bodies into the reusable frame batch and whose
//! transmit side swallows raw frames without allocating. After a
//! warm-up that fills the
//! stream's template ring (so every decode recycles the slot it
//! evicts), the scratch `Data` body and every other buffer, a burst of
//! literal and delta frames must not allocate at all.
//!
//! This file deliberately holds a single test: the allocator count is
//! process-global, and a concurrent test thread would pollute it.

mod alloc_rig;

use std::sync::atomic::Ordering;

use alloc_rig::{register_frame, Scripted, ALLOCATIONS};
use rnl_net::time::{Duration, Instant};
use rnl_obs::{Span, TraceIdGen};
use rnl_server::design::Design;
use rnl_server::RouteServer;
use rnl_tunnel::compress::Compressor;
use rnl_tunnel::msg::{Msg, PortId, RouterId};

#[test]
fn steady_state_compressed_relay_allocates_nothing_per_frame() {
    const TOTAL: usize = 10_000;
    const WARM: u64 = 9_200;
    const WINDOW: u64 = 256;
    const BURST: usize = 32;
    const LEN: usize = 1_518;
    /// Every n-th frame is a fresh pattern the ring cannot match, so
    /// the encoder falls back to a literal.
    const LITERAL_EVERY: usize = 16;

    // Pre-encode everything before the server exists: one Register,
    // then TOTAL compressed frames from router 0 port 0 — a template
    // stream stamped with sequence numbers, with literals mixed in.
    let mut gen = TraceIdGen::new("alloc");
    let mut enc = Compressor::new();
    let (mut literals, mut deltas) = (0usize, 0usize);
    let mut source_frames = vec![register_frame("alloc-src")];
    for seq in 0..TOTAL {
        let fill = if seq % LITERAL_EVERY == 0 {
            (seq / LITERAL_EVERY) as u8
        } else {
            0x42
        };
        let mut frame = vec![fill; LEN];
        frame[20..24].copy_from_slice(&(seq as u32).to_be_bytes());
        let encoded = enc.encode(&frame);
        if seq >= WARM as usize {
            if encoded.len() > LEN {
                literals += 1;
            } else {
                deltas += 1;
            }
        }
        source_frames.push(
            Msg::DataCompressed {
                router: RouterId(0),
                port: PortId(0),
                span: Span {
                    trace: gen.allocate(),
                    origin_us: 0,
                },
                encoded,
            }
            .encode(),
        );
    }
    // The measured window is guaranteed to see both encodings.
    assert!(
        literals >= 16 && deltas >= 256,
        "{literals} literals, {deltas} deltas"
    );
    let (source, per_poll, _) = Scripted::new(source_frames);
    let (sink, _, raw_sent) = Scripted::new(vec![register_frame("alloc-dst")]);

    let mut server = RouteServer::new();
    server.set_enforce_reservations(false);
    // Spans carry origin_us = 0; park the slow threshold out of reach
    // so the flight recorder (which allocates on capture by design)
    // never triggers inside the measured window.
    server.set_slow_threshold("relay", u64::MAX);
    server.attach(Box::new(source));
    server.attach(Box::new(sink));

    let mut now = Instant::EPOCH;
    now += Duration::from_millis(1);
    server.poll(now);
    let ids: Vec<RouterId> = server.inventory().list().map(|r| r.id).collect();
    assert_eq!(ids.len(), 2, "registration did not land");
    let mut design = Design::new("alloc");
    design.add_device(ids[0]);
    design.add_device(ids[1]);
    design
        .connect((ids[0], PortId(0)), (ids[1], PortId(0)))
        .expect("connect");
    server.deploy_design("alloc", &design, now).expect("deploy");

    // Warm up: fill the template ring, the scratch body, the frame
    // batch, journal ring, quantile levels and wire-metric handles.
    // Polls are bounded (each delivers a burst), so a relay that never
    // reaches `send_raw` fails here instead of spinning forever.
    let mut poll_until = |server: &mut RouteServer, target: u64| {
        for _ in 0..TOTAL {
            if raw_sent.load(Ordering::Relaxed) >= target {
                return;
            }
            now += Duration::from_millis(1);
            server.poll(now);
        }
        panic!("relay stalled below {target} raw sends");
    };
    per_poll.store(BURST, Ordering::Relaxed);
    poll_until(&mut server, WARM);

    // Measured window: every allocation in the whole process is ours.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sent_before = raw_sent.load(Ordering::Relaxed);
    poll_until(&mut server, sent_before + WINDOW);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let relayed = raw_sent.load(Ordering::Relaxed) - sent_before;

    assert!(relayed >= WINDOW, "window did not relay enough frames");
    assert_eq!(
        after - before,
        0,
        "steady-state compressed relay allocated {} times over {} frames",
        after - before,
        relayed
    );
    // Every frame inflated and relayed: none fell out as a decode error.
    assert!(server.stats().frames_routed >= WARM + WINDOW);
    assert_eq!(server.stats().frames_unrouted, 0);
}
