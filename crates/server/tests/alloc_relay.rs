//! Proves the tentpole claim: steady-state relay through
//! [`RouteServer::poll`] performs **zero per-frame heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! server is driven through scripted transports whose receive side
//! appends pre-encoded bodies into the reusable [`FrameBatch`] and
//! whose transmit side swallows raw frames without allocating — so
//! every allocation observed during the measured window is the
//! server's own. After a warm-up long enough for every scratch buffer,
//! metric series, quantile level and journal ring to reach capacity,
//! relaying a further burst of frames must not allocate at all.
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
use rnl_tunnel::msg::{Msg, PortId, RouterId};

#[test]
fn steady_state_relay_allocates_nothing_per_frame() {
    const TOTAL: usize = 10_000;
    const WARM: u64 = 9_200;
    const WINDOW: u64 = 256;
    const BURST: usize = 32;

    // Pre-encode everything before the server exists: one Register,
    // then TOTAL data frames from router 0 port 0.
    let mut gen = TraceIdGen::new("alloc");
    let payload = vec![0x42u8; 256];
    let mut source_frames = vec![register_frame("alloc-src")];
    for _ in 0..TOTAL {
        source_frames.push(
            Msg::Data {
                router: RouterId(0),
                port: PortId(0),
                span: Span {
                    trace: gen.allocate(),
                    origin_us: 0,
                },
                frame: payload.clone(),
            }
            .encode(),
        );
    }
    let (source, per_poll, _) = Scripted::new(source_frames);
    let (sink, _, raw_sent) = Scripted::new(vec![register_frame("alloc-dst")]);

    let mut server = RouteServer::new();
    server.set_enforce_reservations(false);
    // Spans above carry origin_us = 0, so observed latency grows with
    // the virtual clock; park the slow threshold out of reach so the
    // flight-recorder path (which allocates on capture by design)
    // never triggers inside the measured window.
    server.set_slow_threshold("relay", u64::MAX);
    server.attach(Box::new(source));
    server.attach(Box::new(sink));

    let mut now = Instant::EPOCH;
    // First poll: per_poll is 1, so exactly the two Register frames
    // land and both routers exist before any data flows.
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

    // Warm up: fill the frame batch, codec scratch, journal ring,
    // quantile levels, wire-metric handles and scratch vectors.
    per_poll.store(BURST, Ordering::Relaxed);
    while raw_sent.load(Ordering::Relaxed) < WARM {
        now += Duration::from_millis(1);
        server.poll(now);
    }

    // Measured window: every allocation in the whole process is ours.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sent_before = raw_sent.load(Ordering::Relaxed);
    while raw_sent.load(Ordering::Relaxed) < sent_before + WINDOW {
        now += Duration::from_millis(1);
        server.poll(now);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let relayed = raw_sent.load(Ordering::Relaxed) - sent_before;

    assert!(relayed >= WINDOW, "window did not relay enough frames");
    assert_eq!(
        after - before,
        0,
        "steady-state relay allocated {} times over {} frames",
        after - before,
        relayed
    );
    // And the frames really took the zero-copy path end to end.
    assert!(server.stats().frames_routed >= WARM + WINDOW);
}
