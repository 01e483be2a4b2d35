//! Differential tests: the zero-copy batched relay must be observably
//! identical to the legacy per-message path it replaced.
//!
//! Each scenario drives the *same* seeded workload — impaired links,
//! scheduled fault windows, mixed data/heartbeat traffic, plain or
//! RIS-compressed upstream streams — through two servers that differ
//! only in [`RouteServer::set_fastpath`], then
//! compares everything either side can observe: the exact bytes every
//! RIS endpoint received (which covers destinations, payloads and trace
//! spans), the server's Fig. 4 hop journal, and the relay counters.

use proptest::prelude::*;
use rnl_net::time::{Duration, Instant};
use rnl_obs::{FrameEvent, Span, TraceIdGen};
use rnl_server::design::Design;
use rnl_server::RouteServer;
use rnl_tunnel::compress::Compressor;
use rnl_tunnel::faults::{FaultKind, FaultPlan};
use rnl_tunnel::impair::Impairment;
use rnl_tunnel::msg::{ImageRegion, Msg, PortId, PortInfo, RegisterInfo, RouterId, RouterInfo};
use rnl_tunnel::transport::{mem_pair, MemTransport, Transport};

/// One deterministic workload, fully described by plain data so the
/// fastpath and legacy runs replay it identically.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    /// 0 = perfect, 1 = metro (both lossless, so registration always
    /// converges; drops come from scheduled fault windows instead).
    impair: u8,
    frames: usize,
    frame_len: usize,
    step_us: u64,
    /// Every n-th tick also sends a heartbeat (0 = never) — exercises
    /// the owned-decode fallback interleaved with the fast relay.
    heartbeat_every: usize,
    /// Seeded stall/partition windows on the server side of session b.
    fault_windows: usize,
    /// One hard cut at mid-run (graces session b; relayed frames are
    /// queued/shed through the replay path).
    cut: bool,
    /// Site a template-compresses its upstream stream (§4), so frames
    /// arrive as `DataCompressed` and inflate on the server.
    compressed: bool,
}

/// Everything observable from one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Encoded bytes of every message endpoint a received, in order.
    rx_a: Vec<Vec<u8>>,
    /// Encoded bytes of every message endpoint b received, in order.
    rx_b: Vec<Vec<u8>>,
    journal: Vec<FrameEvent>,
    frames_routed: u64,
    frames_unrouted: u64,
    bytes_relayed: u64,
    relay_p50_us: Option<u64>,
    relay_p99_us: Option<u64>,
}

fn register_info(pc: &str) -> RegisterInfo {
    RegisterInfo {
        pc_name: pc.to_string(),
        epoch: Default::default(),
        routers: vec![RouterInfo {
            local_id: 0,
            description: "diff port".to_string(),
            model: "diff".to_string(),
            image: "diff.png".to_string(),
            ports: vec![PortInfo {
                description: "p0".to_string(),
                nic: "nic0".to_string(),
                region: ImageRegion::default(),
            }],
            console_com: None,
        }],
    }
}

/// What a RIS puts on the tunnel for one captured frame: `Data`, or
/// with `compressor` the stream's template encoding.
fn upstream(
    compressor: Option<&mut Compressor>,
    router: RouterId,
    span: Span,
    frame: Vec<u8>,
) -> Msg {
    match compressor {
        Some(c) => Msg::DataCompressed {
            router,
            port: PortId(0),
            span,
            encoded: c.encode(&frame),
        },
        None => Msg::Data {
            router,
            port: PortId(0),
            span,
            frame,
        },
    }
}

fn drain(t: &mut MemTransport, now: Instant, into: &mut Vec<Vec<u8>>) {
    if let Ok(msgs) = t.poll(now) {
        for m in msgs {
            into.push(m.encode());
        }
    }
}

fn run(s: &Scenario, fastpath: bool) -> Observed {
    let impairment = match s.impair {
        0 => Impairment::PERFECT,
        _ => Impairment::metro(),
    };
    let mut server = RouteServer::new();
    server.set_fastpath(fastpath);
    server.set_enforce_reservations(false);
    let (mut a, sa) = mem_pair(impairment, impairment, s.seed);
    let (mut b, mut sb) = mem_pair(impairment, impairment, s.seed.wrapping_add(1));
    // Fault windows start well after the registration phase (which
    // takes at most 1 virtual second below).
    let fault_start = Instant::EPOCH + Duration::from_secs(2);
    if s.fault_windows > 0 || s.cut {
        let mut plan = FaultPlan::random(
            s.seed ^ 0x5eed,
            fault_start,
            Duration::from_secs(2),
            s.fault_windows,
            Duration::from_millis(20),
        );
        if s.cut {
            plan.schedule(
                FaultKind::Cut,
                fault_start + Duration::from_millis(500),
                Duration::from_millis(200),
            );
        }
        sb.set_faults(plan);
    }
    server.attach(Box::new(sa));
    server.attach(Box::new(sb));
    let mut now = Instant::EPOCH;
    let mut rx_a = Vec::new();
    let mut rx_b = Vec::new();
    a.send(&Msg::Register(register_info("diff-a")), now)
        .expect("send");
    b.send(&Msg::Register(register_info("diff-b")), now)
        .expect("send");
    for _ in 0..1000 {
        now += Duration::from_millis(1);
        server.poll(now);
        if server.inventory().list().count() == 2 {
            break;
        }
    }
    let ids: Vec<RouterId> = server.inventory().list().map(|r| r.id).collect();
    assert_eq!(ids.len(), 2, "registration did not converge");
    let (ra, rb) = (ids[0], ids[1]);
    let mut design = Design::new("diff");
    design.add_device(ra);
    design.add_device(rb);
    design
        .connect((ra, PortId(0)), (rb, PortId(0)))
        .expect("connect");
    server.deploy_design("diff", &design, now).expect("deploy");
    drain(&mut a, now, &mut rx_a);
    drain(&mut b, now, &mut rx_b);
    // Jump to the fault horizon so scheduled windows and the traffic
    // phase line up deterministically across runs.
    now = fault_start;
    let mut gen = TraceIdGen::new("diff");
    let frame = vec![0xA5u8; s.frame_len];
    let mut compressor = s.compressed.then(Compressor::new);
    for i in 0..s.frames {
        now += Duration::from_micros(s.step_us);
        let span = Span {
            trace: gen.allocate(),
            origin_us: now.as_micros(),
        };
        let mut frame = frame.clone();
        if s.compressed {
            // A template stream: each frame differs in its sequence
            // bytes, so the encoder mixes literals and deltas.
            for (b, seq) in frame.iter_mut().zip((i as u32).to_be_bytes()) {
                *b = seq;
            }
        }
        a.send(&upstream(compressor.as_mut(), ra, span, frame), now)
            .expect("send");
        if s.heartbeat_every > 0 && i % s.heartbeat_every == 0 {
            a.send(
                &Msg::Heartbeat {
                    seq: i as u64,
                    epoch: 0,
                },
                now,
            )
            .expect("send");
        }
        server.poll(now);
        drain(&mut a, now, &mut rx_a);
        drain(&mut b, now, &mut rx_b);
    }
    // Fixed-length drain phase: identical tick schedule regardless of
    // what either implementation did, so a divergence shows up as a
    // difference, never as a hang.
    for _ in 0..400 {
        now += Duration::from_millis(1);
        server.poll(now);
        drain(&mut a, now, &mut rx_a);
        drain(&mut b, now, &mut rx_b);
    }
    let stats = server.stats();
    let snap = server.obs().snapshot();
    let q = snap
        .quantile("rnl_server_relay_latency_us_quantile", &[])
        .cloned()
        .unwrap_or_default();
    Observed {
        rx_a,
        rx_b,
        journal: server.journal().events(),
        frames_routed: stats.frames_routed,
        frames_unrouted: stats.frames_unrouted,
        bytes_relayed: stats.bytes_relayed,
        relay_p50_us: q.quantile(0.5),
        relay_p99_us: q.quantile(0.99),
    }
}

/// Two routers behind ONE session wired together: the fastpath serves
/// this wire over the L1 bridge, and must still be byte-identical to
/// the legacy matrix walk.
fn run_colocated(seed: u64, frames: usize, compressed: bool, fastpath: bool) -> (Observed, u64) {
    let mut server = RouteServer::new();
    server.set_fastpath(fastpath);
    server.set_enforce_reservations(false);
    let (mut a, sa) = mem_pair(Impairment::metro(), Impairment::metro(), seed);
    server.attach(Box::new(sa));
    let mut info = register_info("colo");
    let mut second = info.routers[0].clone();
    second.local_id = 1;
    info.routers.push(second);
    let mut now = Instant::EPOCH;
    let mut rx_a = Vec::new();
    a.send(&Msg::Register(info), now).expect("send");
    for _ in 0..1000 {
        now += Duration::from_millis(1);
        server.poll(now);
        if server.inventory().list().count() == 2 {
            break;
        }
    }
    let ids: Vec<RouterId> = server.inventory().list().map(|r| r.id).collect();
    assert_eq!(ids.len(), 2, "registration did not converge");
    let mut design = Design::new("colo");
    design.add_device(ids[0]);
    design.add_device(ids[1]);
    design
        .connect((ids[0], PortId(0)), (ids[1], PortId(0)))
        .expect("connect");
    server.deploy_design("colo", &design, now).expect("deploy");
    drain(&mut a, now, &mut rx_a);
    let mut gen = TraceIdGen::new("colo");
    let mut compressor = compressed.then(Compressor::new);
    for i in 0..frames {
        now += Duration::from_micros(500);
        let span = Span {
            trace: gen.allocate(),
            origin_us: now.as_micros(),
        };
        let frame = vec![i as u8; 64];
        a.send(&upstream(compressor.as_mut(), ids[0], span, frame), now)
            .expect("send");
        server.poll(now);
        drain(&mut a, now, &mut rx_a);
    }
    for _ in 0..100 {
        now += Duration::from_millis(1);
        server.poll(now);
        drain(&mut a, now, &mut rx_a);
    }
    let stats = server.stats();
    let observed = Observed {
        rx_a,
        rx_b: Vec::new(),
        journal: server.journal().events(),
        frames_routed: stats.frames_routed,
        frames_unrouted: stats.frames_unrouted,
        bytes_relayed: stats.bytes_relayed,
        relay_p50_us: None,
        relay_p99_us: None,
    };
    (observed, server.frames_bridged())
}

proptest! {
    /// Byte-identical frames, spans, hop journal and counters between
    /// the zero-copy path and the legacy path, under impairment, mixed
    /// traffic, fault windows and a mid-run cut.
    #[test]
    fn fastpath_is_observably_identical_to_legacy(
        seed in any::<u64>(),
        impair in 0u8..2,
        frames in 1usize..40,
        frame_len in 0usize..300,
        step_us in 100u64..2_000,
        heartbeat_every in 0usize..5,
        fault_windows in 0usize..4,
        cut in any::<bool>(),
        compressed in any::<bool>(),
    ) {
        let scenario = Scenario {
            seed,
            impair,
            frames,
            frame_len,
            step_us,
            heartbeat_every,
            fault_windows,
            cut,
            compressed,
        };
        let fast = run(&scenario, true);
        let legacy = run(&scenario, false);
        prop_assert_eq!(&fast.rx_b, &legacy.rx_b, "frames delivered to b diverge");
        prop_assert_eq!(&fast.rx_a, &legacy.rx_a, "frames delivered to a diverge");
        prop_assert_eq!(&fast.journal, &legacy.journal, "hop journal diverges");
        prop_assert_eq!(fast.frames_routed, legacy.frames_routed);
        prop_assert_eq!(fast.frames_unrouted, legacy.frames_unrouted);
        prop_assert_eq!(fast.bytes_relayed, legacy.bytes_relayed);
        prop_assert_eq!(fast.relay_p50_us, legacy.relay_p50_us);
        prop_assert_eq!(fast.relay_p99_us, legacy.relay_p99_us);
    }
}

#[test]
fn colocated_wire_rides_l1_bridge_and_matches_legacy() {
    for compressed in [false, true] {
        let (fast, bridged) = run_colocated(0xd1ff, 50, compressed, true);
        let (legacy, legacy_bridged) = run_colocated(0xd1ff, 50, compressed, false);
        assert_eq!(fast, legacy, "L1-bridged relay diverges from legacy");
        // Both drains feed the one relay core, so both take the bridge.
        assert_eq!(legacy_bridged, bridged, "drains disagree on the bridge");
        assert!(
            bridged >= 50,
            "the co-located wire should ride the L1 bridge (compressed: {compressed}), got {bridged}"
        );
        assert!(fast.frames_routed >= 50, "frames must still relay");
    }
}

/// Delivered frames arrive with the destination endpoint patched in —
/// the in-place rewrite, not a stale source header.
#[test]
fn fastpath_patches_destination_in_place() {
    let scenario = Scenario {
        seed: 7,
        impair: 0,
        frames: 5,
        frame_len: 32,
        step_us: 500,
        heartbeat_every: 0,
        fault_windows: 0,
        cut: false,
        compressed: false,
    };
    let fast = run(&scenario, true);
    let mut data_seen = 0;
    for bytes in &fast.rx_b {
        if let Ok(Msg::Data { router, port, .. }) = Msg::decode(bytes) {
            assert_eq!(port, PortId(0));
            // Destination router is the second registered id, never the
            // source's.
            assert_eq!(router.0, 1, "destination not patched");
            data_seen += 1;
        }
    }
    assert_eq!(data_seen, 5);
}

/// A compressed upstream stream inflates on the server and relays as
/// plain `Data`: every frame arrives at b with its original bytes, on
/// both drains alike.
#[test]
fn compressed_upstream_relays_every_frame_inflated() {
    let scenario = Scenario {
        seed: 11,
        impair: 0,
        frames: 30,
        frame_len: 64,
        step_us: 500,
        heartbeat_every: 0,
        fault_windows: 0,
        cut: false,
        compressed: true,
    };
    let fast = run(&scenario, true);
    let legacy = run(&scenario, false);
    assert_eq!(fast, legacy, "compressed relay diverges between drains");
    assert_eq!(fast.frames_routed, 30);
    assert_eq!(fast.frames_unrouted, 0);
    let payloads: Vec<Vec<u8>> = fast
        .rx_b
        .iter()
        .filter_map(|bytes| match Msg::decode(bytes) {
            Ok(Msg::Data { frame, .. }) => Some(frame),
            _ => None,
        })
        .collect();
    assert_eq!(payloads.len(), 30);
    for (i, frame) in payloads.iter().enumerate() {
        let mut want = vec![0xA5u8; 64];
        want[..4].copy_from_slice(&(i as u32).to_be_bytes());
        assert_eq!(frame, &want, "frame {i} inflated wrong");
    }
}
