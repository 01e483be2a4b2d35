//! The traced per-layer pass: the benchmark times its own calls into
//! each layer's public functions, in process, on the workload's
//! generated frames. Nothing inside the program is instrumented.
//!
//! Spans cover batches of calls (a span per call would cost more than
//! the calls it times) and are credited with the items the batch
//! handled; a layer's cost is its self time per item.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use rnl_net::time::Instant as VInstant;
use rnl_server::design::Design;
use rnl_server::journal::{Durability, FileJournal, FsyncPolicy};
use rnl_server::matrix::{DeploymentId, RoutingMatrix};
use rnl_server::reserve::ReservationId;
use rnl_server::shard::Federation;
use rnl_server::snapshot::Op;
use rnl_server::{web, RouteServer};
use rnl_tunnel::codec::FrameCodec;
use rnl_tunnel::compress::{Compressor, Decompressor};
use rnl_tunnel::msg::{Msg, PortId, RouterId, Span};
use rnl_tunnel::transport::{mem_pair_perfect, FrameBatch, MemTransport, TcpTransport, Transport};

use crate::trace::{Agg, Tracer};
use crate::traffic::{register_info, Frames};

/// Frames the pass takes from the workload's stream.
const SAMPLE: usize = 2048;
/// Minimum time spent repeating each micro-measurement.
const MIN_RUN: Duration = Duration::from_millis(40);

/// Per-layer totals plus the values that are not times.
pub struct LayerPass {
    pub spans: BTreeMap<&'static str, Agg>,
    pub compress_ratio: f64,
}

/// Run the pass over the first frames of `frames` (`wires` wires).
pub fn run(frames: &Frames, wires: usize, tmp: &Path, seed: u64) -> Result<LayerPass, String> {
    let mut t = Tracer::new(true);
    let n = SAMPLE.min(frames.wire_of.len());
    let compressed = !frames.encoded.is_empty();
    let payloads: Vec<Vec<u8>> = (0..n as u64)
        .map(|seq| {
            let mut p = Vec::new();
            frames.fill(seq, &mut p);
            p
        })
        .collect();
    // The wire protocol as the workload sends it, addressed to wire w's
    // site-A router `RouterId(w)`.
    let msg_for = |seq: usize, router: RouterId| -> Msg {
        let span = Span {
            trace: rnl_obs::TraceId(seq as u64 + 1),
            origin_us: seq as u64,
        };
        if compressed {
            Msg::DataCompressed {
                router,
                port: PortId(0),
                span,
                encoded: frames.encoded[seq].clone(),
            }
        } else {
            Msg::Data {
                router,
                port: PortId(0),
                span,
                frame: payloads[seq].clone(),
            }
        }
    };
    let wire = |seq: usize| frames.wire_of[seq] as usize;
    let msgs: Vec<Msg> = (0..n)
        .map(|s| msg_for(s, RouterId(wire(s) as u32)))
        .collect();

    codec_and_msg(&mut t, &msgs, &payloads)?;
    let compress_ratio = compress(&mut t, frames, &payloads);
    transport(&mut t, &msgs)?;
    relay(&mut t, &msg_for, &wire, n, wires, seed)?;
    matrix(&mut t, wires);
    web_ops(&mut t, seed)?;
    journal(&mut t, tmp)?;
    shard(&mut t, &msg_for, &wire, n, wires, seed)?;
    Ok(LayerPass {
        spans: t.summary(),
        compress_ratio,
    })
}

/// Repeat `f` (one span per call) until `MIN_RUN` has passed.
fn repeat(t: &mut Tracer, name: &'static str, items: u64, mut f: impl FnMut()) {
    let start = Instant::now();
    while start.elapsed() < MIN_RUN {
        t.span(name, items, &mut f);
    }
}

fn codec_and_msg(t: &mut Tracer, msgs: &[Msg], payloads: &[Vec<u8>]) -> Result<(), String> {
    let n = msgs.len() as u64;
    repeat(t, "codec.encode", n, || {
        for m in msgs {
            black_box(FrameCodec::encode(black_box(m)).ok());
        }
    });
    let mut stream = Vec::new();
    for m in msgs {
        stream.extend(FrameCodec::encode(m).map_err(|e| e.to_string())?);
    }
    repeat(t, "codec.decode", n, || {
        let mut codec = FrameCodec::new();
        for chunk in stream.chunks(64 * 1024) {
            codec.feed(chunk);
            while let Ok(Some(body)) = codec.next_frame() {
                black_box(body);
            }
        }
    });
    let bodies: Vec<Vec<u8>> = msgs.iter().map(Msg::encode).collect();
    let data_bodies: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Msg::Data {
                router: RouterId(i as u32),
                port: PortId(0),
                span: Span::NONE,
                frame: p.clone(),
            }
            .encode()
        })
        .collect();
    repeat(t, "msg.peek_data", n, || {
        for b in &data_bodies {
            black_box(Msg::peek_data(black_box(b)));
        }
    });
    repeat(t, "msg.decode", n, || {
        for b in &bodies {
            black_box(Msg::decode(black_box(b)).ok());
        }
    });
    Ok(())
}

/// Template compression of the workload's frames, each wire its own
/// stream as on the tunnel. Returns the compression ratio (in/out).
fn compress(t: &mut Tracer, frames: &Frames, payloads: &[Vec<u8>]) -> f64 {
    let n = payloads.len() as u64;
    let wires = frames
        .wire_of
        .iter()
        .map(|&w| w as usize + 1)
        .max()
        .unwrap_or(1);
    let mut encoded = Vec::new();
    let mut ratio = (0u64, 0u64);
    repeat(t, "compress.encode", n, || {
        let mut comps: Vec<Compressor> = (0..wires).map(|_| Compressor::new()).collect();
        encoded = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| comps[frames.wire_of[i] as usize].encode(p))
            .collect();
        ratio = comps.iter().fold((0, 0), |acc, c| {
            let (i, o) = c.counters();
            (acc.0 + i, acc.1 + o)
        });
    });
    repeat(t, "compress.decode", n, || {
        let mut decs: Vec<Decompressor> = (0..wires).map(|_| Decompressor::new()).collect();
        for (i, e) in encoded.iter().enumerate() {
            black_box(decs[frames.wire_of[i] as usize].decode(e).ok());
        }
    });
    if ratio.1 == 0 {
        1.0
    } else {
        ratio.0 as f64 / ratio.1 as f64
    }
}

/// `TcpTransport` over loopback: bursts of 16 sends, then polls until
/// the burst has arrived.
fn transport(t: &mut Tracer, msgs: &[Msg]) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut tx = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
    let mut rx = TcpTransport::accept(&listener).map_err(|e| e.to_string())?;
    let now = VInstant::EPOCH;
    let mut batch = FrameBatch::new();
    let start = Instant::now();
    while start.elapsed() < MIN_RUN {
        for chunk in msgs.chunks(16) {
            let sent = t.span("transport.send", chunk.len() as u64, || {
                chunk.iter().try_for_each(|m| tx.send(m, now))
            });
            sent.map_err(|e| e.to_string())?;
            let mut got = 0;
            let deadline = Instant::now() + Duration::from_secs(5);
            while got < chunk.len() {
                batch.clear();
                let polled = {
                    let open = t.enter("transport.poll");
                    let r = rx.poll_into(now, &mut batch);
                    t.exit(open, batch.len() as u64);
                    r
                };
                got += polled.map_err(|e| e.to_string())?;
                if Instant::now() > deadline {
                    return Err("loopback transport stalled".to_string());
                }
            }
        }
    }
    Ok(())
}

/// Register `per_site` routers on each of two in-memory sessions of
/// `server`; returns the client ends and the assigned ids.
fn mem_sites(
    attach: &mut dyn FnMut(usize, MemTransport) -> Result<(), String>,
    poll: &mut dyn FnMut(),
    per_site: usize,
    seed: u64,
) -> Result<Vec<(MemTransport, Vec<RouterId>)>, String> {
    let mut sites = Vec::new();
    for (k, pc) in ["site-a", "site-b"].into_iter().enumerate() {
        let (mut client, end) = mem_pair_perfect(seed + k as u64);
        attach(k, end)?;
        client
            .send(
                &Msg::Register(register_info(pc, seed | 1, per_site)),
                VInstant::EPOCH,
            )
            .map_err(|e| e.to_string())?;
        let mut ids = None;
        for _ in 0..100 {
            poll();
            for m in client.poll(VInstant::EPOCH).map_err(|e| e.to_string())? {
                if let Msg::RegisterAck(mut a) = m {
                    a.sort_by_key(|x| x.local_id);
                    ids = Some(a.iter().map(|x| x.router).collect::<Vec<_>>());
                }
            }
            if ids.is_some() {
                break;
            }
        }
        sites.push((client, ids.ok_or("in-process registration got no ack")?));
    }
    Ok(sites)
}

fn design(name: &str, a: RouterId, b: RouterId) -> Design {
    let mut d = Design::new(name);
    d.add_device(a);
    d.add_device(b);
    d.connect((a, PortId(0)), (b, PortId(0)))
        .expect("two fresh single-port routers connect");
    d
}

/// `RouteServer::poll` relaying bursts of 64 frames between two
/// in-memory sessions, as the in-process relay rig does.
fn relay(
    t: &mut Tracer,
    msg_for: &dyn Fn(usize, RouterId) -> Msg,
    wire: &dyn Fn(usize) -> usize,
    n: usize,
    wires: usize,
    seed: u64,
) -> Result<(), String> {
    let server = std::cell::RefCell::new(RouteServer::new());
    server.borrow_mut().set_enforce_reservations(false);
    let mut sites = mem_sites(
        &mut |_, end| {
            server.borrow_mut().attach(Box::new(end));
            Ok(())
        },
        &mut || server.borrow_mut().poll(VInstant::EPOCH),
        wires,
        seed,
    )?;
    let mut server = server.into_inner();
    let (ra, rb) = (sites[0].1.clone(), sites[1].1.clone());
    for w in 0..wires {
        server
            .deploy_design(
                "bench",
                &design(&format!("w{w}"), ra[w], rb[w]),
                VInstant::EPOCH,
            )
            .map_err(|e| e.to_string())?;
    }
    let msgs: Vec<Msg> = (0..n).map(|s| msg_for(s, ra[wire(s)])).collect();
    let mut now_us = 1u64;
    let mut batch = FrameBatch::new();
    let start = Instant::now();
    while start.elapsed() < MIN_RUN {
        for chunk in msgs.chunks(64) {
            now_us += 10;
            let now = VInstant::from_micros(now_us);
            for m in chunk {
                sites[0].0.send(m, now).map_err(|e| e.to_string())?;
            }
            let before = server.stats().frames_routed;
            let open = t.enter("server.relay");
            server.poll(now);
            let routed = server.stats().frames_routed - before;
            t.exit(open, routed);
            batch.clear();
            sites[1]
                .0
                .poll_into(now, &mut batch)
                .map_err(|e| e.to_string())?;
            if routed != chunk.len() as u64 || batch.len() != chunk.len() {
                return Err(format!(
                    "in-process relay delivered {}/{} frames",
                    batch.len(),
                    chunk.len()
                ));
            }
        }
    }
    repeat(t, "server.poll_idle", 1, || {
        now_us += 10;
        server.poll(VInstant::from_micros(now_us));
    });
    Ok(())
}

/// The dense routing matrix: deploy every wire's lab, look every
/// endpoint up, tear the labs down.
fn matrix(t: &mut Tracer, wires: usize) {
    let labs: Vec<(Vec<RouterId>, Vec<rnl_server::design::Link>)> = (0..wires as u32)
        .map(|w| {
            let (a, b) = (RouterId(2 * w + 1), RouterId(2 * w + 2));
            (vec![a, b], vec![((a, PortId(0)), (b, PortId(0)))])
        })
        .collect();
    let endpoints: Vec<(RouterId, PortId)> = labs.iter().map(|l| l.1[0].0).collect();
    let start = Instant::now();
    while start.elapsed() < MIN_RUN {
        let mut m = RoutingMatrix::new();
        let ids: Vec<DeploymentId> = t.span("matrix.deploy", wires as u64, || {
            labs.iter()
                .filter_map(|(r, l)| m.deploy(r, l).ok())
                .collect()
        });
        t.span("matrix.lookup", 256 * wires as u64, || {
            for _ in 0..256 {
                for &e in &endpoints {
                    black_box(m.lookup(black_box(e)));
                }
            }
        });
        t.span("matrix.teardown", wires as u64, || {
            for id in ids {
                black_box(m.teardown(id));
            }
        });
    }
}

/// `web::handle_json` lab cycles on an in-process server without a
/// journal (the journal is its own layer below).
fn web_ops(t: &mut Tracer, seed: u64) -> Result<(), String> {
    const PAIRS: usize = 32;
    let server = std::cell::RefCell::new(RouteServer::new());
    let sites = mem_sites(
        &mut |_, end| {
            server.borrow_mut().attach(Box::new(end));
            Ok(())
        },
        &mut || server.borrow_mut().poll(VInstant::EPOCH),
        PAIRS,
        seed,
    )?;
    let mut server = server.into_inner();
    let mut call = |t: &mut Tracer, name: &'static str, req: &str, now_us: u64| {
        let reply = t.span(name, 1, || {
            web::handle_json(&mut server, req, VInstant::from_micros(now_us))
        });
        if reply.contains("\"ok\":true") {
            Ok(reply)
        } else {
            Err(format!("in-process {req} -> {reply}"))
        }
    };
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < MIN_RUN * 2 {
        // Each cycle owns a fresh 10 s slot of the virtual clock, so the
        // reservations of reused pairs never overlap.
        let now = 1_000_000 + i as u64 * 10_000_000;
        let (a, b) = (sites[0].1[i % PAIRS], sites[1].1[i % PAIRS]);
        let name = format!("c{i}");
        call(
            t,
            "web.design_edit",
            &format!(r#"{{"op":"create_design","name":"{name}"}}"#),
            now,
        )?;
        for r in [a, b] {
            call(
                t,
                "web.design_edit",
                &format!(
                    r#"{{"op":"add_device","design":"{name}","router":{}}}"#,
                    r.0
                ),
                now,
            )?;
        }
        call(
            t,
            "web.design_edit",
            &format!(
                r#"{{"op":"connect_ports","design":"{name}","a_router":{},"a_port":0,"b_router":{},"b_port":0}}"#,
                a.0, b.0
            ),
            now,
        )?;
        call(
            t,
            "web.reserve",
            &format!(
                r#"{{"op":"reserve","user":"bench","design":"{name}","start_us":{now},"end_us":{}}}"#,
                now + 5_000_000
            ),
            now,
        )?;
        let reply = call(
            t,
            "web.deploy",
            &format!(r#"{{"op":"deploy","user":"bench","design":"{name}"}}"#),
            now + 1,
        )?;
        let id = rnl_server::json::Json::parse(&reply)
            .ok()
            .and_then(|j| j.get("deployment").and_then(|d| d.as_u64()))
            .ok_or("deploy reply carries no id")?;
        call(
            t,
            "web.teardown",
            &format!(r#"{{"op":"teardown","deployment":{id}}}"#),
            now + 2,
        )?;
        i += 1;
    }
    Ok(())
}

/// `FileJournal` on the run's own filesystem: each record appended, then
/// synced — the two halves of the server's default fsync-every-append.
fn journal(t: &mut Tracer, tmp: &Path) -> Result<(), String> {
    let dir = tmp.join("journal-layer");
    let mut wal = FileJournal::open(&dir).map_err(|e| e.to_string())?;
    wal.set_fsync_policy(FsyncPolicy::GroupCommit);
    let (a, b) = (RouterId(1), RouterId(2));
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < MIN_RUN * 4 {
        let ops = [
            Op::SaveDesign {
                design: design(&format!("c{i}"), a, b).to_json(),
            },
            Op::Reserve {
                id: ReservationId(i),
                user: "bench".to_string(),
                routers: vec![a, b],
                start: VInstant::from_micros(i * 10_000_000),
                end: VInstant::from_micros(i * 10_000_000 + 5_000_000),
            },
            Op::Deploy {
                id: DeploymentId(i),
                user: "bench".to_string(),
                design_name: format!("c{i}"),
                routers: vec![a, b],
                links: vec![((a, PortId(0)), (b, PortId(0)))],
            },
            Op::Teardown {
                id: DeploymentId(i),
            },
        ];
        for op in &ops {
            let payload = op.to_json().encode();
            t.span("journal.append", 1, || wal.append(payload.as_bytes()))
                .map_err(|e| e.to_string())?;
            t.span("journal.fsync", 1, || wal.flush())
                .map_err(|e| e.to_string())?;
        }
        i += 1;
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// A two-shard federation with site A on shard 0 and site B on shard 1:
/// every wire crosses the inter-shard trunk.
fn shard(
    t: &mut Tracer,
    msg_for: &dyn Fn(usize, RouterId) -> Msg,
    wire: &dyn Fn(usize) -> usize,
    n: usize,
    wires: usize,
    seed: u64,
) -> Result<(), String> {
    let fed = std::cell::RefCell::new(Federation::new(2, seed));
    fed.borrow_mut().set_enforce_reservations(false);
    let mut now_us = 0u64;
    let mut sites = mem_sites(
        &mut |k, end| {
            fed.borrow_mut()
                .attach_to(k, Box::new(end))
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
        &mut || fed.borrow_mut().poll(VInstant::EPOCH),
        wires,
        seed,
    )?;
    let mut fed = fed.into_inner();
    let (ra, rb) = (sites[0].1.clone(), sites[1].1.clone());
    for w in 0..wires {
        let name = format!("w{w}");
        for req in [
            format!(r#"{{"op":"create_design","name":"{name}"}}"#),
            format!(
                r#"{{"op":"add_device","design":"{name}","router":{}}}"#,
                ra[w].0
            ),
            format!(
                r#"{{"op":"add_device","design":"{name}","router":{}}}"#,
                rb[w].0
            ),
            format!(
                r#"{{"op":"connect_ports","design":"{name}","a_router":{},"a_port":0,"b_router":{},"b_port":0}}"#,
                ra[w].0, rb[w].0
            ),
            format!(r#"{{"op":"deploy","user":"bench","design":"{name}","force":true}}"#),
        ] {
            let reply = web::handle_json_sharded(&mut fed, &req, VInstant::from_micros(now_us));
            if !reply.contains("\"ok\":true") {
                return Err(format!("in-process federation {req} -> {reply}"));
            }
        }
    }
    // Let the trunks come up before timing.
    for _ in 0..200 {
        now_us += 1_000;
        fed.poll(VInstant::from_micros(now_us));
    }
    let msgs: Vec<Msg> = (0..n).map(|s| msg_for(s, ra[wire(s)])).collect();
    let mut batch = FrameBatch::new();
    let start = Instant::now();
    while start.elapsed() < MIN_RUN {
        for chunk in msgs.chunks(64) {
            now_us += 10;
            for m in chunk {
                sites[0]
                    .0
                    .send(m, VInstant::from_micros(now_us))
                    .map_err(|e| e.to_string())?;
            }
            let mut got = 0usize;
            let open = t.enter("shard.trunk_hop");
            for _ in 0..64 {
                fed.poll(VInstant::from_micros(now_us));
                let drain = t.enter("shard.drain");
                batch.clear();
                got += sites[1]
                    .0
                    .poll_into(VInstant::from_micros(now_us), &mut batch)
                    .map_err(|e| e.to_string())?;
                t.exit(drain, 0);
                if got >= chunk.len() {
                    break;
                }
                now_us += 10;
            }
            t.exit(open, got as u64);
            if got != chunk.len() {
                return Err(format!(
                    "in-process trunk delivered {got}/{} frames",
                    chunk.len()
                ));
            }
        }
    }
    repeat(t, "shard.poll_idle", 1, || {
        now_us += 10;
        fed.poll(VInstant::from_micros(now_us));
    });
    Ok(())
}
