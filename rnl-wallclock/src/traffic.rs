//! The data plane: two RIS sessions played from this process, an
//! open-loop generator on site A and a checking receiver on site B.
//!
//! Site A is a [`TcpTransport`], as in the real RIS; site B reads a
//! blocking socket through [`FrameCodec`] so delivery is seen the moment
//! the kernel has it, without a poll loop of the benchmark's own adding
//! to the latency. Every frame carries a [`Span`] whose `origin_us` is
//! its due time on the server's clock, so the server's own relay-latency
//! series stays meaningful and the receiver times each frame from when
//! it was due.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rnl_net::time::Instant as VInstant;
use rnl_obs::TraceId;
use rnl_tunnel::codec::FrameCodec;
use rnl_tunnel::compress::Compressor;
use rnl_tunnel::msg::{
    ImageRegion, Msg, PortId, PortInfo, RegisterInfo, RouterId, RouterInfo, SessionEpoch, Span,
};
use rnl_tunnel::transport::{FrameBatch, OverflowPolicy, TcpTransport, Transport};

use crate::server::ProcSample;
use crate::stats::Rng;
use crate::trace::{Agg, Tracer};

/// The server's clock as seen from here (see [`crate::server::Server`]).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub base: Instant,
}

impl Clock {
    pub fn now_us(&self) -> u64 {
        self.base.elapsed().as_micros() as u64
    }

    pub fn instant_of(&self, us: u64) -> Instant {
        self.base + Duration::from_micros(us)
    }

    pub fn vnow(&self) -> VInstant {
        VInstant::from_micros(self.now_us())
    }
}

/// `n` single-port routers, as a RIS fronting `n` devices registers them.
pub fn register_info(pc: &str, token: u64, n: usize) -> RegisterInfo {
    RegisterInfo {
        pc_name: pc.to_string(),
        epoch: SessionEpoch {
            token,
            generation: 0,
        },
        routers: (0..n as u32)
            .map(|i| RouterInfo {
                local_id: i,
                description: format!("{pc} device {i}"),
                model: "bench-port".to_string(),
                image: "bench.png".to_string(),
                ports: vec![PortInfo {
                    description: "p0".to_string(),
                    nic: format!("eth{i}"),
                    region: ImageRegion::default(),
                }],
                console_com: None,
            })
            .collect(),
    }
}

fn ack_ids(msg: Msg, n: usize) -> Option<Vec<RouterId>> {
    let Msg::RegisterAck(mut assignments) = msg else {
        return None;
    };
    assignments.sort_by_key(|a| a.local_id);
    (assignments.len() == n).then(|| assignments.iter().map(|a| a.router).collect())
}

/// Both sites, registered.
pub struct Sites {
    pub a: TcpTransport,
    pub b: TcpStream,
    pub b_codec: FrameCodec,
    pub a_routers: Vec<RouterId>,
    pub b_routers: Vec<RouterId>,
}

impl Sites {
    /// Dial and register site A, then site B (in that order, so a
    /// two-shard server puts them on different shards).
    pub fn register(
        ris: std::net::SocketAddr,
        clock: Clock,
        per_site: usize,
        seed: u64,
    ) -> Result<Sites, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut a = TcpTransport::connect(ris).map_err(|e| format!("site A dial: {e}"))?;
        // The generator never waits on the kernel: a frame the kernel
        // cannot take yet waits in the transport's backlog, never dropped.
        a.set_backlog_limit(usize::MAX, OverflowPolicy::Disconnect);
        a.send(
            &Msg::Register(register_info("site-a", seed | 1, per_site)),
            clock.vnow(),
        )
        .map_err(|e| format!("site A register: {e}"))?;
        let mut batch = FrameBatch::new();
        let a_routers = loop {
            batch.clear();
            a.poll_into(clock.vnow(), &mut batch)
                .map_err(|e| format!("site A poll: {e}"))?;
            let ids = (0..batch.len())
                .filter_map(|i| Msg::decode(batch.get(i)?).ok())
                .find_map(|m| ack_ids(m, per_site));
            if let Some(ids) = ids {
                break ids;
            }
            if Instant::now() > deadline {
                return Err("site A: no RegisterAck".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let mut b = TcpStream::connect(ris).map_err(|e| format!("site B dial: {e}"))?;
        b.set_nodelay(true).map_err(|e| e.to_string())?;
        b.set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(|e| e.to_string())?;
        let reg = FrameCodec::encode(&Msg::Register(register_info(
            "site-b",
            (seed << 1) | 1,
            per_site,
        )))
        .map_err(|e| e.to_string())?;
        b.write_all(&reg)
            .map_err(|e| format!("site B register: {e}"))?;
        let mut b_codec = FrameCodec::new();
        let mut buf = vec![0u8; 64 * 1024];
        let b_routers = 'ack: loop {
            match b.read(&mut buf) {
                Ok(0) => return Err("site B: server closed the session".to_string()),
                Ok(n) => b_codec.feed(&buf[..n]),
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(format!("site B read: {e}")),
            }
            while let Some(msg) = b_codec.next_msg().map_err(|e| e.to_string())? {
                if let Some(ids) = ack_ids(msg, per_site) {
                    break 'ack ids;
                }
            }
            if Instant::now() > deadline {
                return Err("site B: no RegisterAck".to_string());
            }
        };
        Ok(Sites {
            a,
            b,
            b_codec,
            a_routers,
            b_routers,
        })
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The frames a run offers, all derived from the seed.
#[derive(Debug)]
pub struct Frames {
    pub size: usize,
    seed: u64,
    templates: Vec<Vec<u8>>,
    /// Wire index of each frame, by sequence number.
    pub wire_of: Vec<u16>,
    /// Template-compressed payloads by sequence number (compressed
    /// workloads only), encoded per wire in send order at set-up.
    pub encoded: Vec<Vec<u8>>,
}

impl Frames {
    pub fn generate(seed: u64, size: usize, wires: usize, total: u64, compressed: bool) -> Frames {
        let mut rng = Rng::new(seed ^ 0x7769_7265);
        let templates = (0..wires)
            .map(|w| {
                let mut t = vec![0u8; size];
                rng.fill(&mut t);
                // Ethernet header: per-wire MACs and an IPv4 ethertype,
                // the part consecutive frames of a flow share.
                t[..6].copy_from_slice(&[0x02, 0, 0, 0, 0xb0, w as u8]);
                t[6..12].copy_from_slice(&[0x02, 0, 0, 0, 0xa0, w as u8]);
                t[12..14].copy_from_slice(&[0x08, 0x00]);
                t
            })
            .collect();
        let wire_of = (0..total).map(|_| rng.below(wires as u64) as u16).collect();
        let mut frames = Frames {
            size,
            seed,
            templates,
            wire_of,
            encoded: Vec::new(),
        };
        if compressed {
            frames.encode_all();
        }
        frames
    }

    /// Payload of frame `seq` into `out`: the wire's template with a
    /// sequence number and four seeded 4-byte runs rewritten, as
    /// consecutive frames of one flow differ in a few header fields.
    pub fn fill(&self, seq: u64, out: &mut Vec<u8>) {
        let wire = self.wire_of[seq as usize] as usize;
        out.clear();
        out.extend_from_slice(&self.templates[wire]);
        let n = out.len();
        out[14..22].copy_from_slice(&seq.to_be_bytes());
        let mut rng = Rng::new(self.seed ^ seq.wrapping_mul(0x2545_f491_4f6c_dd1d));
        for _ in 0..4 {
            let at = 22 + rng.below((n - 26) as u64) as usize;
            out[at..at + 4].copy_from_slice(&(rng.next_u64() as u32).to_le_bytes());
        }
    }

    /// Pre-encode every wire's stream, wires split across two threads.
    fn encode_all(&mut self) {
        let total = self.wire_of.len();
        let wires = self.templates.len();
        let this = &*self;
        let parts: Vec<Vec<(usize, Vec<u8>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2usize)
                .map(|t| {
                    s.spawn(move || {
                        let mut comps: Vec<Compressor> =
                            (0..wires).map(|_| Compressor::new()).collect();
                        let mut out = Vec::new();
                        let mut buf = Vec::new();
                        for seq in (0..total).filter(|&q| this.wire_of[q] as usize % 2 == t) {
                            let w = this.wire_of[seq] as usize;
                            this.fill(seq as u64, &mut buf);
                            out.push((seq, comps[w].encode(&buf)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("encoder thread panicked"))
                .collect()
        });
        let mut encoded = vec![Vec::new(); total];
        for (seq, bytes) in parts.into_iter().flatten() {
            encoded[seq] = bytes;
        }
        self.encoded = encoded;
    }
}

/// One step of the run's schedule.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Sessions attached, labs deployed, no traffic (vCPUs kept busy).
    Idle { secs: f64, windows: u64 },
    /// Open loop: frames `first..first+frames` at `rate` frames/s.
    Traffic {
        rate: f64,
        first: u64,
        frames: u64,
        traced: bool,
        windows: u64,
        /// Alternate busy and quiet windows (see [`generate`]); when
        /// false every window is busy.
        alternate: bool,
    },
}

impl Phase {
    /// Whether the traffic threads keep the vCPUs busy in window `j`.
    pub fn busy(&self, j: u64) -> bool {
        match *self {
            Phase::Idle { .. } => true,
            Phase::Traffic { alternate, .. } => !alternate || j.is_multiple_of(2),
        }
    }

    pub fn secs(&self) -> f64 {
        match *self {
            Phase::Idle { secs, .. } => secs,
            Phase::Traffic { rate, frames, .. } => frames as f64 / rate,
        }
    }

    /// Frames `range` of window `j` (traffic phases).
    pub fn window_frames(&self, j: u64) -> std::ops::Range<u64> {
        match *self {
            Phase::Idle { .. } => 0..0,
            Phase::Traffic {
                first,
                frames,
                windows,
                ..
            } => first + j * frames / windows..first + (j + 1) * frames / windows,
        }
    }
}

/// What the generator measured over one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseOut {
    /// Server counters at the phase start and at the end of each of its
    /// windows (a traffic window ends as its last frame is sent).
    pub marks: Vec<ProcSample>,
    /// Server counters once the phase has drained.
    pub server_after: ProcSample,
    pub start: Option<Instant>,
    /// Time the generator spent building and sending frames (not
    /// waiting for the next due time), ns, and the time from the phase
    /// start to its last send, s.
    pub gen_busy_ns: u64,
    pub send_s: f64,
    /// Lateness of every frame behind its due time, µs.
    pub late_us: Vec<f32>,
    /// Whether every frame arrived before the drain timeout.
    pub drained: bool,
}

/// Everything the receiver saw.
#[derive(Debug, Default)]
pub struct RecvOut {
    /// One-way latency per sequence number, µs (NaN: never delivered).
    pub lat_us: Vec<f32>,
    pub duplicates: u64,
    pub misrouted: u64,
    pub corrupted: u64,
    pub undecodable: u64,
    pub control: u64,
    pub spans: std::collections::BTreeMap<&'static str, Agg>,
}

/// Shared state between the generator, the receiver and the caller.
pub struct Link {
    pub frames: Arc<Frames>,
    pub a_routers: Vec<RouterId>,
    pub b_routers: Vec<RouterId>,
    /// Wire `w` runs from site A router `wires[w]` to site B router
    /// `wires[w]` (both port 0).
    pub wires: Vec<usize>,
    pub clock: Clock,
    pub server_pid: u32,
    pub received: Arc<AtomicU64>,
    pub stop: Arc<AtomicBool>,
    /// Set while a traffic phase runs and drains: the receiver polls
    /// instead of blocking (see [`generate`]).
    pub hot: Arc<AtomicBool>,
}

/// Run the receiver until `stop` is set.
pub fn receive(mut b: TcpStream, mut codec: FrameCodec, link: &Link, traced: bool) -> RecvOut {
    let total = link.frames.wire_of.len();
    let mut out = RecvOut {
        lat_us: vec![f32::NAN; total],
        ..RecvOut::default()
    };
    let mut tracer = Tracer::new(traced);
    let mut buf = vec![0u8; 256 * 1024];
    let mut expect = Vec::with_capacity(link.frames.size);
    let mut polling = false;
    'read: loop {
        let hot = link.hot.load(Ordering::SeqCst);
        if hot != polling {
            polling = hot;
            let _ = b.set_nonblocking(hot);
        }
        let n = match b.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if is_timeout(&e) => {
                if link.stop.load(Ordering::SeqCst) {
                    break;
                }
                if polling {
                    std::thread::yield_now();
                }
                continue;
            }
            Err(_) => break,
        };
        let at = Instant::now();
        tracer.span("codec.feed", n as u64, || codec.feed(&buf[..n]));
        let span = tracer.enter("recv.check");
        let mut handled = 0u64;
        loop {
            let body = match codec.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                // A bad length prefix leaves the stream unframeable.
                Err(_) => {
                    out.undecodable += 1;
                    tracer.exit(span, handled);
                    break 'read;
                }
            };
            handled += 1;
            let Some(data) = Msg::peek_data(body) else {
                match Msg::decode(body) {
                    Ok(_) => out.control += 1,
                    Err(_) => out.undecodable += 1,
                }
                continue;
            };
            let seq = data.span.trace.0.wrapping_sub(1);
            if seq as usize >= total {
                out.corrupted += 1;
                continue;
            }
            let wire = link.frames.wire_of[seq as usize] as usize;
            if data.router != link.b_routers[link.wires[wire]] || data.port != PortId(0) {
                out.misrouted += 1;
                continue;
            }
            link.frames.fill(seq, &mut expect);
            if data.payload != expect.as_slice() {
                out.corrupted += 1;
                continue;
            }
            let slot = &mut out.lat_us[seq as usize];
            if !slot.is_nan() {
                out.duplicates += 1;
                continue;
            }
            let due = link.clock.instant_of(data.span.origin_us);
            *slot = at.saturating_duration_since(due).as_secs_f64() as f32 * 1e6;
            link.received.fetch_add(1, Ordering::SeqCst);
        }
        tracer.exit(span, handled);
    }
    out.spans = tracer.summary();
    out
}

/// The generator: runs every phase in order on site A, heartbeating both
/// sessions, and reports per-phase measurements. `on_start` is called as
/// each phase begins.
///
/// In a busy window the generator and the receiver never sleep: between
/// frames they yield the CPU instead. On a virtual machine a halted vCPU
/// wakes only when the hypervisor schedules it again, and that delay
/// swings with the host's other tenants; with both vCPUs kept busy, the
/// server's timer and socket wake-ups preempt a yielding thread inside
/// the guest, so latency is measured without the host's noise. A busy
/// sibling vCPU in turn makes the server's CPU time per frame swing, so
/// quiet windows (both threads sleep and block between frames) measure
/// that. The idle window sends nothing but is busy too.
pub fn generate(
    mut a: TcpTransport,
    mut b_write: TcpStream,
    link: &Link,
    phases: &[Phase],
    on_start: &dyn Fn(usize),
) -> Result<(Vec<PhaseOut>, std::collections::BTreeMap<&'static str, Agg>), String> {
    let mut tracer = Tracer::new(false);
    let mut outs = Vec::with_capacity(phases.len());
    let mut batch = FrameBatch::new();
    let mut payload = Vec::with_capacity(link.frames.size);
    let mut hb_seq = 0u64;
    let mut next_hb = Instant::now();
    let clock = link.clock;
    let mut heartbeat = |a: &mut TcpTransport, now: Instant| -> Result<(), String> {
        if now < next_hb {
            return Ok(());
        }
        next_hb = now + Duration::from_secs(1);
        hb_seq += 1;
        let hb = Msg::Heartbeat {
            seq: hb_seq,
            epoch: 0,
        };
        a.send(&hb, clock.vnow())
            .map_err(|e| format!("site A: {e}"))?;
        let framed = FrameCodec::encode(&hb).map_err(|e| e.to_string())?;
        b_write
            .write_all(&framed)
            .map_err(|e| format!("site B heartbeat: {e}"))
    };
    for (k, phase) in phases.iter().enumerate() {
        let mut out = PhaseOut {
            marks: vec![ProcSample::of(link.server_pid)],
            ..PhaseOut::default()
        };
        let start = Instant::now();
        out.start = Some(start);
        on_start(k);
        let received0 = link.received.load(Ordering::SeqCst);
        match *phase {
            Phase::Idle { secs, windows } => {
                // Busy, like a busy traffic part: the server's idle
                // wake-ups are measured without the hypervisor's.
                link.hot.store(true, Ordering::SeqCst);
                for j in 1..=windows {
                    let end = start + Duration::from_secs_f64(secs * j as f64 / windows as f64);
                    while Instant::now() < end {
                        heartbeat(&mut a, Instant::now())?;
                        std::thread::yield_now();
                    }
                    out.marks.push(ProcSample::of(link.server_pid));
                }
                link.hot.store(false, Ordering::SeqCst);
                out.drained = true;
            }
            Phase::Traffic {
                rate,
                first,
                frames,
                traced,
                windows,
                ..
            } => {
                tracer.set_on(traced);
                let mut next_mark = 1u64;
                link.hot.store(phase.busy(0), Ordering::SeqCst);
                let start_us = clock.now_us();
                let due_us = |i: u64| start_us + (i as f64 * 1e6 / rate) as u64;
                out.late_us.reserve(frames as usize);
                let mut i = 0u64;
                while i < frames {
                    let now = Instant::now();
                    heartbeat(&mut a, now)?;
                    let woke = now;
                    let burst = tracer.enter("gen.burst");
                    let mut sent = 0u64;
                    while i < frames {
                        let origin = due_us(i);
                        let due = clock.instant_of(origin);
                        if due > now {
                            break;
                        }
                        let seq = first + i;
                        let wire = link.wires[link.frames.wire_of[seq as usize] as usize];
                        let span = Span {
                            trace: TraceId(seq + 1),
                            origin_us: origin,
                        };
                        let (router, port) = (link.a_routers[wire], PortId(0));
                        let msg = if link.frames.encoded.is_empty() {
                            link.frames.fill(seq, &mut payload);
                            Msg::Data {
                                router,
                                port,
                                span,
                                frame: payload.clone(),
                            }
                        } else {
                            Msg::DataCompressed {
                                router,
                                port,
                                span,
                                encoded: link.frames.encoded[seq as usize].clone(),
                            }
                        };
                        let sent_at = Instant::now();
                        tracer
                            .span("transport.send", 1, || a.send(&msg, clock.vnow()))
                            .map_err(|e| format!("site A send: {e}"))?;
                        out.late_us.push(
                            sent_at.saturating_duration_since(due).as_secs_f64() as f32 * 1e6,
                        );
                        i += 1;
                        sent += 1;
                        if i == next_mark * frames / windows {
                            out.marks.push(ProcSample::of(link.server_pid));
                            link.hot.store(phase.busy(next_mark), Ordering::SeqCst);
                            next_mark += 1;
                        }
                    }
                    tracer.exit(burst, sent);
                    // Site A receives no data; drain its control traffic.
                    batch.clear();
                    a.poll_into(clock.vnow(), &mut batch)
                        .map_err(|e| format!("site A poll: {e}"))?;
                    out.gen_busy_ns += woke.elapsed().as_nanos() as u64;
                    if i < frames {
                        let next = clock.instant_of(due_us(i));
                        if phase.busy(next_mark - 1) {
                            while Instant::now() < next {
                                std::thread::yield_now();
                            }
                        } else {
                            std::thread::sleep(next.saturating_duration_since(Instant::now()));
                        }
                    }
                }
                out.send_s = start.elapsed().as_secs_f64();
                tracer.set_on(false);
                // Drain: wait for the phase's frames to arrive (a lost
                // frame never does; the timeout bounds the wait).
                link.hot.store(true, Ordering::SeqCst);
                let end = Instant::now() + Duration::from_secs(1);
                loop {
                    let got = link.received.load(Ordering::SeqCst) - received0;
                    if got >= frames {
                        out.drained = true;
                        break;
                    }
                    if Instant::now() > end {
                        break;
                    }
                    let _ = a.flush(clock.vnow());
                    std::thread::yield_now();
                }
                link.hot.store(false, Ordering::SeqCst);
            }
        }
        out.server_after = ProcSample::of(link.server_pid);
        outs.push(out);
    }
    Ok((outs, tracer.summary()))
}
