//! The deployable back end: the process that would run at
//! `netlabs.accenture.com`.
//!
//! Three listening sockets:
//!
//! * `--ris-port` (default 4510) — RIS tunnel sessions. Interface PCs
//!   dial in, register their equipment, and enter packet-forwarding
//!   mode.
//! * `--api-port` (default 4511) — the web-services API. Each connection
//!   sends newline-delimited JSON requests (the `rnl_server::web` wire
//!   format) and receives one JSON reply line per request — the surface
//!   an HTTP/browser front end would wrap.
//! * `--metrics-port` (default 4512) — Prometheus-style text exposition.
//!   Any connection (an HTTP GET or a bare `nc`) receives the current
//!   snapshot of every `rnl_*` metric and the connection closes.
//!
//! Every server is a federation of `--shards N` route servers (default
//! 1): RIS sessions balance round-robin across the live shards,
//! cross-shard wires relay over supervised in-process trunks, and API
//! requests route through the sharded front tier. Every flag applies to
//! every shard.
//!
//! With `--state-dir PATH` the server is crash-safe: each shard journals
//! every state mutation to `PATH/shard-<k>/journal.rnl` and compacts it
//! into `PATH/shard-<k>/snapshot.rnl` every `--snapshot-every` seconds;
//! `PATH/federation.rnl` records deployments by federation id. On boot
//! each shard replays snapshot + tail, then waits out the grace window
//! for RIS boxes to redial and re-adopt their recovered deployments. A
//! shard whose journal fails is killed and recovered in place from the
//! same files while its siblings serve.
//!
//! With `--mesh` the server negotiates a direct peer path for every
//! deployed cross-session wire within one shard (each endpoint gets the peer's pc-name
//! plus an epoch-scoped secret) so the data plane skips the relay while
//! the paths stay healthy; a per-path supervisor on each RIS falls back
//! to the relay within a bounded window when the path dies and fails
//! back when it heals. Can also be toggled at runtime via the
//! `set_mesh` web op.
//!
//! ```text
//! cargo run -p rnl-server --bin routeserver -- --ris-port 4510 --api-port 4511
//! ```
//!
//! Virtual time maps 1:1 to wall time in this process.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Instant as WallInstant;

use rnl_net::time::Instant;
use rnl_server::journal::FsyncPolicy;
use rnl_server::overload::OverloadConfig;
use rnl_server::shard::Federation;
use rnl_server::{web, RouteServer};
use rnl_tunnel::transport::TcpTransport;

enum Event {
    RisSession(TcpStream),
    ApiRequest {
        line: String,
        reply: mpsc::Sender<String>,
    },
    /// A metrics scrape: the core loop renders the page on demand.
    Scrape(mpsc::Sender<String>),
}

fn main() {
    let mut ris_port = 4510u16;
    let mut api_port = 4511u16;
    let mut metrics_port = 4512u16;
    let mut grace_secs = rnl_server::DEFAULT_GRACE_WINDOW.as_secs();
    let mut state_dir: Option<String> = None;
    let mut snapshot_secs = rnl_server::DEFAULT_SNAPSHOT_EVERY.as_secs();
    let mut overload = OverloadConfig::default();
    let mut fsync_policy = FsyncPolicy::EveryAppend;
    let mut shards = 1usize;
    let mut mesh = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mesh" => mesh = true,
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--shards needs a count >= 1"));
            }
            "--ris-port" => {
                ris_port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--ris-port needs a number"));
            }
            "--api-port" => {
                api_port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--api-port needs a number"));
            }
            "--metrics-port" => {
                metrics_port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--metrics-port needs a number"));
            }
            "--grace-window" => {
                grace_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--grace-window needs seconds"));
            }
            "--state-dir" => {
                state_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--state-dir needs a path")),
                );
            }
            "--snapshot-every" => {
                snapshot_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--snapshot-every needs seconds"));
            }
            "--hwm" => {
                let tokens: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--hwm needs a token count"));
                // The refill rate tracks the mark: a server provisioned
                // for N ops of burst sustains N ops/s.
                overload.capacity = tokens;
                overload.refill_per_sec = tokens;
            }
            "--op-deadline" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--op-deadline needs seconds"));
                overload.op_deadline = rnl_net::time::Duration::from_secs(secs);
            }
            "--fsync-every" => {
                fsync_policy = match args.next().as_deref() {
                    Some("append") => FsyncPolicy::EveryAppend,
                    Some("poll") => FsyncPolicy::GroupCommit,
                    _ => usage("--fsync-every needs \"append\" or \"poll\""),
                };
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let start = WallInstant::now();
    let now = move || Instant::from_micros(start.elapsed().as_micros() as u64);

    let (tx, rx) = mpsc::channel::<Event>();

    // Acceptor: RIS tunnel sessions.
    let ris_listener = TcpListener::bind(("0.0.0.0", ris_port)).expect("bind RIS port");
    eprintln!("routeserver: RIS sessions on :{ris_port}");
    {
        let tx = tx.clone();
        std::thread::spawn(move || {
            for stream in ris_listener.incoming().flatten() {
                if tx.send(Event::RisSession(stream)).is_err() {
                    return;
                }
            }
        });
    }

    // Acceptor: API connections (one thread per client; line-oriented).
    let api_listener = TcpListener::bind(("0.0.0.0", api_port)).expect("bind API port");
    eprintln!("routeserver: web-services API on :{api_port}");
    {
        let tx = tx.clone();
        std::thread::spawn(move || {
            for stream in api_listener.incoming().flatten() {
                let tx = tx.clone();
                std::thread::spawn(move || serve_api_client(stream, tx));
            }
        });
    }

    let mut fed = Federation::new(shards, 0x5eed);
    fed.set_grace_window(rnl_net::time::Duration::from_secs(grace_secs));
    fed.set_snapshot_every(rnl_net::time::Duration::from_secs(snapshot_secs));
    fed.set_overload_config(overload, now());
    fed.set_fsync_policy(fsync_policy);
    fed.set_mesh_enabled(mesh);
    // With --state-dir every shard boots through recovery: on an empty
    // directory that is a fresh start with a journal installed; after a
    // crash it replays snapshot + tail back to the pre-crash state and
    // waits out the grace window for RIS boxes to redial.
    if let Some(dir) = &state_dir {
        if let Err(e) = fed.enable_file_durability(dir, now()) {
            eprintln!("routeserver: cannot open state dir {dir}: {e}");
            std::process::exit(2);
        }
        for k in 0..shards {
            let Some(snap) = fed.server(k).map(|s| s.obs().snapshot()) else {
                continue;
            };
            eprintln!(
                "routeserver: shard {k} durable state in {dir}/shard-{k} \
                 (replayed {} journal records, {} torn)",
                snap.counter("rnl_server_journal_replayed_total", &[]),
                snap.counter("rnl_server_journal_torn_total", &[]),
            );
        }
        if fsync_policy == FsyncPolicy::GroupCommit {
            eprintln!("routeserver: group-commit fsync (one sync per poll)");
        }
    }
    if mesh {
        eprintln!("routeserver: mesh on (cross-session wires on one shard get direct peer paths)");
    }
    eprintln!(
        "routeserver: federation of {shards} shard(s); session flap grace window {grace_secs}s"
    );
    eprintln!(
        "routeserver: admission control: hwm {} tokens, op deadline {}s",
        overload.capacity,
        overload.op_deadline.as_micros() / 1_000_000
    );

    // Metrics exposition: each scrape asks the core loop for one page
    // covering the whole federation, so a snapshot is built only when
    // someone scrapes.
    let metrics_listener = TcpListener::bind(("0.0.0.0", metrics_port)).expect("bind metrics port");
    eprintln!("routeserver: metrics exposition on :{metrics_port}");
    std::thread::spawn(move || {
        for stream in metrics_listener.incoming().flatten() {
            let (reply, page) = mpsc::channel();
            if tx.send(Event::Scrape(reply)).is_err() {
                return;
            }
            let Ok(body) = page.recv() else { return };
            serve_metrics_body(stream, &body);
        }
    });

    // The single-threaded core loop: sessions, relay, API dispatch,
    // scrapes. A shard whose journal failed is killed on the spot and
    // recovered from its journal once its down window passes; its
    // siblings keep serving throughout.
    let mut next_shard = 0usize;
    loop {
        while let Ok(event) = rx.try_recv() {
            match event {
                Event::RisSession(stream) => match TcpTransport::from_stream(stream) {
                    Ok(transport) => {
                        let shard = (0..shards)
                            .map(|i| (next_shard + i) % shards)
                            .find(|&k| fed.is_up(k));
                        next_shard = next_shard.wrapping_add(1);
                        match shard {
                            Some(k) => match fed.attach_to(k, Box::new(transport)) {
                                Ok(sid) => eprintln!(
                                    "routeserver: RIS session {sid:?} attached to shard {k}"
                                ),
                                Err(e) => eprintln!("routeserver: attach failed: {e}"),
                            },
                            None => {
                                eprintln!("routeserver: every shard is down; dropping RIS session")
                            }
                        }
                    }
                    Err(e) => eprintln!("routeserver: bad session: {e}"),
                },
                Event::ApiRequest { line, reply } => {
                    let _ = reply.send(web::handle_json_sharded(&mut fed, &line, now()));
                }
                Event::Scrape(reply) => {
                    let _ = reply.send(rnl_obs::render_prometheus(&fed.metrics_snapshot()));
                }
            }
        }
        fed.poll(now());
        for k in 0..shards {
            if fed.server(k).is_some_and(RouteServer::crashed) {
                eprintln!(
                    "routeserver: shard {k} journal write failed; \
                     killing and recovering in place"
                );
                fed.kill_shard(k, Some(rnl_net::time::Duration::from_secs(5)), now());
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(500));
    }
}

fn serve_api_client(stream: TcpStream, tx: mpsc::Sender<Event>) {
    let peer = stream.peer_addr().ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx
            .send(Event::ApiRequest {
                line,
                reply: reply_tx,
            })
            .is_err()
        {
            break;
        }
        let Ok(response) = reply_rx.recv() else { break };
        if writeln!(writer, "{response}").is_err() {
            break;
        }
    }
    eprintln!("routeserver: API client {peer:?} disconnected");
}

/// Answer one scrape with a rendered page: an HTTP response if the
/// peer spoke HTTP (a request line ending in a blank line), otherwise
/// the bare text body.
fn serve_metrics_body(mut stream: TcpStream, body: &str) {
    let mut probe = [0u8; 4];
    let spoke_http = {
        use std::io::Read;
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .ok();
        matches!(stream.read(&mut probe), Ok(n) if n >= 3 && &probe[..3] == b"GET")
    };
    let _ = if spoke_http {
        write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        write!(stream, "{body}")
    };
}

fn usage(msg: &str) -> ! {
    eprintln!("routeserver: {msg}");
    eprintln!(
        "usage: routeserver [--ris-port N] [--api-port N] [--metrics-port N] \
         [--shards N] [--mesh] [--grace-window SECS] [--state-dir PATH] \
         [--snapshot-every SECS] [--hwm TOKENS] [--op-deadline SECS] \
         [--fsync-every append|poll]"
    );
    std::process::exit(2);
}
