//! The deployable `routeserver` binary end to end over loopback: the
//! default launch (a federation of one) and `--shards 2` run the same
//! core loop, so each must print the startup lines tools wait on,
//! enforce reservations, expose per-shard liveness on the metrics port,
//! and replay its journals after a restart on the same `--state-dir`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant as WallInstant};

use rnl_device::host::Host;
use rnl_net::time::Instant;
use rnl_ris::Ris;
use rnl_server::json::Json;
use rnl_tunnel::transport::TcpTransport;

const STARTUP: Duration = Duration::from_secs(20);

fn free_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    listener.local_addr().expect("local addr").port()
}

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// One running `routeserver` process; killed on drop.
struct Server {
    child: Child,
    lines: mpsc::Receiver<String>,
    /// Every stderr line read so far.
    log: Vec<String>,
    ris: SocketAddr,
    api: SocketAddr,
    metrics: SocketAddr,
}

impl Server {
    fn spawn(extra: &[&str], state_dir: &Path) -> Server {
        let (ris, api, metrics) = (free_port(), free_port(), free_port());
        let mut child = Command::new(env!("CARGO_BIN_EXE_routeserver"))
            .args(["--ris-port", &ris.to_string()])
            .args(["--api-port", &api.to_string()])
            .args(["--metrics-port", &metrics.to_string()])
            .arg("--state-dir")
            .arg(state_dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn routeserver");
        let stderr = child.stderr.take().expect("stderr pipe");
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        let mut server = Server {
            child,
            lines,
            log: Vec::new(),
            ris: loopback(ris),
            api: loopback(api),
            metrics: loopback(metrics),
        };
        server.wait_for("metrics exposition on :");
        server
    }

    /// Read stderr until a line contains `needle`; returns that line.
    fn wait_for(&mut self, needle: &str) -> String {
        let deadline = WallInstant::now() + STARTUP;
        loop {
            if let Some(line) = self.log.iter().find(|l| l.contains(needle)) {
                return line.clone();
            }
            let left = deadline.saturating_duration_since(WallInstant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => self.log.push(line),
                Err(_) => panic!("no {needle:?} line; stderr so far: {:#?}", self.log),
            }
        }
    }

    /// One API request on a fresh connection; the parsed reply.
    fn call(&self, request: &str) -> Json {
        let mut stream = TcpStream::connect(self.api).expect("connect API");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        writeln!(stream, "{request}").expect("send request");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read reply");
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    /// Like [`Server::call`], but the reply must be `"ok":true`.
    fn ok(&self, request: &str) -> Json {
        let reply = self.call(request);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{request} -> {}",
            reply.encode()
        );
        reply
    }

    fn scrape(&self) -> String {
        let mut stream = TcpStream::connect(self.metrics).expect("connect metrics");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut page = String::new();
        stream.read_to_string(&mut page).expect("read page");
        page
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A RIS with two hosts, dialed into the server and polled on its own
/// thread until the returned flag is set.
fn run_site(server: SocketAddr) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let start = WallInstant::now();
        let now = || Instant::from_micros(start.elapsed().as_micros() as u64);
        let transport = TcpTransport::connect(server).expect("dial the route server");
        let mut ris = Ris::new("bin-pc", Box::new(transport));
        for (i, ip) in ["10.9.0.1/24", "10.9.0.2/24"].into_iter().enumerate() {
            let mut host = Host::new(&format!("h{i}"), 90 + i as u32);
            host.set_ip(ip.parse().expect("valid address"));
            ris.add_device(Box::new(host), "bin host");
        }
        ris.join_labs(now()).expect("join");
        while !flag.load(Ordering::Relaxed) {
            let _ = ris.poll(now());
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    (stop, handle)
}

/// Router ids of the registered inventory, once it holds `n` routers.
fn inventory(server: &Server, n: usize) -> Vec<u64> {
    let deadline = WallInstant::now() + STARTUP;
    loop {
        let reply = server.ok(r#"{"op":"list_inventory"}"#);
        let ids: Vec<u64> = reply
            .get("inventory")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .filter_map(|r| r.get("router").and_then(Json::as_u64))
                    .collect()
            })
            .unwrap_or_default();
        if ids.len() >= n {
            return ids;
        }
        assert!(
            WallInstant::now() < deadline,
            "inventory never reached {n}: {}",
            reply.encode()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rnl-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lifecycle(extra: &[&str], tag: &str) {
    let dir = state_dir(tag);
    {
        let mut server = Server::spawn(extra, &dir);
        server.wait_for("RIS sessions on :");
        let (stop, site) = run_site(server.ris);
        let ids = inventory(&server, 2);
        let (a, b) = (ids[0], ids[1]);
        server.ok(r#"{"op":"create_design","name":"lab"}"#);
        for r in [a, b] {
            server.ok(&format!(
                r#"{{"op":"add_device","design":"lab","router":{r}}}"#
            ));
        }
        server.ok(&format!(
            r#"{{"op":"connect_ports","design":"lab","a_router":{a},"a_port":0,"b_router":{b},"b_port":0}}"#
        ));
        // Reservations are enforced at every shard count.
        let refused = server.call(r#"{"op":"deploy","user":"alice","design":"lab"}"#);
        assert_eq!(
            refused.get("code").and_then(Json::as_str),
            Some("reservation"),
            "unreserved deploy: {}",
            refused.encode()
        );
        server.ok(
            r#"{"op":"reserve","user":"alice","design":"lab","start_us":0,"end_us":3600000000}"#,
        );
        server.ok(r#"{"op":"deploy","user":"alice","design":"lab"}"#);
        let page = server.scrape();
        assert!(
            page.lines()
                .any(|l| l == r#"rnl_server_shard_up{shard="0"} 1"#),
            "no shard-0 liveness in the scrape:\n{page}"
        );
        stop.store(true, Ordering::Relaxed);
        site.join().expect("site thread");
    }
    // Second life on the same state dir: shard 0 journaled at least the
    // site's registration, and the saved design comes back.
    let mut server = Server::spawn(extra, &dir);
    let line = server.wait_for("shard 0 durable state");
    let replayed: u64 = line
        .split("replayed ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparsable replay line {line:?}"));
    assert!(replayed >= 1, "{line}");
    let designs = server.ok(r#"{"op":"list_designs"}"#).encode();
    assert!(designs.contains("\"lab\""), "{designs}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_launch_is_a_federation_of_one() {
    lifecycle(&[], "one");
}

#[test]
fn two_shard_launch_runs_the_same_loop() {
    lifecycle(&["--shards", "2"], "two");
}
