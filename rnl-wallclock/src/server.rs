//! The `routeserver` process: build, spawn on free loopback ports, read
//! its CPU and wake-up counters from `/proc`, scrape it, and kill it on
//! every exit path (the guard's `Drop` runs on early returns and panics).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::traffic::Clock;

/// Where cargo puts build output (`CARGO_TARGET_DIR`, else `target`).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Build the `routeserver` binary from the workspace in the current
/// directory. `cargo build --release` at the root builds only the root
/// package, so the binary is named explicitly.
pub fn build_routeserver() -> Result<PathBuf, String> {
    if !Path::new("crates/server/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/server is missing".to_string());
    }
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "rnl-server",
            "--bin",
            "routeserver",
        ])
        .stdin(Stdio::null())
        .stdout(std::io::stderr())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building routeserver failed: {status}"));
    }
    let bin = target_dir().join("release").join("routeserver");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// How to start the server.
#[derive(Debug, Clone)]
pub struct Launch {
    pub shards: usize,
    pub state_dir: Option<PathBuf>,
}

/// A running `routeserver`, killed and reaped when dropped.
pub struct Server {
    child: Child,
    pub ris: SocketAddr,
    pub api: SocketAddr,
    pub metrics: SocketAddr,
    /// When the server's first startup line was read: its clock (µs
    /// since it started) is never behind `clock_base.elapsed()`.
    clock_base: Instant,
    /// Time from spawn to `clock_base`: how far behind the server's own
    /// clock [`Server::clock`] can read.
    pub clock_slack: Duration,
    stderr: Option<JoinHandle<()>>,
    tail: Arc<Mutex<VecDeque<String>>>,
}

enum Startup {
    Clock(Instant),
    Ready,
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

impl Server {
    /// Spawn on fresh free ports; retries when a port was taken between
    /// picking and binding it.
    pub fn spawn(bin: &Path, launch: &Launch) -> Result<Server, String> {
        let mut last = String::new();
        for _ in 0..3 {
            match Server::spawn_once(bin, launch) {
                Ok(server) => return Ok(server),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn spawn_once(bin: &Path, launch: &Launch) -> Result<Server, String> {
        let (ris, api, metrics) = (free_port()?, free_port()?, free_port()?);
        let mut cmd = Command::new(bin);
        cmd.args(["--ris-port", &ris.to_string()])
            .args(["--api-port", &api.to_string()])
            .args(["--metrics-port", &metrics.to_string()]);
        if launch.shards > 1 {
            cmd.args(["--shards", &launch.shards.to_string()]);
        }
        if let Some(dir) = &launch.state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let spawned_at = Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().ok_or("no stderr pipe")?;
        let tail = Arc::new(Mutex::new(VecDeque::new()));
        let (tx, rx) = mpsc::channel();
        let reader = {
            let tail = Arc::clone(&tail);
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines() {
                    let Ok(line) = line else { break };
                    if line.contains("RIS sessions on") {
                        let _ = tx.send(Startup::Clock(Instant::now()));
                    }
                    if line.contains("metrics exposition on") {
                        let _ = tx.send(Startup::Ready);
                    }
                    if let Ok(mut t) = tail.lock() {
                        if t.len() >= 40 {
                            t.pop_front();
                        }
                        t.push_back(line);
                    }
                }
            })
        };
        let loopback = |port| SocketAddr::from(([127, 0, 0, 1], port));
        let mut server = Server {
            child,
            ris: loopback(ris),
            api: loopback(api),
            metrics: loopback(metrics),
            clock_base: spawned_at,
            clock_slack: Duration::ZERO,
            stderr: Some(reader),
            tail,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut clock = None;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left.min(Duration::from_millis(50))) {
                Ok(Startup::Clock(at)) => clock = Some(at),
                Ok(Startup::Ready) => break,
                Err(mpsc::RecvTimeoutError::Timeout) if !left.is_zero() => {
                    if !server.alive() {
                        return Err(format!("routeserver exited at startup: {}", server.tail()));
                    }
                }
                Err(_) => return Err(format!("routeserver did not start: {}", server.tail())),
            }
        }
        let clock = clock.ok_or("routeserver printed no startup line")?;
        server.clock_base = clock;
        server.clock_slack = clock.duration_since(spawned_at);
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time of every server thread plus the core loop's wake-ups.
    pub fn sample(&self) -> ProcSample {
        ProcSample::of(self.pid())
    }

    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// The server's clock as seen from here: never ahead of it, behind
    /// by at most `clock_slack`.
    pub fn clock(&self) -> Clock {
        Clock {
            base: self.clock_base,
        }
    }

    /// The last lines the server wrote to stderr.
    pub fn tail(&self) -> String {
        self.tail
            .lock()
            .map(|t| t.iter().cloned().collect::<Vec<_>>().join(" | "))
            .unwrap_or_default()
    }

    /// One Prometheus scrape of the metrics port.
    pub fn scrape(&self) -> Result<String, String> {
        let mut s = TcpStream::connect_timeout(&self.metrics, Duration::from_secs(2))
            .map_err(|e| format!("metrics connect: {e}"))?;
        // A silent peer gets the bare page once the server's 50 ms HTTP
        // probe times out; a request the probe leaves unread would make
        // the server's close reset the connection.
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut body = String::new();
        s.read_to_string(&mut body)
            .map_err(|e| format!("metrics read: {e}"))?;
        Ok(body)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Counters of one process read from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub at: Option<Instant>,
    /// Time on CPU of all threads, ns (`/proc/<pid>/task/*/schedstat`).
    pub cpu_ns: u64,
    /// Voluntary context switches of the main thread (the core loop):
    /// each is one sleep, so one wake-up.
    pub loop_wakeups: u64,
}

impl ProcSample {
    pub fn of(pid: u32) -> ProcSample {
        let mut cpu_ns = 0;
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                cpu_ns += schedstat_ns(&task.path().join("schedstat"));
            }
        }
        let status =
            std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/status")).unwrap_or_default();
        let loop_wakeups = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        ProcSample {
            at: Some(Instant::now()),
            cpu_ns,
            loop_wakeups,
        }
    }

    /// Seconds between two samples.
    pub fn secs_since(&self, earlier: &ProcSample) -> f64 {
        match (self.at, earlier.at) {
            (Some(a), Some(b)) => a.duration_since(b).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// First field of a schedstat file: ns on CPU.
pub fn schedstat_ns(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Sum of every sample of `metric` (any labels) in a Prometheus page.
pub fn scrape_sum(page: &str, metric: &str) -> f64 {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, rest) = l.split_at(l.find(['{', ' '])?);
            (name == metric).then_some(rest)
        })
        .filter_map(|rest| rest.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The largest sample of `metric` whose labels contain every `want`
/// pair (several shards each export their own series).
pub fn scrape_max(page: &str, metric: &str, want: &[&str]) -> Option<f64> {
    page.lines()
        .filter(|l| l.starts_with(metric) && l[metric.len()..].starts_with('{'))
        .filter(|l| want.iter().all(|w| l.contains(w)))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parsing() {
        let page = "# TYPE a counter\na{x=\"1\"} 2\na{x=\"2\"} 3\nab 7\n\
                    q{phase=\"total\",quantile=\"0.5\"} 40\nq{phase=\"total\",quantile=\"0.9\"} 90\n";
        assert_eq!(scrape_sum(page, "a"), 5.0);
        assert_eq!(scrape_sum(page, "ab"), 7.0);
        assert_eq!(
            scrape_max(page, "q", &["phase=\"total\"", "quantile=\"0.5\""]),
            Some(40.0)
        );
        assert_eq!(scrape_max(page, "zz", &[]), None);
    }
}
