//! rnl-wallclock: a wall-clock benchmark of the deployed `routeserver`
//! over loopback TCP.
//!
//! ```text
//! cargo run --release --offline --manifest-path rnl-wallclock/Cargo.toml -- \
//!     --workload wire_small --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds `routeserver`,
//! spawns it on free loopback ports, plays both RIS sites and the API
//! client itself, checks every delivered frame and API reply, and prints
//! one JSON result line last on stdout; the line before it carries the
//! host fingerprint, the traffic facts and every other figure of the
//! run. `--trace 1` adds the traced per-layer pass and reports the
//! per-layer metrics instead of the end-to-end ones. See README.md.

mod api;
mod churn;
mod layers;
mod report;
mod server;
mod stats;
mod trace;
mod traffic;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use api::Api;
use report::{cpu_pct, Metric};
use server::{Launch, Server};
use stats::{jstr, median, num};
use traffic::{Frames, Link, Phase, Sites};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The fixed-rate window is cut into parts this long, alternately busy
/// and quiet (see `traffic::generate`); its metrics are medians over the
/// parts.
const TRAFFIC_WINDOW_S: f64 = 0.5;
/// Idle windows are cut the same way, and each set-up that is not
/// measured further contributes `SETUP_IDLE_WINDOWS` parts too: idle
/// cost differs from one server process to the next as much as over
/// time. Every idle part is measured with the vCPUs kept busy.
const IDLE_WINDOW_S: f64 = 0.25;
const SETUP_IDLE_WINDOWS: usize = 8;

/// One workload: a traffic mix against one server configuration.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    frame: usize,
    compressed: bool,
    /// Standing one-wire labs deployed at set-up.
    wires: usize,
    /// Fixed offered rate, frames/s.
    rate: f64,
    shards: usize,
    state_dir: bool,
    /// Router pairs registered for lab churn (0: no churn).
    churn_pairs: usize,
    /// Rate ladder for `relay_capacity_fps`, frames/s (empty: none).
    ladder: &'static [f64],
}

const WIRE: Workload = Workload {
    name: "",
    frame: 64,
    compressed: false,
    wires: 16,
    rate: 20_000.0,
    shards: 1,
    state_dir: false,
    churn_pairs: 0,
    ladder: &[],
};

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_small",
        ..WIRE
    },
    Workload {
        name: "wire_large_compressed",
        frame: 1518,
        compressed: true,
        ladder: &[40_000.0, 60_000.0, 80_000.0, 100_000.0],
        ..WIRE
    },
    Workload {
        name: "lab_churn",
        wires: 1,
        rate: 5_000.0,
        state_dir: true,
        churn_pairs: 256,
        ..WIRE
    },
    Workload {
        name: "wire_federated",
        shards: 2,
        ..WIRE
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 12.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(4.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 4..=600".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rnl-wallclock: {e}");
            eprintln!(
                "usage: rnl-wallclock --workload <{}> --seed N --seconds N --trace 0|1",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let code = match run(&args) {
        Ok((info, result)) => {
            println!("{info}");
            println!("{result}");
            0
        }
        Err(Failure::Invalid(e)) => {
            eprintln!("rnl-wallclock: run invalid, not reported: {e}");
            3
        }
        Err(Failure::Error(e)) => {
            eprintln!("rnl-wallclock: {e}");
            1
        }
    };
    std::process::exit(code);
}

enum Failure {
    /// The generator, not the server, bounded the run.
    Invalid(String),
    Error(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

/// Run `f` while one yielding thread per vCPU keeps the vCPUs busy, as
/// the traffic threads do in the idle window (see `traffic::generate`).
fn with_busy_vcpus(f: impl FnOnce()) {
    let done = AtomicBool::new(false);
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..vcpus {
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            });
        }
        f();
        done.store(true, Ordering::SeqCst);
    });
}

/// A scratch directory inside the build directory, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The run's schedule: an idle window, the fixed-rate window (an
/// untraced then a traced half when tracing), then any ladder steps.
struct Schedule {
    phases: Vec<Phase>,
    fixed: Vec<usize>,
    ladder: Vec<usize>,
    frames: u64,
}

fn schedule(wl: &Workload, seconds: f64, trace: bool) -> Schedule {
    let idle = (0.2 * seconds).max(1.0);
    let fixed = if wl.ladder.is_empty() {
        seconds - idle
    } else {
        (seconds - idle) * 0.75
    };
    let step = (seconds - idle - fixed) / wl.ladder.len().max(1) as f64;
    let mut s = Schedule {
        phases: vec![Phase::Idle {
            secs: idle,
            windows: (idle / IDLE_WINDOW_S).round().max(1.0) as u64,
        }],
        fixed: Vec::new(),
        ladder: Vec::new(),
        frames: 0,
    };
    let push = |s: &mut Schedule, rate: f64, secs: f64, traced: bool, alternate: bool| {
        let frames = (rate * secs).round().max(1.0) as u64;
        s.phases.push(Phase::Traffic {
            rate,
            first: s.frames,
            frames,
            traced,
            windows: (secs / TRAFFIC_WINDOW_S).round().max(2.0) as u64,
            alternate,
        });
        s.frames += frames;
        s.phases.len() - 1
    };
    let halves: &[bool] = if trace { &[false, true] } else { &[false] };
    for &traced in halves {
        let k = push(&mut s, wl.rate, fixed / halves.len() as f64, traced, true);
        s.fixed.push(k);
    }
    for &rate in wl.ladder {
        let k = push(&mut s, rate, step, false, false);
        s.ladder.push(k);
    }
    s
}

/// A server with both sites registered and the standing labs deployed.
struct Deployed {
    server: Server,
    sites: Sites,
    api: Api,
    secs: f64,
    /// Client-side deploy time of each standing lab, ms.
    deploy_ms: Vec<f64>,
}

fn set_up(
    bin: &Path,
    wl: &Workload,
    seed: u64,
    state_dir: Option<PathBuf>,
    trace: bool,
) -> Result<Deployed, String> {
    let t0 = Instant::now();
    let server = Server::spawn(
        bin,
        &Launch {
            shards: wl.shards,
            state_dir,
        },
    )?;
    let sites = Sites::register(server.ris, server.clock(), wl.wires + wl.churn_pairs, seed)?;
    let mut api = Api::connect(server.api, trace)?;
    let mut deploy_ms = Vec::with_capacity(wl.wires);
    for w in 0..wl.wires {
        let lab = api.deploy_lab(
            &format!("wire-{w}"),
            sites.a_routers[w],
            sites.b_routers[w],
            (0, 1 << 40),
        )?;
        deploy_ms.push(lab.deploy_ms);
    }
    Ok(Deployed {
        secs: t0.elapsed().as_secs_f64(),
        server,
        sites,
        api,
        deploy_ms,
    })
}

/// Every API op of the run, set-ups and churn alike.
#[derive(Default)]
struct ApiTally {
    op_ms: Vec<f64>,
    deploy_ms: Vec<f64>,
    attempted: u64,
    errors: u64,
}

impl ApiTally {
    fn add(&mut self, api: &Api) {
        self.op_ms.extend(&api.op_ms);
        self.attempted += api.attempted;
        self.errors += api.errors;
    }
}

fn run(args: &Args) -> Result<(String, String), Failure> {
    let wl = args.workload;
    let bin = server::build_routeserver()?;
    let scratch = Scratch(
        server::target_dir()
            .join("rnl-wallclock-tmp")
            .join(std::process::id().to_string()),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("scratch dir: {e}"))?;
    let plan = schedule(&wl, args.seconds, args.trace);
    let frames = Arc::new(Frames::generate(
        args.seed,
        wl.frame,
        wl.wires,
        plan.frames,
        wl.compressed,
    ));

    // Set up SETUPS times from a cold process; measure on the last.
    let mut setup_s = Vec::new();
    let mut idle_pct = Vec::new();
    let mut tally = ApiTally::default();
    let mut live = None;
    for k in 0..SETUPS {
        let state = wl.state_dir.then(|| scratch.0.join(format!("state-{k}")));
        let d = set_up(&bin, &wl, args.seed, state, args.trace)?;
        setup_s.push(d.secs);
        tally.deploy_ms.extend(&d.deploy_ms);
        if k + 1 == SETUPS {
            live = Some(d);
            break;
        }
        with_busy_vcpus(|| {
            let mut prev = d.server.sample();
            for _ in 0..SETUP_IDLE_WINDOWS {
                std::thread::sleep(Duration::from_secs_f64(IDLE_WINDOW_S));
                let now = d.server.sample();
                idle_pct.push(cpu_pct(&prev, &now));
                prev = now;
            }
        });
        tally.add(&d.api);
    }
    let Deployed {
        mut server,
        sites,
        mut api,
        ..
    } = live.ok_or_else(|| "no set-up ran".to_string())?;

    // The measured phases: generator and receiver threads; the churn
    // loop (if any) runs on this thread alongside.
    let link = Link {
        frames: Arc::clone(&frames),
        a_routers: sites.a_routers.clone(),
        b_routers: sites.b_routers.clone(),
        wires: (0..wl.wires).collect(),
        clock: server.clock(),
        server_pid: server.pid(),
        received: Arc::new(AtomicU64::new(0)),
        stop: Arc::new(AtomicBool::new(false)),
        hot: Arc::new(AtomicBool::new(false)),
    };
    let b_write = sites.b.try_clone().map_err(|e| format!("site B: {e}"))?;
    let (started_tx, started_rx) = mpsc::channel::<usize>();
    let churn_secs: f64 = plan.fixed.iter().map(|&k| plan.phases[k].secs()).sum();
    let mut churn = churn::Churn::default();
    let (gen, recv) = std::thread::scope(|sc| {
        let recv = sc.spawn(|| traffic::receive(sites.b, sites.b_codec, &link, args.trace));
        let gen = sc.spawn(|| {
            let r = traffic::generate(sites.a, b_write, &link, &plan.phases, &|k| {
                let _ = started_tx.send(k);
            });
            link.stop.store(true, Ordering::SeqCst);
            r
        });
        if wl.churn_pairs > 0 {
            churn = churn::run(
                &mut api,
                link.clock,
                &link,
                wl.wires,
                wl.churn_pairs,
                &started_rx,
                plan.fixed[0],
                churn_secs,
            );
        }
        let gen = gen.join().map_err(|_| "generator panicked".to_string());
        link.stop.store(true, Ordering::SeqCst);
        let recv = recv.join().map_err(|_| "receiver panicked".to_string());
        (gen, recv)
    });
    let (outs, gen_spans) = gen??;
    let recv = recv?;
    if let Some(e) = &churn.error {
        return Err(Failure::Error(format!("lab churn: {e}")));
    }
    tally.add(&api);
    tally.deploy_ms.extend(&churn.deploy_ms);
    let page = server.scrape()?;
    let alive = server.alive();
    let server_tail = server.tail();
    let clock_slack_us = server.clock_slack.as_secs_f64() * 1e6;
    let api_spans = api.tracer.summary();
    drop(api);
    drop(server);

    let fixed = report::fixed(&plan.phases, &plan.fixed, &outs, &recv);
    if fixed.gen_busy_pct > report::GEN_BUSY_LIMIT_PCT
        || fixed.gen_lag_us > report::GEN_LAG_LIMIT_US
    {
        return Err(Failure::Invalid(format!(
            "generator-bound: busy {:.1} % of the window, {:.0} µs behind at its end",
            fixed.gen_busy_pct, fixed.gen_lag_us
        )));
    }
    let idle = &outs[0].marks;
    idle_pct.extend(idle.windows(2).map(|w| cpu_pct(&w[0], &w[1])));
    let (idle_first, idle_last) = (&idle[0], &idle[idle.len() - 1]);
    let idle_wakeups_per_s = (idle_last.loop_wakeups - idle_first.loop_wakeups) as f64
        / idle_last.secs_since(idle_first);
    let e2e = report::end_to_end(
        &report::EndToEnd {
            setup_s: median(&setup_s).unwrap_or(f64::NAN),
            idle_cpu_pct: median(&idle_pct).unwrap_or(f64::NAN),
            api_op_p50_ms: median(&tally.op_ms).unwrap_or(f64::NAN),
            lab_deploy_p50_ms: median(&tally.deploy_ms).unwrap_or(f64::NAN),
        },
        &fixed,
    );

    // Correctness: every offered frame delivered once, intact, to the
    // right port; every API op answered ok.
    let lost = fixed.offered - fixed.delivered;
    let bad = recv.misrouted + recv.corrupted + recv.duplicates + recv.undecodable;
    let correct = lost == 0 && bad == 0 && tally.errors == 0 && alive;
    let attempted = fixed.offered + tally.attempted;
    let failed = lost + bad + tally.errors;

    let layer = if args.trace {
        Some(layers::run(&frames, wl.wires, &scratch.0, args.seed)?)
    } else {
        None
    };
    let metrics: Vec<Metric> = match &layer {
        Some(layer) => report::per_layer(
            wl.shards,
            layer,
            &fixed,
            idle_wakeups_per_s,
            median(&tally.op_ms).unwrap_or(f64::NAN),
            &page,
        ),
        None => e2e.clone(),
    };
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report::metrics_json(&metrics)
    );

    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ")
        )
    };
    let mut info: Vec<(String, String)> = vec![
        ("workload".into(), jstr(wl.name)),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("host".into(), report::host_facts()),
        ("path".into(), jstr("loopback TCP, not a real link")),
        ("frame_bytes".into(), wl.frame.to_string()),
        ("compressed".into(), wl.compressed.to_string()),
        ("wires".into(), wl.wires.to_string()),
        ("offered_fps".into(), num(wl.rate)),
        ("shards".into(), wl.shards.to_string()),
        ("state_dir".into(), wl.state_dir.to_string()),
        ("end_to_end".into(), report::metrics_json(&e2e)),
        ("setup_s_samples".into(), list(&setup_s)),
        ("relay_p99_us".into(), num(fixed.p99_us)),
        ("relay_samples".into(), fixed.delivered.to_string()),
        ("frames_offered".into(), fixed.offered.to_string()),
        (
            "frame_loss_ratio".into(),
            num(lost as f64 / fixed.offered.max(1) as f64),
        ),
        ("frames_misrouted".into(), recv.misrouted.to_string()),
        ("frames_corrupted".into(), recv.corrupted.to_string()),
        ("frames_duplicated".into(), recv.duplicates.to_string()),
        ("api_ops".into(), tally.attempted.to_string()),
        (
            "api_error_ratio".into(),
            num(tally.errors as f64 / tally.attempted.max(1) as f64),
        ),
        ("gen_busy_pct".into(), num(fixed.gen_busy_pct)),
        ("gen_late_max_us".into(), num(fixed.gen_late_max_us)),
        ("gen_lag_end_us".into(), num(fixed.gen_lag_us)),
        ("server_clock_slack_us".into(), num(clock_slack_us)),
        ("server_alive".into(), alive.to_string()),
    ];
    if wl.churn_pairs > 0 {
        info.push(("lab_cycles".into(), churn.cycles.to_string()));
        info.push((
            "lab_cycles_per_s".into(),
            num(churn.cycles as f64 / churn.secs.max(1e-9)),
        ));
        info.push(("churn_paced".into(), churn.paced.to_string()));
    }
    if !plan.ladder.is_empty() {
        info.push((
            "relay_capacity_fps".into(),
            report::capacity(&plan.phases, &plan.ladder, &outs, &recv),
        ));
    }
    for (key, series) in [
        ("scrape.unrouted", "rnl_server_frames_unrouted_total"),
        ("scrape.shed", "rnl_server_shed_total"),
        ("scrape.backlog_dropped", "rnl_tunnel_backlog_dropped_total"),
        ("scrape.journal_appends", "rnl_server_journal_appends_total"),
    ] {
        info.push((key.into(), num(server::scrape_sum(&page, series))));
    }
    for (key, series) in [
        ("scrape.relay_p50_ns", "rnl_perf_server_relay_ns"),
        ("scrape.journal_fsync_p50_ns", "rnl_perf_journal_fsync_ns"),
        ("scrape.web_op_control_p50_ns", "rnl_perf_web_op_control_ns"),
    ] {
        let v = server::scrape_max(&page, series, &["phase=\"total\"", "quantile=\"0.5\""]);
        info.push((key.into(), v.map(num).unwrap_or_else(|| "null".into())));
    }
    if !alive {
        info.push(("server_tail".into(), jstr(&server_tail)));
    }
    let mut spans = gen_spans;
    trace::merge(&mut spans, recv.spans);
    trace::merge(&mut spans, api_spans);
    if let Some(layer) = layer {
        trace::merge(&mut spans, layer.spans);
    }
    if !spans.is_empty() {
        let rows: Vec<(String, String)> = spans
            .iter()
            .map(|(n, a)| {
                (
                    n.to_string(),
                    format!(
                        "{{\"spans\": {}, \"items\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                        a.spans,
                        a.items,
                        num(a.total_ns.round()),
                        num(a.self_ns.round())
                    ),
                )
            })
            .collect();
        info.push(("spans".into(), report::object(&rows)));
    }
    let info = format!("{{\"info\": {}}}", report::object(&info));
    Ok((info, result))
}
