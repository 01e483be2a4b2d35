//! Turning what a run measured into metrics: the fixed-rate window's
//! end-to-end figures, the capacity ladder, the per-layer metrics of a
//! traced run, and the JSON lines printed at the end.

use crate::layers::LayerPass;
use crate::server::{scrape_max, ProcSample};
use crate::stats::{jstr, median, num, quantile};
use crate::traffic::{Phase, PhaseOut, RecvOut};

/// A fixed-rate phase is generator-bound (and the run invalid) when the
/// generator was busy sending more than this share of the phase, or
/// when its lateness over the phase's last frames stays above
/// `GEN_LAG_LIMIT_US`.
pub const GEN_BUSY_LIMIT_PCT: f64 = 85.0;
pub const GEN_LAG_LIMIT_US: f64 = 5_000.0;
/// A ladder step counts toward `relay_capacity_fps` only under this p50.
pub const CAPACITY_P50_LIMIT_US: f64 = 2_000.0;

/// One metric: name, value, unit.
pub type Metric = (String, f64, String);

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    (name.to_string(), value, unit.to_string())
}

/// Server CPU share between two samples, % of one core.
pub fn cpu_pct(before: &ProcSample, after: &ProcSample) -> f64 {
    (after.cpu_ns - before.cpu_ns) as f64 / (after.secs_since(before) * 1e9) * 100.0
}

/// Delivered latencies over frames `range`, µs.
fn latencies(recv: &RecvOut, range: std::ops::Range<u64>) -> Vec<f64> {
    recv.lat_us[range.start as usize..range.end as usize]
        .iter()
        .filter(|l| !l.is_nan())
        .map(|&l| f64::from(l))
        .collect()
}

/// Generator load over one traffic phase: (busy %, lateness over the
/// phase's last 5 % of frames in µs, max lateness in µs).
pub fn generator_load(out: &PhaseOut) -> (f64, f64, f64) {
    let busy = out.gen_busy_ns as f64 / (out.send_s * 1e9) * 100.0;
    let tail = &out.late_us[out.late_us.len() - (out.late_us.len() / 20).max(1)..];
    let lag = median(&tail.iter().map(|&l| f64::from(l)).collect::<Vec<_>>()).unwrap_or(0.0);
    let max = out.late_us.iter().copied().fold(0.0f32, f32::max);
    (busy, lag, f64::from(max))
}

/// The fixed-rate window. Each window metric is the median over the
/// window's half-second parts, so a host hiccup in one part (a stolen
/// vCPU, a noisy neighbour) does not move it: latency over the busy
/// parts, server CPU per frame over the quiet ones.
#[derive(Debug, Default)]
pub struct Fixed {
    pub offered: u64,
    pub delivered: u64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_frame: f64,
    pub wakeups_per_s: f64,
    pub frames_per_wakeup: f64,
    pub gen_busy_pct: f64,
    pub gen_lag_us: f64,
    pub gen_late_max_us: f64,
    /// p50 of each fixed phase (untraced, then traced, when tracing).
    pub phase_p50_us: Vec<f64>,
}

pub fn fixed(phases: &[Phase], which: &[usize], outs: &[PhaseOut], recv: &RecvOut) -> Fixed {
    let mut f = Fixed::default();
    let (mut p50s, mut p90s, mut cpus, mut busy) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut wakeups, mut wall) = (0u64, 0.0f64);
    for &k in which {
        let Phase::Traffic {
            first,
            frames,
            windows,
            ..
        } = phases[k]
        else {
            continue;
        };
        let o = &outs[k];
        let mut phase_p50s = Vec::new();
        for j in 0..windows {
            let mut lat = latencies(recv, phases[k].window_frames(j));
            if !phases[k].busy(j) {
                let (before, after) = (&o.marks[j as usize], &o.marks[j as usize + 1]);
                cpus.push((after.cpu_ns - before.cpu_ns) as f64 / 1e3 / lat.len().max(1) as f64);
                continue;
            }
            let p50 = quantile(&mut lat, 0.5).unwrap_or(f64::NAN);
            phase_p50s.push(p50);
            p90s.push(quantile(&mut lat, 0.9).unwrap_or(f64::NAN));
            busy.extend(lat);
        }
        f.phase_p50_us.push(median(&phase_p50s).unwrap_or(f64::NAN));
        p50s.extend(phase_p50s);
        f.offered += frames;
        f.delivered += latencies(recv, first..first + frames).len() as u64;
        wakeups += o.server_after.loop_wakeups - o.marks[0].loop_wakeups;
        wall += o.server_after.secs_since(&o.marks[0]);
        let (busy, lag, max) = generator_load(o);
        f.gen_busy_pct = f.gen_busy_pct.max(busy);
        f.gen_lag_us = f.gen_lag_us.max(lag);
        f.gen_late_max_us = f.gen_late_max_us.max(max);
    }
    f.p50_us = median(&p50s).unwrap_or(f64::NAN);
    f.p90_us = median(&p90s).unwrap_or(f64::NAN);
    f.p99_us = quantile(&mut busy, 0.99).unwrap_or(f64::NAN);
    f.cpu_us_per_frame = median(&cpus).unwrap_or(f64::NAN);
    f.wakeups_per_s = wakeups as f64 / wall.max(1e-9);
    f.frames_per_wakeup = f.delivered as f64 / wakeups.max(1) as f64;
    f
}

/// The rate ladder: the highest step with zero loss, a drained backlog,
/// steady latency and p50 under the limit, counted only while the
/// generator was not the bound. Returns its JSON report.
pub fn capacity(phases: &[Phase], steps: &[usize], outs: &[PhaseOut], recv: &RecvOut) -> String {
    let mut best = 0.0f64;
    let mut bound_by = "none: every step passed";
    let mut rows = Vec::new();
    for &k in steps {
        let Phase::Traffic {
            rate,
            first,
            frames,
            ..
        } = phases[k]
        else {
            continue;
        };
        let lat = latencies(recv, first..first + frames);
        let (busy, lag, _) = generator_load(&outs[k]);
        let generator_ok = busy <= GEN_BUSY_LIMIT_PCT && lag <= GEN_LAG_LIMIT_US;
        let quarter = lat.len() / 4;
        let head = median(&lat[..quarter]).unwrap_or(f64::NAN);
        let tail = median(&lat[lat.len() - quarter..]).unwrap_or(f64::NAN);
        let p50 = median(&lat).unwrap_or(f64::NAN);
        // A growing backlog shows as the step's last quarter running
        // well behind its first.
        let steady = tail <= 2.0 * head + 500.0;
        let lost = frames - lat.len() as u64;
        let pass = lost == 0 && outs[k].drained && steady && p50 < CAPACITY_P50_LIMIT_US;
        rows.push(format!(
            "{{\"fps\": {}, \"lost\": {lost}, \"p50_us\": {}, \"gen_busy_pct\": {}, \
             \"generator_ok\": {generator_ok}, \"pass\": {pass}}}",
            num(rate),
            num(p50),
            num(busy)
        ));
        if !generator_ok {
            bound_by = "generator: step not counted";
            break;
        }
        if !pass {
            bound_by = "server";
            break;
        }
        best = rate;
    }
    format!(
        "{{\"value\": {}, \"unit\": \"1/s\", \"p50_limit_us\": {}, \"bound_by\": {}, \"steps\": [{}]}}",
        num(best),
        num(CAPACITY_P50_LIMIT_US),
        jstr(bound_by),
        rows.join(", ")
    )
}

/// The end-to-end metrics, in BENCHMARK.json order.
pub struct EndToEnd {
    pub setup_s: f64,
    pub idle_cpu_pct: f64,
    pub api_op_p50_ms: f64,
    pub lab_deploy_p50_ms: f64,
}

pub fn end_to_end(e: &EndToEnd, f: &Fixed) -> Vec<Metric> {
    vec![
        metric("setup_s", e.setup_s, "s"),
        metric("relay_p50_us", f.p50_us, "us"),
        metric("relay_p90_us", f.p90_us, "us"),
        metric("server_cpu_us_per_frame", f.cpu_us_per_frame, "us"),
        metric("idle_cpu_pct", e.idle_cpu_pct, "%"),
        metric("api_op_p50_ms", e.api_op_p50_ms, "ms"),
        metric("lab_deploy_p50_ms", e.lab_deploy_p50_ms, "ms"),
    ]
}

/// The per-layer metrics of a traced run, in BENCHMARK.json order.
pub fn per_layer(
    shards: usize,
    layer: &LayerPass,
    fixed: &Fixed,
    idle_wakeups_per_s: f64,
    api_op_p50_ms: f64,
    page: &str,
) -> Vec<Metric> {
    let ns = |name: &str| {
        layer
            .spans
            .get(name)
            .map(|a| a.self_per_item())
            .unwrap_or(f64::NAN)
    };
    let scrape = |series: &str| {
        scrape_max(page, series, &["phase=\"total\"", "quantile=\"0.5\""]).unwrap_or(f64::NAN)
    };
    // The calls a frame crosses: the sender's transport (which frames it
    // through the codec), the relay (both shards and the trunk when
    // sharded), and the receiver's codec and header peek.
    let hop = if shards > 1 {
        ns("shard.trunk_hop")
    } else {
        ns("server.relay")
    };
    let frame_path_ns = ns("transport.send") + hop + ns("codec.decode") + ns("msg.peek_data");
    // One API op's share of the control-plane layers: the web handler
    // averaged over a lab cycle's seven ops, plus one journal record.
    let web_per_op =
        (4.0 * ns("web.design_edit") + ns("web.reserve") + ns("web.deploy") + ns("web.teardown"))
            / 7.0;
    let ctrl_ns = web_per_op + ns("journal.append") + ns("journal.fsync");
    let overhead_pct = match fixed.phase_p50_us[..] {
        [untraced, traced] => (traced / untraced - 1.0) * 100.0,
        _ => f64::NAN,
    };
    let mut out: Vec<Metric> = [
        "codec.encode",
        "codec.decode",
        "msg.peek_data",
        "msg.decode",
        "compress.encode",
        "compress.decode",
    ]
    .iter()
    .map(|n| metric(&format!("{n}_ns"), ns(n), "ns"))
    .collect();
    out.push(metric("compress.ratio", layer.compress_ratio, "ratio"));
    out.extend(
        [
            "transport.send",
            "transport.poll",
            "server.relay",
            "server.poll_idle",
            "matrix.lookup",
            "matrix.deploy",
            "matrix.teardown",
            "web.design_edit",
            "web.reserve",
            "web.deploy",
            "web.teardown",
            "journal.append",
            "journal.fsync",
            "shard.trunk_hop",
            "shard.poll_idle",
        ]
        .iter()
        .map(|n| metric(&format!("{n}_ns"), ns(n), "ns")),
    );
    out.extend([
        metric("loop.wakeups_per_s", fixed.wakeups_per_s, "1/s"),
        metric("loop.idle_wakeups_per_s", idle_wakeups_per_s, "1/s"),
        metric("loop.frames_per_wakeup", fixed.frames_per_wakeup, "count"),
        metric(
            "scrape.relay_p50_ns",
            scrape("rnl_perf_server_relay_ns"),
            "ns",
        ),
        metric(
            "scrape.web_op_control_p50_ns",
            scrape("rnl_perf_web_op_control_ns"),
            "ns",
        ),
        metric("gen.late_max_us", fixed.gen_late_max_us, "us"),
        metric("gen.busy_pct", fixed.gen_busy_pct, "%"),
        metric("relay.p99_us", fixed.p99_us, "us"),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric(
            "share.frame_layers_of_p50_pct",
            frame_path_ns / 1e3 / fixed.p50_us * 100.0,
            "%",
        ),
        metric(
            "share.ctrl_layers_of_api_pct",
            ctrl_ns / 1e6 / api_op_p50_ms * 100.0,
            "%",
        ),
    ]);
    out
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(n),
                num(*v),
                jstr(u)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// A JSON object from already-encoded values.
pub fn object(fields: &[(String, String)]) -> String {
    let body = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k)))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// Host fingerprint, so results can be matched to the machine.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": {}, \"cpu\": {}}}",
        jstr(kernel.trim()),
        jstr(&cpu)
    )
}
