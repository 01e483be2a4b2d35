//! Route-server sharding and federation (§4, "Ongoing work").
//!
//! "To simplify implementation, we funnel all traffic through the
//! central route server in the initial release, so the route server can
//! easily become the bottleneck. To scale the route server, we are
//! looking into a distributed architecture for the next release. Since
//! the routing matrices between different users do not overlap, we can
//! have one route server per user."
//!
//! [`Federation`] is that distributed architecture, and every
//! `routeserver` runs as one (a single server is a federation of one):
//! sessions are partitioned across `N` shards by consistent hash over
//! the RIS principal ([`HashRing`]), cross-shard wires relay over
//! supervised inter-shard trunks, and each shard owns its own journal
//! so a crash is recovered locally while siblings keep serving. Partial
//! failure is *contained*: a dead trunk sheds only the cross-shard
//! frames that needed it (counted `reason="trunk-down"`), never
//! intra-shard traffic.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rnl_net::time::{Duration, Instant};
use rnl_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
use rnl_tunnel::faults::{ShardFaultKind, ShardFaultPlan};
use rnl_tunnel::msg::{Msg, PortId, RegisterInfo, RouterId, SessionEpoch};
use rnl_tunnel::ring::HashRing;
use rnl_tunnel::transport::{
    mem_pair_perfect, FrameBatch, MemTransport, OverflowPolicy, Transport,
};

use crate::design::Design;
use crate::journal::{Durability, FileJournal, FsyncPolicy, MemJournal, SharedStore};
use crate::json::Json;
use crate::overload::OverloadConfig;
use crate::{
    DeploymentId, RouteServer, ServerError, SessionId, DEFAULT_GRACE_WINDOW, DEFAULT_SNAPSHOT_EVERY,
};

// ---------------------------------------------------------------------
// Federation: hash-partitioned shards with supervised trunks
// ---------------------------------------------------------------------

/// Router-id range owned by each shard: shard `k` allocates global ids
/// in `[k * SHARD_ID_STRIDE, (k + 1) * SHARD_ID_STRIDE)`, so the owning
/// shard of any router is a pure function of its id — no directory
/// lookup on the relay path.
pub const SHARD_ID_STRIDE: u32 = 4096;

/// The shard whose id range contains `router`.
pub fn shard_of_router(router: RouterId) -> usize {
    (router.0 / SHARD_ID_STRIDE) as usize
}

/// A design link: two (router, port) endpoints.
type Link = ((RouterId, PortId), (RouterId, PortId));

/// The federation's own journal file under the `--state-dir` base:
/// spanning deployments and their cross-shard wires, which no single
/// shard's journal records.
const FED_JOURNAL: &str = "federation.rnl";

/// Trunk redial backoff: first attempt is immediate, then delays grow
/// `base * 2^n` up to `max`, each jittered ±20% so a fleet of trunks
/// re-dialing after a shared outage does not thundering-herd.
const TRUNK_BACKOFF_BASE: Duration = Duration::from_millis(100);
const TRUNK_BACKOFF_MAX: Duration = Duration::from_secs(10);
const TRUNK_JITTER_PCT: u64 = 20;

/// Default per-poll byte budget of a trunk before its overflow policy
/// kicks in (the bounded backlog).
pub const DEFAULT_TRUNK_HWM: usize = 1 << 20;

/// Retry hint handed out when the owner shard is known but down and no
/// recovery deadline is scheduled.
const DEFAULT_RETRY_AFTER: Duration = Duration::from_millis(10);

fn lcg(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(1)
}

fn trunk_key(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// How shard journals are provisioned.
#[derive(Debug, Clone)]
enum DurabilityMode {
    None,
    Mem,
    File(PathBuf),
}

/// One shard slot: the server (absent while the shard is down) plus the
/// durable handle that outlives it.
struct ShardSlot {
    server: Option<RouteServer>,
    /// Backing store of the in-memory journal — the only thing that
    /// survives [`Federation::kill_shard`] in mem-durability mode.
    store: Option<SharedStore>,
    /// While `Some`, the shard auto-recovers when the clock passes it.
    down_until: Option<Instant>,
    m_up: Gauge,
    m_kills: Counter,
    m_recoveries: Counter,
}

/// Every setting a shard's [`RouteServer`] carries — config, not state,
/// so no journal replays it. [`ShardConfig::apply`] configures every
/// shard the federation creates, recovers or adds; the federation's
/// setters also push a change to the shards already live. The defaults
/// are [`RouteServer::new`]'s.
#[derive(Debug, Clone)]
struct ShardConfig {
    grace_window: Duration,
    enforce_reservations: bool,
    overload: OverloadConfig,
    snapshot_every: Duration,
    fsync: FsyncPolicy,
    mesh: bool,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            grace_window: DEFAULT_GRACE_WINDOW,
            enforce_reservations: true,
            overload: OverloadConfig::default(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            fsync: FsyncPolicy::default(),
            mesh: false,
        }
    }
}

impl ShardConfig {
    /// Configure shard `k`'s server: its router-id range plus every
    /// setting (the fsync policy reaches the installed journal, if any).
    fn apply(&self, k: usize, server: &mut RouteServer, now: Instant) {
        server.set_router_id_base(k as u32 * SHARD_ID_STRIDE);
        server.set_grace_window(self.grace_window);
        server.set_enforce_reservations(self.enforce_reservations);
        server.set_overload_config(self.overload, now);
        server.set_snapshot_every(self.snapshot_every);
        server.set_fsync_policy(self.fsync);
        server.set_mesh_enabled(self.mesh);
    }
}

/// A supervised inter-shard trunk: the transport pair cross-shard
/// frames ride, plus the state that re-establishes it after loss.
struct Trunk {
    a: usize,
    b: usize,
    /// `(end at shard a, end at shard b)`; `None` while down.
    link: Option<(MemTransport, MemTransport)>,
    /// Session identity: generation rotates on every (re)establish so a
    /// stale hello from a previous incarnation is detectable.
    token: u64,
    generation: u64,
    /// Highest hello generation accepted per end (`[at a, at b]`).
    peer_gen: [u64; 2],
    ever_connected: bool,
    /// While `Some`, redial attempts fail until the clock passes it.
    partitioned_until: Option<Instant>,
    /// Current backoff delay; reset to base on establish and on sever.
    delay: Duration,
    /// Next redial attempt; `None` while the trunk is up.
    next_attempt: Option<Instant>,
    jitter_seed: u64,
    /// Bytes sent this poll cycle, checked against `hwm`.
    sent_this_poll: usize,
    hwm: usize,
    policy: OverflowPolicy,
    m_frames: Counter,
    m_reconnects: Counter,
    m_backlog_dropped: Counter,
    m_fault_dropped: Counter,
    m_stale_hellos: Counter,
}

impl Trunk {
    fn new(a: usize, b: usize, token: u64, obs: &MetricsRegistry) -> Trunk {
        let label = format!("{a}-{b}");
        let labels: &[(&str, &str)] = &[("trunk", label.as_str())];
        Trunk {
            a,
            b,
            link: None,
            token,
            generation: 0,
            peer_gen: [0, 0],
            ever_connected: false,
            partitioned_until: None,
            delay: TRUNK_BACKOFF_BASE,
            next_attempt: Some(Instant::EPOCH),
            jitter_seed: token,
            sent_this_poll: 0,
            hwm: DEFAULT_TRUNK_HWM,
            policy: OverflowPolicy::DropNewest,
            m_frames: obs.counter("rnl_server_shard_trunk_frames_total", labels),
            m_reconnects: obs.counter("rnl_server_shard_trunk_reconnects_total", labels),
            m_backlog_dropped: obs.counter("rnl_server_shard_trunk_backlog_dropped_total", labels),
            m_fault_dropped: obs.counter("rnl_server_shard_trunk_fault_dropped_total", labels),
            m_stale_hellos: obs.counter("rnl_server_shard_trunk_stale_hellos_total", labels),
        }
    }

    fn due(&self, now: Instant) -> bool {
        self.next_attempt.is_some_and(|at| now >= at)
    }

    /// Tear the link down, draining and counting any in-flight data
    /// frames (they are lost with the link). The next redial attempt is
    /// immediate; backoff grows only on *failed* attempts.
    fn sever(&mut self, now: Instant) {
        let Some((mut end_a, mut end_b)) = self.link.take() else {
            return;
        };
        let mut scratch = FrameBatch::new();
        for end in [&mut end_a, &mut end_b] {
            if end.poll_into(now, &mut scratch).is_ok() {
                for i in 0..scratch.len() {
                    if scratch
                        .get(i)
                        .is_some_and(|body| Msg::peek_data(body).is_some())
                    {
                        self.m_fault_dropped.inc();
                    }
                }
            }
            scratch.clear();
        }
        self.delay = TRUNK_BACKOFF_BASE;
        self.next_attempt = Some(now);
    }

    /// A redial attempt failed (endpoint down or partition in force):
    /// schedule the next one with jittered exponential backoff.
    fn note_failure(&mut self, now: Instant) {
        self.jitter_seed = lcg(self.jitter_seed);
        let span = 2 * TRUNK_JITTER_PCT + 1;
        let pct = 100 - TRUNK_JITTER_PCT + self.jitter_seed % span;
        let wait = self.delay.as_micros().saturating_mul(pct) / 100;
        self.next_attempt = Some(now + Duration::from_micros(wait));
        let grown = self.delay.as_micros().saturating_mul(2);
        self.delay = Duration::from_micros(grown.min(TRUNK_BACKOFF_MAX.as_micros()));
    }

    /// Bring the trunk up: fresh transport pair, rotated epoch
    /// generation, and a registration hello in each direction so the
    /// far end can tell this incarnation from a stale one.
    fn establish(&mut self, seed: u64, now: Instant) {
        let (mut end_a, mut end_b) = mem_pair_perfect(seed);
        self.generation += 1;
        let epoch = SessionEpoch {
            token: self.token,
            generation: self.generation,
        };
        let hello = |from: usize, to: usize| {
            Msg::Register(RegisterInfo {
                pc_name: format!("trunk-{from}-{to}"),
                epoch,
                routers: Vec::new(),
            })
        };
        let _ = end_a.send(&hello(self.a, self.b), now);
        let _ = end_b.send(&hello(self.b, self.a), now);
        if self.ever_connected {
            self.m_reconnects.inc();
        }
        self.ever_connected = true;
        self.link = Some((end_a, end_b));
        self.next_attempt = None;
        self.delay = TRUNK_BACKOFF_BASE;
    }

    /// Forward one encoded frame over the trunk. `false` means the
    /// frame was not sent (trunk down or backlog overflow) — the caller
    /// sheds it on the source shard.
    fn forward(&mut self, src_shard: usize, body: &[u8], now: Instant) -> bool {
        if self.link.is_none() {
            return false;
        }
        if self.sent_this_poll.saturating_add(body.len()) > self.hwm {
            self.m_backlog_dropped.inc();
            if matches!(self.policy, OverflowPolicy::Disconnect) {
                self.sever(now);
            }
            return false;
        }
        let mut failed = false;
        if let Some((end_a, end_b)) = self.link.as_mut() {
            let end = if src_shard == self.a { end_a } else { end_b };
            match end.send_raw(body, now) {
                Ok(()) => {
                    self.sent_this_poll += body.len();
                    self.m_frames.inc();
                }
                Err(_) => failed = true,
            }
        }
        if failed {
            self.sever(now);
            return false;
        }
        true
    }
}

/// A deployment that may span shards: the per-shard sub-deployments
/// plus the cross-shard links stitched over the trunks.
#[derive(Debug, Clone)]
pub struct FedDeployment {
    /// `(shard, local deployment id)` per participating shard.
    pub parts: Vec<(usize, DeploymentId)>,
    /// Cross-shard links; a remote route is installed on both owning
    /// shards per link.
    pub cross: Vec<((RouterId, PortId), (RouterId, PortId))>,
}

/// Encode one federation-journal deploy record.
fn fed_deployment_to_json(id: u64, fed: &FedDeployment) -> Json {
    Json::obj([
        ("op", Json::str("deploy")),
        ("id", Json::u64_str(id)),
        (
            "parts",
            Json::Arr(
                fed.parts
                    .iter()
                    .map(|&(shard, part)| {
                        Json::Arr(vec![Json::num(shard as u32), Json::u64_str(part.0)])
                    })
                    .collect(),
            ),
        ),
        (
            "cross",
            Json::Arr(
                fed.cross
                    .iter()
                    .map(|&((ar, ap), (br, bp))| {
                        Json::Arr(vec![
                            Json::num(ar.0),
                            Json::num(u32::from(ap.0)),
                            Json::num(br.0),
                            Json::num(u32::from(bp.0)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode one federation-journal deploy record (`None` on any
/// malformed field — a torn or foreign line is skipped, not fatal).
fn fed_deployment_from_json(v: &Json) -> Option<FedDeployment> {
    let parts = v
        .get("parts")?
        .as_arr()?
        .iter()
        .map(|p| {
            let p = p.as_arr()?;
            Some((
                p.first()?.as_u64()? as usize,
                DeploymentId(p.get(1)?.as_u64_str()?),
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let cross = v
        .get("cross")?
        .as_arr()?
        .iter()
        .map(|l| {
            let l = l.as_arr()?;
            let n = |i: usize| l.get(i).and_then(Json::as_u64);
            Some((
                (RouterId(n(0)? as u32), PortId(n(1)? as u16)),
                (RouterId(n(2)? as u32), PortId(n(3)? as u16)),
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FedDeployment { parts, cross })
}

/// An in-flight session move after a membership change: `pc_name` was
/// evicted and should re-register on `owner`.
struct RebalanceTicket {
    pc_name: String,
    owner: usize,
    since: Instant,
}

/// A fault-contained route-server federation: `N` hash-partitioned
/// shards, supervised inter-shard trunks, per-shard journals, and a
/// seeded fault plan for kill/partition experiments.
pub struct Federation {
    slots: Vec<ShardSlot>,
    ring: HashRing,
    trunks: BTreeMap<(usize, usize), Trunk>,
    obs: MetricsRegistry,
    faults: ShardFaultPlan,
    seed: u64,
    durability: DurabilityMode,
    config: ShardConfig,
    trunk_hwm: usize,
    trunk_policy: OverflowPolicy,
    next_fed_id: u64,
    fed_deployments: BTreeMap<u64, FedDeployment>,
    pending_rebalance: Vec<RebalanceTicket>,
    batch: FrameBatch,
    m_containment_sheds: Counter,
    m_rebalances: Counter,
    m_rebalance_us: Histogram,
}

impl Federation {
    /// A federation of `n` shards (no durability yet; see
    /// [`Federation::enable_mem_durability`] /
    /// [`Federation::enable_file_durability`]). `seed` drives every
    /// random choice (trunk transports, backoff jitter) so two runs
    /// with the same seed are bit-identical.
    pub fn new(n: usize, seed: u64) -> Federation {
        let obs = MetricsRegistry::new();
        let mut fed = Federation {
            slots: Vec::new(),
            ring: HashRing::new(n),
            trunks: BTreeMap::new(),
            faults: ShardFaultPlan::new(),
            seed,
            durability: DurabilityMode::None,
            config: ShardConfig::default(),
            trunk_hwm: DEFAULT_TRUNK_HWM,
            trunk_policy: OverflowPolicy::DropNewest,
            next_fed_id: 1,
            fed_deployments: BTreeMap::new(),
            pending_rebalance: Vec::new(),
            batch: FrameBatch::new(),
            m_containment_sheds: obs.counter("rnl_server_shard_containment_sheds_total", &[]),
            m_rebalances: obs.counter("rnl_server_shard_rebalances_total", &[]),
            m_rebalance_us: obs.histogram(
                "rnl_server_shard_rebalance_duration_us",
                &[],
                &[1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            ),
            obs,
        };
        for _ in 0..n {
            fed.push_slot();
        }
        // Without durability there is no journal to fail on.
        let _ = fed.boot_all(Instant::EPOCH);
        for a in 0..n {
            for b in (a + 1)..n {
                fed.seed = lcg(fed.seed);
                let trunk = Trunk::new(a, b, fed.seed, &fed.obs);
                fed.trunks.insert((a, b), trunk);
            }
        }
        fed
    }

    /// Append the next slot, marked up; the caller boots its server.
    fn push_slot(&mut self) {
        let label = self.slots.len().to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        let slot = ShardSlot {
            server: None,
            store: None,
            down_until: None,
            m_up: self.obs.gauge("rnl_server_shard_up", labels),
            m_kills: self.obs.counter("rnl_server_shard_kills_total", labels),
            m_recoveries: self
                .obs
                .counter("rnl_server_shard_recoveries_total", labels),
        };
        slot.m_up.set(1.0);
        self.slots.push(slot);
    }

    /// Build shard `k`'s server: replayed from its own journal when the
    /// federation is durable (an empty journal is a fresh start with the
    /// journal installed), configured by [`ShardConfig::apply`], and
    /// re-armed with its half of every cross-shard wire — federation
    /// state that no shard journal carries.
    fn boot_shard(&mut self, k: usize, now: Instant) -> Result<RouteServer, ServerError> {
        let journal: Option<Box<dyn Durability>> = match &self.durability {
            DurabilityMode::None => None,
            DurabilityMode::Mem => {
                let store = self.slots[k]
                    .store
                    .get_or_insert_with(|| MemJournal::new().store());
                Some(Box::new(MemJournal::attached(store.clone())))
            }
            DurabilityMode::File(base) => Some(Box::new(FileJournal::open(
                base.join(format!("shard-{k}")),
            )?)),
        };
        let mut server = match journal {
            Some(journal) => RouteServer::recover(journal, now)?,
            None => RouteServer::new(),
        };
        self.config.apply(k, &mut server, now);
        for fed in self.fed_deployments.values() {
            for &(from, to) in &fed.cross {
                for (local, remote) in [(from, to), (to, from)] {
                    if shard_of_router(local.0) == k {
                        server.add_remote_route(local, remote);
                    }
                }
            }
        }
        Ok(server)
    }

    /// (Re)boot every shard's server through [`Federation::boot_shard`].
    fn boot_all(&mut self, now: Instant) -> Result<(), ServerError> {
        for k in 0..self.slots.len() {
            let server = self.boot_shard(k, now)?;
            self.slots[k].server = Some(server);
        }
        Ok(())
    }

    /// Apply `f` to every live shard's server.
    fn each_live(&mut self, mut f: impl FnMut(&mut RouteServer)) {
        for server in self.slots.iter_mut().filter_map(|s| s.server.as_mut()) {
            f(server);
        }
    }

    // -- configuration ------------------------------------------------

    /// Give every shard its own in-memory journal (the backing store
    /// survives [`Federation::kill_shard`], so recovery is crash-local
    /// and real). Every shard reboots onto its journal, so call this
    /// before attaching sessions.
    pub fn enable_mem_durability(&mut self, now: Instant) -> Result<(), ServerError> {
        self.durability = DurabilityMode::Mem;
        self.boot_all(now)
    }

    /// Give every shard its own on-disk journal under
    /// `base/shard-<k>/` — the `--state-dir` layout of the `routeserver`
    /// binary at every shard count. `base/federation.rnl` holds the
    /// federation's own durable state (spanning deployments and their
    /// cross-shard wires); it is replayed first, so each shard boots
    /// through its own journal with its trunk half-wires re-armed.
    ///
    /// A `base` holding a top-level `journal.rnl` or `snapshot.rnl` is
    /// refused: that is a single-server state dir from before every
    /// server became a federation, and booting over it would start
    /// empty. Its files belong in `base/shard-0/`.
    pub fn enable_file_durability(
        &mut self,
        base: impl Into<PathBuf>,
        now: Instant,
    ) -> Result<(), ServerError> {
        let base = base.into();
        if ["journal.rnl", "snapshot.rnl"]
            .iter()
            .any(|f| base.join(f).exists())
        {
            return Err(ServerError::Durability(format!(
                "{} holds a single-server journal.rnl/snapshot.rnl; \
                 move both files into {}",
                base.display(),
                base.join("shard-0").display()
            )));
        }
        self.durability = DurabilityMode::File(base);
        self.replay_fed_journal();
        // Boot through recovery, never over it: an empty directory
        // replays nothing; a prior life's replays snapshot + tail back
        // to the pre-crash shard state.
        self.boot_all(now)
    }

    /// Append one record to the federation journal (file mode only —
    /// in mem mode the `Federation` value itself survives shard kills,
    /// so there is nothing to make durable). Spanning deploys are rare
    /// control-plane ops, so every append pays a full sync.
    fn append_fed_journal(&self, record: &Json) -> Result<(), ServerError> {
        let DurabilityMode::File(base) = &self.durability else {
            return Ok(());
        };
        use std::io::Write as _;
        let mut line = record.encode();
        line.push('\n');
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(base.join(FED_JOURNAL))
            .and_then(|mut file| {
                file.write_all(line.as_bytes())?;
                file.sync_all()
            })
            .map_err(|e| ServerError::Durability(format!("{FED_JOURNAL}: {e}")))
    }

    /// Rebuild `fed_deployments` and the id counter from
    /// `base/federation.rnl`. A torn final line (crash mid-append) is
    /// skipped, like the per-shard journals' torn tails.
    fn replay_fed_journal(&mut self) {
        let DurabilityMode::File(base) = &self.durability else {
            return;
        };
        let Ok(text) = std::fs::read_to_string(base.join(FED_JOURNAL)) else {
            return;
        };
        let mut max_id = 0u64;
        for line in text.lines() {
            let Ok(v) = Json::parse(line) else { continue };
            let Some(id) = v.get("id").and_then(Json::as_u64_str) else {
                continue;
            };
            max_id = max_id.max(id);
            match v.get("op").and_then(Json::as_str) {
                Some("deploy") => {
                    let Some(fed) = fed_deployment_from_json(&v) else {
                        continue;
                    };
                    self.fed_deployments.insert(id, fed);
                }
                Some("teardown") => {
                    self.fed_deployments.remove(&id);
                }
                _ => {}
            }
        }
        self.next_fed_id = self.next_fed_id.max(max_id + 1);
    }

    /// Flap-grace window of every shard (present and future).
    pub fn set_grace_window(&mut self, window: Duration) {
        self.config.grace_window = window;
        self.each_live(|server| server.set_grace_window(window));
    }

    /// Reservation enforcement on every shard (on by default, as on a
    /// lone [`RouteServer`]). A deployment is gated once, by the
    /// calendar of the design's home shard — where `reserve` books all
    /// of its routers — and its per-shard parts are then placed without
    /// a second check.
    pub fn set_enforce_reservations(&mut self, on: bool) {
        self.config.enforce_reservations = on;
        self.each_live(|server| server.set_enforce_reservations(on));
    }

    /// Admission-control policy of every shard (`--hwm`,
    /// `--op-deadline`); live shards' buckets reset to full.
    pub fn set_overload_config(&mut self, cfg: OverloadConfig, now: Instant) {
        self.config.overload = cfg;
        self.each_live(|server| server.set_overload_config(cfg, now));
    }

    /// Interval between each shard's compacting snapshots.
    pub fn set_snapshot_every(&mut self, every: Duration) {
        self.config.snapshot_every = every;
        self.each_live(|server| server.set_snapshot_every(every));
    }

    /// When each shard's journal appends reach stable storage.
    pub fn set_fsync_policy(&mut self, policy: FsyncPolicy) {
        self.config.fsync = policy;
        self.each_live(|server| server.set_fsync_policy(policy));
    }

    /// Mesh negotiation on every shard. Wires whose two sessions landed
    /// on the same shard get direct paths; cross-shard wires stay on
    /// the supervised trunks.
    pub fn set_mesh_enabled(&mut self, on: bool) {
        self.config.mesh = on;
        self.each_live(|server| server.set_mesh_enabled(on));
    }

    /// Bounded trunk backlog: per-poll byte budget and what to do when
    /// it overflows ([`OverflowPolicy::DropNewest`] sheds the frame,
    /// [`OverflowPolicy::Disconnect`] severs the trunk and lets the
    /// supervisor redial).
    pub fn set_trunk_backlog(&mut self, bytes: usize, policy: OverflowPolicy) {
        self.trunk_hwm = bytes;
        self.trunk_policy = policy;
        for trunk in self.trunks.values_mut() {
            trunk.hwm = bytes;
            trunk.policy = policy;
        }
    }

    /// Install a seeded shard-fault schedule; events fire inside
    /// [`Federation::poll`] when the virtual clock passes them.
    pub fn set_fault_plan(&mut self, plan: ShardFaultPlan) {
        self.faults = plan;
    }

    // -- introspection ------------------------------------------------

    /// Federation-level metrics (per-shard liveness, trunk health,
    /// containment sheds, rebalance durations).
    pub fn obs(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// One exposition page for the whole federation: the federation
    /// registry merged with every live shard's server registry, the
    /// latter tagged `shard="k"` so per-shard relay/session/journal
    /// series stay distinct. A down shard contributes nothing until it
    /// recovers — same containment story as the broadcast front tier.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut merged = self.obs.snapshot();
        for (k, slot) in self.slots.iter().enumerate() {
            let Some(server) = slot.server.as_ref() else {
                continue;
            };
            let shard = k.to_string();
            for mut point in server.obs().snapshot().metrics {
                point.labels.push(("shard".to_string(), shard.clone()));
                point.labels.sort();
                merged.metrics.push(point);
            }
        }
        merged
            .metrics
            .sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        merged
    }

    /// Number of shard slots (including down and drained ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the federation has no shards.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The membership ring (share with [`rnl_ris`]'s `DialMap` so both
    /// sides agree on ownership).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The shard owning `principal` under the current membership.
    pub fn shard_of_principal(&self, principal: &str) -> Option<usize> {
        self.ring.shard_of(principal)
    }

    /// Is this shard currently serving?
    pub fn is_up(&self, shard: usize) -> bool {
        self.slots.get(shard).is_some_and(|s| s.server.is_some())
    }

    /// Read access to a shard's server.
    pub fn server(&self, shard: usize) -> Option<&RouteServer> {
        self.slots.get(shard).and_then(|s| s.server.as_ref())
    }

    /// Mutable access to a shard's server, or a structured retryable
    /// [`ServerError::ShardDown`] naming when to come back.
    pub fn server_mut(&mut self, shard: usize) -> Result<&mut RouteServer, ServerError> {
        let retry_after = self.retry_hint(shard);
        match self.slots.get_mut(shard).and_then(|s| s.server.as_mut()) {
            Some(server) => Ok(server),
            None => Err(ServerError::ShardDown { shard, retry_after }),
        }
    }

    /// How long a caller should wait before retrying an op against
    /// `shard`: until its scheduled recovery if one is pending, else a
    /// small default.
    pub fn retry_hint(&self, shard: usize) -> Duration {
        match self.slots.get(shard).and_then(|s| s.down_until) {
            Some(_until) => DEFAULT_RETRY_AFTER + TRUNK_BACKOFF_BASE,
            None => DEFAULT_RETRY_AFTER,
        }
    }

    // -- session attachment -------------------------------------------

    /// Attach a dialed transport to `shard` (the caller routed the dial
    /// via the ring / dial-map). Fails with a retryable
    /// [`ServerError::ShardDown`] while the shard is down.
    pub fn attach_to(
        &mut self,
        shard: usize,
        transport: Box<dyn Transport>,
    ) -> Result<SessionId, ServerError> {
        Ok(self.server_mut(shard)?.attach(transport))
    }

    // -- fault injection ----------------------------------------------

    /// Kill a shard: its server (and every session transport it holds)
    /// is dropped on the spot, trunks touching it are severed, and —
    /// when `down_for` is set — the shard auto-recovers from its own
    /// journal once the clock passes `now + down_for`.
    pub fn kill_shard(&mut self, shard: usize, down_for: Option<Duration>, now: Instant) {
        let Some(slot) = self.slots.get_mut(shard) else {
            return;
        };
        if slot.server.take().is_none() {
            return;
        }
        slot.down_until = down_for.map(|d| now + d);
        slot.m_kills.inc();
        slot.m_up.set(0.0);
        let keys: Vec<(usize, usize)> = self
            .trunks
            .keys()
            .copied()
            .filter(|&(a, b)| a == shard || b == shard)
            .collect();
        for key in keys {
            if let Some(trunk) = self.trunks.get_mut(&key) {
                trunk.sever(now);
            }
        }
    }

    /// Sever the trunk between `a` and `b` and hold it down for `len`:
    /// redial attempts fail (with backoff) until the window passes.
    /// Only cross-shard frames between the two shards are affected.
    pub fn partition_trunk(&mut self, a: usize, b: usize, len: Duration, now: Instant) {
        if let Some(trunk) = self.trunks.get_mut(&trunk_key(a, b)) {
            trunk.partitioned_until = Some(now + len);
            trunk.sever(now);
        }
    }

    /// Bring a killed shard back by replaying its own journal
    /// (snapshot + tail); [`Federation::boot_shard`] re-arms what the
    /// WAL does not carry (config, the id base, cross-shard routes).
    pub fn recover_shard(&mut self, shard: usize, now: Instant) -> Result<(), ServerError> {
        if self.slots.get(shard).is_none_or(|s| s.server.is_some()) {
            return Ok(());
        }
        // Without durability there is nothing to replay: the shard
        // comes back empty (sessions re-register via supervisors).
        let server = self.boot_shard(shard, now)?;
        let slot = &mut self.slots[shard];
        slot.server = Some(server);
        slot.down_until = None;
        slot.m_recoveries.inc();
        slot.m_up.set(1.0);
        // The shard is back: trunks touching it may redial immediately.
        for (&(a, b), trunk) in self.trunks.iter_mut() {
            if (a == shard || b == shard) && trunk.link.is_none() {
                trunk.next_attempt = Some(now);
                trunk.delay = TRUNK_BACKOFF_BASE;
            }
        }
        Ok(())
    }

    // -- membership ---------------------------------------------------

    /// Grow the federation by one shard. Principals whose ring arc
    /// moved to the joiner are evicted into their grace window on the
    /// old owner; their supervisors redial the new owner, and the
    /// completed move is observed as a rebalance duration.
    pub fn add_shard(&mut self, now: Instant) -> Result<usize, ServerError> {
        let k = self.slots.len();
        self.push_slot();
        match self.boot_shard(k, now) {
            Ok(server) => self.slots[k].server = Some(server),
            Err(e) => {
                self.slots.pop();
                return Err(e);
            }
        }
        self.ring.add_shard(k);
        for other in 0..k {
            self.seed = lcg(self.seed);
            let mut trunk = Trunk::new(other, k, self.seed, &self.obs);
            trunk.hwm = self.trunk_hwm;
            trunk.policy = self.trunk_policy;
            trunk.next_attempt = Some(now);
            self.trunks.insert((other, k), trunk);
        }
        self.rebalance(now);
        Ok(k)
    }

    /// Drain a shard out of the membership: it stops owning principals
    /// (its sessions are evicted toward their new owners via the same
    /// grace path a join uses) but keeps serving its slot so in-flight
    /// deployments spanning it stay reachable.
    pub fn remove_shard(&mut self, shard: usize, now: Instant) {
        self.ring.remove_shard(shard);
        self.rebalance(now);
    }

    /// Evict every live principal that is no longer on its owning
    /// shard; each eviction opens a rebalance ticket that completes
    /// when the principal re-registers on the new owner.
    fn rebalance(&mut self, now: Instant) {
        for s in 0..self.slots.len() {
            let moves: Vec<(String, usize)> = {
                let Some(server) = self.slots[s].server.as_ref() else {
                    continue;
                };
                server
                    .live_principals()
                    .into_iter()
                    .filter_map(|pc| {
                        let owner = self.ring.shard_of(&pc)?;
                        (owner != s).then_some((pc, owner))
                    })
                    .collect()
            };
            for (pc, owner) in moves {
                if let Some(server) = self.slots[s].server.as_mut() {
                    server.evict_principal(&pc, now);
                }
                self.m_rebalances.inc();
                self.pending_rebalance.push(RebalanceTicket {
                    pc_name: pc,
                    owner,
                    since: now,
                });
            }
        }
    }

    fn complete_rebalances(&mut self, now: Instant) {
        let pending = std::mem::take(&mut self.pending_rebalance);
        for ticket in pending {
            let adopted = self
                .slots
                .get(ticket.owner)
                .and_then(|s| s.server.as_ref())
                .is_some_and(|server| server.has_live_principal(&ticket.pc_name));
            if adopted {
                self.m_rebalance_us
                    .observe(now.since(ticket.since).as_micros());
            } else {
                self.pending_rebalance.push(ticket);
            }
        }
    }

    // -- the poll loop ------------------------------------------------

    /// One federation tick: fire due fault events, auto-recover shards
    /// whose down-window passed, supervise trunks (redial with jittered
    /// backoff), poll every live shard, pump cross-shard frames over
    /// the trunks (shedding — counted — what a down trunk cannot
    /// carry), and settle rebalance tickets.
    pub fn poll(&mut self, now: Instant) {
        for event in self.faults.take_due(now) {
            match event.kind {
                ShardFaultKind::KillShard { shard, down_for } => {
                    self.kill_shard(shard, Some(down_for), now);
                }
                ShardFaultKind::PartitionTrunk { a, b, len } => {
                    self.partition_trunk(a, b, len, now);
                }
            }
        }
        for k in 0..self.slots.len() {
            let due = self.slots[k]
                .server
                .is_none()
                .then(|| self.slots[k].down_until)
                .flatten()
                .is_some_and(|until| now >= until);
            if due && self.recover_shard(k, now).is_err() {
                // Journal replay failed; push the retry out instead of
                // spinning on it every tick.
                if let Some(slot) = self.slots.get_mut(k) {
                    slot.down_until = Some(now + TRUNK_BACKOFF_BASE);
                }
            }
        }
        self.supervise_trunks(now);
        for slot in &mut self.slots {
            if let Some(server) = slot.server.as_mut() {
                server.poll(now);
            }
        }
        self.pump_out(now);
        self.pump_in(now);
        self.complete_rebalances(now);
    }

    fn supervise_trunks(&mut self, now: Instant) {
        let keys: Vec<(usize, usize)> = self.trunks.keys().copied().collect();
        for key in keys {
            let (a, b) = key;
            let both_up = self.is_up(a) && self.is_up(b);
            // Advance the seed every iteration (used or not) so the
            // stream stays aligned across runs regardless of outcomes.
            self.seed = lcg(self.seed);
            let seed = self.seed;
            let Some(trunk) = self.trunks.get_mut(&key) else {
                continue;
            };
            trunk.sent_this_poll = 0;
            if trunk.link.is_some() {
                if !both_up {
                    trunk.sever(now);
                }
                continue;
            }
            if !trunk.due(now) {
                continue;
            }
            let partitioned = trunk.partitioned_until.is_some_and(|until| now < until);
            if both_up && !partitioned {
                trunk.establish(seed, now);
            } else {
                trunk.note_failure(now);
            }
        }
    }

    /// Drain each live shard's trunk outbox and forward the frames over
    /// the owning trunk. Anything that cannot be carried — trunk down,
    /// backlog overflow, destination shard unknown — is shed on the
    /// *source* shard, counted `reason="trunk-down"`; intra-shard relay
    /// never passes through here, so containment is structural.
    fn pump_out(&mut self, now: Instant) {
        for s in 0..self.slots.len() {
            let frames = match self.slots[s].server.as_mut() {
                Some(server) => server.take_trunk_outbox(),
                None => continue,
            };
            for frame in frames {
                let dst = shard_of_router(frame.dst_router);
                let carried = dst != s
                    && dst < self.slots.len()
                    && self
                        .trunks
                        .get_mut(&trunk_key(s, dst))
                        .is_some_and(|trunk| trunk.forward(s, &frame.body, now));
                if !carried {
                    if let Some(server) = self.slots[s].server.as_mut() {
                        server.shed_trunk_frame(frame.dst_router, now);
                    }
                    self.m_containment_sheds.inc();
                }
            }
        }
    }

    /// Poll both ends of every live trunk and deliver inbound frames
    /// into the shard that owns that end. Data frames go straight to
    /// [`RouteServer::deliver_remote`]; registration hellos rotate the
    /// trunk's accepted peer generation (stale incarnations are counted
    /// and ignored).
    fn pump_in(&mut self, now: Instant) {
        let keys: Vec<(usize, usize)> = self.trunks.keys().copied().collect();
        for key in keys {
            for side in 0..2 {
                let into = if side == 0 { key.0 } else { key.1 };
                let mut batch = std::mem::take(&mut self.batch);
                batch.clear();
                let polled = {
                    let Some(trunk) = self.trunks.get_mut(&key) else {
                        self.batch = batch;
                        continue;
                    };
                    match trunk.link.as_mut() {
                        Some((end_a, end_b)) => {
                            let end = if side == 0 { end_a } else { end_b };
                            end.poll_into(now, &mut batch).is_ok()
                        }
                        None => false,
                    }
                };
                if !polled {
                    self.batch = batch;
                    continue;
                }
                let mut hellos: Vec<u64> = Vec::new();
                let mut undeliverable = 0u64;
                for i in 0..batch.len() {
                    let Some(body) = batch.get(i) else { continue };
                    if Msg::peek_data(body).is_some() {
                        let delivered = self.slots.get_mut(into).and_then(|slot| {
                            slot.server
                                .as_mut()
                                .map(|server| server.deliver_remote(body, now))
                        });
                        if delivered.is_none() {
                            // The destination shard died after the
                            // frame entered the trunk: lost with it.
                            undeliverable += 1;
                        }
                    } else if let Ok(Msg::Register(info)) = Msg::decode(body) {
                        hellos.push(info.epoch.generation);
                    }
                }
                if let Some(trunk) = self.trunks.get_mut(&key) {
                    trunk.m_fault_dropped.add(undeliverable);
                    for generation in hellos {
                        if generation > trunk.peer_gen[side] {
                            trunk.peer_gen[side] = generation;
                        } else {
                            trunk.m_stale_hellos.inc();
                        }
                    }
                }
                self.batch = batch;
            }
        }
    }

    // -- spanning deployments -----------------------------------------

    /// Deploy a saved design whose devices may live on several shards.
    /// The home shard's calendar gates the whole design once (that is
    /// where `reserve` booked every router, foreign ones included); the
    /// design is then split into per-shard sub-designs, each linted
    /// against its host shard's inventory and placed there, and every
    /// cross-shard link gets a remote route on both owners so the relay
    /// hot path re-addresses matrix misses onto the trunk. Returns a
    /// federation-level deployment id for [`Federation::teardown_fed`].
    pub fn deploy_spanning(
        &mut self,
        user: &str,
        design_name: &str,
        force: bool,
        now: Instant,
    ) -> Result<u64, ServerError> {
        let home = self
            .shard_of_principal(design_name)
            .ok_or(ServerError::ShardDown {
                shard: 0,
                retry_after: DEFAULT_RETRY_AFTER,
            })?;
        let design: Design = {
            let server = self.server_mut(home)?;
            server
                .designs()
                .load(design_name)
                .cloned()
                .ok_or_else(|| ServerError::UnknownDesign(design_name.to_string()))?
        };
        let mut groups: BTreeMap<usize, Vec<RouterId>> = BTreeMap::new();
        for router in design.devices() {
            groups
                .entry(shard_of_router(router))
                .or_default()
                .push(router);
        }
        for &s in groups.keys() {
            if !self.is_up(s) {
                return Err(ServerError::ShardDown {
                    shard: s,
                    retry_after: self.retry_hint(s),
                });
            }
        }
        // Single-shard home deployment keeps full fidelity (calendar
        // enforcement, full-design lint, saved-design path).
        if groups.len() == 1 && groups.contains_key(&home) {
            let server = self.server_mut(home)?;
            let part = if force {
                server.deploy_forced(user, design_name, now)?
            } else {
                server.deploy(user, design_name, now)?
            };
            return self.commit_deployment(FedDeployment {
                parts: vec![(home, part)],
                cross: Vec::new(),
            });
        }
        let routers: Vec<RouterId> = design.devices().collect();
        self.server_mut(home)?
            .check_reservation(user, &routers, now)?;
        let mut local_links: BTreeMap<usize, Vec<Link>> = BTreeMap::new();
        let mut cross = Vec::new();
        for &link in design.links() {
            let (end_a, end_b) = link;
            let (sa, sb) = (shard_of_router(end_a.0), shard_of_router(end_b.0));
            if sa == sb {
                local_links.entry(sa).or_default().push(link);
            } else {
                cross.push(link);
            }
        }
        let mut placed = FedDeployment {
            parts: Vec::new(),
            cross: Vec::new(),
        };
        for (&s, routers) in &groups {
            let mut sub = Design::new(&format!("{design_name}@shard{s}"));
            for &router in routers {
                sub.add_device(router);
            }
            if let Some(links) = local_links.get(&s) {
                for &(end_a, end_b) in links {
                    sub.connect(end_a, end_b)?;
                }
            }
            // The full design spans inventories, so the lint gate runs
            // per shard: each sub-design against the inventory and
            // saved configs of the shard that will host it.
            let part = self.server_mut(s).and_then(|server| {
                if !force {
                    let report = server.analyze_design(&sub);
                    if report.has_errors() {
                        return Err(ServerError::Lint(report.render()));
                    }
                }
                server.place_design(user, &sub, now)
            });
            match part {
                Ok(part) => placed.parts.push((s, part)),
                Err(e) => {
                    // Roll back what already landed so a half-placed
                    // spanning deployment never lingers.
                    self.dismantle(&placed);
                    return Err(e);
                }
            }
        }
        for &(end_a, end_b) in &cross {
            let (sa, sb) = (shard_of_router(end_a.0), shard_of_router(end_b.0));
            if let Ok(server) = self.server_mut(sa) {
                server.add_remote_route(end_a, end_b);
            }
            if let Ok(server) = self.server_mut(sb) {
                server.add_remote_route(end_b, end_a);
            }
        }
        placed.cross = cross;
        self.commit_deployment(placed)
    }

    /// Journal a placed deployment under the next federation id, or
    /// roll it back: a deployment the federation journal does not hold
    /// could never be torn down by id after a restart.
    fn commit_deployment(&mut self, fed: FedDeployment) -> Result<u64, ServerError> {
        let id = self.next_fed_id;
        if let Err(e) = self.append_fed_journal(&fed_deployment_to_json(id, &fed)) {
            self.dismantle(&fed);
            return Err(e);
        }
        self.next_fed_id += 1;
        self.fed_deployments.insert(id, fed);
        Ok(id)
    }

    /// Remove a deployment's remote routes, then its per-shard parts;
    /// `true` when every part was torn down.
    fn dismantle(&mut self, fed: &FedDeployment) -> bool {
        for &(from, to) in &fed.cross {
            for end in [from, to] {
                if let Ok(server) = self.server_mut(shard_of_router(end.0)) {
                    server.remove_remote_route(end);
                }
            }
        }
        let mut all = true;
        for &(shard, part) in &fed.parts {
            all &= self
                .server_mut(shard)
                .is_ok_and(|server| server.teardown(part));
        }
        all
    }

    /// Tear down a federation-level deployment: remove its remote
    /// routes, then its per-shard parts. Every involved shard must be
    /// up — otherwise nothing is touched and the caller gets a
    /// retryable [`ServerError::ShardDown`]. If the federation journal
    /// cannot record the teardown the id stays registered, so a retry
    /// journals it again.
    pub fn teardown_fed(&mut self, id: u64, now: Instant) -> Result<bool, ServerError> {
        let _ = now;
        let Some(fed) = self.fed_deployments.get(&id).cloned() else {
            return Ok(false);
        };
        for &(shard, _) in &fed.parts {
            if !self.is_up(shard) {
                return Err(ServerError::ShardDown {
                    shard,
                    retry_after: self.retry_hint(shard),
                });
            }
        }
        let all = self.dismantle(&fed);
        self.append_fed_journal(&Json::obj([
            ("op", Json::str("teardown")),
            ("id", Json::u64_str(id)),
        ]))?;
        self.fed_deployments.remove(&id);
        Ok(all)
    }

    /// The registered federation deployment, if any.
    pub fn fed_deployment(&self, id: u64) -> Option<&FedDeployment> {
        self.fed_deployments.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use rnl_device::host::Host;
    use rnl_ris::Ris;
    use rnl_tunnel::msg::PortId;
    use rnl_tunnel::transport::mem_pair_perfect;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    /// A federation whose shard-0 and shard-1 each host one half of a
    /// cross-shard pair design `span`, saved on its home shard but not
    /// yet reserved or deployed. Returns `(fed, ris0, ris1)`.
    fn cross_shard_fed(seed: u64) -> (Federation, Ris, Ris) {
        let mut fed = Federation::new(2, seed);
        fed.enable_mem_durability(t(0)).unwrap();
        let mut rises = Vec::new();
        for k in 0..2usize {
            let (ris_side, server_side) = mem_pair_perfect(seed + 10 + k as u64);
            fed.attach_to(k, Box::new(server_side)).unwrap();
            let mut ris = Ris::new(&format!("pc-{k}"), Box::new(ris_side));
            let mut host = Host::new("h", 7);
            host.set_ip(format!("10.0.0.{}/24", k + 1).parse().unwrap());
            ris.add_device(Box::new(host), "host");
            ris.join_labs(t(0)).unwrap();
            fed.poll(t(0));
            ris.poll(t(0)).unwrap();
            rises.push(ris);
        }
        let r0 = rises[0].router_id(0).unwrap();
        let r1 = rises[1].router_id(0).unwrap();
        assert_eq!(shard_of_router(r0), 0);
        assert_eq!(shard_of_router(r1), 1);
        let mut d = Design::new("span");
        d.add_device(r0);
        d.add_device(r1);
        d.connect((r0, PortId(0)), (r1, PortId(0))).unwrap();
        let home = fed.shard_of_principal("span").unwrap();
        fed.server_mut(home).unwrap().save_design(d);
        let mut it = rises.into_iter();
        let (ris0, ris1) = (it.next().unwrap(), it.next().unwrap());
        (fed, ris0, ris1)
    }

    /// [`cross_shard_fed`] with `span` reserved on its home shard and
    /// deployed through the federation. Returns `(fed, ris0, ris1,
    /// fed_id)`.
    fn cross_shard_rig(seed: u64) -> (Federation, Ris, Ris, u64) {
        let (mut fed, ris0, ris1) = cross_shard_fed(seed);
        let home = fed.shard_of_principal("span").unwrap();
        fed.server_mut(home)
            .unwrap()
            .reserve_design("user", "span", t(0), t(600_000))
            .unwrap();
        let fed_id = fed.deploy_spanning("user", "span", false, t(0)).unwrap();
        (fed, ris0, ris1, fed_id)
    }

    fn drive(fed: &mut Federation, ris0: &mut Ris, ris1: &mut Ris, from_ms: u64, to_ms: u64) {
        for ms in (from_ms..to_ms).step_by(10) {
            let _ = ris0.poll(t(ms));
            let _ = ris1.poll(t(ms));
            fed.poll(t(ms));
            let _ = ris0.poll(t(ms));
            let _ = ris1.poll(t(ms));
        }
    }

    #[test]
    fn cross_shard_ping_rides_the_trunk() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed);
        ris0.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 3", t(0));
        drive(&mut fed, &mut ris0, &mut ris1, 10, 5000);
        let out = ris0.device_mut(0).unwrap().console("show ping", t(5000));
        assert!(out.contains("3 received"), "cross-shard ping: {out}");
        // Frames crossed shards over the trunk, both directions.
        let s0 = fed.server(0).unwrap();
        let s1 = fed.server(1).unwrap();
        assert!(s0.obs().counter_sum("rnl_server_trunk_frames_total") > 0);
        assert!(s1.obs().counter_sum("rnl_server_trunk_frames_total") > 0);
        assert!(fed.obs().counter_sum("rnl_server_shard_trunk_frames_total") >= 6);
    }

    #[test]
    fn trunk_partition_sheds_only_cross_shard_frames() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed2);
        // Sever the trunk for good (longer than the test horizon).
        fed.partition_trunk(0, 1, Duration::from_secs(600), t(10));
        ris0.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 2", t(10));
        drive(&mut fed, &mut ris0, &mut ris1, 20, 3000);
        let out = ris0.device_mut(0).unwrap().console("show ping", t(3000));
        assert!(out.contains("0 received"), "partitioned ping: {out}");
        // The sheds are counted with the trunk-down reason on the
        // source shard, and at the federation level.
        let s0 = fed.server(0).unwrap();
        assert!(
            s0.obs().snapshot().counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "trunk-down")]
            ) > 0
        );
        assert!(
            fed.obs()
                .counter_sum("rnl_server_shard_containment_sheds_total")
                > 0
        );
    }

    #[test]
    fn trunk_reconnects_with_backoff_after_partition() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed3);
        fed.partition_trunk(0, 1, Duration::from_millis(500), t(10));
        drive(&mut fed, &mut ris0, &mut ris1, 20, 3000);
        // The trunk came back after the window and counted a reconnect.
        assert!(
            fed.obs()
                .counter_sum("rnl_server_shard_trunk_reconnects_total")
                >= 1
        );
        // And traffic flows again end to end.
        ris0.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 2", t(3000));
        drive(&mut fed, &mut ris0, &mut ris1, 3010, 8000);
        let out = ris0.device_mut(0).unwrap().console("show ping", t(8000));
        assert!(out.contains("2 received"), "post-heal ping: {out}");
    }

    #[test]
    fn killed_shard_recovers_from_its_own_journal() {
        let (mut fed, mut ris0, mut ris1, fed_id) = cross_shard_rig(0xfed4);
        fed.set_grace_window(Duration::from_secs(60));
        drive(&mut fed, &mut ris0, &mut ris1, 10, 200);
        fed.kill_shard(1, Some(Duration::from_millis(300)), t(200));
        assert!(!fed.is_up(1));
        assert!(fed.is_up(0));
        // Ops against the dead shard get a structured retryable error.
        match fed.server_mut(1) {
            Err(ServerError::ShardDown { shard, retry_after }) => {
                assert_eq!(shard, 1);
                assert!(retry_after.as_micros() > 0);
            }
            _ => unreachable!("expected ShardDown"),
        }
        // The clock passes the down window: poll auto-recovers it.
        drive(&mut fed, &mut ris0, &mut ris1, 210, 1000);
        assert!(fed.is_up(1));
        assert_eq!(
            fed.obs().counter_sum("rnl_server_shard_recoveries_total"),
            1
        );
        // The recovered shard still holds its half of the deployment
        // and its remote route (re-armed by the federation).
        let part = fed
            .fed_deployment(fed_id)
            .unwrap()
            .parts
            .iter()
            .find(|(s, _)| *s == 1)
            .copied()
            .unwrap();
        let s1 = fed.server(1).unwrap();
        assert!(s1.matrix().links_of(part.1).is_some());
        let cross = fed.fed_deployment(fed_id).unwrap().cross.clone();
        let (from, to) = cross[0];
        assert_eq!(fed.server(1).unwrap().remote_route(to), Some(from));
    }

    #[test]
    fn join_rebalances_sessions_through_the_grace_path() {
        let mut fed = Federation::new(2, 0xfed5);
        fed.set_grace_window(Duration::from_secs(60));
        // Attach a handful of principals to their owning shards.
        let mut owners = Vec::new();
        for i in 0..6 {
            let pc = format!("pc-{i}");
            let owner = fed.shard_of_principal(&pc).unwrap();
            let (_ris_side, server_side) = mem_pair_perfect(100 + i);
            fed.attach_to(owner, Box::new(server_side)).unwrap();
            // Register by name so live_principals sees it.
            let server = fed.server_mut(owner).unwrap();
            server.poll(t(0));
            owners.push((pc, owner));
        }
        let k = fed.add_shard(t(10)).unwrap();
        assert_eq!(k, 2);
        assert_eq!(fed.ring().members(), &[0, 1, 2]);
        // Ownership is total and the new member owns some arc.
        let moved = (0..200)
            .filter(|i| fed.shard_of_principal(&format!("key-{i}")) == Some(2))
            .count();
        assert!(moved > 0, "joiner owns nothing");
    }

    #[test]
    fn fault_plan_fires_inside_poll() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed6);
        let mut plan = ShardFaultPlan::new();
        plan.schedule_kill(1, t(100), Duration::from_millis(200));
        fed.set_fault_plan(plan);
        drive(&mut fed, &mut ris0, &mut ris1, 10, 150);
        assert!(!fed.is_up(1), "scheduled kill did not fire");
        drive(&mut fed, &mut ris0, &mut ris1, 150, 1000);
        assert!(fed.is_up(1), "scheduled kill did not auto-recover");
        assert_eq!(fed.obs().counter_sum("rnl_server_shard_kills_total"), 1);
    }

    #[test]
    fn fed_journal_restores_cross_wires_after_full_restart() {
        let dir = std::env::temp_dir().join(format!(
            "rnl-fed-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // First life: a file-durable federation with one spanning
        // deployment, then the whole process "exits" (fed is dropped).
        let (fed_id, r0, r1);
        {
            let mut fed = Federation::new(2, 0xfeed);
            fed.set_enforce_reservations(false);
            fed.enable_file_durability(&dir, t(0)).unwrap();
            let mut rises = Vec::new();
            for k in 0..2usize {
                let (ris_side, server_side) = mem_pair_perfect(0xfeed + 10 + k as u64);
                fed.attach_to(k, Box::new(server_side)).unwrap();
                let mut ris = Ris::new(&format!("pc-{k}"), Box::new(ris_side));
                let mut host = Host::new("h", 7);
                host.set_ip(format!("10.0.0.{}/24", k + 1).parse().unwrap());
                ris.add_device(Box::new(host), "host");
                ris.join_labs(t(0)).unwrap();
                fed.poll(t(0));
                ris.poll(t(0)).unwrap();
                rises.push(ris);
            }
            r0 = rises[0].router_id(0).unwrap();
            r1 = rises[1].router_id(0).unwrap();
            let mut d = Design::new("span");
            d.add_device(r0);
            d.add_device(r1);
            d.connect((r0, PortId(0)), (r1, PortId(0))).unwrap();
            let home = fed.shard_of_principal("span").unwrap();
            fed.server_mut(home).unwrap().save_design(d);
            fed_id = fed.deploy_spanning("user", "span", false, t(0)).unwrap();
        }
        // Second life: a fresh federation over the same state dir.
        // Shard journals restore the per-shard halves; the federation
        // journal restores the deployment and its cross-shard wires.
        let mut fed = Federation::new(2, 0xfeed);
        fed.set_enforce_reservations(false);
        fed.enable_file_durability(&dir, t(60_000)).unwrap();
        let deployment = fed.fed_deployment(fed_id).expect("fed journal replayed");
        assert_eq!(deployment.cross.len(), 1);
        assert_eq!(
            fed.server(0).unwrap().remote_route((r0, PortId(0))),
            Some((r1, PortId(0))),
            "shard 0 half-wire reinstalled"
        );
        assert_eq!(
            fed.server(1).unwrap().remote_route((r1, PortId(0))),
            Some((r0, PortId(0))),
            "shard 1 half-wire reinstalled"
        );
        // A pre-restart deployment id remains tearable, and the
        // teardown removes both half-wires again.
        assert!(fed.teardown_fed(fed_id, t(60_000)).unwrap());
        assert_eq!(fed.server(0).unwrap().remote_route((r0, PortId(0))), None);
        assert!(fed.fed_deployment(fed_id).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_snapshot_merges_every_live_shard() {
        let mut fed = Federation::new(2, 7);
        let snap = fed.metrics_snapshot();
        // Federation-level series come through untagged…
        assert!(snap.get("rnl_server_shard_up", &[("shard", "0")]).is_some());
        // …and each shard's own registry is tagged with its id.
        for shard in ["0", "1"] {
            assert!(
                snap.get("rnl_server_frames_routed_total", &[("shard", shard)])
                    .is_some(),
                "missing per-server series for shard {shard}"
            );
        }
        // A down shard drops out of the page until it recovers.
        fed.kill_shard(0, None, t(0));
        let snap = fed.metrics_snapshot();
        assert!(snap
            .get("rnl_server_frames_routed_total", &[("shard", "0")])
            .is_none());
        assert!(snap
            .get("rnl_server_frames_routed_total", &[("shard", "1")])
            .is_some());
    }

    /// A fresh per-test directory under the system temp dir.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rnl-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One shard hosting one RIS with two hosts; returns the RIS and a
    /// saved (unreserved) pair design `pair` on that shard.
    fn pair_on_shard(fed: &mut Federation, shard: usize) -> Ris {
        let (ris_side, server_side) = mem_pair_perfect(0xab + shard as u64);
        fed.attach_to(shard, Box::new(server_side)).unwrap();
        let mut ris = Ris::new("pc-pair", Box::new(ris_side));
        for (i, ip) in ["10.0.0.1/24", "10.0.0.2/24"].into_iter().enumerate() {
            let mut host = Host::new("h", i as u32);
            host.set_ip(ip.parse().unwrap());
            ris.add_device(Box::new(host), "host");
        }
        ris.join_labs(t(0)).unwrap();
        fed.poll(t(0));
        ris.poll(t(0)).unwrap();
        let (r1, r2) = (ris.router_id(0).unwrap(), ris.router_id(1).unwrap());
        let mut d = Design::new("pair");
        d.add_device(r1);
        d.add_device(r2);
        d.connect((r1, PortId(0)), (r2, PortId(0))).unwrap();
        fed.server_mut(shard).unwrap().save_design(d);
        ris
    }

    #[test]
    fn recovered_shard_keeps_every_setting() {
        let dir = scratch_dir("config");
        let overload = crate::overload::OverloadConfig {
            capacity: 17,
            refill_per_sec: 17,
            op_deadline: Duration::from_secs(3),
            ..Default::default()
        };
        let mut fed = Federation::new(2, 0xc0f);
        fed.set_grace_window(Duration::from_secs(42));
        fed.set_enforce_reservations(false);
        fed.set_overload_config(overload, t(0));
        fed.set_snapshot_every(Duration::from_secs(7));
        fed.set_fsync_policy(FsyncPolicy::GroupCommit);
        fed.set_mesh_enabled(true);
        fed.enable_file_durability(&dir, t(0)).unwrap();
        let configured = |fed: &Federation, k: usize, mesh: bool| {
            let server = fed.server(k).unwrap();
            assert_eq!(server.grace_window(), Duration::from_secs(42));
            assert!(!server.reservations_enforced());
            assert_eq!(server.overload_config(), overload);
            assert_eq!(server.snapshot_every(), Duration::from_secs(7));
            assert_eq!(server.fsync_policy(), Some(FsyncPolicy::GroupCommit));
            assert_eq!(server.mesh_enabled(), mesh);
        };
        for k in 0..2 {
            configured(&fed, k, true);
        }
        // `--mesh`-style config survives a kill + journal recovery…
        fed.kill_shard(1, None, t(10));
        fed.recover_shard(1, t(20)).unwrap();
        configured(&fed, 1, true);
        // …and so does a runtime `set_mesh` through the front tier.
        let off =
            crate::web::handle_sharded(&mut fed, crate::web::Request::SetMesh { on: false }, t(30));
        assert!(matches!(off, crate::web::Response::Ok));
        fed.kill_shard(0, None, t(40));
        fed.recover_shard(0, t(50)).unwrap();
        for k in 0..2 {
            configured(&fed, k, false);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn federation_of_one_refuses_an_unreserved_deploy() {
        let mut fed = Federation::new(1, 0x1);
        let _ris = pair_on_shard(&mut fed, 0);
        assert!(fed.server(0).unwrap().reservations_enforced());
        assert!(matches!(
            fed.deploy_spanning("user", "pair", false, t(0)),
            Err(ServerError::Reservation(_))
        ));
        // The same refusal a lone `RouteServer::new()` gives.
        let server = fed.server_mut(0).unwrap();
        assert!(matches!(
            server.deploy("user", "pair", t(0)),
            Err(ServerError::Reservation(_))
        ));
        server
            .reserve_design("user", "pair", t(0), t(1000))
            .unwrap();
        assert!(fed.deploy_spanning("user", "pair", false, t(0)).is_ok());
    }

    #[test]
    fn spanning_deploy_is_gated_once_by_the_home_calendar() {
        let (mut fed, _ris0, _ris1) = cross_shard_fed(0x5a);
        let home = fed.shard_of_principal("span").unwrap();
        let deployed = |fed: &Federation| {
            (0..2)
                .map(|k| fed.server(k).unwrap().deployments().count())
                .sum::<usize>()
        };
        // No reservation anywhere: refused before any part is placed.
        assert!(matches!(
            fed.deploy_spanning("user", "span", false, t(0)),
            Err(ServerError::Reservation(_))
        ));
        assert_eq!(deployed(&fed), 0);
        // A booking on the other shard's calendar does not count: the
        // design's home calendar is the one that gates it.
        let routers: Vec<RouterId> = fed
            .server(home)
            .unwrap()
            .designs()
            .load("span")
            .unwrap()
            .devices()
            .collect();
        fed.server_mut(1 - home)
            .unwrap()
            .calendar_mut()
            .reserve("user", &routers, t(0), t(1000))
            .unwrap();
        assert!(matches!(
            fed.deploy_spanning("user", "span", false, t(0)),
            Err(ServerError::Reservation(_))
        ));
        // Booked on the home shard, every part lands — including the one
        // on the shard whose own calendar holds no home booking.
        fed.server_mut(home)
            .unwrap()
            .reserve_design("user", "span", t(0), t(1000))
            .unwrap();
        let id = fed.deploy_spanning("user", "span", false, t(0)).unwrap();
        assert_eq!(fed.fed_deployment(id).unwrap().parts.len(), 2);
        assert_eq!(deployed(&fed), 2);
        assert!(fed.server(0).unwrap().reservations_enforced());
        assert!(fed.server(1).unwrap().reservations_enforced());
    }

    #[test]
    fn failed_fed_journal_append_rolls_the_deploy_back() {
        let dir = scratch_dir("fedjournal-fail");
        let mut fed = Federation::new(1, 0x2);
        fed.set_enforce_reservations(false);
        fed.enable_file_durability(&dir, t(0)).unwrap();
        // A directory where the federation journal file should be makes
        // every append fail.
        std::fs::create_dir_all(dir.join(FED_JOURNAL)).unwrap();
        let _ris = pair_on_shard(&mut fed, 0);
        assert!(matches!(
            fed.deploy_spanning("user", "pair", false, t(0)),
            Err(ServerError::Durability(_))
        ));
        let server = fed.server(0).unwrap();
        assert_eq!(server.deployments().count(), 0);
        for router in server.designs().load("pair").unwrap().devices() {
            assert_eq!(
                server.matrix().owner_of(router),
                None,
                "{router:?} still deployed"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_server_state_dir_is_refused() {
        for file in ["journal.rnl", "snapshot.rnl"] {
            let dir = scratch_dir(&format!("legacy-{file}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(file), b"").unwrap();
            let mut fed = Federation::new(1, 0x3);
            match fed.enable_file_durability(&dir, t(0)) {
                Err(ServerError::Durability(message)) => {
                    assert!(message.contains("shard-0"), "{message}");
                }
                other => panic!("{file}: expected a refusal, got {:?}", other.err()),
            }
            // Nothing was created over the old layout.
            assert!(!dir.join("shard-0").exists());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
