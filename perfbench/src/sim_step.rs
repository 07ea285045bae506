//! `sim_step`: one op is one replication of the benchmark's own
//! `CampaignSpec`, pushed through `ttdc_sim::campaign::run_campaign` into
//! an on-disk directory with shard size 1 — the `ttdc campaign run` path.
//!
//! `TtdcMac` (D = 4) over a fresh connected geometric topology per
//! replication, Poisson convergecast traffic, five fault families. Poisson
//! traffic and crash/drift faults refuse the skip engine and drift forces
//! the dense scan, so every slot is stepped.
//!
//! The module also holds the simulator helpers `sim_skip` shares.

use crate::trace::Tracer;
use crate::{digest, engine_span, mix, seeded_order, Counters, OpOut, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use ttdc_core::{build_duty_cycled, PartitionStrategy};
use ttdc_protocols::TtdcMac;
use ttdc_sim::campaign::{CampaignOptions, MANIFEST_FILE, MERGED_FILE};
use ttdc_sim::{
    run_campaign, CampaignSpec, CrashModel, FaultPlan, GeometricNetwork, GilbertElliott,
    MacProtocol, PointSpec, ResumeMode, SimReport, SimulatorBuilder, SlotPlan, Topology,
    TrafficPattern,
};

/// Maximum degree `D` of every simulated topology and schedule.
pub const D: usize = 4;
/// `(α_T, α_R)` of the simulated TTDC schedules.
pub const ALPHAS: (usize, usize) = (2, 4);
/// Network sizes.
pub const SIZES: [usize; 4] = [25, 36, 49, 64];
/// Slots per replication.
pub const SLOTS: u64 = 10_000;
/// Per-node per-slot convergecast generation probability.
pub const RATE: f64 = 0.0008;
/// ARQ retry budget of every faulty family.
const ARQ_LIMIT: u32 = 8;
/// Unit-disk radius of the geometric deployments.
pub const RADIUS: f64 = 0.35;

/// The fault families, as `(name, plan)`.
pub fn families() -> Vec<(&'static str, FaultPlan)> {
    let arq = FaultPlan::none().with_max_retries(ARQ_LIMIT);
    vec![
        ("clean", FaultPlan::none()),
        ("per", arq.with_per(0.10)),
        ("burst", arq.with_burst(GilbertElliott::bursty(0.01, 0.07))),
        ("crash", arq.with_crash(CrashModel::new(0.0005, 0.05))),
        ("drift", arq.with_drift(0.10)),
    ]
}

/// The TTDC MAC for `n` nodes, built through its public pieces: the
/// Figure-2 construction inside a `core.construct` span, wrapped inside a
/// `protocols.mac_build` span.
pub fn traced_mac(n: usize, t: &mut Tracer) -> TtdcMac {
    let (at, ar) = ALPHAS;
    t.span("protocols.mac_build", |t| {
        let c = t.span("core.construct", |_| {
            build_duty_cycled(n, D, at, ar, PartitionStrategy::RoundRobin)
        });
        TtdcMac::from_construction(&c, at, ar)
    })
}

/// The TTDC MAC for `n` nodes, the way users build it.
pub fn mac(n: usize) -> TtdcMac {
    TtdcMac::new(n, D, ALPHAS.0, ALPHAS.1, PartitionStrategy::RoundRobin)
}

/// A connected geometric deployment drawn from `seed`, and how many
/// disconnected draws were rejected first.
pub fn connected_geometric(n: usize, seed: u64) -> (Topology, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut retries = 0;
    loop {
        let t = GeometricNetwork::random(n, RADIUS, D, &mut rng).topology();
        if t.is_connected() {
            return (t, retries);
        }
        retries += 1;
    }
}

/// Digest of every counter, per-node ledger entry and latency statistic
/// of a report (floats by bit pattern).
pub fn report_digest(r: &SimReport) -> u64 {
    let mut s = format!(
        "slots={} gen={} del={} hop={} col={} undel={} backlog={} deaths={} first_death={:?} \
         drops={} crashes={} rec={} exhausted={} crash_dropped={} lat_n={} lat_mean={:016x} \
         lat_max={:016x}\n",
        r.slots,
        r.generated,
        r.delivered,
        r.hop_deliveries,
        r.collisions,
        r.undeliverable,
        r.backlog,
        r.deaths,
        r.first_death_slot,
        r.link_drops,
        r.crashes,
        r.recoveries,
        r.retry_exhausted,
        r.crash_dropped,
        r.latency.count(),
        r.latency.mean().to_bits(),
        r.latency.max().to_bits(),
    );
    let e = &r.energy;
    for i in 0..e.consumed_mj.len() {
        s.push_str(&format!(
            "{i}:{:016x},{},{},{}\n",
            e.consumed_mj[i].to_bits(),
            e.tx_slots[i],
            e.listen_slots[i],
            e.sleep_slots[i]
        ));
    }
    digest(&[s.as_bytes()])
}

/// Oracles that hold for any seed: per node tx + listen + sleep == slots
/// (short by the slots after death for exactly `deaths` nodes),
/// delivered ≤ generated, and packet conservation
/// (generated = delivered + undeliverable + retry-exhausted + backlog).
pub fn conservation(r: &SimReport) -> Result<(), String> {
    let e = &r.energy;
    let mut short = 0u64;
    for i in 0..e.tx_slots.len() {
        let total = e.tx_slots[i] + e.listen_slots[i] + e.sleep_slots[i];
        if total > r.slots {
            return Err(format!(
                "node {i}: tx + listen + sleep = {total} > {} slots",
                r.slots
            ));
        }
        short += u64::from(total < r.slots);
    }
    if short != r.deaths {
        return Err(format!(
            "{short} node(s) accounted fewer than {} slots but {} died",
            r.slots, r.deaths
        ));
    }
    if r.delivered > r.generated {
        return Err(format!(
            "delivered {} > generated {}",
            r.delivered, r.generated
        ));
    }
    let accounted = r.delivered + r.undeliverable + r.retry_exhausted + r.backlog;
    if accounted != r.generated {
        return Err(format!(
            "generated {} != delivered + undeliverable + retry-exhausted + backlog = {accounted}",
            r.generated
        ));
    }
    Ok(())
}

/// Adds a report's exact counters to `o`.
pub fn count_report(o: &mut OpOut, r: &SimReport, family: &str) {
    o.count("sim.slots", r.slots as f64);
    o.count(&format!("sim.slots.{family}"), r.slots as f64);
    o.count("sim.generated", r.generated as f64);
    o.count("sim.delivered", r.delivered as f64);
    o.count("sim.collisions", r.collisions as f64);
    o.count("sim.link_drops", r.link_drops as f64);
}

/// The standalone plan fill of one MAC (`SlotPlan::build` +
/// `ensure_filled` over the whole frame) inside a `sim.plan_fill` span;
/// returns the roster entries (transmitters + listeners over the frame).
pub fn traced_plan_fill(mac: &dyn MacProtocol, n: usize, t: &mut Tracer) -> f64 {
    let plan = t.span("sim.plan_fill", |_| {
        let mut plan = SlotPlan::build(mac, n);
        plan.ensure_filled(mac, plan.frame_length() - 1);
        plan
    });
    (0..plan.frame_length())
        .map(|i| (plan.transmitters(i).len() + plan.listeners(i).len()) as f64)
        .sum()
}

/// One op kind: a fault family at a network size.
#[derive(Clone, Copy)]
struct Kind {
    family: usize,
    size: usize,
}

pub struct SimStep {
    seed: u64,
    kinds: Vec<Kind>,
    order: Vec<usize>,
    macs: Vec<TtdcMac>,
    families: Vec<(&'static str, FaultPlan)>,
    work: PathBuf,
    /// Last output digest per kind, to check the watchdog-on op against.
    digests: BTreeMap<usize, u64>,
}

/// The campaign options every op runs with: the CLI's retry and
/// quarantine defaults, without the watchdog thread. Joining that thread
/// waits out its 50 ms poll sleep, which would put a fixed ~50 ms idle
/// wait under every op (more than the simulation itself); its cost is
/// reported separately as `sim.campaign.watchdog_op_s`.
fn op_options() -> CampaignOptions {
    CampaignOptions {
        watchdog: None,
        ..CampaignOptions::default()
    }
}

/// Timings and the report captured inside the scenario closure.
#[derive(Default)]
struct Capture {
    report: Option<SimReport>,
    retries: u64,
    /// `(name, start, end)`; the first is the whole scenario.
    spans: Vec<(&'static str, Instant, Instant)>,
}

impl SimStep {
    pub fn new(seed: u64, work: &Path) -> Result<SimStep, String> {
        let families = families();
        let kinds: Vec<Kind> = (0..families.len())
            .flat_map(|family| (0..SIZES.len()).map(move |size| Kind { family, size }))
            .collect();
        let work = work.join("sim_step");
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(SimStep {
            seed,
            order: seeded_order(kinds.len(), seed),
            kinds,
            macs: SIZES.iter().map(|&n| mac(n)).collect(),
            families,
            work,
            digests: BTreeMap::new(),
        })
    }

    fn dir(&self) -> PathBuf {
        self.work.join("campaign")
    }

    fn spec(&self, k: usize) -> CampaignSpec {
        let kind = self.kinds[k];
        let (fname, _) = self.families[kind.family];
        let n = SIZES[kind.size];
        CampaignSpec {
            name: "perfbench-sim-step".into(),
            points: vec![PointSpec::new(format!("{fname}/n={n}"))
                .param("family", fname)
                .param("n", n)],
            reps: 1,
            // Keep seeds well inside u64 so base_seed + r cannot wrap.
            base_seed: mix(self.seed, k as u64) >> 16,
            shard_size: 1,
            slots_hint: SLOTS,
        }
    }

    /// Runs op `k` through the campaign runner, timing the scenario's
    /// layers when `timed`.
    fn campaign(
        &self,
        k: usize,
        opts: &CampaignOptions,
        timed: bool,
    ) -> Result<(Capture, OpOut), String> {
        let kind = self.kinds[k];
        let n = SIZES[kind.size];
        let (fname, faults) = self.families[kind.family];
        let mac = &self.macs[kind.size];
        let spec = self.spec(k);
        let dir = self.dir();
        let capture = Mutex::new(Capture::default());
        let scenario = |_point: usize, seed: u64| -> SimReport {
            let t0 = Instant::now();
            let (topo, retries) = connected_geometric(n, mix(seed, 0x70_70));
            let t1 = Instant::now();
            let mut sim = SimulatorBuilder::new(
                topo,
                TrafficPattern::Convergecast {
                    sink: 0,
                    rate: RATE,
                },
            )
            .seed(seed)
            .faults(faults)
            .build()
            .expect("valid configuration");
            let t2 = Instant::now();
            sim.run(mac, SLOTS);
            let t3 = Instant::now();
            let report = sim.report();
            let t4 = Instant::now();
            let mut c = capture.lock().expect("capture lock");
            c.retries += retries;
            c.report = Some(report.clone());
            if timed {
                c.spans = vec![
                    ("sim.scenario", t0, t4),
                    ("sim.topology", t0, t1),
                    ("sim.build", t1, t2),
                    (engine_span(fname), t2, t3),
                    ("sim.report", t3, t4),
                ];
            }
            report
        };
        let outcome = run_campaign(&spec, Some(&dir), ResumeMode::Fresh, opts, None, scenario)
            .map_err(|e| e.to_string())?;
        outcome
            .write_outputs(&spec, &dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if outcome.degraded {
            return Err("campaign quarantined its shard".into());
        }
        let merged = std::fs::read(dir.join(MERGED_FILE)).map_err(|e| e.to_string())?;
        let manifest_bytes = std::fs::metadata(dir.join(MANIFEST_FILE))
            .map_err(|e| e.to_string())?
            .len();
        let capture = capture.into_inner().expect("capture lock");
        let report = capture.report.as_ref().ok_or("scenario never ran")?;
        conservation(report)?;
        let mut o = OpOut {
            digest: digest(&[
                format!("{:016x}", report_digest(report)).as_bytes(),
                &merged,
            ]),
            ..OpOut::default()
        };
        count_report(&mut o, report, fname);
        o.count("sim.campaign.shards", outcome.executed_shards as f64);
        o.count("sim.campaign.manifest_bytes", manifest_bytes as f64);
        o.count("sim.topology.retries", capture.retries as f64);
        Ok((capture, o))
    }
}

impl Workload for SimStep {
    fn kinds(&self) -> Vec<String> {
        self.kinds
            .iter()
            .map(|k| format!("{}_n{}", self.families[k.family].0, SIZES[k.size]))
            .collect()
    }

    fn order(&self) -> Vec<usize> {
        self.order.clone()
    }

    fn seed_independent(&self) -> bool {
        false
    }

    fn reset(&mut self, _k: usize) {
        let _ = std::fs::remove_dir_all(self.dir());
    }

    fn run_op(&mut self, k: usize) -> Result<OpOut, String> {
        let (_, o) = self.campaign(k, &op_options(), false)?;
        self.digests.insert(k, o.digest);
        Ok(o)
    }

    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<OpOut, String> {
        t.span("sim_step.op", |t| {
            let start = Instant::now();
            let r = self.campaign(k, &op_options(), true);
            let end = Instant::now();
            let (capture, o) = r?;
            // The scenario ran on a pool worker: attach its spans under
            // the campaign span after the fact.
            let campaign = t.record("sim.campaign", start, end, None);
            let mut scenario = campaign;
            for (i, (name, s, e)) in capture.spans.into_iter().enumerate() {
                let parent = if i == 0 { campaign } else { scenario };
                let id = t.record(name, s, e, Some(parent));
                if i == 0 {
                    scenario = id;
                }
            }
            Ok(o)
        })
    }

    fn traced_extras(&mut self, t: &mut Tracer, _round: u64) -> Result<Counters, String> {
        let mut c = Counters::new();
        // The first op of the round again, with the CLI's default options
        // (watchdog on); its output must not change.
        let k = self.order[0];
        self.reset(k);
        let with_watchdog = t.span("sim.campaign.watchdog_op", |_| {
            self.campaign(k, &CampaignOptions::default(), false)
        });
        let (_, o) = with_watchdog?;
        if self.digests.get(&k) != Some(&o.digest) {
            return Err(format!(
                "{}: output with the watchdog on differs",
                self.kinds()[k]
            ));
        }
        for &n in &SIZES {
            let mac = traced_mac(n, t);
            *c.entry("protocols.frame_slots".into()).or_insert(0.0) += mac.frame_length() as f64;
            *c.entry("sim.plan.roster_entries".into()).or_insert(0.0) +=
                traced_plan_fill(&mac, n, t);
        }
        Ok(c)
    }
}
