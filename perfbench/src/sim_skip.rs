//! `sim_skip`: one op is one long-horizon `Simulator::run` (auto
//! dispatch) of `TtdcMac` over a connected geometric topology, under
//! low-rate CBR unicast — the regime the time-skipping engine exists for.
//!
//! Three families: plain CBR, CBR with a battery capacity (the epoch
//! path) and CBR with a packet error rate. MACs and topologies are built
//! in set-up; every op pays its own eager plan fill inside `run`.

use crate::sim_step::{
    connected_geometric, conservation, count_report, mac, report_digest, traced_mac,
    traced_plan_fill,
};
use crate::trace::Tracer;
use crate::{engine_span, mix, seeded_order, Counters, OpOut, Workload};
use ttdc_protocols::TtdcMac;
use ttdc_sim::{FaultPlan, MacProtocol, SimReport, SimulatorBuilder, Topology, TrafficPattern};

/// Network sizes (frame lengths grow roughly as n^2.25).
pub const SIZES: [usize; 3] = [64, 128, 256];
/// Slots per run.
pub const HORIZON: u64 = 1_000_000;
/// CBR generation period per node, in slots.
pub const PERIOD: u64 = 25_000;
/// Battery capacity of the `cbr_battery` family per size, in mJ: about
/// 97% of a node's draw over the horizon, so batteries deplete in the
/// last few percent of the run and the epoch path ends in deaths.
pub const BATTERY_MJ: [f64; 3] = [28_000.0, 14_500.0, 7_650.0];
/// Packet error rate of the `cbr_per` family.
pub const PER: f64 = 0.10;

/// Family names, in kind order.
pub const FAMILIES: [&str; 3] = ["cbr", "cbr_battery", "cbr_per"];

pub struct SimSkip {
    seed: u64,
    order: Vec<usize>,
    macs: Vec<TtdcMac>,
    topologies: Vec<Topology>,
}

impl SimSkip {
    pub fn new(seed: u64) -> SimSkip {
        SimSkip {
            seed,
            order: seeded_order(FAMILIES.len() * SIZES.len(), seed),
            macs: SIZES.iter().map(|&n| mac(n)).collect(),
            topologies: SIZES
                .iter()
                .map(|&n| connected_geometric(n, topology_seed(seed, n)).0)
                .collect(),
        }
    }

    /// `(family, size)` indices of kind `k`.
    fn split(k: usize) -> (usize, usize) {
        (k / SIZES.len(), k % SIZES.len())
    }

    fn builder(&self, k: usize) -> SimulatorBuilder {
        let (family, size) = Self::split(k);
        let b = SimulatorBuilder::new(
            self.topologies[size].clone(),
            TrafficPattern::CbrUnicast { period: PERIOD },
        )
        .seed(mix(self.seed, 0x5C1F + k as u64) >> 16);
        match FAMILIES[family] {
            "cbr_battery" => b.battery_capacity_mj(BATTERY_MJ[size]),
            "cbr_per" => b.faults(FaultPlan::none().with_per(PER).with_max_retries(8)),
            _ => b,
        }
    }

    fn out(k: usize, r: &SimReport) -> Result<OpOut, String> {
        conservation(r)?;
        let mut o = OpOut {
            digest: report_digest(r),
            ..OpOut::default()
        };
        count_report(&mut o, r, FAMILIES[Self::split(k).0]);
        Ok(o)
    }
}

fn topology_seed(seed: u64, n: usize) -> u64 {
    mix(seed, 0x7090 + n as u64)
}

impl Workload for SimSkip {
    fn kinds(&self) -> Vec<String> {
        (0..FAMILIES.len() * SIZES.len())
            .map(|k| {
                let (f, s) = Self::split(k);
                format!("{}_n{}", FAMILIES[f], SIZES[s])
            })
            .collect()
    }

    fn order(&self) -> Vec<usize> {
        self.order.clone()
    }

    fn seed_independent(&self) -> bool {
        false
    }

    /// A pass takes seconds; set-up is the MACs and topologies alone.
    fn cold_pass(&self) -> bool {
        false
    }

    /// Each round has three n = 256 runs, the dearest kinds.
    fn min_rounds(&self) -> usize {
        4
    }

    fn run_op(&mut self, k: usize) -> Result<OpOut, String> {
        let mut sim = self.builder(k).build().map_err(|e| e.to_string())?;
        sim.run(&self.macs[Self::split(k).1], HORIZON);
        Self::out(k, &sim.report())
    }

    fn traced_op(&mut self, k: usize, t: &mut Tracer) -> Result<OpOut, String> {
        let (family, size) = Self::split(k);
        let mac = &self.macs[size];
        let builder = self.builder(k);
        t.span("sim_skip.op", |t| {
            let mut sim = t.span("sim.build", |_| builder.build().map_err(|e| e.to_string()))?;
            t.span(engine_span(FAMILIES[family]), |_| sim.run(mac, HORIZON));
            let r = t.span("sim.report", |_| sim.report());
            Self::out(k, &r)
        })
    }

    fn traced_extras(&mut self, t: &mut Tracer, _round: u64) -> Result<Counters, String> {
        let mut c = Counters::new();
        let mut add = |k: &str, v: f64| *c.entry(k.to_string()).or_insert(0.0) += v;
        for &n in &SIZES {
            let (_, retries) = t.span("sim.topology", |_| {
                connected_geometric(n, topology_seed(self.seed, n))
            });
            add("sim.topology.retries", retries as f64);
            let mac = traced_mac(n, t);
            add("protocols.frame_slots", mac.frame_length() as f64);
            add("sim.plan.roster_entries", traced_plan_fill(&mac, n, t));
        }
        Ok(c)
    }
}
