//! Golden equivalence fixtures for the slot-phase pipeline.
//!
//! The simulator refactor from one inlined `step()` into `phases/` modules
//! (with pluggable [`ChannelModel`]s and [`SlotObserver`]s) is required to
//! be behaviour-preserving: identical RNG draw order, identical reports.
//! These tests pin that invariant against *recorded* fixtures: each pinned
//! seed deterministically derives a full scenario — topology, schedule,
//! traffic pattern, fault plan, capture config, sync-miss probability,
//! battery — runs it, and fingerprints the resulting [`SimReport`] down to
//! the bit level (counters, per-node energy as f64 bits, latency stats,
//! per-link success counts, and every retained trace event).
//!
//! The fixture file was generated *before* the pipeline refactor (with the
//! sync-miss energy fix applied, which is the one documented behaviour
//! change of that PR) and is compared byte-for-byte ever since. Regenerate
//! deliberately with:
//!
//! ```text
//! TTDC_BLESS=1 cargo test -p ttdc-sim --test golden
//! ```
//!
//! [`ChannelModel`]: ttdc_sim::ChannelModel
//! [`SlotObserver`]: ttdc_sim::SlotObserver

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use ttdc_core::Schedule;
use ttdc_sim::{
    CaptureModel, CrashModel, FaultPlan, GilbertElliott, ScheduleMac, SimConfig, SimReport,
    Simulator, Topology, TrafficPattern,
};
use ttdc_util::BitSet;

/// Number of pinned scenarios; every seed in `0..GOLDEN_SEEDS` has a
/// recorded fixture, so any strategy over that range is fully covered.
const GOLDEN_SEEDS: u64 = 32;

const FIXTURE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.txt");

/// Pinned drift + crash scenarios — every one keeps clock drift active, so
/// [`Simulator::run`] must fall back from plan rosters to rosters refilled
/// densely (every node, every slot) from each node's perceived slot
/// (verified in-test by comparing against a loop of [`Simulator::step`]).
const DRIFT_SEEDS: u64 = 16;

const DRIFT_FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_drift.txt"
);

/// Runs the scenario derived from `seed` and fingerprints its report.
fn scenario_fingerprint(seed: u64) -> String {
    // Scenario derivation draws from its own stream; the simulation itself
    // is seeded separately so scenario shape and run randomness decouple.
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1CE);
    let n = rng.gen_range(4usize..12);

    // Topology: classic shapes, degree-capped random graphs, and geometric
    // deployments (the only family that supports physical capture).
    let (topo, positions) = match rng.gen_range(0u32..5) {
        0 => (Topology::ring(n), None),
        1 => (Topology::line(n), None),
        2 => (Topology::star(n), None),
        3 => {
            let tseed = rng.gen_range(0u64..1_000_000);
            let mut trng = SmallRng::seed_from_u64(tseed);
            (Topology::random_gnp_capped(n, 0.4, 4, &mut trng), None)
        }
        _ => {
            let tseed = rng.gen_range(0u64..1_000_000);
            let mut trng = SmallRng::seed_from_u64(tseed);
            let net = ttdc_sim::GeometricNetwork::random(n, 0.45, 4, &mut trng);
            let positions = net.positions().to_vec();
            (net.topology(), Some(positions))
        }
    };

    // A random periodic schedule: per slot, a transmitter mask and a
    // receiver mask disjoint from it (as in the engine proptests).
    let frame = rng.gen_range(1usize..5);
    let mut t = Vec::new();
    let mut r = Vec::new();
    for _ in 0..frame {
        let tm: u32 = rng.gen_range(1..(1u32 << n));
        let rm: u32 = rng.gen_range(0..(1u32 << n));
        t.push(BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1)));
        r.push(BitSet::from_iter(
            n,
            (0..n).filter(|&i| rm >> i & 1 == 1 && tm >> i & 1 == 0),
        ));
    }
    let mac = ScheduleMac::new("golden", Schedule::new(n, t, r));

    let pattern = match rng.gen_range(0u32..4) {
        0 => TrafficPattern::SaturatedBroadcast,
        1 => TrafficPattern::PoissonUnicast {
            rate: rng.gen_range(0.02..0.25),
        },
        2 => TrafficPattern::CbrUnicast {
            period: rng.gen_range(2u64..9),
        },
        _ => TrafficPattern::Convergecast {
            sink: 0,
            rate: rng.gen_range(0.02..0.15),
        },
    };

    // Fault plan: every axis independently active or off, including noop.
    let mut faults = FaultPlan::none();
    if rng.gen_bool(0.5) {
        faults = faults.with_per(rng.gen_range(0.0..0.6));
    }
    if rng.gen_bool(0.35) {
        faults = faults.with_burst(GilbertElliott::bursty(
            rng.gen_range(0.001..0.3),
            rng.gen_range(0.01..0.5),
        ));
    }
    if rng.gen_bool(0.35) {
        let mut crash = CrashModel::new(rng.gen_range(0.0..0.04), rng.gen_range(0.02..0.5));
        crash.persist_queue = rng.gen_bool(0.5);
        faults = faults.with_crash(crash);
    }
    if rng.gen_bool(0.3) {
        faults = faults.with_drift(rng.gen_range(0.0..0.3));
    }
    if rng.gen_bool(0.4) {
        faults = faults.with_max_retries(rng.gen_range(0u32..6));
    }

    let config = SimConfig {
        seed: rng.gen_range(0u64..1 << 20),
        miss_probability: if rng.gen_bool(0.4) {
            rng.gen_range(0.0..0.35)
        } else {
            0.0
        },
        schedule_aware_senders: rng.gen_bool(0.7),
        battery_capacity_mj: if rng.gen_bool(0.25) {
            Some(rng.gen_range(5.0..60.0))
        } else {
            None
        },
        trace_capacity: 64,
        faults,
        ..Default::default()
    };
    let slots = rng.gen_range(120u64..320);

    let mut sim = Simulator::new(topo, pattern, config);
    if let Some(positions) = positions {
        if rng.gen_bool(0.6) {
            sim.enable_capture(
                positions,
                CaptureModel {
                    ratio: rng.gen_range(1.2..3.0),
                },
            );
        }
    }
    sim.run(&mac, slots);
    fingerprint(&sim.report())
}

/// Runs the drift + crash scenario derived from `seed` through the
/// dispatching `run()` *and* a loop of the reference `step()`, asserts
/// they agree, and fingerprints the report. Clock drift is always on (and
/// a crash model always installed), so these scenarios exercise exactly
/// the corner where the cached slot plan is invalid.
fn drift_scenario_fingerprint(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDF1F);
    let n = rng.gen_range(4usize..12);
    let tseed = rng.gen_range(0u64..1_000_000);
    let mut trng = SmallRng::seed_from_u64(tseed);
    let topo = Topology::random_gnp_capped(n, 0.4, 4, &mut trng);

    let frame = rng.gen_range(1usize..5);
    let mut t = Vec::new();
    let mut r = Vec::new();
    for _ in 0..frame {
        let tm: u32 = rng.gen_range(1..(1u32 << n));
        let rm: u32 = rng.gen_range(0..(1u32 << n));
        t.push(BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1)));
        r.push(BitSet::from_iter(
            n,
            (0..n).filter(|&i| rm >> i & 1 == 1 && tm >> i & 1 == 0),
        ));
    }
    let mac = ScheduleMac::new("golden-drift", Schedule::new(n, t, r));

    let pattern = match rng.gen_range(0u32..3) {
        0 => TrafficPattern::PoissonUnicast {
            rate: rng.gen_range(0.02..0.25),
        },
        1 => TrafficPattern::SaturatedBroadcast,
        _ => TrafficPattern::Convergecast {
            sink: 0,
            rate: rng.gen_range(0.02..0.15),
        },
    };

    let mut crash = CrashModel::new(rng.gen_range(0.005..0.04), rng.gen_range(0.02..0.5));
    crash.persist_queue = rng.gen_bool(0.5);
    let mut faults = FaultPlan::none()
        .with_drift(rng.gen_range(0.01..0.3))
        .with_crash(crash);
    if rng.gen_bool(0.5) {
        faults = faults.with_per(rng.gen_range(0.0..0.5));
    }
    if rng.gen_bool(0.4) {
        faults = faults.with_max_retries(rng.gen_range(0u32..6));
    }
    assert!(faults.clock_drift > 0.0, "the family's defining trait");

    let config = SimConfig {
        seed: rng.gen_range(0u64..1 << 20),
        miss_probability: if rng.gen_bool(0.4) {
            rng.gen_range(0.0..0.35)
        } else {
            0.0
        },
        schedule_aware_senders: rng.gen_bool(0.7),
        trace_capacity: 64,
        faults,
        ..Default::default()
    };
    let slots = rng.gen_range(120u64..320);

    let mut dispatched = Simulator::new(topo.clone(), pattern, config);
    dispatched.run(&mac, slots);
    let fp = fingerprint(&dispatched.report());

    let mut forced = Simulator::new(topo, pattern, config);
    for _ in 0..slots {
        forced.step(&mac);
    }
    assert_eq!(
        fp,
        fingerprint(&forced.report()),
        "seed {seed}: under clock drift, run() must match the step() reference"
    );
    fp
}

/// A bit-exact, diffable text rendering of everything a report contains.
fn fingerprint(r: &SimReport) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "counters: slots={} generated={} delivered={} hops={} collisions={} \
         undeliverable={} backlog={}",
        r.slots,
        r.generated,
        r.delivered,
        r.hop_deliveries,
        r.collisions,
        r.undeliverable,
        r.backlog
    )
    .unwrap();
    writeln!(
        s,
        "faults: link_drops={} crashes={} recoveries={} retry_exhausted={} crash_dropped={}",
        r.link_drops, r.crashes, r.recoveries, r.retry_exhausted, r.crash_dropped
    )
    .unwrap();
    writeln!(
        s,
        "battery: deaths={} first_death={:?}",
        r.deaths, r.first_death_slot
    )
    .unwrap();
    writeln!(
        s,
        "latency: count={} mean={:016x} max={:016x}",
        r.latency.count(),
        r.latency.mean().to_bits(),
        r.latency.max().to_bits()
    )
    .unwrap();
    writeln!(
        s,
        "hist: count={} p50={:?} p99={:?} max={}",
        r.latency_hist.count(),
        r.latency_hist.p50(),
        r.latency_hist.p99(),
        r.latency_hist.max()
    )
    .unwrap();
    for v in 0..r.energy.consumed_mj.len() {
        writeln!(
            s,
            "energy[{v}]: mj={:016x} tx={} listen={} sleep={}",
            r.energy.consumed_mj[v].to_bits(),
            r.energy.tx_slots[v],
            r.energy.listen_slots[v],
            r.energy.sleep_slots[v]
        )
        .unwrap();
    }
    for ((x, y), c) in &r.link_success {
        writeln!(s, "link[{x}->{y}]={c}").unwrap();
    }
    for (slot, ev) in r.trace.events() {
        writeln!(s, "trace[{slot}] {ev:?}").unwrap();
    }
    s
}

/// Parses a fixture file into per-seed fingerprints.
fn load_fixtures_from(path: &str) -> Vec<(u64, String)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden fixtures at {path} ({e}); bless with TTDC_BLESS=1")
    });
    let mut out = Vec::new();
    for block in text.split("=== seed ").skip(1) {
        let (head, body) = block.split_once('\n').expect("seed header line");
        out.push((head.trim().parse().expect("seed number"), body.to_string()));
    }
    out
}

fn bless_requested() -> bool {
    std::env::var_os("TTDC_BLESS").is_some()
}

/// Writes (bless) or verifies one fixture family.
fn check_family(path: &str, seeds: u64, fingerprint_of: impl Fn(u64) -> String) {
    if bless_requested() {
        let mut text = String::new();
        for seed in 0..seeds {
            writeln!(text, "=== seed {seed}").unwrap();
            text.push_str(&fingerprint_of(seed));
        }
        std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
        eprintln!("blessed {seeds} golden fixtures at {path}");
        return;
    }
    let fixtures = load_fixtures_from(path);
    assert_eq!(fixtures.len() as u64, seeds, "fixture count in {path}");
    for (seed, expected) in fixtures {
        let got = fingerprint_of(seed);
        assert_eq!(
            got, expected,
            "seed {seed}: pipeline output diverged from the fixture in {path}"
        );
    }
}

/// Exhaustive check of every pinned seed (and the bless entry point).
#[test]
fn golden_fixtures_cover_every_pinned_seed() {
    check_family(FIXTURE_PATH, GOLDEN_SEEDS, scenario_fingerprint);
}

/// The drift + crash family: scenarios whose rosters must be refilled per
/// slot. Each seed also cross-checks `run()` against a `step()` loop
/// inside `drift_scenario_fingerprint`, so a dispatcher that wrongly
/// borrowed plan rosters under drift fails here even before the fixture
/// diff.
#[test]
fn drift_crash_fixtures_pin_the_dense_fallback() {
    check_family(DRIFT_FIXTURE_PATH, DRIFT_SEEDS, drift_scenario_fingerprint);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property form of the same invariant: any scenario drawn from the
    /// pinned pool reproduces its pre-refactor fixture exactly — trace
    /// events, energy totals, and all.
    #[test]
    fn pipeline_report_matches_prerefactor_fixture(seed in 0u64..GOLDEN_SEEDS) {
        if bless_requested() {
            return Ok(()); // fixtures are being rewritten by the bless test
        }
        let fixtures = load_fixtures_from(FIXTURE_PATH);
        let expected = &fixtures
            .iter()
            .find(|(s, _)| *s == seed)
            .expect("every pinned seed has a fixture")
            .1;
        let got = scenario_fingerprint(seed);
        prop_assert_eq!(&got, expected, "seed {}", seed);
    }
}
