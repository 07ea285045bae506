//! The skip clock must be bit-identical to visiting every slot.
//!
//! [`Simulator::run`] visits only the *interesting* slots (traffic
//! generation, backlogged transmit occurrences) when the run's randomness
//! can be calendared: frame-periodic MAC, zero drift, zero sync-miss, no
//! crash plan, saturated/CBR traffic, no user observers. Attaching any
//! observer keeps the plan rosters but visits every slot (the sparse
//! path), and a loop of [`Simulator::step`] is the reference (rosters
//! rebuilt densely from the MAC every slot). The properties here pin all
//! three to the same *full* [`SimReport`] — every counter, the per-node
//! energy ledger `f64`s, the latency histogram bit patterns, and the
//! retained event trace — across random topologies and schedules,
//! per-link loss and bursty (Gilbert-Elliott) fault plans, ARQ bounds,
//! battery depletion (the clock's stepped window), mid-run chunking, and
//! 1- vs 4-thread rayon pools; and they pin the fallback dispatch for
//! every configuration the calendar cannot represent.

mod common;

use common::{arb_scenario, fresh, parallel_pool, sequential_pool, stepped};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ttdc_core::{build_duty_cycled, PartitionStrategy};
use ttdc_sim::{
    CrashModel, FaultPlan, GeometricNetwork, GilbertElliott, MacProtocol, ScheduleMac, SimReport,
    SimulatorBuilder, SlotEvent, SlotObserver, Topology, TrafficPattern,
};
use ttdc_util::BitSet;

/// A randomized fault plan over the axes the skip clock *admits*:
/// per-link loss and Gilbert-Elliott bursts (their lazily-advanced chains
/// only draw on actual receptions) and the ARQ retry bound. Drift, crash
/// plans, and sync-miss are fallback triggers with their own properties.
fn arb_skippable_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop_oneof![Just(0.0f64), 0.0f64..0.9],
        prop::option::of((0.001f64..0.5, 0.001f64..0.5)),
        prop::option::of(0u32..6),
    )
        .prop_map(|(per, burst, max_retries)| {
            let mut plan = FaultPlan::none().with_per(per);
            if let Some(m) = max_retries {
                plan = plan.with_max_retries(m);
            }
            if let Some((gb, bg)) = burst {
                plan = plan.with_burst(GilbertElliott::bursty(gb, bg));
            }
            plan
        })
}

/// The traffic patterns the calendar can represent: saturated broadcast
/// and CBR, with periods from every-slot storms to long quiet stretches
/// (where nearly the whole run is skipped).
fn arb_skippable_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::SaturatedBroadcast),
        (1u64..12).prop_map(|period| TrafficPattern::CbrUnicast { period }),
        (50u64..2000).prop_map(|period| TrafficPattern::CbrUnicast { period }),
    ]
}

/// An observer that watches nothing; attaching it only makes `run()`
/// visit every slot.
#[derive(Debug)]
struct Idle;

impl SlotObserver for Idle {
    fn on_event(&mut self, _slot: u64, _event: &SlotEvent) {}
}

/// The skip clock, every-slot plan rosters, and the `step()` reference on
/// identical inputs.
fn all_three_reports(
    topo: &Topology,
    mac: &dyn MacProtocol,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
    slots: u64,
) -> (SimReport, SimReport, SimReport) {
    let mut skip = fresh(topo, pattern, seed, faults, battery, 0.0);
    skip.run(mac, slots);
    let mut builder = SimulatorBuilder::new(topo.clone(), *pattern)
        .seed(seed)
        .faults(*faults)
        .trace_capacity(64)
        .observer(Idle);
    if let Some(cap) = battery {
        builder = builder.battery_capacity_mj(cap);
    }
    let mut sparse = builder.build().unwrap();
    sparse.run(mac, slots);
    let mut reference = fresh(topo, pattern, seed, faults, battery, 0.0);
    stepped(&mut reference, mac, slots);
    (skip.report(), sparse.report(), reference.report())
}

/// A two-node network whose lone CBR sender listens every other slot: the
/// battery runs out well inside the horizon.
fn depleting_pair() -> (Topology, ScheduleMac) {
    let t = vec![BitSet::from_iter(2, [0]), BitSet::new(2)];
    let r = vec![BitSet::from_iter(2, [1]), BitSet::from_iter(2, [0, 1])];
    let mac = ScheduleMac::new("pair", ttdc_core::Schedule::new(2, t, r));
    (Topology::line(2), mac)
}

/// Under the skip clock a node can only die inside the stepped window the
/// clock opens when a depletion is imminent, so deaths prove the window
/// ran — and they must land on the reference's slots.
#[test]
fn battery_deaths_land_in_the_stepped_window() {
    let (topo, mac) = depleting_pair();
    let pattern = TrafficPattern::CbrUnicast { period: 7 };
    let plan = FaultPlan::none();
    let mut skip = fresh(&topo, &pattern, 3, &plan, Some(20.0), 0.0);
    skip.run(&mac, 2_000);
    let mut reference = fresh(&topo, &pattern, 3, &plan, Some(20.0), 0.0);
    stepped(&mut reference, &mac, 2_000);
    let (skip, reference) = (skip.report(), reference.report());
    assert_eq!(skip.deaths, 2, "both batteries must run out");
    assert_eq!(skip, reference);
}

/// Counts the distinct slots in which a packet was generated or a node
/// transmitted.
#[derive(Debug)]
struct EventfulSlots {
    last: Option<u64>,
    count: Arc<AtomicU64>,
}

impl SlotObserver for EventfulSlots {
    fn on_event(&mut self, slot: u64, event: &SlotEvent) {
        let eventful = matches!(
            event,
            SlotEvent::PacketGenerated { .. } | SlotEvent::Transmitted { .. }
        );
        if eventful && self.last != Some(slot) {
            self.last = Some(slot);
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The skip clock wastes no visits: under schedule-aware CBR over a TTDC
/// schedule, every slot it runs generates a packet or elects a
/// transmitter, with packet errors off and at 10% (retries re-arm the
/// sender). The eventful slots are counted on the `step()` reference,
/// whose report must match.
#[test]
fn the_skip_clock_visits_only_slots_that_generate_or_transmit() {
    let n = 40;
    let c = build_duty_cycled(n, 4, 2, 4, PartitionStrategy::RoundRobin);
    let mac = ScheduleMac::new("ttdc", c.schedule);
    let mut rng = SmallRng::seed_from_u64(5);
    let topo = GeometricNetwork::random(n, 0.3, 4, &mut rng).topology();
    let pattern = TrafficPattern::CbrUnicast { period: 1_500 };
    let slots = 40_000;
    assert!(
        slots >= 2 * mac.frame_length() as u64,
        "the run must span frames"
    );
    for per in [0.0, 0.1] {
        let builder = || {
            SimulatorBuilder::new(topo.clone(), pattern)
                .seed(9)
                .faults(FaultPlan::none().with_per(per))
        };
        let mut skip = builder().build().unwrap();
        skip.run(&mac, slots);
        let count = Arc::new(AtomicU64::new(0));
        let mut reference = builder()
            .observer(EventfulSlots {
                last: None,
                count: Arc::clone(&count),
            })
            .build()
            .unwrap();
        stepped(&mut reference, &mac, slots);
        assert_eq!(skip.report(), reference.report(), "per={per}");
        assert_eq!(reference.visited_slots(), slots);
        let eventful = count.load(Ordering::Relaxed);
        let r = skip.report();
        assert!(
            r.delivered > 0 && eventful > 0,
            "per={per}: the run must carry traffic"
        );
        assert!(
            skip.visited_slots() <= eventful,
            "per={per}: the skip clock visited {} slots, only {eventful} generated or transmitted",
            skip.visited_slots()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heart of the contract: across schedules, loss/burst fault
    /// plans, battery caps, and both traffic calendars, the skip clock
    /// reproduces every-slot plan rosters and the `step()` reference bit
    /// for bit, on a 1-thread and a 4-thread rayon pool alike. Battery
    /// caps low enough to kill nodes mid-run exercise the epoch loop's
    /// stepped windows and death re-sync.
    #[test]
    fn skipping_is_bit_identical_to_sparse_and_dense(
        (topo, mac) in arb_scenario(),
        pattern in arb_skippable_pattern(),
        plan in arb_skippable_fault_plan(),
        battery in prop::option::of(2.0f64..60.0),
        seed in 0u64..500,
        slots in 50u64..400,
    ) {
        let (skip_seq, sparse_seq, ref_seq) = sequential_pool()
            .install(|| all_three_reports(&topo, &mac, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(&skip_seq, &sparse_seq);
        prop_assert_eq!(&skip_seq, &ref_seq);
        let (skip_par, sparse_par, _) = parallel_pool()
            .install(|| all_three_reports(&topo, &mac, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(&skip_par, &sparse_par);
        // Pool size must not matter either.
        prop_assert_eq!(&skip_seq, &skip_par);
        // The trace really was compared, not disabled on both sides.
        prop_assert!(skip_seq.trace.enabled());
    }

    /// Mid-run transitions on one simulator: skip → `step()` → skip and
    /// `step()` → skip → skip chunks must equal one uninterrupted
    /// reference — queues, ARQ retry counts, fault chains, the energy
    /// ledger, and the calendar re-sync all survive the handoffs.
    #[test]
    fn chunked_mode_transitions_match_single_run(
        (topo, mac) in arb_scenario(),
        pattern in arb_skippable_pattern(),
        plan in arb_skippable_fault_plan(),
        battery in prop::option::of(2.0f64..60.0),
        seed in 0u64..300,
        first in 20u64..150,
        second in 20u64..150,
        third in 20u64..150,
    ) {
        let mut whole = fresh(&topo, &pattern, seed, &plan, battery, 0.0);
        stepped(&mut whole, &mac, first + second + third);
        let whole = whole.report();

        let mut a = fresh(&topo, &pattern, seed, &plan, battery, 0.0);
        a.run(&mac, first);
        stepped(&mut a, &mac, second);
        a.run(&mac, third);
        prop_assert_eq!(&a.report(), &whole);

        let mut b = fresh(&topo, &pattern, seed, &plan, battery, 0.0);
        stepped(&mut b, &mac, first);
        b.run(&mac, second);
        b.run(&mac, third);
        prop_assert_eq!(&b.report(), &whole);
    }

    /// Every configuration whose randomness the calendar cannot represent
    /// must fall back transparently: `run()` still equals the reference
    /// under sync-miss, crash plans, and Poisson-style traffic. (User
    /// observers are the every-slot arm of the property above; clock
    /// drift is covered in `sparse_dense_equivalence`.)
    #[test]
    fn non_calendar_randomness_falls_back(
        (topo, mac) in arb_scenario(),
        which in 0usize..3,
        knob in 0.01f64..0.4,
        seed in 0u64..300,
        slots in 50u64..300,
    ) {
        let mut plan = FaultPlan::none();
        let mut pattern = TrafficPattern::CbrUnicast { period: 5 };
        let mut miss = 0.0;
        match which {
            0 => miss = knob,
            1 => plan = plan.with_crash(CrashModel::new(knob * 0.1, 0.2)),
            _ => pattern = TrafficPattern::PoissonUnicast { rate: knob },
        }
        let mut via_run = fresh(&topo, &pattern, seed, &plan, None, miss);
        via_run.run(&mac, slots);
        let mut reference = fresh(&topo, &pattern, seed, &plan, None, miss);
        stepped(&mut reference, &mac, slots);
        prop_assert_eq!(&via_run.report(), &reference.report());
    }
}
