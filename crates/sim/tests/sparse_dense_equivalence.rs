//! Plan rosters (sparse) and per-slot rosters (dense) must be
//! bit-identical to the `step()` reference.
//!
//! [`Simulator::run`] borrows each slot's rosters from the cached
//! [`SlotPlan`](ttdc_sim::SlotPlan) when the MAC is frame-periodic and
//! clock drift is off, and otherwise refills them every slot from every
//! node's MAC answer at its perceived slot — the dense fallback.
//! [`Simulator::step`] always refills, so a loop of `step()` calls is the
//! reference. The properties here pin `run()` to the same *full*
//! [`SimReport`] — every counter, the per-node energy ledger, the latency
//! histogram bit patterns, and the retained event trace — across random
//! topologies, schedules, fault plans, and 1- vs 4-thread rayon pools.
//! The skip clock has its own suite (`skip_equivalence.rs`).

mod common;

use common::{arb_scenario, fresh, parallel_pool, sequential_pool, stepped};
use proptest::prelude::*;
use ttdc_sim::{
    CrashModel, FaultPlan, GilbertElliott, MacProtocol, SimReport, Topology, TrafficPattern,
};

/// A randomized [`FaultPlan`] spanning every axis *except* clock drift —
/// drift invalidates the plan and gets its own property below.
fn arb_driftless_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop_oneof![Just(0.0f64), 0.0f64..0.9],
        prop::option::of((0.001f64..0.5, 0.001f64..0.5)),
        prop::option::of((0.0f64..0.05, 0.0f64..0.5, any::<bool>())),
        prop::option::of(0u32..6),
    )
        .prop_map(|(per, burst, crash, max_retries)| {
            let mut plan = FaultPlan::none().with_per(per);
            if let Some(m) = max_retries {
                plan = plan.with_max_retries(m);
            }
            if let Some((gb, bg)) = burst {
                plan = plan.with_burst(GilbertElliott::bursty(gb, bg));
            }
            if let Some((c, r, persist)) = crash {
                let mut model = CrashModel::new(c, r);
                model.persist_queue = persist;
                plan = plan.with_crash(model);
            }
            plan
        })
}

fn arb_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::SaturatedBroadcast),
        (0.01f64..0.3).prop_map(|rate| TrafficPattern::PoissonUnicast { rate }),
        (0.01f64..0.15).prop_map(|rate| TrafficPattern::Convergecast { sink: 0, rate }),
    ]
}

/// `run()` and the `step()` reference on identical inputs.
fn run_and_reference(
    topo: &Topology,
    mac: &dyn MacProtocol,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
    slots: u64,
) -> (SimReport, SimReport) {
    let mut run = fresh(topo, pattern, seed, faults, battery, 0.0);
    run.run(mac, slots);
    let mut reference = fresh(topo, pattern, seed, faults, battery, 0.0);
    stepped(&mut reference, mac, slots);
    (run.report(), reference.report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero drift + periodic MAC: `run()` borrows plan rosters (or, for
    /// calendar-friendly configurations, runs the skip clock over them)
    /// and must reproduce the reference bit for bit, on a 1-thread and a
    /// 4-thread rayon pool alike. The optional battery cap exercises both
    /// tiers of the energy gap charge (the bulk no-battery sweep and the
    /// death-checked walk).
    #[test]
    fn sparse_path_is_bit_identical_to_dense(
        (topo, mac) in arb_scenario(),
        pattern in arb_pattern(),
        plan in arb_driftless_fault_plan(),
        battery in prop::option::of(2.0f64..60.0),
        seed in 0u64..500,
        slots in 50u64..400,
    ) {
        prop_assert!(mac.frame_periodic(), "ScheduleMac wraps by definition");
        let (run_seq, ref_seq) = sequential_pool()
            .install(|| run_and_reference(&topo, &mac, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(&run_seq, &ref_seq);
        let (run_par, ref_par) = parallel_pool()
            .install(|| run_and_reference(&topo, &mac, &pattern, seed, &plan, battery, slots));
        prop_assert_eq!(&run_par, &ref_par);
        // Pool size must not matter either.
        prop_assert_eq!(&run_seq, &run_par);
        // The trace really was compared, not disabled on both sides.
        prop_assert!(run_seq.trace.enabled());
    }

    /// With clock drift active the plan is invalid and `run()` must fall
    /// back to per-slot rosters built from each node's perceived slot —
    /// under Poisson traffic and under the CBR calendar alike.
    #[test]
    fn drift_falls_back_to_dense(
        (topo, mac) in arb_scenario(),
        drift in 0.001f64..0.4,
        cbr in any::<bool>(),
        seed in 0u64..300,
        slots in 50u64..300,
    ) {
        let plan = FaultPlan::none().with_drift(drift);
        let pattern = if cbr {
            TrafficPattern::CbrUnicast { period: 5 }
        } else {
            TrafficPattern::PoissonUnicast { rate: 0.1 }
        };
        let (via_run, reference) =
            run_and_reference(&topo, &mac, &pattern, seed, &plan, None, slots);
        prop_assert_eq!(via_run, reference);
    }

    /// Mode transitions on one simulator: a `step()` segment followed by
    /// a `run()` segment (and the reverse) must equal one uninterrupted
    /// reference — the per-slot scratch (`transmitting`/`listening`
    /// flags, actual-transmitter rosters, word mask, queue indices)
    /// survives the handoff in both directions.
    #[test]
    fn chunked_mode_transitions_match_single_run(
        (topo, mac) in arb_scenario(),
        plan in arb_driftless_fault_plan(),
        seed in 0u64..300,
        first in 20u64..150,
        second in 20u64..150,
    ) {
        let pattern = TrafficPattern::PoissonUnicast { rate: 0.1 };
        let mut whole = fresh(&topo, &pattern, seed, &plan, None, 0.0);
        stepped(&mut whole, &mac, first + second);
        let whole = whole.report();

        let mut step_then_run = fresh(&topo, &pattern, seed, &plan, None, 0.0);
        stepped(&mut step_then_run, &mac, first);
        step_then_run.run(&mac, second);
        prop_assert_eq!(&step_then_run.report(), &whole);

        let mut run_then_step = fresh(&topo, &pattern, seed, &plan, None, 0.0);
        run_then_step.run(&mac, first);
        stepped(&mut run_then_step, &mac, second);
        prop_assert_eq!(&run_then_step.report(), &whole);
    }
}
