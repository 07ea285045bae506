//! Steady-state allocation audit: once queues, scratch, plan rosters and
//! the skip calendar have grown to their working capacity, `run()` must
//! not touch the heap at all — under every roster source and clock.
//!
//! The per-slot scratch (`transmitting`, `tx_queue_idx`, the `successes`
//! list, the roster buffers) is hoisted into the `Simulator`, the cached
//! slot plan and skip calendar are rebuilt in place, and queues are
//! pre-reserved. The offered loads are deliberately below the schedule's
//! service rate: at an unstable load the backlog — and so queue capacity
//! and the latency histogram's bucket range — grows without bound and no
//! warm-up suffices. Everything is seeded, so the counts are
//! deterministic.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ttdc_core::{build_duty_cycled, PartitionStrategy};
use ttdc_sim::{
    FaultPlan, GeometricNetwork, ScheduleMac, Simulator, SimulatorBuilder, Topology, TrafficPattern,
};

/// Counts this thread's heap allocations, so tests running in parallel
/// (and any pool worker threads) do not disturb one another's counts.
struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 50;
const D: usize = 4;

/// The TTDC schedule for `(n, D) = (50, 4)`, `(α_T, α_R) = (2, 4)`.
fn mac() -> ScheduleMac {
    let c = build_duty_cycled(N, D, 2, 4, PartitionStrategy::RoundRobin);
    ScheduleMac::new("ttdc", c.schedule)
}

fn topo() -> Topology {
    let mut rng = SmallRng::seed_from_u64(3);
    GeometricNetwork::random(N, 0.25, D, &mut rng).topology()
}

/// Warms `builder`'s simulator up with one `run()` of `warm_up` slots,
/// then returns how many allocations a second `run()` of `measured`
/// slots performs, and the simulator for further checks.
fn steady_state_allocs(builder: SimulatorBuilder, warm_up: u64, measured: u64) -> (u64, Simulator) {
    let mac = mac();
    let mut sim = builder.build().unwrap();
    sim.run(&mac, warm_up);
    let before = ALLOC_COUNT.with(Cell::get);
    sim.run(&mac, measured);
    (ALLOC_COUNT.with(Cell::get) - before, sim)
}

/// Plan rosters, every slot visited: Poisson traffic refuses the skip
/// clock.
#[test]
fn plan_roster_stepping_is_allocation_free() {
    let b = SimulatorBuilder::new(topo(), TrafficPattern::PoissonUnicast { rate: 0.002 });
    assert_eq!(steady_state_allocs(b, 60_000, 5_000).0, 0);
}

/// Per-slot rosters: clock drift invalidates the plan, so every slot
/// refills the roster buffer from each node's perceived slot. Drifted
/// schedule-aware senders rarely see their next hop listen and backlog
/// without bound, so senders are eager and the ARQ bound drops what the
/// drift defeats.
#[test]
fn per_slot_rosters_are_allocation_free() {
    let b = SimulatorBuilder::new(topo(), TrafficPattern::PoissonUnicast { rate: 0.002 })
        .schedule_aware_senders(false)
        .faults(FaultPlan::none().with_drift(0.05).with_max_retries(3));
    assert_eq!(steady_state_allocs(b, 60_000, 5_000).0, 0);
}

/// The skip clock under CBR with a battery: battery epochs bound every
/// skip window, the second `run()` re-prepares the cached calendar, and
/// the batteries run out inside the measured run, so the clock's stepped
/// windows around each death are audited too.
#[test]
fn skip_clock_with_battery_epochs_is_allocation_free() {
    let b = SimulatorBuilder::new(topo(), TrafficPattern::CbrUnicast { period: 500 })
        .battery_capacity_mj(5_000.0);
    let (allocs, sim) = steady_state_allocs(b, 100_000, 50_000);
    assert_eq!(allocs, 0);
    let r = sim.report();
    assert!(
        r.first_death_slot > Some(100_000),
        "{:?}",
        r.first_death_slot
    );
    assert!(r.deaths > 0);
}
