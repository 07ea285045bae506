//! Harness shared by the pipeline-equivalence suites: thread pools, the
//! random scenario generator, and the `step()` reference every dispatched
//! `run()` is compared against.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::ThreadPool;
use std::sync::OnceLock;
use ttdc_core::Schedule;
use ttdc_sim::{
    FaultPlan, MacProtocol, ScheduleMac, SimConfig, Simulator, Topology, TrafficPattern,
};
use ttdc_util::BitSet;

pub fn sequential_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
    })
}

pub fn parallel_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    })
}

/// A random degree-capped topology with a random periodic schedule MAC —
/// including duty-cycled slots where most (or all) nodes sleep, and
/// frames with no transmit opportunities at all (an empty calendar).
pub fn arb_scenario() -> impl Strategy<Value = (Topology, ScheduleMac)> {
    (3usize..10).prop_flat_map(|n| {
        let topo = (0u64..1000, 2usize..5).prop_map(move |(seed, dcap)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Topology::random_gnp_capped(n, 0.4, dcap, &mut rng)
        });
        let mac = prop::collection::vec(
            (0u32..(1 << n), prop::bits::u32::masked((1 << n) - 1)),
            1..6,
        )
        .prop_map(move |slots| {
            let mut t = Vec::new();
            let mut r = Vec::new();
            for (tm, rm) in slots {
                t.push(BitSet::from_iter(n, (0..n).filter(|&i| tm >> i & 1 == 1)));
                r.push(BitSet::from_iter(
                    n,
                    (0..n).filter(|&i| rm >> i & 1 == 1 && tm >> i & 1 == 0),
                ));
            }
            ScheduleMac::new("prop", Schedule::new(n, t, r))
        });
        (topo, mac)
    })
}

/// A simulator with tracing on (so reports compare the event trace too).
pub fn fresh(
    topo: &Topology,
    pattern: &TrafficPattern,
    seed: u64,
    faults: &FaultPlan,
    battery: Option<f64>,
    miss: f64,
) -> Simulator {
    Simulator::new(
        topo.clone(),
        *pattern,
        SimConfig {
            seed,
            faults: *faults,
            trace_capacity: 64,
            battery_capacity_mj: battery,
            miss_probability: miss,
            ..Default::default()
        },
    )
}

/// The reference: `slots` calls of [`Simulator::step`], every slot
/// visited with rosters rebuilt from the MAC.
pub fn stepped(sim: &mut Simulator, mac: &dyn MacProtocol, slots: u64) {
    for _ in 0..slots {
        sim.step(mac);
    }
}
