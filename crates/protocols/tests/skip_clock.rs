//! The skip clock under contention MACs, whose transmitters are also
//! scheduled listeners (S-MAC's shared awake window, ALOHA's every slot)
//! and whose p-persistence draws happen only at visited slots: `run()`
//! must still report exactly what a loop of `step()` reports.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_protocols::{SlottedAlohaMac, SmacLikeMac};
use ttdc_sim::{MacProtocol, SimReport, SimulatorBuilder, Topology, TrafficPattern};

fn report(
    topo: &Topology,
    mac: &dyn MacProtocol,
    pattern: TrafficPattern,
    seed: u64,
    step: bool,
) -> SimReport {
    let mut sim = SimulatorBuilder::new(topo.clone(), pattern)
        .seed(seed)
        .trace_capacity(64)
        .build()
        .unwrap();
    if step {
        for _ in 0..3_000 {
            sim.step(mac);
        }
    } else {
        sim.run(mac, 3_000);
    }
    sim.report()
}

#[test]
fn contention_macs_under_the_skip_clock_match_the_step_reference() {
    let mut rng = SmallRng::seed_from_u64(8);
    let topo = Topology::random_gnp_capped(12, 0.4, 3, &mut rng);
    let macs: [&dyn MacProtocol; 3] = [
        &SmacLikeMac::new(7, 3, 0.5),
        &SmacLikeMac::new(5, 5, 1.0),
        &SlottedAlohaMac::new(0.3),
    ];
    for mac in macs {
        for pattern in [
            TrafficPattern::CbrUnicast { period: 40 },
            TrafficPattern::SaturatedBroadcast,
        ] {
            for seed in 0..3 {
                let skip = report(&topo, mac, pattern, seed, false);
                let reference = report(&topo, mac, pattern, seed, true);
                assert_eq!(skip, reference, "{} {pattern:?} seed {seed}", mac.name());
            }
        }
    }
}
