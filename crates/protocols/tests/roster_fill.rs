//! Every MAC's bulk roster fill (`MacProtocol::fill_rosters`, which the
//! slot plan is built from) must name exactly the nodes its per-node
//! `may_transmit` / `may_receive` probes admit, in ascending order, on
//! every frame slot — whether the MAC walks set members (the schedule
//! MACs) or keeps the default probe loop (the baselines).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ttdc_core::{PartitionStrategy, Schedule};
use ttdc_protocols::{
    ColoringTdmaMac, NaiveDutyCycleMac, RandomWakeupMac, SlottedAlohaMac, SmacLikeMac, TsmaMac,
    TtdcMac,
};
use ttdc_sim::{MacProtocol, ScheduleMac, SlotPlan, Topology};
use ttdc_util::BitSet;

/// The rosters the per-node probes give at `slot`.
fn probed(mac: &dyn MacProtocol, n: usize, slot: u64) -> (Vec<u32>, Vec<u32>) {
    let nodes = |f: &dyn Fn(usize) -> bool| (0..n).filter(|&v| f(v)).map(|v| v as u32).collect();
    (
        nodes(&|v| mac.may_transmit(v, slot)),
        nodes(&|v| mac.may_receive(v, slot)),
    )
}

/// Compares the bulk fill with the probes on every slot of the first two
/// frames (the second checks the wrap), appending after existing entries
/// as the plan does; for a frame-periodic MAC, also the plan built from
/// the fill.
fn check(mac: &dyn MacProtocol, n: usize) {
    let frame = mac.frame_length() as u64;
    for slot in 0..2 * frame {
        let (mut tx, mut rx) = (vec![u32::MAX], vec![u32::MAX]);
        mac.fill_rosters(slot, n, &mut tx, &mut rx);
        let (want_tx, want_rx) = probed(mac, n, slot);
        assert_eq!(
            tx[1..],
            want_tx[..],
            "{} slot {slot}: transmitters",
            mac.name()
        );
        assert_eq!(
            rx[1..],
            want_rx[..],
            "{} slot {slot}: listeners",
            mac.name()
        );
    }
    if !mac.frame_periodic() {
        return;
    }
    let mut plan = SlotPlan::build(mac, n);
    plan.ensure_filled(mac, frame as usize - 1);
    for i in 0..frame as usize {
        let (tx, rx) = probed(mac, n, i as u64);
        let mut awake: Vec<u32> = tx.iter().chain(&rx).copied().collect();
        awake.sort_unstable();
        awake.dedup();
        assert_eq!(
            plan.transmitters(i),
            &tx[..],
            "{} plan slot {i}",
            mac.name()
        );
        assert_eq!(plan.listeners(i), &rx[..], "{} plan slot {i}", mac.name());
        assert_eq!(plan.awake(i), &awake[..], "{} plan slot {i}", mac.name());
    }
}

#[test]
fn bulk_fill_matches_the_probes_for_every_mac() {
    // A raw schedule MAC with an empty transmit slot, filled for all its
    // nodes and for fewer (the members past `n` must be cut off). The
    // contention MACs below (S-MAC, ALOHA) have overlapping sets.
    let t = vec![BitSet::from_iter(6, [0, 2, 5]), BitSet::new(6)];
    let r = vec![
        BitSet::from_iter(6, [1, 4]),
        BitSet::from_iter(6, [0, 3, 5]),
    ];
    let raw = ScheduleMac::new("raw", Schedule::new(6, t, r));
    check(&raw, 6);
    check(&raw, 4);
    check(&raw, 8);

    check(
        &TtdcMac::new(16, 2, 2, 3, PartitionStrategy::RoundRobin),
        16,
    );
    check(&TsmaMac::new(9, 2), 9);
    let mut rng = SmallRng::seed_from_u64(4);
    let topo = Topology::random_gnp_capped(12, 0.4, 3, &mut rng);
    check(&ColoringTdmaMac::new(&topo), 12);
    check(&SmacLikeMac::new(7, 3, 0.5), 10);
    check(&SlottedAlohaMac::new(0.3), 10);
    check(&NaiveDutyCycleMac::new(5), 10);
    // The asynchronous random-wakeup baseline is not periodic: its fill
    // still equals its probes slot by slot.
    check(&RandomWakeupMac::new(0.3, 11), 10);
}

/// A plan for a MAC that does not declare itself frame-periodic would
/// silently simulate the wrong schedule, so it is refused.
#[test]
#[should_panic(expected = "periodic MAC")]
fn a_non_periodic_mac_is_refused_a_plan() {
    SlotPlan::build(&RandomWakeupMac::new(0.3, 11), 10);
}
