//! Phase 2: workload packet generation per the configured
//! [`TrafficPattern`](crate::TrafficPattern).
//!
//! Dead and crashed nodes generate nothing. A packet with no usable route
//! (isolated generator, or no path to the convergecast sink) is announced
//! as an unrouted generation and never enqueued.

use crate::engine::Simulator;
use crate::observer::SlotEvent;
use crate::traffic::{Packet, TrafficPattern};
use rand::Rng;

pub(crate) fn run(sim: &mut Simulator) {
    let n = sim.topo.num_nodes();
    match sim.pattern {
        TrafficPattern::SaturatedBroadcast => {}
        TrafficPattern::PoissonUnicast { rate } => {
            for v in 0..n {
                if !sim.dead[v] && !sim.faults.is_crashed(v) && sim.rng.gen_bool(rate) {
                    generate_unicast(sim, v);
                }
            }
        }
        TrafficPattern::CbrUnicast { period } => {
            // The generators are the nodes `v` with `(slot + v) % period
            // == 0`, i.e. `v ≡ -slot (mod period)`: walk that residue
            // class upward instead of probing all `n` nodes. The builder
            // rejects `period == 0`.
            let mut v = (period - sim.slot % period) % period;
            while v < n as u64 {
                let vu = v as usize;
                if !sim.dead[vu] && !sim.faults.is_crashed(vu) {
                    generate_unicast(sim, vu);
                }
                v = v.saturating_add(period);
            }
        }
        TrafficPattern::Convergecast { sink, rate } => {
            for v in 0..n {
                if sim.dead[v] || sim.faults.is_crashed(v) || v == sink || !sim.rng.gen_bool(rate) {
                    continue;
                }
                if sim.routing[v] == usize::MAX {
                    sim.emit(SlotEvent::PacketGenerated {
                        node: v,
                        final_dst: sink,
                        routed: false,
                    });
                } else {
                    sim.queues[v].push_back(Packet {
                        origin: v,
                        final_dst: sink,
                        created: sim.slot,
                        retries: 0,
                    });
                    sim.emit(SlotEvent::PacketGenerated {
                        node: v,
                        final_dst: sink,
                        routed: true,
                    });
                }
            }
        }
    }
}

/// Generates one unicast packet at `v` for a uniformly-random neighbour.
fn generate_unicast(sim: &mut Simulator, v: usize) {
    let deg = sim.topo.degree(v);
    if deg == 0 {
        sim.emit(SlotEvent::PacketGenerated {
            node: v,
            final_dst: usize::MAX,
            routed: false,
        });
        return;
    }
    let pick = sim.rng.gen_range(0..deg);
    let dst = sim.topo.neighbors(v).iter().nth(pick).unwrap();
    sim.queues[v].push_back(Packet {
        origin: v,
        final_dst: dst,
        created: sim.slot,
        retries: 0,
    });
    sim.emit(SlotEvent::PacketGenerated {
        node: v,
        final_dst: dst,
        routed: true,
    });
}
