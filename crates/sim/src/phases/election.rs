//! Phase 3: transmit decisions.
//!
//! Each node consults the schedule at its *perceived* slot (clock drift
//! skews its local clock), though the transmission physically happens in
//! the true slot; the transmitter roster the engine hands in was built
//! from those perceived slots. A sync-miss roll, the MAC's p-persistence
//! probability, the stale-packet drop, and the schedule-aware packet
//! choice all live here, in the exact order the inlined engine used —
//! every RNG draw sits behind its original gate (see the pipeline's
//! compatibility rule).

use crate::engine::Simulator;
use crate::mac::MacProtocol;
use crate::observer::SlotEvent;
use rand::Rng;

/// Clamps a MAC's p-persistence value into `[0, 1]`, mapping NaN to 0.
///
/// Out-of-range values are a protocol bug — flagged by the
/// `debug_assert!` at the call site — but release builds degrade to the
/// nearest sane probability instead of corrupting the RNG stream: the
/// clamped draw sequence is identical to the historical
/// `p >= 1.0 || gen_bool(p.max(0.0))` for *every* input, NaN included.
pub(crate) fn clamp_transmit_probability(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Walks the slot's scheduled transmitters (ascending, so the RNG draws
/// land in node order). Every node outside the roster would fail the
/// `may_transmit` gate before consuming any randomness, so visiting only
/// the roster changes nothing. Leaves `transmitting`, `tx_mask` and
/// `active_tx` describing exactly this slot's actual transmitters, and
/// `tx_queue_idx` set for each of them.
pub(crate) fn run(sim: &mut Simulator, mac: &dyn MacProtocol, transmitters: &[u32]) {
    let saturated = sim.pattern.is_saturated();
    let miss = sim.config.miss_probability;
    // Clear the previous slot's transmit state roster-wise: the flags and
    // the mask hold exactly `active_tx`.
    for i in 0..sim.active_tx.len() {
        let prev = sim.active_tx[i];
        sim.transmitting[prev] = false;
    }
    sim.active_tx.clear();
    sim.tx_mask.clear();
    for &v in transmitters {
        let v = v as usize;
        sim.tx_queue_idx[v] = usize::MAX;
        if sim.dead[v] || sim.faults.is_crashed(v) {
            continue;
        }
        if miss > 0.0 && sim.rng.gen_bool(miss) {
            continue;
        }
        if saturated {
            elect(sim, v);
            sim.emit(SlotEvent::Transmitted {
                node: v,
                next_hop: usize::MAX,
            });
            continue;
        }
        // Drop stale packets whose next hop left radio range and has no
        // replacement route.
        while let Some(front) = sim.queues[v].front() {
            let nh = sim.next_hop(v, front);
            if nh == usize::MAX || !sim.topo.has_edge(v, nh) {
                sim.queues[v].pop_front();
                sim.emit(SlotEvent::StaleDropped { node: v });
            } else {
                break;
            }
        }
        let pslot = sim.faults.perceived_slot(v, sim.slot);
        let chosen = if sim.config.schedule_aware_senders {
            // The sender predicts the receiver's listen slot with its
            // *own* clock — a drifted sender guesses wrong.
            sim.queues[v].iter().position(|p| {
                let nh = sim.next_hop(v, p);
                nh != usize::MAX && sim.topo.has_edge(v, nh) && mac.may_receive(nh, pslot)
            })
        } else if sim.queues[v].is_empty() {
            None
        } else {
            Some(0)
        };
        if let Some(qi) = chosen {
            let p = mac.transmit_probability(v, pslot);
            debug_assert!(
                !p.is_nan() && (0.0..=1.0).contains(&p),
                "MacProtocol::transmit_probability must be in [0, 1], got {p} \
                 from {} at node {v} slot {pslot}",
                mac.name()
            );
            let p = clamp_transmit_probability(p);
            if p >= 1.0 || sim.rng.gen_bool(p) {
                elect(sim, v);
                sim.tx_queue_idx[v] = qi;
                let nh = sim.next_hop(v, &sim.queues[v][qi]);
                sim.emit(SlotEvent::Transmitted {
                    node: v,
                    next_hop: nh,
                });
            }
        }
    }
}

/// Marks `v` as this slot's transmitter in every representation the later
/// phases read: the per-node flag, the actual-transmitter roster
/// (ascending — the roster walk visits nodes in increasing order), and
/// the word mask the channel phase intersects against.
#[inline]
fn elect(sim: &mut Simulator, v: usize) {
    sim.transmitting[v] = true;
    sim.active_tx.push(v);
    sim.tx_mask.insert(v);
}

#[cfg(test)]
mod tests {
    use super::clamp_transmit_probability;

    #[test]
    fn clamp_sanitizes_every_pathological_probability() {
        assert_eq!(clamp_transmit_probability(0.5), 0.5);
        assert_eq!(clamp_transmit_probability(0.0), 0.0);
        assert_eq!(clamp_transmit_probability(1.0), 1.0);
        assert_eq!(clamp_transmit_probability(-0.3), 0.0);
        assert_eq!(clamp_transmit_probability(1.7), 1.0);
        assert_eq!(clamp_transmit_probability(f64::INFINITY), 1.0);
        assert_eq!(clamp_transmit_probability(f64::NEG_INFINITY), 0.0);
        // NaN must not survive: `gen_bool(NaN)` would be undefined, and
        // the historical `p.max(0.0)` already mapped NaN to 0.
        assert_eq!(clamp_transmit_probability(f64::NAN), 0.0);
    }
}
