//! Phase 4: listen decisions and reception resolution.
//!
//! Each eligible listener makes its listen decision — including the
//! sync-miss roll — exactly once per slot; the energy phase reuses the
//! stored `listening` flag, so a missed listen is charged as sleep, not
//! listening. Concurrent transmissions then resolve through the
//! configured [`ChannelModel`](crate::ChannelModel), with injected link
//! fading applied to decoded receptions only.

use crate::channel::{LinkFading, Reception};
use crate::engine::Simulator;
use crate::observer::SlotEvent;
use rand::Rng;

/// Walks the slot's scheduled listeners (ascending). Every node outside
/// the roster would fail the `may_receive` gate before its sync-miss
/// draw, so visiting only the roster consumes the same randomness.
/// Receptions resolve against the actual-transmitter word mask the
/// election phase left behind.
pub(crate) fn run(sim: &mut Simulator, listeners: &[u32]) {
    let saturated = sim.pattern.is_saturated();
    let miss = sim.config.miss_probability;
    let lossy_links = sim.faults.plan().has_link_loss();
    sim.successes.clear();
    // Clear the previous slot's listen flags roster-wise.
    for i in 0..sim.active_rx.len() {
        let prev = sim.active_rx[i];
        sim.listening[prev] = false;
    }
    sim.active_rx.clear();
    for &y in listeners {
        let y = y as usize;
        if sim.dead[y]
            || sim.faults.is_crashed(y)
            || sim.transmitting[y]
            || (miss > 0.0 && sim.rng.gen_bool(miss))
        {
            continue;
        }
        sim.listening[y] = true;
        sim.active_rx.push(y);
        let reception = {
            let mut fading = LinkFading::new(&mut sim.faults, lossy_links);
            sim.channel.resolve(
                y,
                sim.slot,
                &sim.topo,
                &sim.transmitting,
                &sim.tx_mask,
                &mut fading,
            )
        };
        settle(sim, y, saturated, reception);
    }
}

/// Applies one listener's resolved reception to the metrics and the
/// success list.
#[inline]
fn settle(sim: &mut Simulator, y: usize, saturated: bool, reception: Reception) {
    match reception {
        Reception::Idle => {}
        Reception::Collision => sim.emit(SlotEvent::Collision { at: y }),
        Reception::Faded { from } => {
            sim.emit(SlotEvent::LinkDropped { from, to: y });
        }
        Reception::Decoded { from: x } => {
            if saturated {
                sim.emit(SlotEvent::LinkSuccess { from: x, to: y });
            } else {
                let qi = sim.tx_queue_idx[x];
                let pkt = sim.queues[x][qi];
                if sim.next_hop(x, &pkt) == y {
                    sim.successes.push((x, y));
                }
            }
        }
    }
}
