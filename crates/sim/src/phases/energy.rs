//! Phase 7: energy accounting and battery depletion.
//!
//! Charges each live node for the radio state it actually occupied this
//! slot — transmit beats listen beats sleep, using the flags the election
//! and channel phases stored — and kills nodes whose cumulative draw
//! reaches the battery capacity. A crashed node's radio is off: it pays
//! only the sleep floor while down, as does a node that *missed* its
//! listen slot (the sync-miss roll already decided it never turned the
//! radio on).

use crate::energy::RadioState;
use crate::engine::Simulator;
use crate::observer::SlotEvent;
use crate::plan::SlotPlan;

/// Walks the slot's awake roster. Each awake node is charged for the
/// radio state its flags record (a roster node can still have slept:
/// crashed, missed sync, or lost the p-persistence roll).
///
/// Everyone else sleeps, and how that sleep is paid depends on the clock:
///
/// * `sleep_debt: None` (every slot visited) — the index gaps between
///   awake nodes are charged the sleep floor now, interleaved with the
///   roster so `NodeDied` emission stays ascending in the node index.
///   Without a battery nothing can die, so each gap is one bulk range
///   sweep with the same per-node `+= sleep_mj`;
/// * `sleep_debt: Some(last_flush)` (the skip clock) — sleepers are left
///   to their debt counters; an awake node first settles its unflushed
///   sleep debt through the bit-exact bulk charge, so per node the `f64`
///   addition sequence is exactly the slot-by-slot one. The clock's
///   battery epochs guarantee nobody depletes while debt is outstanding.
pub(crate) fn run(sim: &mut Simulator, awake: &[u32], mut sleep_debt: Option<&mut [u64]>) {
    let n = sim.topo.num_nodes();
    let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
    let mut next = 0usize;
    for &a in awake {
        let a = a as usize;
        if sleep_debt.is_none() {
            charge_sleepers(sim, sleep_mj, next..a);
        }
        next = a + 1;
        if sim.dead[a] {
            continue;
        }
        if let Some(last_flush) = sleep_debt.as_deref_mut() {
            let debt = sim.slot - last_flush[a];
            if debt > 0 {
                sim.energy.charge_sleep_slots(sleep_mj, a, debt);
            }
            last_flush[a] = sim.slot + 1;
        }
        let state = if sim.transmitting[a] {
            RadioState::Transmit
        } else if sim.listening[a] {
            RadioState::Listen
        } else {
            RadioState::Sleep
        };
        sim.energy.record(&sim.config.energy, a, state);
        charge_battery(sim, a);
    }
    if sleep_debt.is_none() {
        charge_sleepers(sim, sleep_mj, next..n);
    }
}

/// Charges one slot of sleep to every live node in `range`.
#[inline]
fn charge_sleepers(sim: &mut Simulator, sleep_mj: f64, range: std::ops::Range<usize>) {
    if sim.config.battery_capacity_mj.is_none() {
        // `dead` is set nowhere but the depletion check, so without a
        // battery every node is live and the gap is two array sweeps.
        sim.energy.charge_sleep_range(sleep_mj, range);
        return;
    }
    for v in range {
        if sim.dead[v] {
            continue;
        }
        sim.energy.record(&sim.config.energy, v, RadioState::Sleep);
        charge_battery(sim, v);
    }
}

/// Depletes `v`'s battery if its cumulative draw just crossed the
/// capacity — the shared tail of every energy charge.
#[inline]
fn charge_battery(sim: &mut Simulator, v: usize) {
    if let Some(cap) = sim.config.battery_capacity_mj {
        if sim.energy.consumed_mj[v] >= cap {
            sim.dead[v] = true;
            sim.emit(SlotEvent::NodeDied { node: v });
        }
    }
}

/// Charges every listener occurrence in the *skipped* span
/// `[sim.slot, to)`: slots there have no transmitters and no traffic (the
/// calendar said so), so scheduled listeners idle-listen and everyone
/// else sleeps. Walks the frame-periodic `rx_busy` occurrence list
/// (frame indices with a nonempty listener roster) across the span; a
/// schedule with no listeners at all makes the whole span O(1). Each
/// listener settles its sleep debt before the listen charge, preserving
/// the per-node chronological addition order the bit-identity contract
/// requires.
pub(crate) fn advance_span(
    sim: &mut Simulator,
    plan: &SlotPlan,
    rx_busy: &[u32],
    last_flush: &mut [u64],
    to: u64,
) {
    let from = sim.slot;
    debug_assert!(to >= from);
    if rx_busy.is_empty() {
        return;
    }
    let l = plan.frame_length() as u64;
    let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
    let mut base = from - from % l;
    let mut idx = rx_busy.partition_point(|&fs| base + (fs as u64) < from);
    loop {
        if idx == rx_busy.len() {
            base += l;
            idx = 0;
        }
        let s = base + rx_busy[idx] as u64;
        if s >= to {
            break;
        }
        for &y in plan.listeners(rx_busy[idx] as usize) {
            let y = y as usize;
            if sim.dead[y] {
                continue;
            }
            let debt = s - last_flush[y];
            if debt > 0 {
                sim.energy.charge_sleep_slots(sleep_mj, y, debt);
            }
            sim.energy.record(&sim.config.energy, y, RadioState::Listen);
            last_flush[y] = s + 1;
        }
        idx += 1;
    }
}

/// Settles every live node's outstanding sleep debt up to `sim.slot` and
/// re-anchors the flush marks there. Called at battery-epoch boundaries
/// (so depletion headroom is computed on real numbers) and at the end of
/// a skipping run (so the ledger matches the slot-by-slot engines
/// exactly).
pub(crate) fn flush_all(sim: &mut Simulator, last_flush: &mut [u64]) {
    let now = sim.slot;
    let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
    for (v, mark) in last_flush.iter_mut().enumerate() {
        if !sim.dead[v] {
            let debt = now - *mark;
            if debt > 0 {
                sim.energy.charge_sleep_slots(sleep_mj, v, debt);
            }
        }
        *mark = now;
    }
}
