//! Phase 7: energy accounting and battery depletion.
//!
//! Charges each live node for the radio state it actually occupied this
//! slot — transmit beats listen beats sleep, using the flags the election
//! and channel phases stored — and kills nodes whose cumulative draw
//! reaches the battery capacity. A crashed node's radio is off: it pays
//! only the sleep floor while down, as does a node that *missed* its
//! listen slot (the sync-miss roll already decided it never turned the
//! radio on).
//!
//! Under the skip clock nothing is charged for the slots it does not
//! visit, nor for nodes that do not transmit in a visited one. Instead
//! each node keeps a mark ([`Unsettled`]): every slot before it is
//! charged, listens included. Every uncharged slot is *idle* — the node
//! listens exactly at its scheduled listen occurrences (found in a
//! per-node ascending listen-slot list) and sleeps in every other slot,
//! which is what a node that does not transmit does in any slot the
//! clock may skip or visit (it admits no crash, sync miss or drift; a
//! listener listens whether or not a packet arrives, at the same cost).
//! The span is settled — listen and sleep charges folded in slot order,
//! bit-exactly, by [`ttdc_util::fold_two`] in O(1) inside a binade (and
//! by the node's memoised [`BinadeSteps`] while it stays in one) — when
//! the node next transmits, and for everyone at battery-epoch boundaries
//! and at the end of the run ([`flush_all`]).

use crate::energy::{EnergyLedger, EnergyModel, RadioState};
use crate::engine::Simulator;
use crate::observer::SlotEvent;
use crate::plan::{position_from, Lists, SlotPlan};
use ttdc_util::BinadeSteps;

/// Every node's uncharged span under the skip clock (see the module
/// docs), cached and buffer-reused like the plan.
#[derive(Debug, Default)]
pub(crate) struct Unsettled {
    /// Per node, where its uncharged span starts.
    marks: Vec<Mark>,
    /// Per node, the listen and sleep ulp advances of its last binade.
    steps: Vec<BinadeSteps>,
    /// Per node, the ascending frame slots where it is scheduled to
    /// listen.
    listen_slots: Lists,
    frame_len: u64,
}

/// A node's first uncharged slot, located in its listen-slot list so the
/// next settlement can count listens by searching forward from it.
#[derive(Clone, Copy, Debug, Default)]
struct Mark {
    /// The first slot not yet charged.
    slot: u64,
    /// The first slot of the frame holding `slot`.
    frame_start: u64,
    /// The node's listen occurrences before `slot`, counted from slot 0.
    rank: u64,
    /// The node's listen-slot list entries before `slot`'s frame offset.
    cursor: u32,
}

impl Unsettled {
    /// Rebinds the listen-slot lists to a fully-filled `plan`; the marks
    /// are set by the [`reset`](Unsettled::reset) that follows.
    pub(crate) fn rebuild(&mut self, plan: &SlotPlan) {
        let (n, l) = (plan.num_nodes(), plan.frame_length());
        self.frame_len = l as u64;
        self.listen_slots.rebuild(n, |emit| {
            for i in 0..l {
                for &y in plan.listeners(i) {
                    emit(y as usize, i as u32);
                }
            }
        });
        self.marks.resize(n, Mark::default());
        self.steps.clear();
        self.steps.resize(n, BinadeSteps::default());
    }

    /// Marks every node charged up to `now`.
    pub(crate) fn reset(&mut self, now: u64) {
        for v in 0..self.marks.len() {
            self.marks[v] = locate(
                self.listen_slots.row(v),
                self.frame_len,
                Mark::default(),
                now,
            );
        }
    }

    /// Moves node `v`'s mark forward to `s` without charging anything.
    fn mark(&mut self, v: usize, s: u64) {
        self.marks[v] = locate(self.listen_slots.row(v), self.frame_len, self.marks[v], s);
    }

    /// Charges node `v`'s idle span `[mark, to)`: its listen occurrences
    /// there as listens, every other slot as sleep, in slot order.
    fn settle(&mut self, ledger: &mut EnergyLedger, model: &EnergyModel, v: usize, to: u64) {
        let from = self.marks[v];
        debug_assert!(
            to >= from.slot,
            "node {v} settled backwards ({} -> {to})",
            from.slot
        );
        if to <= from.slot {
            return;
        }
        let (occ, l) = (self.listen_slots.row(v), self.frame_len);
        let end = locate(occ, l, from, to);
        let c = occ.len() as u64;
        // The span's `j`-th listen is list entry `cursor + j`, wrapping
        // into later frames.
        let steps = &mut self.steps[v];
        ledger.charge_idle_span(model, v, to - from.slot, end.rank - from.rank, steps, |j| {
            let i = u64::from(from.cursor) + j;
            let (frames, i) = if i < c { (0, i) } else { (i / c, i % c) };
            from.frame_start + frames * l + u64::from(occ[i as usize]) - from.slot
        });
        self.marks[v] = end;
    }

    /// Charges node `v`'s transmission in `slot`: settles its idle span
    /// up to `slot`, adds the transmit charge, and moves its mark past
    /// `slot` (counting `slot`'s listen occurrence, if it has one, as
    /// passed — the slot was spent transmitting).
    fn charge_transmit(
        &mut self,
        ledger: &mut EnergyLedger,
        model: &EnergyModel,
        v: usize,
        slot: u64,
    ) {
        self.settle(ledger, model, v, slot);
        ledger.record(model, v, RadioState::Transmit);
        let (occ, l) = (self.listen_slots.row(v), self.frame_len);
        let m = self.marks[v];
        let offset = (slot - m.frame_start) as u32;
        let here = u32::from(occ.get(m.cursor as usize) == Some(&offset));
        self.marks[v] = if u64::from(offset) + 1 < l {
            Mark {
                slot: slot + 1,
                rank: m.rank + u64::from(here),
                cursor: m.cursor + here,
                ..m
            }
        } else {
            // `slot` ends its frame: every entry of the list is passed.
            Mark {
                slot: slot + 1,
                frame_start: m.frame_start + l,
                rank: m.rank + u64::from(here),
                cursor: 0,
            }
        };
    }
}

/// The mark for slot `s` of a node with listen-slot list `occ` (frame
/// length `l`), found from its mark `from` at or before `s`: a forward
/// search from `from`'s cursor when both lie in one frame, from the list
/// start when `s` lies in the next frame (neither divides), a fresh
/// search otherwise.
fn locate(occ: &[u32], l: u64, from: Mark, s: u64) -> Mark {
    let ahead = s - from.frame_start;
    if ahead < l {
        let cursor = position_from(occ, from.cursor as usize, ahead as u32) as u32;
        Mark {
            slot: s,
            rank: from.rank + u64::from(cursor - from.cursor),
            cursor,
            ..from
        }
    } else if ahead < 2 * l {
        let cursor = position_from(occ, 0, (ahead - l) as u32) as u32;
        Mark {
            slot: s,
            frame_start: from.frame_start + l,
            rank: from.rank - u64::from(from.cursor) + occ.len() as u64 + u64::from(cursor),
            cursor,
        }
    } else {
        let frame = s / l;
        let cursor = position_from(occ, 0, (s % l) as u32) as u32;
        Mark {
            slot: s,
            frame_start: frame * l,
            rank: frame * occ.len() as u64 + u64::from(cursor),
            cursor,
        }
    }
}

/// Charges the slot; how depends on the clock.
///
/// * `unsettled: None` (every slot visited) — walks the slot's awake
///   roster, charging each awake node for the radio state its flags
///   record (a roster node can still have slept: crashed, missed sync, or
///   lost the p-persistence roll). The index gaps between awake nodes are
///   charged the sleep floor now, interleaved with the roster so
///   `NodeDied` emission stays ascending in the node index. Without a
///   battery nothing can die, so each gap is one bulk range sweep with
///   the same per-node `+= sleep_mj`;
/// * `unsettled: Some(_)` (the skip clock) — only the slot's actual
///   transmitters are charged now. Every other node did exactly what the
///   idle model assumes (a scheduled listener listened, everyone else
///   slept: the clock admits no crash, sync miss or drift), so its slot
///   joins its uncharged span. A transmitter first settles that span, so
///   per node the `f64` addition sequence is exactly the slot-by-slot
///   one. The clock's battery epochs guarantee nobody depletes while a
///   span is uncharged, so no depletion check is needed here.
pub(crate) fn run(sim: &mut Simulator, awake: &[u32], unsettled: Option<&mut Unsettled>) {
    if let Some(u) = unsettled {
        let model = sim.config.energy;
        for &v in &sim.active_tx {
            u.charge_transmit(&mut sim.energy, &model, v, sim.slot);
        }
        return;
    }
    let n = sim.topo.num_nodes();
    let sleep_mj = sim.config.energy.slot_energy_mj(RadioState::Sleep);
    let mut next = 0usize;
    for &a in awake {
        let a = a as usize;
        charge_sleepers(sim, sleep_mj, next..a);
        next = a + 1;
        if sim.dead[a] {
            continue;
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
    charge_sleepers(sim, sleep_mj, next..n);
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

/// Settles every live node's idle span up to `sim.slot` and re-anchors
/// the marks there. Called at battery-epoch boundaries (so depletion
/// headroom is computed on real numbers) and at the end of a skipping run
/// (so the ledger matches a slot-by-slot run exactly).
pub(crate) fn flush_all(sim: &mut Simulator, unsettled: &mut Unsettled) {
    let now = sim.slot;
    for v in 0..unsettled.marks.len() {
        if sim.dead[v] {
            unsettled.mark(v, now);
        } else {
            unsettled.settle(&mut sim.energy, &sim.config.energy, v, now);
        }
    }
}
