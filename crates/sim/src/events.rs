//! The skip clock's calendar: which future slot can anything happen in?
//!
//! Plan rosters make each visited slot cheap; this calendar lets the
//! engine's clock policy not visit most slots at all. A slot is
//! **interesting** — must actually run the phase pipeline — only if
//! something observable or RNG-consuming can occur in it:
//!
//! * a deterministic (CBR) traffic source generates, or saturated
//!   broadcast has any scheduled transmitter (it always transmits);
//! * some scheduled transmitter has a nonempty queue (election will draw
//!   and/or emit; this includes packets waiting on an ARQ retry, which
//!   simply sit in the queue);
//!
//! Everything else is a **boring** slot: under the engine's eligibility
//! predicate (no crash plan, zero drift, zero sync-miss, no extra
//! observers, CBR/saturated traffic) the pipeline provably consumes no
//! randomness and emits no event there, and the only state change is
//! energy — listeners idle-listen, everyone else sleeps — which the clock
//! settles in bulk across the whole span. The calendar only says *when*;
//! every interesting slot runs the ordinary step over plan rosters, with
//! the energy phase in sleep-debt mode. [`SkipState`] tracks the two
//! sources of interesting slots:
//!
//! * the deterministic traffic calendar, computed in O(1) from the CBR
//!   residue arithmetic (or the [`ActiveSlots::tx_busy`] occurrence list
//!   for saturated mode);
//! * a calendar queue (min-heap) of **pending transmitters**: every live
//!   node with a nonempty queue is armed at its next scheduled transmit
//!   occurrence. Nodes are re-armed after each visited slot (roster
//!   transmitters that still hold packets, plus the slot's generators),
//!   so the invariant "backlogged ⇒ in the heap" holds throughout; a
//!   slot the calendar does not name therefore has provably idle
//!   transmitters. Heap entries are invalidated lazily (popped when the
//!   node's queue emptied in the meantime), and `in_heap` flags keep at
//!   most one entry per node live.
//!
//! Fault transitions never enter the calendar because the eligibility
//! predicate excludes crash plans outright, and battery-depletion
//! horizons are handled by the clock's epoch loop (which bounds each
//! skip window so no node can die inside it, and visits every slot once
//! a death is imminent) rather than as point events.

use crate::plan::{ActiveSlots, SlotPlan};
use crate::traffic::{Packet, TrafficPattern};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// The calendar-queue state for one skip-clock run, cached and
/// buffer-reused across [`run`] calls like the [`SlotPlan`].
///
/// [`run`]: crate::Simulator::run
#[derive(Debug, Default)]
pub(crate) struct SkipState {
    /// Inverted per-frame occurrence summaries (listener-busy slots,
    /// transmitter-busy slots, per-node transmit slots).
    pub(crate) active: ActiveSlots,
    /// Pending transmitters: `(absolute next transmit slot, node)`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Whether a node currently has a (possibly stale) heap entry.
    in_heap: Vec<bool>,
    /// Per node, the first slot its energy has *not* been charged for.
    /// Every uncharged slot of a live node during skip mode is a
    /// guaranteed sleep, settled in bulk by the energy phase.
    pub(crate) last_flush: Vec<u64>,
    frame_len: u64,
}

impl SkipState {
    /// Rebinds the state to a fully-filled `plan` at absolute slot `now`
    /// with a settled energy ledger: recomputes the occurrence summaries,
    /// marks every node flushed up to `now`, and seeds the pending-heap
    /// from the current queue backlog.
    pub(crate) fn prepare(
        &mut self,
        plan: &SlotPlan,
        now: u64,
        queues: &[VecDeque<Packet>],
        dead: &[bool],
    ) {
        self.active.rebuild(plan);
        self.frame_len = plan.frame_length() as u64;
        let n = plan.num_nodes();
        self.last_flush.clear();
        self.last_flush.resize(n, 0);
        self.resettle(now, queues, dead);
    }

    /// Re-synchronises after slots ran outside the skip loop (a stepped
    /// battery window, or run entry): the ledger is settled at `now` and
    /// the heap is reseeded from scratch (packets may have been generated
    /// or dropped, nodes may have died).
    pub(crate) fn resettle(&mut self, now: u64, queues: &[VecDeque<Packet>], dead: &[bool]) {
        self.last_flush.fill(now);
        self.heap.clear();
        self.in_heap.clear();
        self.in_heap.resize(queues.len(), false);
        for (v, q) in queues.iter().enumerate() {
            if !q.is_empty() && !dead[v] {
                self.arm(v, now);
            }
        }
    }

    /// Arms `v` at its next scheduled transmit occurrence at or after
    /// `from` (no-op if `v` is already armed or never transmits).
    fn arm(&mut self, v: usize, from: u64) {
        if self.in_heap[v] {
            return;
        }
        if let Some(s) = next_occurrence(&self.active.tx_slots_by_node[v], from, self.frame_len) {
            self.heap.push(Reverse((s, v as u32)));
            self.in_heap[v] = true;
        }
    }

    /// The next interesting slot at or after `now` (`u64::MAX` when the
    /// calendar is empty — nothing can ever happen again).
    pub(crate) fn next_interesting(
        &mut self,
        now: u64,
        pattern: &TrafficPattern,
        n: usize,
        queues: &[VecDeque<Packet>],
        dead: &[bool],
    ) -> u64 {
        let mut next = match *pattern {
            // Saturated transmitters always send: every scheduled
            // transmit occurrence is interesting.
            TrafficPattern::SaturatedBroadcast => {
                next_occurrence(&self.active.tx_busy, now, self.frame_len).unwrap_or(u64::MAX)
            }
            TrafficPattern::CbrUnicast { period } => next_cbr_generation(now, period, n),
            // The eligibility predicate admits no other pattern.
            _ => unreachable!("time skipping only runs saturated or CBR traffic"),
        };
        while let Some(&Reverse((s, v))) = self.heap.peek() {
            let v = v as usize;
            if queues[v].is_empty() || dead[v] {
                // Lazily invalidated: the backlog drained (or the node
                // died in a battery window) since the entry was pushed.
                self.heap.pop();
                self.in_heap[v] = false;
                continue;
            }
            if s < now {
                // Stale occurrence from before an externally-run window:
                // re-arm at the next occurrence from `now`.
                self.heap.pop();
                self.in_heap[v] = false;
                self.arm(v, now);
                continue;
            }
            next = next.min(s);
            break;
        }
        next
    }

    /// Pops every heap entry due at `slot` (the engine is about to step
    /// it; [`SkipState::rearm_after_step`] re-arms whoever still matters).
    pub(crate) fn pop_due(&mut self, slot: u64) {
        while let Some(&Reverse((s, v))) = self.heap.peek() {
            if s > slot {
                break;
            }
            self.heap.pop();
            self.in_heap[v as usize] = false;
        }
    }

    /// Re-arms the calendar after the engine stepped `stepped`: every
    /// live roster transmitter still holding packets, plus the slot's CBR
    /// generators (their fresh packet may be the queue's first). Armed at
    /// `stepped + 1` — the current occurrence is spent.
    pub(crate) fn rearm_after_step(
        &mut self,
        plan: &SlotPlan,
        stepped: u64,
        pattern: &TrafficPattern,
        queues: &[VecDeque<Packet>],
        dead: &[bool],
    ) {
        let si = plan.slot_index(stepped);
        for &v in plan.transmitters(si) {
            let v = v as usize;
            if !dead[v] && !queues[v].is_empty() {
                self.arm(v, stepped + 1);
            }
        }
        if let TrafficPattern::CbrUnicast { period } = *pattern {
            let n = queues.len() as u64;
            let mut v = (period - stepped % period) % period;
            while v < n {
                let vu = v as usize;
                if !dead[vu] && !queues[vu].is_empty() {
                    self.arm(vu, stepped + 1);
                }
                v += period;
            }
        }
    }
}

/// The next absolute slot `≥ from` whose frame index appears in the
/// ascending occurrence list `occ` (frame length `l`).
fn next_occurrence(occ: &[u32], from: u64, l: u64) -> Option<u64> {
    if occ.is_empty() {
        return None;
    }
    let r = (from % l) as u32;
    let i = occ.partition_point(|&fs| fs < r);
    Some(if i < occ.len() {
        from + (occ[i] - r) as u64
    } else {
        // Wrap into the next frame.
        from + (l - r as u64) + occ[0] as u64
    })
}

/// The next absolute slot `≥ now` in which any node generates CBR
/// traffic: node `v` generates when `(slot + v) % period == 0`, so slot
/// `s` has a generator iff its designated residue `(period - s % period)
/// % period` falls below `n`. Those residues form the wrapped contiguous
/// block `{0} ∪ (period - n, period)`, making the next qualifying slot
/// O(1) arithmetic.
fn next_cbr_generation(now: u64, period: u64, n: usize) -> u64 {
    let n = n as u64;
    if n >= period {
        return now; // some node generates every slot
    }
    let r = now % period;
    if r == 0 || r > period - n {
        now
    } else {
        now + (period - n + 1 - r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_occurrence_walks_and_wraps() {
        let occ = [2u32, 5];
        assert_eq!(next_occurrence(&occ, 0, 8), Some(2));
        assert_eq!(next_occurrence(&occ, 2, 8), Some(2));
        assert_eq!(next_occurrence(&occ, 3, 8), Some(5));
        assert_eq!(next_occurrence(&occ, 6, 8), Some(10)); // wraps to 8 + 2
        assert_eq!(next_occurrence(&occ, 13, 8), Some(13));
        assert_eq!(next_occurrence(&[], 3, 8), None);
    }

    #[test]
    fn cbr_generation_calendar_matches_the_gate() {
        // Oracle: the dense gate, scanned slot by slot.
        let has_gen = |s: u64, p: u64, n: usize| (0..n).any(|v| (s + v as u64).is_multiple_of(p));
        for &(p, n) in &[(7u64, 3usize), (5, 1), (4, 4), (10, 12), (100, 3)] {
            for now in 0..250 {
                let got = next_cbr_generation(now, p, n);
                let want = (now..).find(|&s| has_gen(s, p, n)).unwrap();
                assert_eq!(got, want, "period={p} n={n} now={now}");
            }
        }
    }
}
