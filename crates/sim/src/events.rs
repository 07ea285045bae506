//! The skip clock's calendar: which future slot can anything happen in?
//!
//! Plan rosters make each visited slot cheap; this calendar lets the
//! engine's clock policy not visit most slots at all. A slot is
//! **interesting** — must actually run the phase pipeline — only if
//! something observable or RNG-consuming can occur in it:
//!
//! * a deterministic (CBR) traffic source generates, or saturated
//!   broadcast has any scheduled transmitter (it always transmits);
//! * a backlogged node would **use** a transmit occurrence there: it is
//!   scheduled to transmit and, for a schedule-aware sender, the next hop
//!   of one of its queued packets is scheduled to listen (election then
//!   draws and/or emits `Transmitted`). Packets waiting on an ARQ retry
//!   simply sit in the queue and count the same way.
//!
//! Everything else is a **boring** slot: under the engine's eligibility
//! predicate (no crash plan, zero drift, zero sync-miss, no extra
//! observers, CBR/saturated traffic) the pipeline provably consumes no
//! randomness and emits no event there, and the only state change is
//! energy — listeners idle-listen, everyone else sleeps — which each node
//! settles lazily for its whole uncharged span (see the energy phase).
//! The calendar only says *when*; every interesting slot runs the
//! ordinary step over plan rosters. [`SkipState`] tracks the two sources
//! of interesting slots:
//!
//! * the deterministic traffic calendar, computed in O(1) from the CBR
//!   residue arithmetic (or the transmitter-busy occurrence list for
//!   saturated mode);
//! * an indexed min-heap of **pending transmitters**, one entry per node:
//!   every live backlogged node is armed at its earliest *useful*
//!   transmit occurrence — the first slot `≥ from` where it may transmit
//!   and some queued packet's next hop listens, one binary search per
//!   distinct next hop in per-(sender, next hop) occurrence lists
//!   inverted from the filled plan once per run. Plain arming (the next transmit
//!   occurrence) stays where that refinement would not be exact: eager
//!   senders (they send the front packet whoever listens) and a stale
//!   front packet (no edge to its next hop, so the stale-drop loop must
//!   run there). After each visited slot every node whose queue could
//!   have changed — the slot's roster transmitters, its CBR generators
//!   and the receivers of its handoffs — is re-armed, and a re-arm may
//!   move an entry *earlier* (a fresh packet can have an earlier useful
//!   slot). So "a backlogged node's entry is at or before its first
//!   useful slot" holds throughout: visiting a slot early is harmless (a
//!   visit is exactly a `step`), visiting one late never happens.
//!   Entries of nodes whose backlog drained are dropped lazily.
//!
//! Fault transitions never enter the calendar because the eligibility
//! predicate excludes crash plans outright, and battery-depletion
//! horizons are handled by the clock's epoch loop (which bounds each
//! skip window so no node can die inside it, and visits every slot once
//! a death is imminent) rather than as point events.

use crate::engine::Simulator;
use crate::phases::energy::Unsettled;
use crate::plan::{Lists, SlotPlan};
use crate::traffic::TrafficPattern;

/// The calendar state for one skip-clock run, cached and buffer-reused
/// across [`run`] calls like the [`SlotPlan`].
///
/// [`run`]: crate::Simulator::run
#[derive(Debug, Default)]
pub(crate) struct SkipState {
    /// Frame slots with a nonempty transmitter roster, ascending
    /// (saturated traffic transmits in every one of them).
    tx_busy: Vec<u32>,
    /// Per node, the ascending frame slots where it may transmit.
    tx_slots: Lists,
    /// Per node, its neighbours, ascending; an item's position among all
    /// items is the id of that directed edge.
    neighbours: Lists,
    /// Per directed edge `(v, w)`, the ascending frame slots where `v`
    /// may transmit and `w` listens.
    edge_slots: Lists,
    /// Per directed edge, the last [`SkipState::arm`] call that looked at
    /// it (its `arms` count), so each call looks at an edge once.
    edge_seen: Vec<u64>,
    arms: u64,
    /// Pending transmitters: at most one entry per node.
    pending: Calendar,
    /// Every node's uncharged energy span, settled lazily.
    pub(crate) unsettled: Unsettled,
    frame_len: u64,
}

impl SkipState {
    /// Rebinds the state to a fully-filled `plan` at `sim`'s current slot
    /// with a settled energy ledger: inverts the plan into the occurrence
    /// lists, marks every node charged up to now, and seeds the pending
    /// calendar from the current queue backlog.
    pub(crate) fn prepare(&mut self, sim: &Simulator, plan: &SlotPlan) {
        assert!(
            plan.fully_filled(),
            "the skip calendar needs a fully-filled plan"
        );
        let (n, l) = (plan.num_nodes(), plan.frame_length());
        self.frame_len = l as u64;
        self.tx_busy.clear();
        self.tx_busy
            .extend((0..l as u32).filter(|&i| !plan.transmitters(i as usize).is_empty()));
        self.tx_slots.rebuild(n, |emit| {
            for i in 0..l {
                for &v in plan.transmitters(i) {
                    emit(v as usize, i as u32);
                }
            }
        });
        let topo = &sim.topo;
        self.neighbours.rebuild(n, |emit| {
            for v in 0..n {
                for w in topo.neighbors(v).iter() {
                    emit(v, w as u32);
                }
            }
        });
        let neighbours = &self.neighbours;
        self.edge_slots.rebuild(neighbours.len(), |emit| {
            for i in 0..l {
                let rx = plan.listeners(i);
                for &v in plan.transmitters(i) {
                    for &w in rx {
                        if topo.has_edge(v as usize, w as usize) {
                            let e = neighbours
                                .position(v as usize, w)
                                .expect("an edge is in its sender's neighbour list");
                            emit(e, i as u32);
                        }
                    }
                }
            }
        });
        self.edge_seen.clear();
        self.edge_seen.resize(self.neighbours.len(), 0);
        self.arms = 0;
        self.unsettled.rebuild(plan);
        self.resettle(sim);
    }

    /// Re-synchronises after slots ran outside the skip loop (a stepped
    /// battery window, or run entry): the ledger is settled at `sim`'s
    /// current slot and the calendar is reseeded from scratch (packets
    /// may have been generated or dropped, nodes may have died).
    pub(crate) fn resettle(&mut self, sim: &Simulator) {
        let now = sim.slot;
        self.unsettled.reset(now);
        self.pending.reset(sim.queues.len());
        for v in 0..sim.queues.len() {
            self.arm(sim, v, now);
        }
    }

    /// The directed edge id of `(v, w)`, if `w` is a neighbour of `v`.
    fn edge(&self, v: usize, w: usize) -> Option<usize> {
        let w = u32::try_from(w).ok()?; // `usize::MAX` = no route
        self.neighbours.position(v, w)
    }

    /// Arms `v` at its earliest useful transmit occurrence at or after
    /// `from` (see the module docs), or moves its entry there if that is
    /// earlier. A dead or idle node, or one whose packets can never be
    /// sent, is left alone.
    fn arm(&mut self, sim: &Simulator, v: usize, from: u64) {
        if sim.dead[v] {
            return;
        }
        let queue = &sim.queues[v];
        let Some(front) = queue.front() else {
            return;
        };
        let l = self.frame_len;
        let refine =
            sim.config.schedule_aware_senders && self.edge(v, sim.next_hop(v, front)).is_some();
        let at = if refine {
            // Each distinct next hop once: a long backlog usually names
            // every neighbour within its first few packets.
            self.arms += 1;
            let (mut best, mut distinct) = (None::<u64>, 0);
            let degree = self.neighbours.row(v).len();
            for p in queue {
                let Some(e) = self.edge(v, sim.next_hop(v, p)) else {
                    continue;
                };
                if self.edge_seen[e] == self.arms {
                    continue;
                }
                self.edge_seen[e] = self.arms;
                distinct += 1;
                if let Some(s) = next_occurrence(self.edge_slots.row(e), from, l) {
                    best = Some(best.map_or(s, |b| b.min(s)));
                }
                if best == Some(from) || distinct == degree {
                    break;
                }
            }
            best
        } else {
            next_occurrence(self.tx_slots.row(v), from, l)
        };
        if let Some(s) = at {
            self.pending.arm(v, s);
        }
    }

    /// The next interesting slot at or after `sim`'s current slot
    /// (`u64::MAX` when the calendar is empty — nothing can ever happen
    /// again).
    pub(crate) fn next_interesting(&mut self, sim: &Simulator) -> u64 {
        let now = sim.slot;
        let mut next = match sim.pattern {
            // Saturated transmitters always send: every scheduled
            // transmit occurrence is interesting.
            TrafficPattern::SaturatedBroadcast => {
                next_occurrence(&self.tx_busy, now, self.frame_len).unwrap_or(u64::MAX)
            }
            TrafficPattern::CbrUnicast { period } => {
                next_cbr_generation(now, period, sim.queues.len())
            }
            // The eligibility predicate admits no other pattern.
            _ => unreachable!("time skipping only runs saturated or CBR traffic"),
        };
        while let Some((s, v)) = self.pending.peek() {
            if sim.queues[v].is_empty() || sim.dead[v] {
                // Lazily invalidated: the backlog drained (or the node
                // died in a battery window) since the entry was armed.
                self.pending.pop();
                continue;
            }
            debug_assert!(
                s >= now,
                "pending entry {s} for node {v} is behind slot {now}"
            );
            next = next.min(s);
            break;
        }
        next
    }

    /// Drops every pending entry due at `slot` (the engine is about to
    /// step it; [`SkipState::rearm_after_step`] re-arms whoever still
    /// matters).
    pub(crate) fn pop_due(&mut self, slot: u64) {
        while matches!(self.pending.peek(), Some((s, _)) if s <= slot) {
            self.pending.pop();
        }
    }

    /// Re-arms the calendar after the engine stepped `stepped`: every
    /// node whose queue that slot could have changed — its roster
    /// transmitters (election, delivery, ARQ), its CBR generators and the
    /// receivers of its handoffs. Armed from `stepped + 1`; the current
    /// slot is spent.
    pub(crate) fn rearm_after_step(&mut self, sim: &Simulator, plan: &SlotPlan, stepped: u64) {
        if sim.pattern.is_saturated() {
            return; // saturated broadcast never queues a packet
        }
        let from = stepped + 1;
        for &v in plan.transmitters(plan.slot_index(stepped)) {
            self.arm(sim, v as usize, from);
        }
        if let TrafficPattern::CbrUnicast { period } = sim.pattern {
            let n = sim.queues.len() as u64;
            let mut v = (period - stepped % period) % period;
            while v < n {
                self.arm(sim, v as usize, from);
                v += period;
            }
        }
        for &(_, y) in &sim.successes {
            self.arm(sim, y, from);
        }
    }
}

/// An indexed binary min-heap of `(slot, node)` entries with at most one
/// entry per node, whose slot can only move earlier until it is popped.
/// Bounded by `n` entries, so after the first run it never allocates.
#[derive(Debug, Default)]
struct Calendar {
    heap: Vec<(u64, u32)>,
    /// Per node, its entry's index in `heap` (`NOT_ARMED` when none).
    at: Vec<u32>,
}

const NOT_ARMED: u32 = u32::MAX;

impl Calendar {
    /// Empties the calendar for `n` nodes.
    fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.heap.reserve(n);
        self.at.clear();
        self.at.resize(n, NOT_ARMED);
    }

    /// The earliest entry.
    fn peek(&self) -> Option<(u64, usize)> {
        self.heap.first().map(|&(s, v)| (s, v as usize))
    }

    /// Arms `v` at `slot`, or moves its entry to `slot` if that is
    /// earlier.
    fn arm(&mut self, v: usize, slot: u64) {
        let i = match self.at[v] {
            NOT_ARMED => {
                self.heap.push((slot, v as u32));
                self.heap.len() - 1
            }
            i if slot < self.heap[i as usize].0 => {
                self.heap[i as usize].0 = slot;
                i as usize
            }
            _ => return,
        };
        self.at[v] = i as u32;
        self.sift_up(i);
    }

    /// Removes the earliest entry.
    fn pop(&mut self) {
        let Some(&(_, v)) = self.heap.first() else {
            return;
        };
        self.at[v as usize] = NOT_ARMED;
        let last = self.heap.pop().expect("the heap has a first entry");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.at[last.1 as usize] = 0;
            self.sift_down(0);
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.at[self.heap[i].1 as usize] = i as u32;
        self.at[self.heap[j].1 as usize] = j as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < self.heap.len() && self.heap[l] < self.heap[min] {
                min = l;
            }
            if r < self.heap.len() && self.heap[r] < self.heap[min] {
                min = r;
            }
            if min == i {
                break;
            }
            self.swap(i, min);
            i = min;
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

    #[test]
    fn calendar_pops_in_slot_order_and_only_moves_entries_earlier() {
        let mut c = Calendar::default();
        c.reset(6);
        for (v, s) in [(0, 50u64), (1, 20), (2, 90), (3, 20), (4, 70)] {
            c.arm(v, s);
        }
        c.arm(2, 10); // earlier: moves
        c.arm(4, 80); // later: ignored
        c.arm(0, 50); // equal: ignored
        let mut order = Vec::new();
        while let Some(e) = c.peek() {
            order.push(e);
            c.pop();
        }
        assert_eq!(order, [(10, 2), (20, 1), (20, 3), (50, 0), (70, 4)]);
        // Popped nodes can be armed afresh, later than before.
        c.arm(2, 500);
        assert_eq!(c.peek(), Some((500, 2)));
    }
}
