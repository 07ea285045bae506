//! Slot rosters: who the schedule wakes in a slot, as ascending node lists.
//!
//! The paper models a slot as a pair `(T_i, R_i)`: at most `α_T`
//! transmitters and `α_R` receivers, every other node asleep. The engine
//! runs every visited slot over exactly that view — a roster holding
//! the ascending **transmitter**, **listener** and **awake** (`tx ∪ rx`)
//! lists — so election, channel and ARQ touch only scheduled nodes and the
//! energy phase charges the index gaps between awake nodes as sleep in
//! bulk. A roster has two sources:
//!
//! * **the plan** — for a MAC that is genuinely periodic
//!   ([`MacProtocol::frame_periodic`]) and clocks that do not drift, slot
//!   `s`'s rosters are frame slot `s mod L`'s, so [`SlotPlan`] asks the MAC
//!   once per frame slot and the engine borrows the answer every frame;
//! * **per slot** — under clock drift each node consults the schedule at
//!   its own perceived slot, and a non-periodic MAC (the asynchronous
//!   random-wakeup baseline) answers differently every slot, so the engine
//!   refills one reused `PlanSlot` from every node's answer.
//!
//! Node indices are stored as `u32` — half the cache traffic of `usize`
//! on 64-bit hosts, and the engine caps node counts far below 2³².
//!
//! The plan is **flat**: one `Vec<u32>` per roster, the frame slots'
//! lists laid end to end, plus one prefix-offset array saying where each
//! frame slot's lists start — four buffers in all, however long the
//! frame. Each frame slot is filled by one
//! [`MacProtocol::fill_rosters`] call that appends its transmitters and
//! listeners (a [`ScheduleMac`](crate::ScheduleMac) walks its slot's set
//! members instead of probing all `n` nodes), and the awake roster is the
//! merge of the two.
//!
//! Plan rosters are filled **lazily**, one frame slot on first visit
//! ([`SlotPlan::ensure_filled`]): duty-cycled frames grow superlinearly in
//! `n` (a TTDC frame at `n = 256` is ~50 000 slots), so a short run under
//! a huge frame never pays for slots it does not reach. Frame slots are
//! visited in ascending wrap-around order, so the filled slots are always
//! a prefix and filling one more is an append. The engine keeps one plan
//! cached and *rebuilds it in place* at the start of every [`run`]:
//! rebuilding truncates the buffers, and refilling under the same MAC
//! appends exactly the previous element counts, so repeated runs never
//! allocate once capacities have grown (the steady-state allocation audit
//! in `tests/alloc_audit.rs` covers every roster source).
//!
//! [`MacProtocol::frame_periodic`]: crate::MacProtocol::frame_periodic
//! [`MacProtocol::fill_rosters`]: crate::MacProtocol::fill_rosters
//! [`run`]: crate::Simulator::run

use crate::mac::MacProtocol;

/// One slot's rosters, borrowed: the ascending transmitter, listener and
/// awake (`tx ∪ rx`) lists the phases walk.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Roster<'a> {
    pub(crate) tx: &'a [u32],
    pub(crate) rx: &'a [u32],
    pub(crate) awake: &'a [u32],
}

/// The per-slot roster buffer: refilled every slot from each node's MAC
/// answer at its own perceived slot when no plan can supply the rosters.
#[derive(Clone, Debug, Default)]
pub(crate) struct PlanSlot {
    /// Scheduled transmitters, ascending.
    pub(crate) tx: Vec<u32>,
    /// Scheduled listeners, ascending.
    pub(crate) rx: Vec<u32>,
    /// `tx ∪ rx`, ascending (the sets may overlap: contention MACs are
    /// awake for both).
    pub(crate) awake: Vec<u32>,
}

impl PlanSlot {
    /// Empty rosters with room for all `n` nodes, so per-slot refills
    /// never allocate.
    pub(crate) fn with_capacity(n: usize) -> PlanSlot {
        PlanSlot {
            tx: Vec::with_capacity(n),
            rx: Vec::with_capacity(n),
            awake: Vec::with_capacity(n),
        }
    }

    /// Refills the rosters from the MAC's answers, consulting node `v` at
    /// slot `slot_of(v)`, reusing every buffer.
    pub(crate) fn refill(
        &mut self,
        mac: &dyn MacProtocol,
        n: usize,
        slot_of: impl Fn(usize) -> u64,
    ) {
        self.tx.clear();
        self.rx.clear();
        self.awake.clear();
        for v in 0..n {
            let slot = slot_of(v);
            let t = mac.may_transmit(v, slot);
            let r = mac.may_receive(v, slot);
            if t {
                self.tx.push(v as u32);
            }
            if r {
                self.rx.push(v as u32);
            }
            if t || r {
                self.awake.push(v as u32);
            }
        }
    }

    /// The rosters as a borrowed view.
    pub(crate) fn view(&self) -> Roster<'_> {
        Roster {
            tx: &self.tx,
            rx: &self.rx,
            awake: &self.awake,
        }
    }
}

/// Per-frame slot rosters for a periodic MAC over `n` nodes — built once
/// per `(schedule, n)` pair, borrowed by every slot the engine visits
/// under that MAC (see the module docs).
#[derive(Clone, Debug)]
pub struct SlotPlan {
    frame_len: usize,
    n: usize,
    /// Every filled frame slot's transmitters, slot after slot.
    tx: Vec<u32>,
    /// Every filled frame slot's listeners, slot after slot.
    rx: Vec<u32>,
    /// Every filled frame slot's awake nodes, slot after slot.
    awake: Vec<u32>,
    /// `starts[i]` holds where frame slot `i`'s `[tx, rx, awake]` lists
    /// begin; one entry more than there are filled slots, so slot `i`
    /// ends where slot `i + 1` starts. Slots `0..starts.len() - 1` are
    /// filled.
    starts: Vec<[u32; 3]>,
}

impl SlotPlan {
    /// Builds an empty plan bound to `mac` over `n` nodes; rosters fill
    /// lazily as [`ensure_filled`](SlotPlan::ensure_filled) visits slots.
    ///
    /// The caller is responsible for eligibility: `mac` must report
    /// [`frame_periodic`](MacProtocol::frame_periodic) and a nonzero
    /// [`frame_length`](MacProtocol::frame_length) — asserted here,
    /// because a plan for a non-periodic MAC would silently simulate the
    /// wrong schedule.
    pub fn build(mac: &dyn MacProtocol, n: usize) -> SlotPlan {
        let mut plan = SlotPlan {
            frame_len: 0,
            n,
            tx: Vec::new(),
            rx: Vec::new(),
            awake: Vec::new(),
            starts: Vec::new(),
        };
        plan.rebuild(mac, n);
        plan
    }

    /// Rebinds the plan to `mac` in place (same contract as
    /// [`SlotPlan::build`]): empties the rosters so every slot refills
    /// from the new MAC on its next visit, while keeping the buffers'
    /// capacity. When the MAC and `n` are unchanged each refill appends
    /// exactly the previous element counts, so no buffer grows and
    /// nothing allocates — this is what keeps repeated
    /// [`Simulator::run`](crate::Simulator::run) calls over plan rosters
    /// heap-silent.
    pub fn rebuild(&mut self, mac: &dyn MacProtocol, n: usize) {
        let frame = mac.frame_length();
        assert!(
            mac.frame_periodic() && frame > 0,
            "SlotPlan requires a periodic MAC with a nonzero frame ({} reports \
             frame_periodic={}, frame_length={})",
            mac.name(),
            mac.frame_periodic(),
            frame
        );
        self.frame_len = frame;
        self.n = n;
        self.tx.clear();
        self.rx.clear();
        self.awake.clear();
        self.starts.clear();
        self.starts.push([0; 3]);
    }

    /// Fills every frame slot up to and including `i` that is not yet
    /// filled. The engine calls this once per simulated slot; after the
    /// first wrap around the frame it is a bounds check and nothing more.
    pub fn ensure_filled(&mut self, mac: &dyn MacProtocol, i: usize) {
        debug_assert!(i < self.frame_len);
        while self.starts.len() <= i + 1 {
            let slot = (self.starts.len() - 1) as u64;
            let (t0, r0) = (self.tx.len(), self.rx.len());
            mac.fill_rosters(slot, self.n, &mut self.tx, &mut self.rx);
            merge_union(&self.tx[t0..], &self.rx[r0..], &mut self.awake);
            let end = |len: usize| u32::try_from(len).expect("plan rosters exceed 2^32 entries");
            self.starts.push([
                end(self.tx.len()),
                end(self.rx.len()),
                end(self.awake.len()),
            ]);
        }
    }

    /// The frame length `L` the plan was built for.
    #[inline]
    pub fn frame_length(&self) -> usize {
        self.frame_len
    }

    /// The node count the plan was built for.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Maps an absolute slot to its frame-slot index.
    #[inline]
    pub fn slot_index(&self, slot: u64) -> usize {
        (slot % self.frame_len as u64) as usize
    }

    /// The `k`-th roster (`0` tx, `1` rx, `2` awake) of frame slot `i`.
    #[inline]
    fn list<'a>(&self, buf: &'a [u32], k: usize, i: usize) -> &'a [u32] {
        debug_assert!(
            i + 1 < self.starts.len(),
            "frame slot {i} not filled; call ensure_filled"
        );
        &buf[self.starts[i][k] as usize..self.starts[i + 1][k] as usize]
    }

    /// Scheduled transmitters of frame slot `i`, ascending.
    #[inline]
    pub fn transmitters(&self, i: usize) -> &[u32] {
        self.list(&self.tx, 0, i)
    }

    /// Scheduled listeners of frame slot `i`, ascending.
    #[inline]
    pub fn listeners(&self, i: usize) -> &[u32] {
        self.list(&self.rx, 1, i)
    }

    /// Awake nodes (`transmitters ∪ listeners`) of frame slot `i`,
    /// ascending.
    #[inline]
    pub fn awake(&self, i: usize) -> &[u32] {
        self.list(&self.awake, 2, i)
    }

    /// All three rosters of frame slot `i`.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Roster<'_> {
        Roster {
            tx: self.transmitters(i),
            rx: self.listeners(i),
            awake: self.awake(i),
        }
    }

    /// `true` once every frame slot is filled (the skip clock fills
    /// eagerly so its occurrence lists can cover the whole frame).
    #[inline]
    pub fn fully_filled(&self) -> bool {
        self.starts.len() == self.frame_len + 1
    }
}

/// Appends the ascending union of the ascending lists `a` and `b` to
/// `out`.
fn merge_union(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Ascending `u32` lists for rows `0..rows`, laid end to end with one
/// prefix-offset array (compressed rows). The skip clock inverts a
/// filled [`SlotPlan`] into these — per node, per directed edge — and
/// rebuilds them in place, so an unchanged shape never allocates.
#[derive(Clone, Debug, Default)]
pub(crate) struct Lists {
    /// Row `r` is `items[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl Lists {
    /// Rebuilds from the `(row, item)` pairs `emit` reports. `emit` runs
    /// twice (count, then place) and must report the same pairs both
    /// times, each row's items in ascending order.
    pub(crate) fn rebuild(&mut self, rows: usize, emit: impl Fn(&mut dyn FnMut(usize, u32))) {
        // Count row r at starts[r + 2]; after the prefix sum starts[r + 1]
        // is row r's first index and serves as its placement cursor,
        // ending at row r's end = row r + 1's start.
        self.starts.clear();
        self.starts.resize(rows + 2, 0);
        emit(&mut |r, _| self.starts[r + 2] += 1);
        for r in 2..rows + 2 {
            self.starts[r] += self.starts[r - 1];
        }
        self.items.clear();
        self.items.resize(self.starts[rows + 1] as usize, 0);
        emit(&mut |r, item| {
            let at = &mut self.starts[r + 1];
            self.items[*at as usize] = item;
            *at += 1;
        });
        self.starts.pop();
    }

    /// Row `r`'s items, ascending.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[u32] {
        &self.items[self.starts[r] as usize..self.starts[r + 1] as usize]
    }

    /// The index of row `r`'s item `item` among all items, if present.
    #[inline]
    pub(crate) fn position(&self, r: usize, item: u32) -> Option<usize> {
        let k = self.row(r).binary_search(&item).ok()?;
        Some(self.starts[r] as usize + k)
    }

    /// Total items over all rows (the number of row-item pairs).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

/// `occ.partition_point(|&x| x < key)` for an ascending `occ` whose first
/// `start` entries are known to lie below `key`: gallops forward from
/// `start`, so an answer `k` entries further costs O(log k).
pub(crate) fn position_from(occ: &[u32], start: usize, key: u32) -> usize {
    let (mut lo, mut step) = (start, 1);
    let mut hi = start;
    while hi < occ.len() && occ[hi] < key {
        lo = hi + 1;
        hi = start + step;
        step *= 2;
    }
    let hi = hi.min(occ.len()).max(lo);
    lo + occ[lo..hi].partition_point(|&x| x < key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::ScheduleMac;
    use ttdc_core::Schedule;
    use ttdc_util::BitSet;

    fn mac3() -> ScheduleMac {
        // Frame of 2 over 5 nodes: slot 0 tx {0, 3} rx {1}; slot 1 tx {2}
        // rx {0, 4}.
        let t = vec![BitSet::from_iter(5, [0, 3]), BitSet::from_iter(5, [2])];
        let r = vec![BitSet::from_iter(5, [1]), BitSet::from_iter(5, [0, 4])];
        ScheduleMac::new("plan-test", Schedule::new(5, t, r))
    }

    #[test]
    fn rosters_match_the_mac_answers() {
        let mac = mac3();
        let mut plan = SlotPlan::build(&mac, 5);
        plan.ensure_filled(&mac, 1);
        assert_eq!(plan.frame_length(), 2);
        assert_eq!(plan.num_nodes(), 5);
        assert_eq!(plan.transmitters(0), &[0, 3]);
        assert_eq!(plan.listeners(0), &[1]);
        assert_eq!(plan.awake(0), &[0, 1, 3]);
        assert_eq!(plan.transmitters(1), &[2]);
        assert_eq!(plan.listeners(1), &[0, 4]);
        assert_eq!(plan.awake(1), &[0, 2, 4]);
        // Absolute slots wrap into the frame.
        assert_eq!(plan.slot_index(0), 0);
        assert_eq!(plan.slot_index(7), 1);
        // A per-slot refill at the same slot builds the same rosters.
        let mut roster = PlanSlot::with_capacity(5);
        roster.refill(&mac, 5, |_| 7);
        assert_eq!(roster.tx, plan.transmitters(1));
        assert_eq!(roster.rx, plan.listeners(1));
        assert_eq!(roster.awake, plan.awake(1));
        assert!(plan.fully_filled());
    }

    #[test]
    fn rebuild_is_equivalent_to_build() {
        let mac = mac3();
        let mut fresh = SlotPlan::build(&mac, 5);
        fresh.ensure_filled(&mac, 1);
        // Start from a *fully filled* plan for a different (larger-frame,
        // smaller-n) MAC, then rebuild for `mac`: every reused buffer must
        // end up exactly as a fresh build leaves it.
        let t = (0..4).map(|i| BitSet::from_iter(3, [i % 3])).collect();
        let other = ScheduleMac::new("other", Schedule::non_sleeping(3, t));
        let mut reused = SlotPlan::build(&other, 3);
        reused.ensure_filled(&other, 3);
        reused.rebuild(&mac, 5);
        reused.ensure_filled(&mac, 1);
        assert_eq!(reused.frame_length(), fresh.frame_length());
        for i in 0..fresh.frame_length() {
            assert_eq!(reused.transmitters(i), fresh.transmitters(i));
            assert_eq!(reused.listeners(i), fresh.listeners(i));
            assert_eq!(reused.awake(i), fresh.awake(i));
        }
    }

    #[test]
    fn lists_invert_pairs_in_place() {
        let pairs = [(2usize, 1u32), (0, 4), (2, 7), (0, 9), (3, 0)];
        let mut lists = Lists::default();
        lists.rebuild(4, |emit| {
            for &(r, item) in &pairs {
                emit(r, item);
            }
        });
        assert_eq!(lists.row(0), &[4, 9]);
        assert_eq!(lists.row(1), &[] as &[u32]);
        assert_eq!(lists.row(2), &[1, 7]);
        assert_eq!(lists.row(3), &[0]);
        assert_eq!(lists.len(), 5);
        assert_eq!(lists.position(2, 7), Some(3));
        assert_eq!(lists.position(2, 4), None);
        // Rebuilding to a smaller shape leaves no stale rows behind.
        lists.rebuild(1, |emit| emit(0, 5));
        assert_eq!(lists.row(0), &[5]);
        assert_eq!(lists.len(), 1);
    }

    #[test]
    fn position_from_gallops_to_the_partition_point() {
        let occ: Vec<u32> = (0..100).map(|i| 3 * i + 1).collect();
        for start_key in 0..310u32 {
            let start = occ.partition_point(|&x| x < start_key);
            for key in start_key..310 {
                let want = occ.partition_point(|&x| x < key);
                assert_eq!(
                    position_from(&occ, start, key),
                    want,
                    "start={start} key={key}"
                );
                assert_eq!(position_from(&occ, 0, key), want, "key={key}");
            }
        }
        assert_eq!(position_from(&[], 0, 5), 0);
    }

    #[test]
    #[should_panic(expected = "periodic MAC")]
    fn non_periodic_macs_are_rejected() {
        struct Hashy;
        impl MacProtocol for Hashy {
            fn name(&self) -> &str {
                "hashy"
            }
            fn frame_length(&self) -> usize {
                1
            }
            fn may_transmit(&self, node: usize, slot: u64) -> bool {
                (node as u64 ^ slot).is_multiple_of(3)
            }
            fn may_receive(&self, _node: usize, _slot: u64) -> bool {
                true
            }
        }
        SlotPlan::build(&Hashy, 4);
    }
}
