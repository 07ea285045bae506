//! The slot-synchronous simulation engine (thin orchestrator).
//!
//! Time advances in slots (the paper assumes loose synchronization and
//! describes behaviour per slot, §1/§3). Every visited slot runs the same
//! seven-phase pipeline over that slot's rosters — its ascending
//! transmitter, listener and awake lists, the paper's `(T_i, R_i)` pair
//! (one internal module per phase under `crates/sim/src/phases/`):
//!
//! 1. fault processes (crash/recovery, clock drift);
//! 2. traffic generation per the [`TrafficPattern`];
//! 3. transmit election (schedule, sync-miss, p-persistence);
//! 4. reception resolution through the configured
//!    [`ChannelModel`] — by default the paper's rule:
//!    a reception at `y` succeeds iff **exactly one** of its neighbours
//!    transmits;
//! 5. handoff delivery; 6. bounded ARQ; 7. energy and battery depletion.
//!
//! The engine owns time and the rosters; the phases only react. Two
//! decisions are the engine's, made in [`Simulator::run`] from what it
//! can observe:
//!
//! * the **roster source** — borrowed from the cached [`SlotPlan`] when
//!   the MAC is frame-periodic and clock drift is off, otherwise refilled
//!   every slot from each node's MAC answer at its perceived slot (clock
//!   drift, or a non-periodic MAC such as an asynchronous random-wakeup
//!   baseline);
//! * the **clock policy** — visit every slot, or, when nothing random can
//!   happen off-calendar, visit only the slots the skip calendar names
//!   (see the `events` module) and settle each node's idle span lazily
//!   (see the energy phase), in battery epochs.
//!
//! [`Simulator::step`] always refills the rosters and visits one slot; it
//! is the reference the dispatched `run` is verified against.
//!
//! Anything observable is announced as a [`SlotEvent`] to the attached
//! [`SlotObserver`]s; the built-in metrics and trace observers assemble
//! the [`SimReport`]. Senders can be *schedule-aware* (transmit a packet
//! only in slots where its next hop is scheduled to listen — possible
//! because the schedule is global knowledge even though the topology is
//! not) or eager. The topology may be swapped between steps
//! ([`Simulator::set_topology`]) to exercise topology transparency under
//! churn and mobility.

use crate::builder::SimulatorBuilder;
pub use crate::channel::CaptureModel;
use crate::channel::ChannelModel;
use crate::energy::{EnergyLedger, EnergyModel, RadioState};
use crate::error::SimError;
use crate::events::SkipState;
use crate::faults::{FaultPlan, FaultState};
use crate::mac::MacProtocol;
use crate::metrics::SimReport;
use crate::observer::{MetricsObserver, SlotEvent, SlotObserver, TraceObserver};
use crate::phases;
use crate::phases::energy::Unsettled;
use crate::plan::{PlanSlot, Roster, SlotPlan};
use crate::topology::Topology;
use crate::traffic::{Packet, TrafficPattern};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use ttdc_util::BitSet;

/// Engine knobs independent of workload and protocol.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// RNG seed (everything is deterministic given the seed).
    pub seed: u64,
    /// Radio energy model.
    pub energy: EnergyModel,
    /// If `true`, a sender only spends a transmit opportunity on a packet
    /// whose next hop is scheduled to listen in that slot.
    pub schedule_aware_senders: bool,
    /// Probability that a node misses a scheduled action (imperfect
    /// synchronization). `0.0` = perfect sync.
    pub miss_probability: f64,
    /// Per-node battery capacity in mJ; a node whose cumulative consumption
    /// reaches it dies (radio permanently off). `None` = mains-powered.
    pub battery_capacity_mj: Option<f64>,
    /// Ring-buffer capacity for event tracing (0 = tracing off).
    pub trace_capacity: usize,
    /// Fault injection: lossy/bursty links, transient crashes, clock drift,
    /// and the ARQ retry bound (see [`crate::faults`]). The default plan
    /// injects nothing and leaves runs bit-for-bit unchanged.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            energy: EnergyModel::default(),
            schedule_aware_senders: true,
            miss_probability: 0.0,
            battery_capacity_mj: None,
            trace_capacity: 0,
            faults: FaultPlan::default(),
        }
    }
}

/// The simulator state: topology, per-node queues, observers, and the RNG.
///
/// Construct through [`SimulatorBuilder`] (or the [`Simulator::new`] /
/// [`Simulator::try_new`] shorthands, which route through it).
#[derive(Debug)]
pub struct Simulator {
    pub(crate) topo: Topology,
    pub(crate) pattern: TrafficPattern,
    pub(crate) config: SimConfig,
    pub(crate) rng: SmallRng,
    pub(crate) queues: Vec<VecDeque<Packet>>,
    /// Convergecast next hop toward the sink (`usize::MAX` = no route).
    pub(crate) routing: Vec<usize>,
    pub(crate) slot: u64,
    /// Slots that ran the phase pipeline (see [`Simulator::visited_slots`]).
    visited: u64,
    /// Battery-exhausted nodes (radio permanently off).
    pub(crate) dead: Vec<bool>,
    /// Cumulative per-node energy. Engine-owned (not observer state): the
    /// energy phase must read it mid-loop to decide battery death.
    pub(crate) energy: EnergyLedger,
    /// Fault-injection runtime state (crash flags, link channels, drift).
    pub(crate) faults: FaultState,
    /// How concurrent transmissions resolve at a listener.
    pub(crate) channel: Box<dyn ChannelModel>,
    /// Built-in observers (concrete types — no dynamic dispatch on the
    /// hot path) plus any user-attached extras.
    pub(crate) metrics: MetricsObserver,
    pub(crate) trace_obs: TraceObserver,
    pub(crate) extra_observers: Vec<Box<dyn SlotObserver>>,
    // Per-slot scratch (reused across steps to avoid allocation).
    pub(crate) transmitting: Vec<bool>,
    pub(crate) listening: Vec<bool>,
    pub(crate) tx_queue_idx: Vec<usize>,
    pub(crate) successes: Vec<(usize, usize)>,
    /// Nodes that actually transmitted this slot, ascending: the election
    /// phase clears only these flags instead of all `n`, and the ARQ pass
    /// iterates them instead of scanning every node.
    pub(crate) active_tx: Vec<usize>,
    /// Nodes that actually listened this slot, ascending (same role as
    /// `active_tx` for the `listening` flags).
    pub(crate) active_rx: Vec<usize>,
    /// `active_tx` as a word mask; the channel phase resolves receptions
    /// by intersecting neighbourhoods against it.
    pub(crate) tx_mask: BitSet,
    /// The per-slot roster buffer, refilled from every node's perceived
    /// slot whenever the plan cannot supply the rosters.
    roster: PlanSlot,
    /// Cached slot plan, rebuilt in place by [`Simulator::run`] whenever
    /// plan rosters are valid (rebuilding reuses buffers, so steady-state
    /// runs stay allocation-free).
    plan_cache: Option<SlotPlan>,
    /// Cached skip-clock calendar state, buffer-reused like the plan.
    skip_cache: Option<SkipState>,
}

/// Where a visited slot's rosters come from (see the `plan` module).
enum Rosters<'a> {
    /// Borrowed from the cached [`SlotPlan`] (frame-periodic MAC, zero
    /// drift).
    Plan(Roster<'a>),
    /// Refilled into a reused buffer from every node's MAC answer at its
    /// own perceived slot.
    Perceived(&'a mut PlanSlot),
}

impl Simulator {
    /// Creates a simulator over `topo` with the given workload and config.
    ///
    /// Panics on invalid configuration; [`Simulator::try_new`] is the
    /// fallible equivalent.
    pub fn new(topo: Topology, pattern: TrafficPattern, config: SimConfig) -> Simulator {
        match Simulator::try_new(topo, pattern, config) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a simulator over `topo`, rejecting invalid configuration
    /// (out-of-range sink, bad miss probability, bad fault plan) as a
    /// typed [`SimError`] instead of panicking. Routed through
    /// [`SimulatorBuilder`].
    pub fn try_new(
        topo: Topology,
        pattern: TrafficPattern,
        config: SimConfig,
    ) -> Result<Simulator, SimError> {
        SimulatorBuilder::new(topo, pattern).config(config).build()
    }

    /// Assembles a validated simulator; only [`SimulatorBuilder::build`]
    /// calls this.
    pub(crate) fn assemble(
        topo: Topology,
        pattern: TrafficPattern,
        config: SimConfig,
        channel: Box<dyn ChannelModel>,
        extra_observers: Vec<Box<dyn SlotObserver>>,
    ) -> Simulator {
        let n = topo.num_nodes();
        let mut sim = Simulator {
            topo,
            pattern,
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            // Pre-reserved so a stable offered load never triggers a
            // mid-run doubling (capacity growth would make the step loop
            // allocate; bench_sim asserts it doesn't). Loads that backlog
            // deeper than this still grow on demand.
            queues: (0..n).map(|_| VecDeque::with_capacity(64)).collect(),
            routing: vec![usize::MAX; n],
            slot: 0,
            visited: 0,
            dead: vec![false; n],
            energy: EnergyLedger::new(n),
            faults: FaultState::new(config.faults, n, config.seed),
            channel,
            metrics: MetricsObserver::new(),
            trace_obs: TraceObserver::new(config.trace_capacity),
            extra_observers,
            transmitting: vec![false; n],
            listening: vec![false; n],
            tx_queue_idx: vec![usize::MAX; n],
            successes: Vec::with_capacity(n),
            active_tx: Vec::with_capacity(n),
            active_rx: Vec::with_capacity(n),
            tx_mask: BitSet::new(n),
            roster: PlanSlot::with_capacity(n),
            plan_cache: None,
            skip_cache: None,
        };
        sim.rebuild_routing();
        sim
    }

    /// The current topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Replaces the topology (mobility/churn) and recomputes routes.
    pub fn set_topology(&mut self, topo: Topology) {
        assert_eq!(
            topo.num_nodes(),
            self.topo.num_nodes(),
            "node count is fixed"
        );
        self.topo = topo;
        self.rebuild_routing();
    }

    /// Current slot counter.
    pub fn current_slot(&self) -> u64 {
        self.slot
    }

    /// How many slots actually ran the phase pipeline so far — every
    /// [`Simulator::step`], and the slots [`Simulator::run`] visited. A
    /// work counter, not a result: the skip clock's calendar keeps it far
    /// below [`current_slot`](Simulator::current_slot) while the
    /// [`SimReport`] stays that of visiting every slot.
    pub fn visited_slots(&self) -> u64 {
        self.visited
    }

    /// Enables physical capture: `positions[v]` is node `v`'s coordinate
    /// (e.g. from [`crate::GeometricNetwork::positions`]). Replaces the
    /// channel model with a [`crate::CaptureChannel`].
    ///
    /// Panics on invalid input; [`Simulator::try_enable_capture`] is the
    /// fallible equivalent.
    pub fn enable_capture(&mut self, positions: Vec<(f64, f64)>, model: CaptureModel) {
        if let Err(e) = self.try_enable_capture(positions, model) {
            panic!("{e}");
        }
    }

    /// Enables physical capture, rejecting invalid input as a typed
    /// [`SimError`] instead of panicking.
    pub fn try_enable_capture(
        &mut self,
        positions: Vec<(f64, f64)>,
        model: CaptureModel,
    ) -> Result<(), SimError> {
        if positions.len() != self.topo.num_nodes() {
            return Err(SimError::PositionCountMismatch {
                positions: positions.len(),
                nodes: self.topo.num_nodes(),
            });
        }
        if model.ratio < 1.0 {
            return Err(SimError::CaptureRatioTooSmall { ratio: model.ratio });
        }
        self.channel = Box::new(crate::channel::CaptureChannel::new(positions, model));
        Ok(())
    }

    /// Replaces the channel model mid-run (e.g. to degrade conditions).
    pub fn set_channel(&mut self, channel: impl ChannelModel + 'static) {
        self.channel = Box::new(channel);
    }

    /// The user-attached observers, in attachment order (the built-in
    /// metrics and trace observers are not included).
    pub fn observers(&self) -> &[Box<dyn SlotObserver>] {
        &self.extra_observers
    }

    fn rebuild_routing(&mut self) {
        if let Some(sink) = self.pattern.sink() {
            let dist = self.topo.bfs_distances(sink);
            let n = self.topo.num_nodes();
            for v in 0..n {
                self.routing[v] = if v == sink || dist[v] == usize::MAX {
                    usize::MAX
                } else {
                    // Any neighbour one hop closer to the sink.
                    self.topo
                        .neighbors(v)
                        .iter()
                        .find(|&w| dist[w] + 1 == dist[v])
                        .unwrap_or(usize::MAX)
                };
            }
        }
    }

    /// The next hop for a packet currently held by `holder`.
    pub(crate) fn next_hop(&self, holder: usize, packet: &Packet) -> usize {
        match self.pattern {
            TrafficPattern::Convergecast { .. } => self.routing[holder],
            _ => packet.final_dst,
        }
    }

    /// Announces `event` to every observer: the built-in metrics and trace
    /// recorders first, then user extras in attachment order.
    #[inline]
    pub(crate) fn emit(&mut self, event: SlotEvent) {
        self.metrics.on_event(self.slot, &event);
        self.trace_obs.on_event(self.slot, &event);
        for obs in &mut self.extra_observers {
            obs.on_event(self.slot, &event);
        }
    }

    /// Advances one slot under `mac`, with rosters rebuilt from every
    /// node's MAC answers at its perceived slot. This is the reference
    /// [`Simulator::run`] is verified against: `run` only changes where
    /// the rosters come from and which slots it visits, never what a
    /// visited slot does.
    pub fn step(&mut self, mac: &dyn MacProtocol) {
        let mut roster = std::mem::take(&mut self.roster);
        self.step_with(mac, Rosters::Perceived(&mut roster), None);
        self.roster = roster;
    }

    /// Runs the seven-phase pipeline (the module-level docs list the
    /// phases) over one slot's rosters and closes the slot for every
    /// observer. `unsettled` is the skip clock's per-node energy marks:
    /// when present, only the slot's transmitters are charged (each after
    /// settling its idle span); every other node's slot joins its
    /// uncharged span.
    fn step_with(
        &mut self,
        mac: &dyn MacProtocol,
        rosters: Rosters<'_>,
        unsettled: Option<&mut Unsettled>,
    ) {
        self.visited += 1;
        phases::faults::run(self);
        // Drift accrues in the fault phase, so perceived rosters fill
        // after it. Filling draws no randomness.
        let roster = match rosters {
            Rosters::Plan(roster) => roster,
            Rosters::Perceived(roster) => {
                let (slot, faults) = (self.slot, &self.faults);
                roster.refill(mac, self.topo.num_nodes(), |v| {
                    faults.perceived_slot(v, slot)
                });
                roster.view()
            }
        };
        phases::traffic::run(self);
        phases::election::run(self, mac, roster.tx);
        phases::channel::run(self, roster.rx);
        phases::delivery::run(self);
        phases::arq::run(self);
        phases::energy::run(self, roster.awake, unsettled);
        self.close_slot();
    }

    /// Announces the slot boundary to every observer and advances time.
    fn close_slot(&mut self) {
        let slot = self.slot;
        self.metrics.on_slot_end(slot);
        self.trace_obs.on_slot_end(slot);
        for obs in &mut self.extra_observers {
            obs.on_slot_end(slot);
        }
        self.slot += 1;
    }

    /// `true` when slot `s`'s rosters are frame slot `s mod L`'s, so the
    /// cached [`SlotPlan`] can supply them: the MAC must genuinely be
    /// frame-periodic, and clock drift must be off (a drifted node
    /// consults the schedule at its *perceived* slot, which no per-frame
    /// plan can represent).
    fn plan_valid(&self, mac: &dyn MacProtocol) -> bool {
        mac.frame_periodic() && mac.frame_length() > 0 && self.faults.plan().clock_drift == 0.0
    }

    /// `true` when, on top of plan rosters, the skip clock may jump over
    /// *boring* slots (no scheduled transmitter with a backlog, no
    /// traffic generation): such slots must provably consume no
    /// randomness and emit no event.
    ///
    /// * sync-miss off — a miss roll draws per roster transmitter/listener
    ///   even when idle;
    /// * no crash plan — crash/recovery draws every slot and changes
    ///   radio states off-calendar (per-link loss and bursty GE spans are
    ///   fine: their lazily-advanced chains only draw on actual
    ///   receptions);
    /// * no Poisson-style traffic — only saturated broadcast (transmits
    ///   on schedule) and CBR (a closed-form generation calendar) are
    ///   predictable;
    /// * no user observers — they may watch `on_slot_end` for slots the
    ///   clock never visits;
    /// * a sane energy model — lazy settlement fast-forwards repeated
    ///   `f64` addition, which requires finite non-negative slot costs.
    fn skip_eligible(&self) -> bool {
        let e = &self.config.energy;
        let energies_sane = [RadioState::Transmit, RadioState::Listen, RadioState::Sleep]
            .iter()
            .all(|&s| {
                let mj = e.slot_energy_mj(s);
                mj.is_finite() && mj >= 0.0
            });
        self.config.miss_probability == 0.0
            && self.faults.plan().crash.is_none()
            && self.extra_observers.is_empty()
            && energies_sane
            && matches!(
                self.pattern,
                TrafficPattern::SaturatedBroadcast | TrafficPattern::CbrUnicast { .. }
            )
    }

    /// Runs `slots` consecutive slots under `mac`.
    ///
    /// Every visited slot runs the same pipeline as [`Simulator::step`];
    /// `run` only chooses, from what it can observe, where the rosters
    /// come from and which slots to visit:
    ///
    /// * **rosters** — borrowed from the cached [`SlotPlan`] when the MAC
    ///   is frame-periodic and clock drift is off, otherwise refilled
    ///   every slot from each node's perceived slot (as `step` does);
    /// * **clock** — every slot, or, when the run's randomness can be
    ///   calendared (see `skip_eligible`) and it spans at least a frame
    ///   (the skip clock fills the whole plan up front), only the
    ///   *interesting* slots, settling each node's idle span lazily.
    ///
    /// The choice is purely a performance decision: reports and traces
    /// are bit-identical to a loop of `step` calls, which the golden
    /// fixtures and the equivalence proptests pin.
    pub fn run(&mut self, mac: &dyn MacProtocol, slots: u64) {
        if slots == 0 {
            return;
        }
        if !self.plan_valid(mac) {
            for _ in 0..slots {
                self.step(mac);
            }
            return;
        }
        // Rebuild the plan into the cached buffers: the refill allocates
        // only when the frame/node shape actually grew, so repeated runs
        // under the same MAC keep the whole loop heap-silent.
        let n = self.topo.num_nodes();
        let mut plan = match self.plan_cache.take() {
            Some(mut plan) => {
                plan.rebuild(mac, n);
                plan
            }
            None => SlotPlan::build(mac, n),
        };
        if slots >= plan.frame_length() as u64 && self.skip_eligible() {
            self.run_skip_clock(mac, &mut plan, slots);
        } else {
            for _ in 0..slots {
                // Lazy fill: rosters materialise the first time a frame
                // slot is visited, so short runs under huge frames (TTDC's
                // frame grows ~n^2.25) never pay for slots they don't
                // reach.
                plan.ensure_filled(mac, plan.slot_index(self.slot));
                self.step_planned(mac, &plan, None);
            }
        }
        self.plan_cache = Some(plan);
    }

    /// Runs the current slot over `plan`'s rosters (which must be filled).
    fn step_planned(
        &mut self,
        mac: &dyn MacProtocol,
        plan: &SlotPlan,
        unsettled: Option<&mut Unsettled>,
    ) {
        let roster = plan.slot(plan.slot_index(self.slot));
        self.step_with(mac, Rosters::Plan(roster), unsettled);
    }

    /// The skip clock: jumps between *interesting* slots (traffic
    /// generation, useful transmit occurrences of backlogged nodes — see
    /// the `events` module) and runs the ordinary step in each. Nothing
    /// is charged for the slots in between: each node's idle span
    /// (listen occurrences and sleep) is settled bit-exactly when it is
    /// next awake in a visited slot, or at a flush.
    ///
    /// With a battery capacity configured, skipping proceeds in *epochs*:
    /// each skip window is bounded so that no node can possibly deplete
    /// inside it (half the minimum live headroom at the most expensive
    /// radio state), and when a depletion is near the clock visits every
    /// slot for a window so deaths land on exactly the slot they would
    /// under `step`.
    fn run_skip_clock(&mut self, mac: &dyn MacProtocol, plan: &mut SlotPlan, slots: u64) {
        // Below this many slots of guaranteed headroom, step instead of
        // opening another (flush_all-bracketed) epoch.
        const MIN_EPOCH: u64 = 16;
        // How many slots to step when a depletion is imminent.
        const STEPPED_WINDOW: u64 = 64;
        // Eager fill: the calendar's occurrence lists need every roster.
        plan.ensure_filled(mac, plan.frame_length() - 1);
        let plan = &*plan;
        let mut skip = self.skip_cache.take().unwrap_or_default();
        skip.prepare(self, plan);
        let end = self.slot + slots;
        while self.slot < end {
            // Battery epoch: a window no node can deplete within. The
            // ledger is settled here (prepare/resettle/flush_all all
            // leave it settled), so the headroom is exact.
            let bound = match self.config.battery_capacity_mj {
                Some(cap) => {
                    let h = self.battery_epoch_slots(cap);
                    if h < MIN_EPOCH {
                        // Depletion imminent: visit every slot so the
                        // death lands on its exact slot, then re-sync the
                        // calendar.
                        for _ in 0..STEPPED_WINDOW.min(end - self.slot) {
                            self.step_planned(mac, plan, None);
                        }
                        skip.resettle(self);
                        continue;
                    }
                    end.min(self.slot.saturating_add(h))
                }
                None => end,
            };
            while self.slot < bound {
                self.slot = skip.next_interesting(self).min(bound);
                if self.slot >= bound {
                    break;
                }
                skip.pop_due(self.slot);
                self.step_planned(mac, plan, Some(&mut skip.unsettled));
                skip.rearm_after_step(self, plan, self.slot - 1);
            }
            if self.config.battery_capacity_mj.is_some() {
                // Settle at the epoch boundary so the next headroom (and
                // any imminent-death window) computes on real numbers.
                phases::energy::flush_all(self, &mut skip.unsettled);
            }
        }
        phases::energy::flush_all(self, &mut skip.unsettled);
        self.skip_cache = Some(skip);
    }

    /// How many slots are *guaranteed* death-free from a settled ledger:
    /// half the minimum live headroom at the most expensive radio state.
    /// `0` means a depletion is imminent (or the capacity is unreachable
    /// nonsense like NaN) and the caller must step slot by slot;
    /// `u64::MAX` means nobody can ever die (all dead, or a free energy
    /// model).
    fn battery_epoch_slots(&self, cap: f64) -> u64 {
        let e = &self.config.energy;
        let max_slot_mj = e
            .slot_energy_mj(RadioState::Transmit)
            .max(e.slot_energy_mj(RadioState::Listen))
            .max(e.slot_energy_mj(RadioState::Sleep));
        let mut min_head = f64::INFINITY;
        for (v, &c) in self.energy.consumed_mj.iter().enumerate() {
            if !self.dead[v] {
                min_head = min_head.min(cap - c);
            }
        }
        if min_head == f64::INFINITY {
            return u64::MAX; // everyone is already dead
        }
        if min_head <= 0.0 || min_head.is_nan() {
            return 0; // imminent (or NaN capacity): step it out
        }
        if max_slot_mj == 0.0 {
            return u64::MAX; // free radios: nobody can ever deplete
        }
        let h = (0.5 * min_head / max_slot_mj).floor();
        if h >= u64::MAX as f64 {
            u64::MAX
        } else {
            h as u64
        }
    }

    /// Snapshot of the metrics so far: the metrics observer's counters
    /// plus the engine-owned slot count, backlog, energy ledger, and the
    /// trace observer's retained events.
    pub fn report(&self) -> SimReport {
        let mut r = self.metrics.snapshot().clone();
        r.slots = self.slot;
        r.backlog = self.queues.iter().map(|q| q.len() as u64).sum();
        r.energy = self.energy.clone();
        r.trace = self.trace_obs.trace().clone();
        r
    }

    /// The energy model in effect.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.config.energy
    }

    /// `true` if `node` has exhausted its battery.
    pub fn is_dead(&self, node: usize) -> bool {
        self.dead[node]
    }

    /// Number of battery-dead nodes so far.
    pub fn dead_count(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// `true` if `node` is transiently crashed (fault injection; disjoint
    /// from battery death).
    pub fn is_crashed(&self, node: usize) -> bool {
        self.faults.is_crashed(node)
    }

    /// Number of currently-crashed nodes.
    pub fn crashed_count(&self) -> usize {
        self.faults.crashed_count()
    }
}
