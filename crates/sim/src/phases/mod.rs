//! The slot-phase pipeline.
//!
//! One simulated slot is seven phases, run in fixed order for every slot
//! the engine visits ([`Simulator::step`](crate::Simulator::step) and
//! [`Simulator::run`](crate::Simulator::run) alike):
//!
//! 1. [`faults`] — crash/recovery transitions and clock-drift accrual;
//! 2. [`traffic`] — workload packet generation;
//! 3. [`election`] — transmit decisions (schedule, sync-miss roll,
//!    p-persistence, stale-packet drop, schedule-aware packet choice);
//! 4. [`channel`] — listen decisions and reception resolution through the
//!    configured [`ChannelModel`](crate::ChannelModel);
//! 5. [`delivery`] — applying successful handoffs;
//! 6. [`arq`] — the bounded link-layer retry pass;
//! 7. [`energy`] — radio-state accounting and battery death.
//!
//! Each phase is a free function over the engine state and the slot's
//! rosters; anything observable is announced as a
//! [`SlotEvent`](crate::SlotEvent) rather than recorded inline. Election,
//! channel and energy walk the ascending transmitter, listener and awake
//! rosters the engine hands in — the slot's `(T_i, R_i)` pair — and never
//! scan all `n` nodes for the schedule; ARQ walks the actual transmitters.
//! Where the rosters come from (the cached frame-periodic
//! [`SlotPlan`](crate::SlotPlan), or a per-slot refill from each node's
//! perceived slot) and which slots are visited at all (every slot, or the
//! skip clock's calendar) is the engine's business, not the phases': one
//! phase implementation serves every roster source and clock. The only
//! clock-dependent knob is the energy phase's lazy mode, in which only
//! the slot's transmitters are charged and every other node's idle span
//! (listens and sleep) is settled later in one exact fold.
//!
//! Phases communicate only through per-slot scratch on the `Simulator`
//! (`transmitting`, `listening`, `tx_queue_idx`, `successes`, the
//! `active_tx`/`active_rx` rosters of actual transmitters and listeners
//! with the `tx_mask` word mask), all pre-allocated — the steady-state
//! step loop performs zero heap allocations (asserted by
//! `tests/alloc_audit.rs`).
//!
//! **RNG-draw-order compatibility rule** (see `DESIGN.md`): phases consume
//! the main RNG stream in pipeline order, node-index order within a phase,
//! and must keep every draw behind the exact gating condition that guarded
//! it before — adding, removing, or reordering a draw (or a short-circuit
//! in front of one) silently re-randomizes every later decision in the
//! run. The golden fixture tests pin this bit-for-bit.

pub(crate) mod arq;
pub(crate) mod channel;
pub(crate) mod delivery;
pub(crate) mod election;
pub(crate) mod energy;
pub(crate) mod faults;
pub(crate) mod traffic;
