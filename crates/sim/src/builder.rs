//! The one construction path for [`Simulator`]s.
//!
//! [`SimulatorBuilder`] validates every knob once, assembles the channel
//! model and observer set, and hands back a ready simulator.
//! [`Simulator::new`] and [`Simulator::try_new`] are thin wrappers around
//! it, so legacy call sites and builder call sites construct byte-identical
//! engines.
//!
//! ```
//! use ttdc_sim::{SimulatorBuilder, Topology, TrafficPattern};
//!
//! let sim = SimulatorBuilder::new(
//!     Topology::ring(8),
//!     TrafficPattern::PoissonUnicast { rate: 0.05 },
//! )
//! .seed(7)
//! .trace_capacity(256)
//! .build()
//! .expect("valid configuration");
//! assert_eq!(sim.topology().num_nodes(), 8);
//! ```

use crate::channel::{CaptureChannel, CaptureModel, ChannelModel, IdealChannel};
use crate::energy::EnergyModel;
use crate::engine::{SimConfig, Simulator};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::observer::SlotObserver;
use crate::topology::Topology;
use crate::traffic::TrafficPattern;

/// How the builder was asked to resolve receptions; the last channel- or
/// capture-setting call wins.
enum ChannelChoice {
    Ideal,
    Capture(Vec<(f64, f64)>, CaptureModel),
    Custom(Box<dyn ChannelModel>),
}

/// Step-by-step construction of a [`Simulator`].
///
/// Start from a topology and workload, override knobs as needed, then
/// [`build`](SimulatorBuilder::build). Every validation the old
/// constructors performed happens in `build`, as typed [`SimError`]s.
pub struct SimulatorBuilder {
    topo: Topology,
    pattern: TrafficPattern,
    config: SimConfig,
    channel: ChannelChoice,
    observers: Vec<Box<dyn SlotObserver>>,
}

impl SimulatorBuilder {
    /// A builder over `topo` running `pattern`, with default config, the
    /// ideal channel, and no extra observers.
    pub fn new(topo: Topology, pattern: TrafficPattern) -> SimulatorBuilder {
        SimulatorBuilder {
            topo,
            pattern,
            config: SimConfig::default(),
            channel: ChannelChoice::Ideal,
            observers: Vec::new(),
        }
    }

    /// Replaces the whole [`SimConfig`] at once (knob setters below still
    /// apply on top).
    pub fn config(mut self, config: SimConfig) -> SimulatorBuilder {
        self.config = config;
        self
    }

    /// Sets the RNG seed (everything is deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> SimulatorBuilder {
        self.config.seed = seed;
        self
    }

    /// Sets the radio energy model.
    pub fn energy(mut self, energy: EnergyModel) -> SimulatorBuilder {
        self.config.energy = energy;
        self
    }

    /// Sets the fault-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> SimulatorBuilder {
        self.config.faults = faults;
        self
    }

    /// Sets the synchronization-miss probability (validated in `build`).
    pub fn miss_probability(mut self, miss: f64) -> SimulatorBuilder {
        self.config.miss_probability = miss;
        self
    }

    /// Chooses eager (`false`) or schedule-aware (`true`) senders.
    pub fn schedule_aware_senders(mut self, aware: bool) -> SimulatorBuilder {
        self.config.schedule_aware_senders = aware;
        self
    }

    /// Gives every node a finite battery of `capacity_mj` millijoules.
    pub fn battery_capacity_mj(mut self, capacity_mj: f64) -> SimulatorBuilder {
        self.config.battery_capacity_mj = Some(capacity_mj);
        self
    }

    /// Enables event tracing with the given ring-buffer capacity.
    pub fn trace_capacity(mut self, capacity: usize) -> SimulatorBuilder {
        self.config.trace_capacity = capacity;
        self
    }

    /// Resolves receptions with physical capture over node coordinates
    /// (`positions[v]` is node `v`'s location). Validated in `build`.
    pub fn capture(mut self, positions: Vec<(f64, f64)>, model: CaptureModel) -> SimulatorBuilder {
        self.channel = ChannelChoice::Capture(positions, model);
        self
    }

    /// Resolves receptions with a custom [`ChannelModel`].
    pub fn channel(mut self, channel: impl ChannelModel + 'static) -> SimulatorBuilder {
        self.channel = ChannelChoice::Custom(Box::new(channel));
        self
    }

    /// Attaches an extra [`SlotObserver`]; it sees every event after the
    /// built-in metrics and trace observers. May be called repeatedly.
    pub fn observer(mut self, observer: impl SlotObserver + 'static) -> SimulatorBuilder {
        self.observers.push(Box::new(observer));
        self
    }

    /// Validates the configuration and assembles the simulator.
    pub fn build(self) -> Result<Simulator, SimError> {
        let n = self.topo.num_nodes();
        match self.pattern {
            TrafficPattern::Convergecast { sink, .. } if sink >= n => {
                return Err(SimError::SinkOutOfRange { sink, nodes: n });
            }
            TrafficPattern::CbrUnicast { period: 0 } => return Err(SimError::ZeroCbrPeriod),
            TrafficPattern::PoissonUnicast { rate } | TrafficPattern::Convergecast { rate, .. }
                if !(0.0..=1.0).contains(&rate) =>
            {
                return Err(SimError::InvalidProbability {
                    what: "traffic generation rate",
                    value: rate,
                });
            }
            _ => {}
        }
        if !(0.0..=1.0).contains(&self.config.miss_probability) {
            return Err(SimError::InvalidMissProbability {
                value: self.config.miss_probability,
            });
        }
        self.config.faults.validate()?;
        let channel: Box<dyn ChannelModel> = match self.channel {
            ChannelChoice::Ideal => Box::new(IdealChannel),
            ChannelChoice::Capture(positions, model) => {
                if positions.len() != n {
                    return Err(SimError::PositionCountMismatch {
                        positions: positions.len(),
                        nodes: n,
                    });
                }
                if model.ratio < 1.0 {
                    return Err(SimError::CaptureRatioTooSmall { ratio: model.ratio });
                }
                Box::new(CaptureChannel::new(positions, model))
            }
            ChannelChoice::Custom(channel) => channel,
        };
        Ok(Simulator::assemble(
            self.topo,
            self.pattern,
            self.config,
            channel,
            self.observers,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::SlotEvent;

    #[test]
    fn builder_validates_like_try_new() {
        let err = SimulatorBuilder::new(
            Topology::line(2),
            TrafficPattern::Convergecast { sink: 5, rate: 0.1 },
        )
        .build()
        .unwrap_err();
        assert_eq!(err, SimError::SinkOutOfRange { sink: 5, nodes: 2 });

        let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .miss_probability(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidMissProbability { .. }));

        let err = SimulatorBuilder::new(Topology::line(3), TrafficPattern::SaturatedBroadcast)
            .capture(vec![(0.0, 0.0)], CaptureModel { ratio: 2.0 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::PositionCountMismatch {
                positions: 1,
                nodes: 3
            }
        );

        let err = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .capture(vec![(0.0, 0.0), (1.0, 0.0)], CaptureModel { ratio: 0.5 })
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::CaptureRatioTooSmall { ratio: 0.5 });
    }

    #[test]
    fn builder_rejects_a_zero_cbr_period() {
        let err =
            SimulatorBuilder::new(Topology::line(2), TrafficPattern::CbrUnicast { period: 0 })
                .build()
                .unwrap_err();
        assert_eq!(err, SimError::ZeroCbrPeriod);
        assert!(
            SimulatorBuilder::new(Topology::line(2), TrafficPattern::CbrUnicast { period: 1 })
                .build()
                .is_ok()
        );
    }

    #[test]
    fn builder_rejects_generation_rates_outside_the_unit_interval() {
        for rate in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            for pattern in [
                TrafficPattern::PoissonUnicast { rate },
                TrafficPattern::Convergecast { sink: 0, rate },
            ] {
                let err = SimulatorBuilder::new(Topology::line(2), pattern)
                    .build()
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        SimError::InvalidProbability {
                            what: "traffic generation rate",
                            ..
                        }
                    ),
                    "{pattern:?}: {err}"
                );
            }
        }
        // The closed interval's endpoints are valid rates.
        for rate in [0.0, 1.0] {
            assert!(SimulatorBuilder::new(
                Topology::line(2),
                TrafficPattern::PoissonUnicast { rate }
            )
            .build()
            .is_ok());
        }
    }

    #[test]
    fn builder_and_legacy_constructor_agree_bit_for_bit() {
        let mk_topo = || Topology::ring(6);
        let config = SimConfig {
            seed: 11,
            miss_probability: 0.1,
            trace_capacity: 128,
            ..Default::default()
        };
        let mac = crate::mac::ScheduleMac::new(
            "rr",
            ttdc_core::Schedule::non_sleeping(
                6,
                (0..6)
                    .map(|i| ttdc_util::BitSet::from_iter(6, [i]))
                    .collect(),
            ),
        );
        let mut legacy = Simulator::new(
            mk_topo(),
            TrafficPattern::PoissonUnicast { rate: 0.2 },
            config,
        );
        let mut built =
            SimulatorBuilder::new(mk_topo(), TrafficPattern::PoissonUnicast { rate: 0.2 })
                .config(config)
                .build()
                .unwrap();
        legacy.run(&mac, 400);
        built.run(&mac, 400);
        let (a, b) = (legacy.report(), built.report());
        assert_eq!(
            (a.generated, a.delivered, a.collisions),
            (b.generated, b.delivered, b.collisions)
        );
        assert_eq!(a.energy.consumed_mj, b.energy.consumed_mj);
        let ta: Vec<_> = a.trace.events().collect();
        let tb: Vec<_> = b.trace.events().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn extra_observers_see_the_event_stream() {
        #[derive(Debug, Default)]
        struct Counter {
            events: u64,
            slots: u64,
        }
        impl SlotObserver for Counter {
            fn on_event(&mut self, _slot: u64, _event: &SlotEvent) {
                self.events += 1;
            }
            fn on_slot_end(&mut self, _slot: u64) {
                self.slots += 1;
            }
        }
        // Saturated round-robin pair: one Transmitted + one LinkSuccess
        // per slot.
        let mac = crate::mac::ScheduleMac::new(
            "rr",
            ttdc_core::Schedule::non_sleeping(
                2,
                (0..2)
                    .map(|i| ttdc_util::BitSet::from_iter(2, [i]))
                    .collect(),
            ),
        );
        let mut sim = SimulatorBuilder::new(Topology::line(2), TrafficPattern::SaturatedBroadcast)
            .observer(Counter::default())
            .build()
            .unwrap();
        sim.run(&mac, 10);
        let obs = sim.observers();
        let counter = format!("{:?}", obs[0]);
        assert!(counter.contains("events: 20"), "{counter}");
        assert!(counter.contains("slots: 10"), "{counter}");
    }
}
