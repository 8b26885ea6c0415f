//! Sensor fault injection.
//!
//! Real deployments (the paper's agricultural motivation, §II.2) see
//! sensors mis-behave long before they die: readings freeze, spike, or
//! vanish. The fault injector perturbs probe output so the middleware's
//! robustness claims can be exercised in tests and benches.

use sensorcer_sim::rng::SimRng;

/// Stochastic fault behaviour applied after the signal model and before
/// calibration.
#[derive(Clone, Debug, Default)]
pub struct FaultModel {
    /// Probability a sample is simply not delivered (loose wire).
    pub dropout_prob: f64,
    /// Probability a sample is replaced by the previous delivered value
    /// (stuck ADC latch).
    pub stuck_prob: f64,
    /// Probability a sample is displaced by a large spike.
    pub spike_prob: f64,
    /// Magnitude of injected spikes (± uniform up to this value).
    pub spike_magnitude: f64,
}

/// Outcome of passing a raw value through the fault model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultOutcome {
    /// Value delivered unchanged.
    Clean(f64),
    /// Value replaced by the last delivered value.
    Stuck(f64),
    /// Value displaced by a spike (delivered, but wrong).
    Spiked(f64),
    /// Nothing delivered.
    Dropout,
}

/// Stateful injector owning the "last delivered" memory for stuck faults.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    model: FaultModel,
    last_delivered: Option<f64>,
}

impl FaultInjector {
    pub fn new(model: FaultModel) -> Self {
        FaultInjector {
            model,
            last_delivered: None,
        }
    }

    /// A model that never faults.
    pub fn none() -> Self {
        FaultInjector::default()
    }

    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Pass a raw value through the model. Fault classes are checked in
    /// order dropout → stuck → spike, at most one per sample.
    pub fn inject(&mut self, raw: f64, rng: &mut SimRng) -> FaultOutcome {
        if rng.chance(self.model.dropout_prob) {
            return FaultOutcome::Dropout;
        }
        if rng.chance(self.model.stuck_prob) {
            if let Some(prev) = self.last_delivered {
                return FaultOutcome::Stuck(prev);
            }
        }
        if rng.chance(self.model.spike_prob) {
            let spike = rng.range_f64(-self.model.spike_magnitude, self.model.spike_magnitude);
            let v = raw + spike;
            self.last_delivered = Some(v);
            return FaultOutcome::Spiked(v);
        }
        self.last_delivered = Some(raw);
        FaultOutcome::Clean(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_passes_through() {
        let mut inj = FaultInjector::none();
        let mut rng = SimRng::new(1);
        for i in 0..100 {
            assert_eq!(
                inj.inject(i as f64, &mut rng),
                FaultOutcome::Clean(i as f64)
            );
        }
    }

    #[test]
    fn full_dropout_delivers_nothing() {
        let mut inj = FaultInjector::new(FaultModel {
            dropout_prob: 1.0,
            ..Default::default()
        });
        let mut rng = SimRng::new(2);
        assert_eq!(inj.inject(5.0, &mut rng), FaultOutcome::Dropout);
    }

    #[test]
    fn stuck_repeats_last_delivered() {
        let mut inj = FaultInjector::new(FaultModel {
            stuck_prob: 1.0,
            ..Default::default()
        });
        let mut rng = SimRng::new(3);
        // First sample has no memory yet → delivered clean.
        assert_eq!(inj.inject(1.0, &mut rng), FaultOutcome::Clean(1.0));
        assert_eq!(inj.inject(2.0, &mut rng), FaultOutcome::Stuck(1.0));
        assert_eq!(inj.inject(3.0, &mut rng), FaultOutcome::Stuck(1.0));
    }

    #[test]
    fn spikes_are_bounded_and_flagged() {
        let mut inj = FaultInjector::new(FaultModel {
            spike_prob: 1.0,
            spike_magnitude: 10.0,
            ..Default::default()
        });
        let mut rng = SimRng::new(4);
        for _ in 0..100 {
            match inj.inject(0.0, &mut rng) {
                FaultOutcome::Spiked(v) => {
                    assert!(v.abs() <= 10.0, "{v}");
                }
                other => panic!("expected spike, got {other:?}"),
            }
        }
    }

    #[test]
    fn probabilistic_rates_roughly_hold() {
        let mut inj = FaultInjector::new(FaultModel {
            dropout_prob: 0.2,
            ..Default::default()
        });
        let mut rng = SimRng::new(5);
        let n = 10_000;
        let drops = (0..n)
            .filter(|_| matches!(inj.inject(1.0, &mut rng), FaultOutcome::Dropout))
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "dropout rate {rate}");
    }
}
