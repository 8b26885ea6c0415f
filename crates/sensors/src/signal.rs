//! Ground-truth signal models.
//!
//! The paper's testbed read real SunSPOT temperature sensors in a lab; the
//! reproduction substitutes synthetic physical signals. Each probe owns a
//! [`Signal`] describing the true value of the measured quantity as a
//! function of virtual time (plus a stochastic component evolved on each
//! sample), before any sensor imperfection is applied.

use sensorcer_sim::rng::SimRng;
use sensorcer_sim::time::SimTime;

/// A ground-truth signal evaluated at sampling instants.
#[derive(Clone, Debug)]
pub enum Signal {
    /// A constant value (reference probes, bench workloads).
    Constant(f64),
    Diurnal(Diurnal),
    RandomWalk(RandomWalk),
    /// A diurnal swing with a random walk about it (the lab's temperature
    /// and humidity): the sum of the two, diurnal term first, both held
    /// inline so a sample follows no pointer.
    DiurnalWalk(Diurnal, RandomWalk),
}

/// A diurnal sinusoid: `mean + amplitude · sin(2π·(t - phase)/period)`.
/// Default period is 24 h of virtual time — indoor temperature swings.
#[derive(Clone, Copy, Debug)]
pub struct Diurnal {
    pub mean: f64,
    pub amplitude: f64,
    pub period_s: f64,
    pub phase_s: f64,
}

impl Diurnal {
    fn value_at(&self, now: SimTime) -> f64 {
        let t = now.as_secs_f64() - self.phase_s;
        self.mean + self.amplitude * (std::f64::consts::TAU * t / self.period_s).sin()
    }
}

/// A bounded random walk: each sample moves by `N(0, step)`, reflected at
/// `[min, max]` (occupancy-driven micro-climate, soil moisture).
#[derive(Clone, Copy, Debug)]
pub struct RandomWalk {
    pub start: f64,
    pub step: f64,
    pub min: f64,
    pub max: f64,
}

impl RandomWalk {
    /// Move the walk at `pos` (at `start` if it has not moved yet) one step
    /// and return where it lands.
    fn advance(&self, pos: &mut Option<f64>, rng: &mut SimRng) -> f64 {
        let cur = pos.get_or_insert(self.start);
        let mut next = *cur + rng.normal(0.0, self.step);
        // Reflect at the bounds to keep the walk inside them.
        if next > self.max {
            next = self.max - (next - self.max);
        }
        if next < self.min {
            next = self.min + (self.min - next);
        }
        *cur = next.clamp(self.min, self.max);
        *cur
    }
}

/// Evolving state for a signal instance: where its random walk stands.
#[derive(Clone, Debug, Default)]
pub struct SignalState {
    walk: Option<f64>,
}

impl Signal {
    /// A typical indoor lab temperature like the paper's deployment:
    /// ~21.5 °C with a small afternoon swing and HVAC-driven wander.
    pub fn lab_temperature() -> Signal {
        Signal::DiurnalWalk(
            Diurnal {
                mean: 21.5,
                amplitude: 1.5,
                period_s: 86_400.0,
                phase_s: 0.0,
            },
            RandomWalk {
                start: 0.0,
                step: 0.05,
                min: -1.0,
                max: 1.0,
            },
        )
    }

    /// Indoor relative humidity (%): 45 % with a ±10 % daily swing and a
    /// ±5 % wander.
    pub fn lab_humidity() -> Signal {
        Signal::DiurnalWalk(
            Diurnal {
                mean: 45.0,
                amplitude: 10.0,
                period_s: 86_400.0,
                phase_s: 43_200.0,
            },
            RandomWalk {
                start: 0.0,
                step: 0.3,
                min: -5.0,
                max: 5.0,
            },
        )
    }

    /// Evaluate the true value at `now`, evolving `state`.
    pub fn value_at(&self, now: SimTime, state: &mut SignalState, rng: &mut SimRng) -> f64 {
        match self {
            Signal::Constant(v) => *v,
            Signal::Diurnal(d) => d.value_at(now),
            Signal::RandomWalk(w) => w.advance(&mut state.walk, rng),
            Signal::DiurnalWalk(d, w) => d.value_at(now) + w.advance(&mut state.walk, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sim::time::SimDuration;

    #[test]
    fn constant_is_constant() {
        let s = Signal::Constant(42.0);
        let mut st = SignalState::default();
        let mut rng = SimRng::new(1);
        for i in 0..10 {
            let t = SimTime::ZERO + SimDuration::from_secs(i);
            assert_eq!(s.value_at(t, &mut st, &mut rng), 42.0);
        }
    }

    #[test]
    fn diurnal_peaks_quarter_period_in() {
        let s = Signal::Diurnal(Diurnal {
            mean: 20.0,
            amplitude: 4.0,
            period_s: 86_400.0,
            phase_s: 0.0,
        });
        let mut st = SignalState::default();
        let mut rng = SimRng::new(1);
        let quarter = SimTime::ZERO + SimDuration::from_secs(21_600);
        let v = s.value_at(quarter, &mut st, &mut rng);
        assert!((v - 24.0).abs() < 1e-9, "{v}");
        let v0 = s.value_at(SimTime::ZERO, &mut st, &mut rng);
        assert!((v0 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn random_walk_stays_bounded() {
        let s = Signal::RandomWalk(RandomWalk {
            start: 0.0,
            step: 0.5,
            min: -1.0,
            max: 1.0,
        });
        let mut st = SignalState::default();
        let mut rng = SimRng::new(7);
        for i in 0..5_000 {
            let t = SimTime::ZERO + SimDuration::from_secs(i);
            let v = s.value_at(t, &mut st, &mut rng);
            assert!((-1.0..=1.0).contains(&v), "escaped bounds: {v}");
        }
    }

    #[test]
    fn random_walk_actually_moves() {
        let s = Signal::RandomWalk(RandomWalk {
            start: 0.0,
            step: 0.1,
            min: -10.0,
            max: 10.0,
        });
        let mut st = SignalState::default();
        let mut rng = SimRng::new(3);
        let first = s.value_at(SimTime::ZERO, &mut st, &mut rng);
        let later: Vec<f64> = (1..20)
            .map(|i| s.value_at(SimTime(i), &mut st, &mut rng))
            .collect();
        assert!(later.iter().any(|v| (v - first).abs() > 1e-12));
    }

    #[test]
    fn lab_temperature_is_plausible() {
        let s = Signal::lab_temperature();
        let mut st = SignalState::default();
        let mut rng = SimRng::new(11);
        for i in 0..1000 {
            let t = SimTime::ZERO + SimDuration::from_secs(i * 60);
            let v = s.value_at(t, &mut st, &mut rng);
            assert!((17.0..=26.0).contains(&v), "implausible lab temp {v}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = Signal::lab_temperature();
        let run = |seed| {
            let mut st = SignalState::default();
            let mut rng = SimRng::new(seed);
            (0..50)
                .map(|i| s.value_at(SimTime(i * 1_000_000_000), &mut st, &mut rng))
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
