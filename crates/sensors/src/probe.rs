//! The sensor probe — "the only sensor dependent component of the
//! framework" (§V.B).
//!
//! A [`SensorProbe`] hides connectivity, timing, protocol and calibration
//! behind one narrow trait, exactly as the paper prescribes: the
//! elementary sensor provider consumes probes through this interface and
//! never learns what technology sits behind them. [`SimulatedProbe`] is
//! the reproduction's stand-in for real SunSPOT/1-Wire/Modbus driver code.

use std::any::Any;

use sensorcer_sim::rng::SimRng;
use sensorcer_sim::time::SimTime;

use crate::battery::Battery;
use crate::calib::Calibration;
use crate::faults::{FaultInjector, FaultOutcome};
use crate::signal::{Signal, SignalState};
use crate::teds::Teds;
use crate::units::{Measurement, Quality, Unit};

/// Why a probe failed to deliver a sample.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeError {
    /// The transducer produced nothing this cycle (transient).
    Dropout,
    /// The mote's battery is exhausted (permanent until replaced).
    BatteryDead,
    /// A sample was requested faster than the transducer supports.
    TooFast,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProbeError::Dropout => "sample dropout",
            ProbeError::BatteryDead => "battery exhausted",
            ProbeError::TooFast => "sampling faster than the transducer supports",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProbeError {}

/// Sensor-technology abstraction. Everything above this trait is
/// technology independent.
///
/// `Any` is a supertrait so that a holder of a `Box<dyn SensorProbe>` can
/// find out that it is a [`SimulatedProbe`] and keep it by value.
pub trait SensorProbe: Any {
    /// Take one sample at virtual time `now`.
    fn sample(&mut self, now: SimTime) -> Result<Measurement, ProbeError>;

    /// Self-description of the transducer channel.
    fn teds(&self) -> &Teds;

    /// Remaining battery fraction (1.0 for mains-powered technologies).
    fn battery_level(&self) -> f64 {
        1.0
    }

    /// Charge the energy cost of transmitting `bytes` from the mote.
    /// Default: free (mains-powered).
    fn charge_tx(&mut self, _bytes: usize) {}
}

/// A fully synthetic probe: ground-truth signal + noise + faults +
/// quantization + calibration + battery, all deterministic from a seed.
pub struct SimulatedProbe {
    teds: Teds,
    signal: Signal,
    signal_state: SignalState,
    /// Gaussian measurement noise (standard deviation, raw units).
    pub noise_sd: f64,
    /// Slow sensor drift in raw units per virtual second.
    pub drift_per_s: f64,
    calibration: Calibration,
    faults: FaultInjector,
    battery: Battery,
    rng: SimRng,
    last_sample_at: Option<SimTime>,
    samples_taken: u64,
}

impl SimulatedProbe {
    pub fn new(teds: Teds, signal: Signal, rng: SimRng) -> SimulatedProbe {
        SimulatedProbe {
            teds,
            signal,
            signal_state: SignalState::default(),
            noise_sd: 0.0,
            drift_per_s: 0.0,
            calibration: Calibration::Identity,
            faults: FaultInjector::none(),
            battery: Battery::mains(),
            rng,
            last_sample_at: None,
            samples_taken: 0,
        }
    }

    /// Builder: gaussian measurement noise.
    pub fn with_noise(mut self, sd: f64) -> Self {
        self.noise_sd = sd;
        self
    }

    /// Builder: calibration curve. Panics on an invalid curve — a probe
    /// must never be constructed mis-calibrated.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "never built mis-calibrated: see invalid_calibration_panics_at_construction"
        )]
        calibration
            .validate()
            .expect("calibration curve must be valid");
        self.calibration = calibration;
        self
    }

    /// Builder: fault injection.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: battery model.
    pub fn with_battery(mut self, battery: Battery) -> Self {
        self.battery = battery;
        self
    }

    /// Number of samples successfully delivered.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }
}

impl SensorProbe for SimulatedProbe {
    fn sample(&mut self, now: SimTime) -> Result<Measurement, ProbeError> {
        if self.battery.is_dead() {
            return Err(ProbeError::BatteryDead);
        }
        if let Some(prev) = self.last_sample_at {
            let min = self.teds.min_sample_interval_ns;
            if now.as_nanos().saturating_sub(prev.as_nanos()) < min {
                return Err(ProbeError::TooFast);
            }
        }
        if !self.battery.draw_sample() {
            return Err(ProbeError::BatteryDead);
        }
        self.last_sample_at = Some(now);

        let truth = self
            .signal
            .value_at(now, &mut self.signal_state, &mut self.rng);
        let drift = self.drift_per_s * now.as_secs_f64();
        let noisy = truth + drift + self.rng.normal(0.0, self.noise_sd);

        let (raw_value, clean) = match self.faults.inject(noisy, &mut self.rng) {
            FaultOutcome::Dropout => return Err(ProbeError::Dropout),
            FaultOutcome::Clean(v) => (v, true),
            FaultOutcome::Stuck(v) | FaultOutcome::Spiked(v) => (v, false),
        };
        let quality = if clean && self.battery.level() > 0.05 {
            Quality::Good
        } else {
            Quality::Suspect
        };

        // ADC quantization and range railing happen in raw space; the
        // calibration curve then produces engineering units.
        let railed = self.teds.clamp(self.teds.quantize(raw_value));
        let value = self.calibration.apply(railed);

        self.samples_taken += 1;
        Ok(Measurement {
            value,
            unit: self.teds.unit,
            at: now,
            quality,
        })
    }

    fn teds(&self) -> &Teds {
        &self.teds
    }

    fn battery_level(&self) -> f64 {
        self.battery.level()
    }

    fn charge_tx(&mut self, bytes: usize) {
        self.battery.draw_tx(bytes);
    }
}

impl std::fmt::Debug for SimulatedProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedProbe")
            .field("model", &self.teds.model)
            .field("serial", &self.teds.serial)
            .field("samples_taken", &self.samples_taken)
            .field("battery", &self.battery.level())
            .finish()
    }
}

/// A trivially scriptable probe for tests: returns a queued list of values
/// (cycling), in the given unit.
pub struct ScriptedProbe {
    teds: Teds,
    values: Vec<f64>,
    next: usize,
}

impl ScriptedProbe {
    pub fn new(values: Vec<f64>, unit: Unit) -> ScriptedProbe {
        assert!(
            !values.is_empty(),
            "scripted probe needs at least one value"
        );
        let teds = Teds {
            manufacturer: "test".into(),
            model: "scripted".into(),
            serial: "0".into(),
            unit,
            range_min: f64::NEG_INFINITY,
            range_max: f64::INFINITY,
            resolution: 0.0,
            min_sample_interval_ns: 0,
            technology: "scripted".into(),
        };
        ScriptedProbe {
            teds,
            values,
            next: 0,
        }
    }
}

impl SensorProbe for ScriptedProbe {
    fn sample(&mut self, now: SimTime) -> Result<Measurement, ProbeError> {
        let v = self.values[self.next % self.values.len()];
        self.next += 1;
        Ok(Measurement::good(v, self.teds.unit, now))
    }

    fn teds(&self) -> &Teds {
        &self.teds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sim::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn basic_probe(seed: u64) -> SimulatedProbe {
        SimulatedProbe::new(
            Teds::sunspot_temperature("SN-test"),
            Signal::Constant(21.5),
            SimRng::new(seed),
        )
    }

    #[test]
    fn noiseless_constant_probe_reads_exactly() {
        let mut p = basic_probe(1);
        let m = p.sample(t(1)).unwrap();
        assert_eq!(m.value, 21.5);
        assert_eq!(m.unit, Unit::Celsius);
        assert!(m.is_good());
        assert_eq!(p.samples_taken(), 1);
    }

    #[test]
    fn noise_perturbs_but_stays_near() {
        let mut p = basic_probe(2).with_noise(0.2);
        let vals: Vec<f64> = (1..200).map(|i| p.sample(t(i)).unwrap().value).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 21.5).abs() < 0.1, "{mean}");
        assert!(
            vals.iter().any(|v| (v - 21.5).abs() > 0.01),
            "noise must do something"
        );
    }

    #[test]
    fn respects_min_sample_interval() {
        let mut p = basic_probe(3);
        p.sample(t(1)).unwrap();
        // 10ms min interval; 1ns later is too fast.
        let err = p.sample(t(1) + SimDuration::from_nanos(1)).unwrap_err();
        assert_eq!(err, ProbeError::TooFast);
        assert!(p.sample(t(2)).is_ok());
    }

    #[test]
    fn quantizes_to_resolution() {
        let mut p = SimulatedProbe::new(
            Teds::sunspot_temperature("q"),
            Signal::Constant(21.6), // not a multiple of 0.25
            SimRng::new(4),
        );
        let m = p.sample(t(1)).unwrap();
        assert_eq!(m.value, 21.5, "snapped to the 0.25° grid");
    }

    #[test]
    fn rails_at_range_limits() {
        let mut p = SimulatedProbe::new(
            Teds::sunspot_temperature("r"),
            Signal::Constant(500.0),
            SimRng::new(5),
        );
        let m = p.sample(t(1)).unwrap();
        assert_eq!(m.value, 105.0);
    }

    #[test]
    fn calibration_is_applied_after_quantization() {
        let mut p = basic_probe(6).with_calibration(Calibration::Linear {
            gain: 2.0,
            offset: 1.0,
        });
        let m = p.sample(t(1)).unwrap();
        assert_eq!(m.value, 2.0 * 21.5 + 1.0);
    }

    #[test]
    #[should_panic(expected = "calibration curve must be valid")]
    fn invalid_calibration_panics_at_construction() {
        let _ = basic_probe(6).with_calibration(Calibration::PiecewiseLinear { points: vec![] });
    }

    #[test]
    fn battery_death_is_permanent() {
        let mut p = basic_probe(7).with_battery(Battery::new(120.0, 50.0, 1.0));
        assert!(p.sample(t(1)).is_ok());
        assert!(p.sample(t(2)).is_ok());
        assert_eq!(p.sample(t(3)).unwrap_err(), ProbeError::BatteryDead);
        assert_eq!(p.sample(t(4)).unwrap_err(), ProbeError::BatteryDead);
        assert_eq!(p.battery_level(), 0.0);
    }

    #[test]
    fn low_battery_marks_readings_suspect() {
        // Capacity for many samples but below the 5% threshold quickly.
        let mut p = basic_probe(8).with_battery(Battery::new(1000.0, 960.0, 0.0));
        let m = p.sample(t(1)).unwrap();
        assert_eq!(m.quality, Quality::Suspect);
    }

    #[test]
    fn dropouts_surface_as_errors() {
        let mut p = basic_probe(9).with_faults(FaultInjector::new(crate::faults::FaultModel {
            dropout_prob: 1.0,
            ..Default::default()
        }));
        assert_eq!(p.sample(t(1)).unwrap_err(), ProbeError::Dropout);
    }

    #[test]
    fn drift_accumulates_over_time() {
        let mut p = basic_probe(10);
        p.drift_per_s = 0.001;
        let early = p.sample(t(10)).unwrap().value;
        let late = p.sample(t(100_000)).unwrap().value;
        assert!(
            late > early + 50.0 * 0.001,
            "drift should accumulate: {early} → {late}"
        );
    }

    #[test]
    fn deterministic_across_identical_probes() {
        let run = |seed: u64| -> Vec<f64> {
            let mut p = basic_probe(seed).with_noise(0.3);
            (1..50).map(|i| p.sample(t(i)).unwrap().value).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn scripted_probe_cycles() {
        let mut p = ScriptedProbe::new(vec![1.0, 2.0], Unit::Celsius);
        assert_eq!(p.sample(t(1)).unwrap().value, 1.0);
        assert_eq!(p.sample(t(2)).unwrap().value, 2.0);
        assert_eq!(p.sample(t(3)).unwrap().value, 1.0);
    }

    #[test]
    fn tx_charging_drains_battery() {
        let mut p = basic_probe(11).with_battery(Battery::new(1000.0, 1.0, 1.0));
        let before = p.battery_level();
        p.charge_tx(500);
        assert!(p.battery_level() < before);
    }
}
