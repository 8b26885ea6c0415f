//! Ready-made probe factories for the technologies the examples deploy.
//!
//! The paper's experiment uses four SunSPOT temperature motes named
//! Neem, Jade, Coral and Diamond (§VI). [`sunspot_temperature`] builds the
//! matching probe; the other factories cover the agriculture motivation of
//! §II.2 and give the benches heterogeneous technology mixes to exercise
//! the "inclusive of various sensor technologies" claim.

use sensorcer_sim::rng::SimRng;

use crate::battery::Battery;
use crate::calib::Calibration;
use crate::faults::{FaultInjector, FaultModel};
use crate::probe::SimulatedProbe;
use crate::signal::{Diurnal, RandomWalk, Signal};
use crate::teds::Teds;
use crate::units::Unit;

/// A SunSPOT temperature mote like the paper's testbed: lab-temperature
/// signal, 0.1 °C noise, 0.25 °C ADC grid, AA batteries, light fault rates.
pub fn sunspot_temperature(serial: &str, rng: SimRng) -> SimulatedProbe {
    SimulatedProbe::new(
        Teds::sunspot_temperature(serial),
        Signal::lab_temperature(),
        rng,
    )
    .with_noise(0.1)
    .with_battery(Battery::aa_pair())
    .with_faults(FaultInjector::new(FaultModel {
        dropout_prob: 0.002,
        stuck_prob: 0.001,
        spike_prob: 0.001,
        spike_magnitude: 8.0,
    }))
}

/// A relative-humidity probe (capacitive element with a piecewise
/// factory calibration).
pub fn humidity(serial: &str, rng: SimRng) -> SimulatedProbe {
    let teds = Teds {
        manufacturer: "Sensirion".into(),
        model: "SHT11".into(),
        serial: serial.into(),
        unit: Unit::RelativeHumidityPct,
        range_min: 0.0,
        range_max: 100.0,
        resolution: 0.5,
        min_sample_interval_ns: 50_000_000,
        technology: "sht-serial".into(),
    };
    SimulatedProbe::new(teds, Signal::lab_humidity(), rng)
        .with_noise(0.8)
        .with_calibration(Calibration::PiecewiseLinear {
            // Capacitive elements sag near saturation; the factory curve
            // straightens them out.
            points: vec![(0.0, 0.0), (50.0, 50.0), (90.0, 92.0), (100.0, 100.0)],
        })
}

/// A barometric-pressure probe (mains-powered weather station head).
pub fn pressure(serial: &str, rng: SimRng) -> SimulatedProbe {
    let teds = Teds {
        manufacturer: "Bosch".into(),
        model: "BMP085".into(),
        serial: serial.into(),
        unit: Unit::Hectopascal,
        range_min: 300.0,
        range_max: 1100.0,
        resolution: 0.1,
        min_sample_interval_ns: 25_000_000,
        technology: "i2c".into(),
    };
    SimulatedProbe::new(
        teds,
        Signal::RandomWalk(RandomWalk {
            start: 1013.0,
            step: 0.05,
            min: 980.0,
            max: 1040.0,
        }),
        rng,
    )
    .with_noise(0.2)
}

/// A soil-moisture probe for the paper's farm scenario: slow random walk,
/// battery powered, noticeable fault rates (buried electronics).
pub fn soil_moisture(serial: &str, rng: SimRng) -> SimulatedProbe {
    let teds = Teds {
        manufacturer: "Decagon".into(),
        model: "EC-5".into(),
        serial: serial.into(),
        unit: Unit::SoilMoisturePct,
        range_min: 0.0,
        range_max: 60.0,
        resolution: 0.1,
        min_sample_interval_ns: 100_000_000,
        technology: "sdi-12".into(),
    };
    SimulatedProbe::new(
        teds,
        Signal::RandomWalk(RandomWalk {
            start: 22.0,
            step: 0.02,
            min: 5.0,
            max: 45.0,
        }),
        rng,
    )
    .with_noise(0.4)
    .with_battery(Battery::aa_pair())
    .with_faults(FaultInjector::new(FaultModel {
        dropout_prob: 0.01,
        stuck_prob: 0.005,
        spike_prob: 0.003,
        spike_magnitude: 20.0,
    }))
}

/// An ambient-light probe.
pub fn light(serial: &str, rng: SimRng) -> SimulatedProbe {
    let teds = Teds {
        manufacturer: "TAOS".into(),
        model: "TSL2561".into(),
        serial: serial.into(),
        unit: Unit::Lux,
        range_min: 0.0,
        range_max: 40_000.0,
        resolution: 1.0,
        min_sample_interval_ns: 15_000_000,
        technology: "i2c".into(),
    };
    SimulatedProbe::new(
        teds,
        Signal::Diurnal(Diurnal {
            mean: 5_000.0,
            amplitude: 5_000.0,
            period_s: 86_400.0,
            phase_s: 21_600.0,
        }),
        rng,
    )
    .with_noise(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::SensorProbe;
    use sensorcer_sim::time::{SimDuration, SimTime};

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn sunspot_reads_plausible_lab_temperatures() {
        let mut p = sunspot_temperature("Neem", SimRng::new(1));
        let mut got = 0;
        for i in 1..100 {
            if let Ok(m) = p.sample(t(i)) {
                assert!((15.0..=30.0).contains(&m.value) || !m.is_good(), "{m}");
                got += 1;
            }
        }
        assert!(got > 90, "faults are rare: {got}/99 delivered");
        assert_eq!(p.teds().technology, "sunspot");
    }

    #[test]
    fn humidity_stays_in_percent_range() {
        let mut p = humidity("H1", SimRng::new(2));
        for i in 1..200 {
            if let Ok(m) = p.sample(t(i)) {
                assert!((0.0..=100.0).contains(&m.value), "{}", m.value);
            }
        }
    }

    #[test]
    fn pressure_wanders_slowly() {
        let mut p = pressure("P1", SimRng::new(3));
        let first = p.sample(t(1)).unwrap().value;
        let second = p.sample(t(2)).unwrap().value;
        assert!((first - second).abs() < 5.0, "pressure must not jump");
        assert!((980.0..=1045.0).contains(&first));
    }

    #[test]
    fn soil_moisture_within_range() {
        let mut p = soil_moisture("S1", SimRng::new(4));
        for i in 1..100 {
            if let Ok(m) = p.sample(t(i)) {
                assert!((0.0..=60.0).contains(&m.value));
            }
        }
    }

    #[test]
    fn light_is_nonnegative() {
        let mut p = light("L1", SimRng::new(5));
        for i in 1..100 {
            let m = p.sample(t(i * 60)).unwrap();
            assert!(m.value >= 0.0);
        }
    }

    #[test]
    fn distinct_serials_and_units() {
        let a = sunspot_temperature("A", SimRng::new(1));
        let h = humidity("B", SimRng::new(1));
        assert_eq!(a.teds().serial, "A");
        assert_eq!(h.teds().serial, "B");
        assert_ne!(a.teds().unit, h.teds().unit);
    }
}
