//! Engineering units and measurement records.

use sensorcer_sim::time::SimTime;

/// Unit of a transducer channel. The set covers the sensor technologies
//  the examples deploy (temperature motes per the paper's SunSPOT testbed,
//  plus the agriculture scenario of §II.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Unit {
    Celsius,
    RelativeHumidityPct,
    Hectopascal,
    Lux,
    /// Volumetric water content of soil, percent.
    SoilMoisturePct,
    /// Acceleration magnitude, m/s² (vibration probes).
    MetresPerSecondSquared,
    /// Dimensionless (raw counts, ratios).
    Dimensionless,
}

impl Unit {
    /// Every unit, in declaration order: `Unit::ALL[u as usize] == u`, which
    /// is how the local store keeps a unit in one byte.
    pub const ALL: [Unit; 7] = [
        Unit::Celsius,
        Unit::RelativeHumidityPct,
        Unit::Hectopascal,
        Unit::Lux,
        Unit::SoilMoisturePct,
        Unit::MetresPerSecondSquared,
        Unit::Dimensionless,
    ];

    /// Display symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Unit::Celsius => "°C",
            Unit::RelativeHumidityPct => "%RH",
            Unit::Hectopascal => "hPa",
            Unit::Lux => "lx",
            Unit::SoilMoisturePct => "%VWC",
            Unit::MetresPerSecondSquared => "m/s²",
            Unit::Dimensionless => "",
        }
    }
}

impl std::fmt::Display for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// How much a reading should be trusted, judged by the probe itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Quality {
    /// Normal reading.
    Good,
    /// Delivered, but the probe's self-diagnostics flag it (out-of-range
    /// spike, low battery, stale calibration).
    Suspect,
}

/// One calibrated reading from a probe.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Measurement {
    pub value: f64,
    pub unit: Unit,
    /// Virtual time at which the sample was taken.
    pub at: SimTime,
    pub quality: Quality,
}

impl Measurement {
    pub fn good(value: f64, unit: Unit, at: SimTime) -> Self {
        Measurement {
            value,
            unit,
            at,
            quality: Quality::Good,
        }
    }

    pub fn is_good(&self) -> bool {
        self.quality == Quality::Good
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}{}", self.value, self.unit)?;
        if self.quality == Quality::Suspect {
            f.write_str(" (suspect)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols() {
        assert_eq!(Unit::Celsius.symbol(), "°C");
        assert_eq!(Unit::Dimensionless.symbol(), "");
        assert_eq!(Unit::Lux.to_string(), "lx");
    }

    #[test]
    fn all_lists_every_unit_at_its_own_index() {
        for (i, u) in Unit::ALL.into_iter().enumerate() {
            assert_eq!(u as usize, i);
            // A new variant fails to compile here: add it to `ALL` as well.
            match u {
                Unit::Celsius
                | Unit::RelativeHumidityPct
                | Unit::Hectopascal
                | Unit::Lux
                | Unit::SoilMoisturePct
                | Unit::MetresPerSecondSquared
                | Unit::Dimensionless => {}
            }
        }
    }

    #[test]
    fn measurement_display() {
        let m = Measurement::good(21.537, Unit::Celsius, SimTime::ZERO);
        assert_eq!(m.to_string(), "21.54°C");
        assert!(m.is_good());
        let s = Measurement {
            quality: Quality::Suspect,
            ..m
        };
        assert!(s.to_string().contains("suspect"));
        assert!(!s.is_good());
    }
}
