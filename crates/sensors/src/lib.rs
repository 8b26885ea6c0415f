//! # sensorcer-sensors
//!
//! Sensor probes and everything behind them: ground-truth signal models,
//! measurement noise, drift, ADC quantization, calibration curves, IEEE
//! 1451-style TEDS metadata, fault injection, battery budgets and a local
//! measurement store.
//!
//! The paper's architecture makes the **sensor probe** "the only sensor
//! dependent component" (§V.B, §VII): everything above the
//! [`probe::SensorProbe`] trait is technology independent. This crate is
//! the substitute for the paper's physical SunSPOT temperature sensors and
//! whatever other driver code a deployment would wrap.
//!
//! ```
//! use sensorcer_sensors::prelude::*;
//! use sensorcer_sim::prelude::*;
//!
//! let mut probe = sunspot_temperature("Neem", SimRng::new(42));
//! let m = probe.sample(SimTime::ZERO + SimDuration::from_secs(1)).unwrap();
//! assert_eq!(m.unit, Unit::Celsius);
//! assert!((10.0..35.0).contains(&m.value));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod battery;
pub mod calib;
pub mod faults;
pub mod probe;
pub mod signal;
pub mod spot;
pub mod store;
pub mod teds;
pub mod units;

/// One-stop imports.
pub mod prelude {
    pub use crate::battery::Battery;
    pub use crate::calib::Calibration;
    pub use crate::faults::{FaultInjector, FaultModel, FaultOutcome};
    pub use crate::probe::{ProbeError, ScriptedProbe, SensorProbe, SimulatedProbe};
    pub use crate::signal::{Diurnal, RandomWalk, Signal, SignalState};
    pub use crate::spot::{humidity, light, pressure, soil_moisture, sunspot_temperature};
    pub use crate::store::RingStore;
    pub use crate::teds::Teds;
    pub use crate::units::{Measurement, Quality, Unit};
}

pub use prelude::*;
