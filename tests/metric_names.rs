//! Runtime metric-name audit: every key a representative soak and the
//! tenant storm register must follow `subsystem.object.action`.
//! Metric keys are strings, so a misspelt or free-form one compiles and
//! silently starts a new series; this is the check that catches it.

use sensorcer_bench::obs::runtime_metric_names;
use sensorcer_suite::core::admission;
use sensorcer_suite::exertion::retry;
use sensorcer_suite::provision::autoscale;
use sensorcer_suite::sim::prelude::{metric_keys, sampler_keys};

#[test]
fn runtime_metric_names_all_conform() {
    let names = runtime_metric_names();
    let violations = sensorcer_obs::check_names(names.iter().map(String::as_str));
    assert!(violations.is_empty(), "{violations:#?}");
    // The audit actually saw the federation's metrics.
    assert!(names.iter().any(|n| n == metric_keys::PACKETS));
    assert!(names.iter().any(|n| n == retry::keys::RETRY_ATTEMPTS));
    // The storm brings the overload families under the audit.
    for key in [
        admission::keys::SHED,
        admission::keys::BREAKER_OPENED,
        autoscale::keys::ACTIONS_UP,
    ] {
        assert!(names.iter().any(|n| n == key), "audit missing {key}");
    }
    // The telemetry sampler's family is audited via the sampled storm.
    for key in sampler_keys::ALL {
        assert!(names.iter().any(|n| n == key), "audit missing {key}");
    }
}
