//! The requestor's `getValue` as it was before an accessor lent its
//! request: every read builds a fresh task (label, signature, pin, empty
//! context) and `exert` builds a fresh bind template from it.
//! `tests/lent_read_oracle.rs` holds `client::get_value_detailed` to it.

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::registry::ids::interfaces;
use sensorcer_suite::sim::prelude::*;

/// Read the named sensor service with a request built for this read
/// alone.
pub fn get_value_detailed(
    env: &mut Env,
    from: HostId,
    accessor: &ServiceAccessor,
    provider: &str,
) -> Result<(SensorReading, DegradedInfo), String> {
    let task = Task::new(
        format!("read {provider}"),
        Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE).on(provider),
        Context::new(),
    );
    let done = exert(env, from, task.into(), accessor);
    match done.status() {
        ExertionStatus::Done => SensorReading::from_context(done.context())
            .map(|r| (r, DegradedInfo::from_context(done.context())))
            .ok_or_else(|| "provider returned no reading".to_string()),
        ExertionStatus::Failed(e) => Err(e.clone()),
        other => Err(format!("unexpected exertion status {other:?}")),
    }
}
