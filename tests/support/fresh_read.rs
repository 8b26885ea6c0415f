//! The requestor's `getValue` as it was before an accessor lent its
//! request: every read builds a fresh task (label, signature, pin, empty
//! context), a fresh header and a fresh bind template. Only what a
//! requestor holds per provider is kept, by provider name: the connection
//! its reads ride and the instance of it last found dead.
//! `tests/lent_read_oracle.rs` holds `client::get_value_detailed` to it.

use std::collections::HashMap;

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::registry::attributes::AttrMatch;
use sensorcer_suite::registry::ids::interfaces;
use sensorcer_suite::registry::item::ServiceTemplate;
use sensorcer_suite::sim::prelude::*;

/// Read the named sensor service with a request built for this read
/// alone, over the connection `held` keeps for that name.
pub fn get_value_detailed(
    env: &mut Env,
    from: HostId,
    accessor: &ServiceAccessor,
    held: &mut HashMap<String, (Connection, Option<ServiceId>)>,
    provider: &str,
) -> Result<(SensorReading, DegradedInfo), String> {
    let label = format!("read {provider}");
    let mut done: Exertion = Task::new(
        label.as_str(),
        Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE).on(provider),
        Context::new(),
    )
    .into();
    let (link, dead) = held.entry(provider.to_string()).or_default();
    let lender = Lender {
        template: &ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR)
            .and_attr(AttrMatch::name(provider)),
        header: &RequestHeader::new(label, provider),
        link,
        dead,
    };
    exert_lent(env, from, &mut done, accessor, Some(lender));
    match done.status() {
        ExertionStatus::Done => SensorReading::from_context(done.context())
            .map(|r| (r, DegradedInfo::from_context(done.context())))
            .ok_or_else(|| "provider returned no reading".to_string()),
        ExertionStatus::Failed(e) => Err(e.clone()),
        other => Err(format!("unexpected exertion status {other:?}")),
    }
}
