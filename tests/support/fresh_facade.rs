//! The façade hop as it was before a requesting host kept a session with
//! the façade: every call builds a fresh task (label, signature, an
//! argument context with fresh texts) and takes the reply context out of
//! it. Only the connection is kept, one per requesting host, so wire bytes
//! compare net of connection setup. `tests/lent_read_oracle.rs` holds
//! `FacadeHandle`'s reads to it.

use std::collections::HashMap;

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::expr::Value;
use sensorcer_suite::registry::ids::interfaces;
use sensorcer_suite::sim::prelude::*;

/// Call `selector` on `facade` from `from` with a task built for this
/// call alone, over the connection `links` keeps for `from`.
pub fn run(
    env: &mut Env,
    from: HostId,
    facade: ServiceId,
    links: &mut HashMap<HostId, Connection>,
    selector: &str,
    args: Context,
) -> Result<Context, String> {
    let mut task: Exertion = Task::new(
        format!("facade {selector}"),
        Signature::new(interfaces::SENSORCER_FACADE, selector),
        args,
    )
    .into();
    let link = links.entry(from).or_default();
    match exert_in_place(env, from, facade, &mut task, link) {
        Ok(()) => match task.status() {
            ExertionStatus::Done => Ok(std::mem::take(task.context_mut())),
            ExertionStatus::Failed(e) => Err(e.clone()),
            other => Err(format!("unexpected status {other:?}")),
        },
        Err(e) => Err(format!("facade unreachable: {e}")),
    }
}

/// `getValue`'s arguments, with the tenant when one is named.
pub fn get_value_args(tenant: Option<&str>, service: &str) -> Context {
    let args = Context::new().with("arg/service", service);
    match tenant {
        Some(tenant) => args.with("arg/tenant", tenant),
        None => args,
    }
}

/// The reply of `get_value_as`, parsed.
pub fn reading(ctx: &Context) -> Result<SensorReading, String> {
    SensorReading::from_context(ctx).ok_or_else(|| "no reading returned".to_string())
}

/// The reply of `get_value_detailed`, parsed.
pub fn detailed(ctx: &Context) -> Result<(SensorReading, DegradedInfo), String> {
    SensorReading::from_context(ctx)
        .map(|r| (r, DegradedInfo::from_context(ctx)))
        .ok_or_else(|| "no reading returned".to_string())
}

/// The reply of `list_services`, parsed.
pub fn listed(ctx: &Context) -> Vec<(String, String)> {
    match ctx.get("services/list") {
        Some(Value::List(xs)) => xs
            .iter()
            .filter_map(|v| match v {
                Value::Map(m) => Some((
                    m.get("name").map(ToString::to_string).unwrap_or_default(),
                    m.get("type").map(ToString::to_string).unwrap_or_default(),
                )),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}
