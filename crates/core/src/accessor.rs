//! The `SensorDataAccessor` interface contract.
//!
//! "The SORCER infrastructure treats sensor providers as peers that
//! implement a common *SensorDataAccessor* interface" (§V.A). Because
//! operations in EOA are reachable only through exertions, the interface
//! is defined here as a set of operation *selectors* plus the context
//! paths each reads and writes; [`client`] offers typed wrappers that
//! build and submit the corresponding exertions.

use std::borrow::Borrow;

use sensorcer_exertion::prelude::*;
use sensorcer_expr::{Text, Value};
use sensorcer_registry::ids::interfaces;
use sensorcer_sim::env::Env;
use sensorcer_sim::topology::HostId;

/// Operation selectors of `SensorDataAccessor`.
pub mod selectors {
    /// Read the current sensor value. Writes `sensor/value`,
    /// `sensor/unit`, `sensor/at`, `sensor/quality` (and `result/value`
    /// as the generic result slot).
    pub const GET_VALUE: &str = "getValue";
    /// Read the most recent `arg/count` stored measurements. Writes
    /// `history/values` (list) and `history/times` (list).
    pub const GET_HISTORY: &str = "getHistory";
    /// Describe the service. Writes `info/*` paths.
    pub const GET_INFO: &str = "getInfo";
}

/// Management selectors of composite providers (`CompositeManagement`).
pub mod mgmt {
    /// Add a child service: `arg/service` = provider name. Writes
    /// `mgmt/variable` — the expression variable assigned to the child.
    pub const ADD_SERVICE: &str = "addService";
    /// Remove a child: `arg/service` = provider name.
    pub const REMOVE_SERVICE: &str = "removeService";
    /// Install a compute expression: `arg/expression` = source text.
    pub const SET_EXPRESSION: &str = "setExpression";
}

/// A parsed `getInfo` response — what the sensor browser's "Sensor
/// Service Information" panel displays (Fig. 2).
#[derive(Clone, Debug, PartialEq)]
pub struct SensorInfo {
    pub name: String,
    /// "ELEMENTARY", "COMPOSITE", "FACADE", ...
    pub service_type: String,
    pub uuid: String,
    /// Children of a composite (empty for elementary services).
    pub contained: Vec<String>,
    /// Compute expression of a composite, if set.
    pub expression: Option<String>,
    pub unit: String,
    /// Battery fraction 0..=1 (1.0 for mains / composites).
    pub battery: f64,
}

impl SensorInfo {
    /// Extract from a `getInfo` result context.
    pub fn from_context(ctx: &Context) -> Option<SensorInfo> {
        Some(SensorInfo {
            name: ctx.get_str("info/name")?.to_string(),
            service_type: ctx.get_str("info/type")?.to_string(),
            uuid: ctx.get_str("info/uuid").unwrap_or_default().to_string(),
            contained: match ctx.get("info/contained") {
                Some(Value::List(xs)) => xs.iter().map(|v| v.to_string()).collect(),
                _ => Vec::new(),
            },
            expression: ctx.get_str("info/expression").map(str::to_string),
            unit: ctx.get_str("info/unit").unwrap_or_default().to_string(),
            battery: ctx.get_f64("info/battery").unwrap_or(1.0),
        })
    }

    /// Write into a context (provider side).
    pub fn write_to(&self, ctx: &mut Context) {
        ctx.put("info/name", self.name.as_str());
        ctx.put("info/type", self.service_type.as_str());
        ctx.put("info/uuid", self.uuid.as_str());
        ctx.put(
            "info/contained",
            Value::List(self.contained.iter().map(|s| s.as_str().into()).collect()),
        );
        if let Some(e) = &self.expression {
            ctx.put("info/expression", e.as_str());
        }
        ctx.put("info/unit", self.unit.as_str());
        ctx.put("info/battery", self.battery);
    }
}

/// A reading as returned by `getValue`.
#[derive(Clone, Debug, PartialEq)]
pub struct SensorReading {
    pub value: f64,
    /// Shared with the reply: a provider's unit symbol is a literal, and a
    /// composite passes its children's on.
    pub unit: Text,
    /// Virtual time of the reading, nanoseconds.
    pub at_ns: u64,
    pub good: bool,
}

impl SensorReading {
    pub fn from_context(ctx: &Context) -> Option<SensorReading> {
        Some(SensorReading {
            value: ctx.get_f64(paths::SENSOR_VALUE)?,
            unit: match ctx.get(paths::SENSOR_UNIT) {
                Some(Value::Str(unit)) => unit.clone(),
                _ => Text::Static(""),
            },
            at_ns: ctx.get_f64(paths::SENSOR_AT).unwrap_or(0.0) as u64,
            good: ctx.get_str(paths::SENSOR_QUALITY) != Some("suspect"),
        })
    }
}

/// Which composite children degraded in a read — substituted from a
/// last-known-good cache, or missing entirely (skipped by the default
/// aggregate under a quorum policy). Empty on a clean read.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct DegradedInfo {
    /// Children whose reading came from the last-known-good cache.
    pub substituted: Vec<String>,
    /// Children with no reading at all.
    pub missing: Vec<String>,
}

impl DegradedInfo {
    /// Did anything degrade?
    pub fn is_degraded(&self) -> bool {
        !self.substituted.is_empty() || !self.missing.is_empty()
    }

    /// Extract the degraded-children lists from a `getValue` result
    /// context (absent paths mean a clean read).
    pub fn from_context(ctx: &Context) -> DegradedInfo {
        let split = |path: &str| -> Vec<String> {
            ctx.get_str(path)
                .map(|s| s.split(',').map(str::to_string).collect())
                .unwrap_or_default()
        };
        DegradedInfo {
            substituted: split(paths::SENSOR_SUBSTITUTED),
            missing: split(paths::SENSOR_MISSING),
        }
    }

    /// Write the non-empty lists into a result context (provider side).
    pub fn write_to(&self, ctx: &mut Context) {
        write_degraded(ctx, &self.substituted, &self.missing);
    }
}

/// A degraded-children list as it travels: the names joined by commas,
/// which [`DegradedInfo::from_context`] splits back.
pub fn join_children<S: Borrow<str>>(names: &[S]) -> String {
    names.join(",")
}

/// Write which children degraded into a `getValue` result context, each
/// non-empty list under its path. Composites pass the `&str` names they
/// hold: no name is copied except into the joined lists.
pub fn write_degraded<S: Borrow<str>>(ctx: &mut Context, substituted: &[S], missing: &[S]) {
    for (path, names) in [
        (paths::SENSOR_SUBSTITUTED, substituted),
        (paths::SENSOR_MISSING, missing),
    ] {
        if !names.is_empty() {
            ctx.put(path, join_children(names));
        }
    }
}

/// Typed requestor-side wrappers: build the exertion, submit it with
/// [`exert`], parse the returned context.
pub mod client {
    use super::*;

    /// Read the value of the named sensor service.
    pub fn get_value(
        env: &mut Env,
        from: HostId,
        accessor: &ServiceAccessor,
        provider: &str,
    ) -> Result<SensorReading, String> {
        get_value_detailed(env, from, accessor, provider).map(|(r, _)| r)
    }

    /// Read the value of the named sensor service, along with which
    /// composite children (if any) were substituted or missing in a
    /// degraded read.
    pub fn get_value_detailed(
        env: &mut Env,
        from: HostId,
        accessor: &ServiceAccessor,
        provider: &str,
    ) -> Result<(SensorReading, DegradedInfo), String> {
        // The accessor lends its request: re-armed per read, handed back
        // after, so a read nested inside this one builds its own.
        let mut lent = accessor.take_lent(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE);
        let done = lent.exert(env, from, accessor, provider, || format!("read {provider}"));
        let read = match done.status() {
            ExertionStatus::Done => SensorReading::from_context(done.context())
                .map(|r| (r, DegradedInfo::from_context(done.context())))
                .ok_or_else(|| "provider returned no reading".to_string()),
            ExertionStatus::Failed(e) => Err(e.clone()),
            other => Err(format!("unexpected exertion status {other:?}")),
        };
        accessor.put_lent(lent);
        read
    }

    /// Fetch the info panel of the named sensor service.
    pub fn get_info(
        env: &mut Env,
        from: HostId,
        accessor: &ServiceAccessor,
        provider: &str,
    ) -> Result<SensorInfo, String> {
        let task = Task::new(
            format!("info {provider}"),
            Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_INFO).on(provider),
            Context::new(),
        );
        let done = exert(env, from, task.into(), accessor);
        match done.status() {
            ExertionStatus::Done => SensorInfo::from_context(done.context())
                .ok_or_else(|| "provider returned no info".to_string()),
            ExertionStatus::Failed(e) => Err(e.clone()),
            other => Err(format!("unexpected exertion status {other:?}")),
        }
    }

    /// Fetch up to `count` recent measurements.
    pub fn get_history(
        env: &mut Env,
        from: HostId,
        accessor: &ServiceAccessor,
        provider: &str,
        count: usize,
    ) -> Result<Vec<f64>, String> {
        let task = Task::new(
            format!("history {provider}"),
            Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_HISTORY).on(provider),
            Context::new().with("arg/count", count as i64),
        );
        let done = exert(env, from, task.into(), accessor);
        match done.status() {
            ExertionStatus::Done => match done.context().get("history/values") {
                Some(Value::List(xs)) => Ok(xs.iter().filter_map(Value::as_f64).collect()),
                _ => Ok(Vec::new()),
            },
            ExertionStatus::Failed(e) => Err(e.clone()),
            other => Err(format!("unexpected exertion status {other:?}")),
        }
    }

    /// Management call against a composite provider.
    pub fn manage(
        env: &mut Env,
        from: HostId,
        accessor: &ServiceAccessor,
        provider: &str,
        selector: &str,
        args: Context,
    ) -> Result<Context, String> {
        let task = Task::new(
            format!("{selector} on {provider}"),
            Signature::new(interfaces::COMPOSITE_MANAGEMENT, selector).on(provider),
            args,
        );
        let done = exert(env, from, task.into(), accessor);
        match done.status() {
            ExertionStatus::Done => Ok(done.context().clone()),
            ExertionStatus::Failed(e) => Err(e.clone()),
            other => Err(format!("unexpected exertion status {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_round_trips_through_context() {
        let info = SensorInfo {
            name: "Composite-Service".into(),
            service_type: "COMPOSITE".into(),
            uuid: "267c67a0-dd67-4b95-beb0-e6763e117b03".into(),
            contained: vec!["Neem-Sensor".into(), "Jade-Sensor".into()],
            expression: Some("(a + b)/2".into()),
            unit: "°C".into(),
            battery: 1.0,
        };
        let mut ctx = Context::new();
        info.write_to(&mut ctx);
        let back = SensorInfo::from_context(&ctx).unwrap();
        assert_eq!(back, info);
    }

    #[test]
    fn info_without_expression() {
        let info = SensorInfo {
            name: "Neem-Sensor".into(),
            service_type: "ELEMENTARY".into(),
            uuid: String::new(),
            contained: vec![],
            expression: None,
            unit: "°C".into(),
            battery: 0.97,
        };
        let mut ctx = Context::new();
        info.write_to(&mut ctx);
        let back = SensorInfo::from_context(&ctx).unwrap();
        assert_eq!(back.expression, None);
        assert!((back.battery - 0.97).abs() < 1e-12);
    }

    #[test]
    fn reading_from_context() {
        let ctx = Context::new()
            .with(paths::SENSOR_VALUE, 21.5)
            .with(paths::SENSOR_UNIT, "°C")
            .with(paths::SENSOR_AT, 1_000_000.0)
            .with(paths::SENSOR_QUALITY, "good");
        let r = SensorReading::from_context(&ctx).unwrap();
        assert_eq!(r.value, 21.5);
        assert!(r.good);
        assert_eq!(r.at_ns, 1_000_000);

        let suspect = Context::new()
            .with(paths::SENSOR_VALUE, 1.0)
            .with(paths::SENSOR_QUALITY, "suspect");
        assert!(!SensorReading::from_context(&suspect).unwrap().good);

        assert!(SensorReading::from_context(&Context::new()).is_none());
    }

    #[test]
    fn degraded_info_round_trips_and_detects_cleanliness() {
        let clean = DegradedInfo::from_context(&Context::new());
        assert!(!clean.is_degraded());
        assert_eq!(clean, DegradedInfo::default());

        let info = DegradedInfo {
            substituted: vec!["S1".into(), "S4".into()],
            missing: vec!["S2".into()],
        };
        assert!(info.is_degraded());
        let mut ctx = Context::new();
        info.write_to(&mut ctx);
        assert_eq!(ctx.get_str(paths::SENSOR_SUBSTITUTED), Some("S1,S4"));
        let back = DegradedInfo::from_context(&ctx);
        assert_eq!(back, info);

        // Empty lists leave the context untouched.
        let mut ctx = Context::new();
        DegradedInfo::default().write_to(&mut ctx);
        assert!(ctx.is_empty());
    }
}
