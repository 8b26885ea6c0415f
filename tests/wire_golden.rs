//! Golden `wire_size()` values. The exertion rows were taken before task
//! headers became shared and context keys borrowed, the registry rows
//! while registry messages were still sized by encoding them: how a
//! message is held or counted must not change what it weighs on the
//! simulated wire (`wire_bytes_per_op` is a function of these sums).

use sensorcer_exertion::prelude::*;
use sensorcer_expr::Value;
use sensorcer_registry::attributes::{AttrMatch, Entry};
use sensorcer_registry::events::{event_wire_size, ServiceEvent, Transition};
use sensorcer_registry::ids::{InterfaceId, SvcUuid};
use sensorcer_registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_sim::env::ServiceId;
use sensorcer_sim::time::SimTime;
use sensorcer_sim::topology::HostId;

fn get_value_request() -> Task {
    Task::new(
        "read Neem-Sensor",
        Signature::new("SensorDataAccessor", "getValue").on("Neem-Sensor"),
        Context::new().with(
            "composite/visited",
            Value::List(vec![Value::Str("Subnet-Composite".into())].into()),
        ),
    )
}

fn reply(mut task: Task, value: f64, quality: &'static str) -> Task {
    task.context
        .put(paths::SENSOR_VALUE, value)
        .put(paths::RESULT, value)
        .put(paths::SENSOR_UNIT, "°C")
        .put(paths::SENSOR_AT, 1.5e9)
        .put(paths::SENSOR_QUALITY, quality);
    task.status = ExertionStatus::Done;
    task
}

#[test]
fn get_value_request_weighs_what_it_did() {
    let task = get_value_request();
    assert_eq!(task.signature.wire_size(), 49);
    assert_eq!(task.context.wire_size(), 51);
    assert_eq!(task.wire_size(), 132);
    assert_eq!(Exertion::from(task).wire_size(), 132);
}

#[test]
fn esp_reply_weighs_what_it_did() {
    let done = reply(get_value_request(), 21.25, "good");
    assert_eq!(done.context.wire_size(), 173);
    assert_eq!(done.wire_size(), 254);
}

#[test]
fn degraded_csp_reply_weighs_what_it_did() {
    let mut done = reply(
        Task::new(
            "read Subnet-Composite",
            Signature::new("SensorDataAccessor", "getValue").on("Subnet-Composite"),
            Context::new(),
        ),
        20.75,
        "suspect",
    );
    done.context
        .put(paths::SENSOR_SUBSTITUTED, "Jade-Sensor,Coral-Sensor")
        .put(paths::SENSOR_MISSING, "Diamond-Sensor");
    assert_eq!(done.context.wire_size(), 235);
    assert_eq!(done.wire_size(), 326);
}

#[test]
fn two_level_job_weighs_what_it_did() {
    let inner = Job::new("inner", ControlStrategy::sequence())
        .with(reply(get_value_request(), 19.5, "good"))
        .with(Task::new(
            "scale",
            Signature::new("Math", "scale"),
            Context::new().with("arg/x", 2i64).with("flag", true),
        ));
    let mut outer = Job::new("outer", ControlStrategy::parallel())
        .with(get_value_request())
        .with(inner);
    // What a jobber folds in: computed paths, owned at run time.
    let child = Context::new().with(paths::SENSOR_VALUE, 19.5);
    outer.context.merge_under("read Neem-Sensor", &child);
    assert_eq!(outer.context.wire_size(), 46);
    assert_eq!(outer.wire_size(), 568);
    assert_eq!(Exertion::from(outer).wire_size(), 568);
}

fn fig2_location() -> Entry {
    Entry::Location {
        building: "CP TTU".into(),
        floor: "3".into(),
        room: "310".into(),
    }
}

#[test]
fn every_registry_entry_weighs_what_it_did() {
    assert_eq!(Entry::Name("Neem-Sensor".into()).wire_size(), 16);
    assert_eq!(Entry::Comment("SenSORCER Facade".into()).wire_size(), 21);
    assert_eq!(fig2_location().wire_size(), 23);
    assert_eq!(Entry::ServiceType("ELEMENTARY".into()).wire_size(), 15);
    let custom = Entry::Custom {
        key: "region".into(),
        value: "west".into(),
    };
    assert_eq!(custom.wire_size(), 19);
    assert_eq!(InterfaceId::new("SensorDataAccessor").wire_size(), 22);
}

#[test]
fn a_located_item_and_its_event_weigh_what_they_did() {
    let item = ServiceItem::new(
        SvcUuid(0x267c67a0_dd67_4b95_beb0_e6763e117b03),
        HostId(3),
        ServiceId(11),
        vec!["SensorDataAccessor".into(), "Servicer".into()],
        vec![
            Entry::Name("Neem-Sensor".into()),
            Entry::ServiceType("ELEMENTARY".into()),
            fig2_location(),
        ],
    );
    assert_eq!(item.wire_size(), 124);
    let event = ServiceEvent {
        seq: 9,
        at: SimTime(1_500_000_000),
        uuid: item.uuid,
        transition: Transition::NoMatchToMatch,
        item: Some(item),
    };
    assert_eq!(event_wire_size(&event), 157);
}

/// Matchers go out as their `Debug` text: quotes, a backslash, a newline,
/// a tab and a combining accent are escaped, `'` and `温` are not.
#[test]
fn a_template_with_escaped_matchers_weighs_what_it_did() {
    let template = ServiceTemplate::by_interface("SensorDataAccessor")
        .and_attr(AttrMatch::name("say \"hi\"\\ \n"))
        .and_attr(AttrMatch::Location {
            building: Some("it's\t温".into()),
            floor: None,
            room: Some("\u{301}".into()),
        });
    assert_eq!(template.wire_size(), 147);
    assert_eq!(ServiceTemplate::by_id(SvcUuid(7)).wire_size(), 28);
}
