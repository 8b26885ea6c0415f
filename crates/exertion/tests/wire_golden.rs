//! Golden `wire_size()` values, taken before task headers became shared
//! and context keys borrowed: how the text is held must not change what it
//! weighs on the simulated wire (`wire_bytes_per_op` is a function of
//! these sums).

use sensorcer_exertion::prelude::*;
use sensorcer_expr::Value;

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
