//! Exertion-oriented metacomputing over the sensor network (§IV.D):
//! "we send the request onto the network implicitly, not to a particular
//! service provider explicitly."
//!
//! This example writes an exertion-oriented program — a hierarchical job
//! whose tasks read sensors and convert units — and submits it with
//! `exert()`. The federation forms at runtime: the jobber binds each task
//! through the lookup service, fans parallel branches out, pipes sequence
//! results forward, and the answer comes back in the returned exertion's
//! service context. A pull-mode variant runs the same conversion through
//! the exertion space, taken by whichever worker is free.
//!
//! ```text
//! cargo run --example metacomputing
//! ```

use sensorcer_core::prelude::*;
use sensorcer_exertion::prelude::*;
use sensorcer_registry::ids::interfaces;
use sensorcer_sim::prelude::*;

fn read_task(name: &str, provider: &str) -> Task {
    Task::new(
        name,
        Signature::new(interfaces::SENSOR_DATA_ACCESSOR, "getValue").on(provider),
        Context::new(),
    )
}

fn main() {
    let config = DeploymentConfig::fig2();
    let mut env = Env::with_seed(config.seed);
    let d = standard_deployment(&mut env, &config);

    // A domain-specific tasker joins the grid: unit conversion. Its
    // operations extend the metainstruction set of the metacomputer.
    let lab = d.lab;
    let tasker = Tasker::new("Converter", "UnitConversion").on("toFahrenheit", |_env, ctx| {
        let c = ctx
            .get_f64("arg/celsius")
            .or_else(|| ctx.get_f64("pipe/in"))
            .ok_or("missing celsius input")?;
        ctx.put(paths::RESULT, c * 1.8 + 32.0);
        Ok(())
    });
    let converter = env.deploy(lab, "Converter", ServicerBox::new(tasker));
    d.lus
        .register(
            &mut env,
            lab,
            sensorcer_registry::item::ServiceItem::new(
                sensorcer_registry::ids::SvcUuid::NIL,
                lab,
                converter,
                vec!["UnitConversion".into(), interfaces::SERVICER.into()],
                vec![sensorcer_registry::attributes::Entry::Name(
                    "Converter".into(),
                )],
            ),
            None,
        )
        .expect("registered");

    // --- An exertion-oriented program ------------------------------------
    // Parallel inner job: read two sensors at once. Outer sequence: feed
    // the first reading through the converter via the dataflow pipe.
    let survey = Job::new("survey", ControlStrategy::parallel())
        .with(read_task("neem", "Neem-Sensor"))
        .with(read_task("jade", "Jade-Sensor"));
    let program = Job::new("survey-and-convert", ControlStrategy::sequence())
        .with(read_task("coral", "Coral-Sensor"))
        .with(Task::new(
            "coral-F",
            Signature::new("UnitConversion", "toFahrenheit"),
            Context::new(), // consumes the pipe from the previous stage
        ))
        .with(survey);

    println!("submitting exertion '{}' onto the network...", program.name);
    let done = exert(&mut env, d.workstation, program.into(), &d.accessor);
    println!("status: {:?}\n", done.status());

    // All results live in the returned exertion's service contexts.
    println!("returned service context:");
    for (path, value) in done.context().iter() {
        println!("  {path:<32} = {value}");
    }

    let coral_c = done
        .context()
        .get_f64("coral/sensor/value")
        .expect("coral read");
    let coral_f = done
        .context()
        .get_f64("coral-F/result/value")
        .expect("conversion");
    println!("\ncoral: {coral_c:.2}°C = {coral_f:.2}°F (via the federation's pipe)");
    assert!((coral_f - (coral_c * 1.8 + 32.0)).abs() < 1e-9);

    // --- The same conversion, pull-mode -----------------------------------
    // Tasks go into the exertion space; free workers take them.
    let space = ExertionSpace::deploy(&mut env, lab, "Exertion Space");
    Spacer::deploy(&mut env, lab, "Spacer", d.accessor.clone(), space);
    attach_worker(&mut env, converter, space, SimDuration::from_millis(20));

    let pulled = Job::new("pulled-conversions", ControlStrategy::parallel().pull())
        .with(Task::new(
            "t0",
            Signature::new("UnitConversion", "toFahrenheit"),
            Context::new().with("arg/celsius", 0.0),
        ))
        .with(Task::new(
            "t100",
            Signature::new("UnitConversion", "toFahrenheit"),
            Context::new().with("arg/celsius", 100.0),
        ));
    let done = exert(&mut env, d.workstation, pulled.into(), &d.accessor);
    println!(
        "\npull-mode via the exertion space: 0°C = {}°F, 100°C = {}°F ({:?})",
        done.context().get_f64("t0/result/value").unwrap(),
        done.context().get_f64("t100/result/value").unwrap(),
        done.status()
    );
}
