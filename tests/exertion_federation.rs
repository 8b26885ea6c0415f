//! Exertion-oriented programming across the deployed sensor network:
//! jobs federating sensor reads through the jobber (push) and the
//! exertion space (pull), with transactions riding along.

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::registry::ids::interfaces;
use sensorcer_suite::registry::txn::{Participant, TxnState, Vote};
use sensorcer_suite::sim::prelude::*;

fn world() -> (Env, Deployment) {
    let config = DeploymentConfig::fig2();
    let mut env = Env::with_seed(config.seed);
    let d = standard_deployment(&mut env, &config);
    (env, d)
}

fn read_task(name: &str, provider: &str) -> Task {
    Task::new(
        name,
        Signature::new(interfaces::SENSOR_DATA_ACCESSOR, "getValue").on(provider),
        Context::new(),
    )
}

#[test]
fn parallel_job_reads_all_sensors_through_the_jobber() {
    let (mut env, d) = world();
    let job = Job::new("read-all", ControlStrategy::parallel())
        .with(read_task("neem", "Neem-Sensor"))
        .with(read_task("jade", "Jade-Sensor"))
        .with(read_task("coral", "Coral-Sensor"))
        .with(read_task("diamond", "Diamond-Sensor"));
    let done = exert(&mut env, d.workstation, job.into(), &d.accessor);
    assert!(done.status().is_done(), "{:?}", done.status());
    // "All results of the execution can be found in the returned
    // exertion's service contexts."
    for child in ["neem", "jade", "coral", "diamond"] {
        let v = done
            .context()
            .get_f64(&format!("{child}/sensor/value"))
            .unwrap_or_else(|| panic!("missing {child} value"));
        assert!((15.0..30.0).contains(&v), "{child}: {v}");
    }
}

#[test]
fn hierarchical_job_mirrors_composite_structure() {
    let (mut env, d) = world();
    let subnet = Job::new("subnet", ControlStrategy::parallel())
        .with(read_task("neem", "Neem-Sensor"))
        .with(read_task("jade", "Jade-Sensor"));
    let outer = Job::new("network", ControlStrategy::sequence())
        .with(subnet)
        .with(read_task("coral", "Coral-Sensor"));
    let done = exert(&mut env, d.workstation, outer.into(), &d.accessor);
    assert!(done.status().is_done(), "{:?}", done.status());
    assert!(done.context().get_f64("subnet/neem/sensor/value").is_some());
    assert!(done.context().get_f64("coral/sensor/value").is_some());
}

#[test]
fn pull_mode_federation_over_the_exertion_space() {
    let (mut env, d) = world();
    // Stand up the space machinery: space, spacer, and a worker fronting a
    // compute tasker.
    let space_host = env.add_host("space-host", HostKind::Server);
    let space = ExertionSpace::deploy(&mut env, space_host, "Exertion Space");
    Spacer::deploy(&mut env, space_host, "Spacer", d.accessor.clone(), space);
    let tasker = Tasker::new("Converter", "UnitConversion").on("toFahrenheit", |_env, ctx| {
        let c = ctx.get_f64("arg/celsius").ok_or("missing arg/celsius")?;
        ctx.put(paths::RESULT, c * 1.8 + 32.0);
        Ok(())
    });
    let provider = env.deploy(space_host, "Converter", ServicerBox::new(tasker));
    attach_worker(&mut env, provider, space, SimDuration::from_millis(20));

    let job = Job::new("convert", ControlStrategy::parallel().pull()).with(Task::new(
        "f",
        Signature::new("UnitConversion", "toFahrenheit"),
        Context::new().with("arg/celsius", 21.5),
    ));
    let done = exert(&mut env, d.workstation, job.into(), &d.accessor);
    assert!(done.status().is_done(), "{:?}", done.status());
    let f = done.context().get_f64("f/result/value").unwrap();
    assert!((f - 70.7).abs() < 1e-9);
}

#[test]
fn transactions_commit_across_providers() {
    let (mut env, d) = world();
    // Stage a calibration change on two participants; commit atomically.
    let staged: std::rc::Rc<std::cell::RefCell<Vec<&'static str>>> = Default::default();
    let id =
        d.tm.create(&mut env, d.workstation, SimDuration::from_secs(30))
            .unwrap();
    for (name, host) in [("a", d.mote_hosts[0]), ("b", d.mote_hosts[1])] {
        let s1 = std::rc::Rc::clone(&staged);
        let s2 = std::rc::Rc::clone(&staged);
        d.tm.join(
            &mut env,
            d.workstation,
            id,
            Participant {
                host,
                prepare: Box::new(move |_e, _id| {
                    s1.borrow_mut().push(name);
                    Vote::Prepared
                }),
                commit: Box::new(move |_e, _id| {
                    s2.borrow_mut().push("committed");
                }),
                abort: Box::new(|_e, _id| panic!("must not abort")),
            },
        )
        .unwrap()
        .unwrap();
    }
    d.tm.commit(&mut env, d.workstation, id).unwrap().unwrap();
    let log = staged.borrow();
    assert_eq!(log.as_slice(), ["a", "b", "committed", "committed"]);
    env.with_service(
        d.tm.service,
        |_e, tm: &mut sensorcer_suite::registry::txn::TransactionManager| {
            assert_eq!(tm.state(id), Some(TxnState::Committed));
        },
    )
    .unwrap();
}

#[test]
fn transaction_aborts_when_participant_host_dies() {
    let (mut env, d) = world();
    let id =
        d.tm.create(&mut env, d.workstation, SimDuration::from_secs(30))
            .unwrap();
    let aborted = std::rc::Rc::new(std::cell::Cell::new(false));
    let a2 = std::rc::Rc::clone(&aborted);
    d.tm.join(
        &mut env,
        d.workstation,
        id,
        Participant {
            host: d.lab,
            prepare: Box::new(|_e, _id| Vote::Prepared),
            commit: Box::new(|_e, _id| panic!("must not commit")),
            abort: Box::new(move |_e, _id| a2.set(true)),
        },
    )
    .unwrap()
    .unwrap();
    d.tm.join(
        &mut env,
        d.workstation,
        id,
        Participant {
            host: d.mote_hosts[0],
            prepare: Box::new(|_e, _id| Vote::Prepared),
            commit: Box::new(|_e, _id| {}),
            abort: Box::new(|_e, _id| {}),
        },
    )
    .unwrap()
    .unwrap();
    env.crash_host(d.mote_hosts[0]);
    let err =
        d.tm.commit(&mut env, d.workstation, id)
            .unwrap()
            .unwrap_err();
    assert_eq!(err, sensorcer_suite::registry::txn::TxnError::Aborted);
    assert!(aborted.get(), "the reachable participant must roll back");
}

#[test]
fn exertion_trace_records_the_federation() {
    let (mut env, d) = world();
    let done = exert(
        &mut env,
        d.workstation,
        read_task("t", "Neem-Sensor").into(),
        &d.accessor,
    );
    match done {
        Exertion::Task(t) => {
            assert!(
                t.trace.iter().any(|l| l.contains("Neem-Sensor")),
                "{:?}",
                t.trace
            );
        }
        _ => panic!("a task stays a task"),
    }
}
