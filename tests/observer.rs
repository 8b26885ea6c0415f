//! The schedule explorer watches a scenario through one `Observer`, and
//! watching must change nothing. Each scenario run in a bare `Env` — no
//! observer, no tie chooser, no recorder — reaches the digest and the
//! verdict of the explorer's FIFO run, which installs its `Checks` and a
//! tie chooser. That run must also have fed both checkers, or the
//! comparison proves nothing.

use sensorcer_suite::sim::env::Env;
use sensorcer_verify::{
    run_one, ChoicePolicy, DegradedRead, LeaseChurn, ProvisionFailover, Scenario,
};

#[test]
fn an_unobserved_run_matches_the_explorers_fifo_run() {
    let scenarios: [&dyn Scenario; 3] = [&LeaseChurn, &ProvisionFailover, &DegradedRead];
    for scenario in scenarios {
        let name = scenario.name();
        let mut env = Env::with_seed(scenario.seed());
        let bare = scenario.run(&mut env);
        assert!(
            !env.observing(),
            "{name}: the scenario installed an observer"
        );

        let watched = run_one(scenario, ChoicePolicy::Prefix(vec![]), false);
        assert_eq!(bare.digest, watched.digest, "{name}: digest");
        let bare_violations: Vec<String> = bare
            .violations
            .iter()
            .map(|v| format!("scenario: {v}"))
            .collect();
        assert_eq!(bare_violations, watched.violations, "{name}: violations");

        let (deliveries, writes, reads) = watched.hb_activity;
        assert!(
            deliveries > 0 && writes > 0 && reads > 0,
            "{name}: the tracker saw (deliveries, writes, reads) = {:?}",
            watched.hb_activity
        );
        assert!(
            watched.lifecycle_events > 0,
            "{name}: no lifecycle transition reached the checker"
        );
    }
}
