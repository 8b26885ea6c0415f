//! The schedule explorer permutes timer ties through a tie chooser, and a
//! chooser that always picks FIFO must change nothing. Each scenario run
//! in a bare `Env` — no tie chooser, no recorder — reaches the digest and
//! the verdict of the explorer's FIFO run. That run must also have crossed
//! real choice points, or the comparison proves nothing.

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

        let watched = run_one(scenario, ChoicePolicy::Prefix(vec![]), false);
        assert_eq!(bare.digest, watched.digest, "{name}: digest");
        let bare_violations: Vec<String> = bare
            .violations
            .iter()
            .map(|v| format!("scenario: {v}"))
            .collect();
        assert_eq!(bare_violations, watched.violations, "{name}: violations");
        assert!(
            !watched.choices.is_empty(),
            "{name}: the FIFO run crossed no choice point"
        );
    }
}
