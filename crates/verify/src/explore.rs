//! DPOR-lite schedule exploration over the deterministic scheduler.
//!
//! The discrete-event scheduler in `sensorcer-sim` breaks ties among
//! timers due at the same virtual instant FIFO by registration order.
//! Real networks make no such promise: two messages due "now" can arrive
//! in either order. Every such instant is a *choice point*, and this
//! module drives [`Env::set_tie_chooser`] to explore the tree of
//! delivery orders:
//!
//! * [`ChoicePolicy::Prefix`] replays a recorded choice prefix and
//!   extends it FIFO — the substrate of bounded-exhaustive DFS
//!   ([`explore`] with [`ExploreConfig::exhaustive`]);
//! * [`ChoicePolicy::Random`] draws every choice from a seeded
//!   [`SimRng`] — sampling for scenarios whose trees are too big.
//!
//! Every run executes one [`Scenario`] in a fresh [`Env`] and collects
//! the scenario's own invariants; a traced run also has its flight
//! recorder checked. A schedule is *distinct* when its full choice vector
//! differs; [`ExploreReport`] counts both runs and distinct schedules so a
//! vacuous explorer (no choice points) is visible.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use sensorcer_sim::env::Env;
use sensorcer_sim::rng::SimRng;
use sensorcer_trace::FlightRecorder;

/// One schedule-exploration subject: builds a fresh world inside the
/// prepared `env` (the tie chooser already installed), runs it to its
/// horizon, and reports its own invariants.
pub trait Scenario {
    fn name(&self) -> &'static str;

    /// Seed for the world's `Env` (jitter, chaos draws). Fixed per
    /// scenario so the only varying input across runs is the schedule.
    fn seed(&self) -> u64 {
        1
    }

    /// Build, run, and self-check one world under the installed schedule.
    fn run(&self, env: &mut Env) -> ScenarioResult;
}

/// What one scenario run concluded.
#[derive(Clone, Debug, Default)]
pub struct ScenarioResult {
    /// Order-sensitive digest of the end state; used to compare a traced
    /// re-run against an untraced one under the identical schedule.
    pub digest: u64,
    /// Scenario-level invariant violations (empty on a clean run).
    pub violations: Vec<String>,
}

/// How the tie chooser picks at each choice point.
#[derive(Clone, Debug)]
pub enum ChoicePolicy {
    /// Replay `0..prefix.len()` verbatim (clamped), then extend FIFO.
    Prefix(Vec<usize>),
    /// Draw every choice from `SimRng::new(seed)`.
    Random(u64),
}

/// One explored schedule: the choices taken and everything checked.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// `(k, picked)` per choice point (k ≥ 2 co-scheduled timers).
    pub choices: Vec<(usize, usize)>,
    pub digest: u64,
    /// Scenario violations and, for a traced run, flight-recorder
    /// problems, prefixed by their origin.
    pub violations: Vec<String>,
}

/// FNV-1a over the choice vector: the identity of a schedule.
pub fn schedule_hash(choices: &[(usize, usize)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(k, c) in choices {
        for b in [k as u64, c as u64] {
            h ^= b;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Run one scenario under one schedule policy. `traced` additionally
/// turns the flight recorder on (used by [`trace_transparency`]).
pub fn run_one(scenario: &dyn Scenario, policy: ChoicePolicy, traced: bool) -> ScheduleOutcome {
    let choices: Rc<RefCell<Vec<(usize, usize)>>> = Rc::default();

    let mut env = Env::with_seed(scenario.seed());
    if traced {
        env.enable_tracing(4096);
    }
    let rec = Rc::clone(&choices);
    match policy {
        ChoicePolicy::Prefix(prefix) => env.set_tie_chooser(move |k| {
            let mut cs = rec.borrow_mut();
            let pick = prefix.get(cs.len()).copied().unwrap_or(0).min(k - 1);
            cs.push((k, pick));
            pick
        }),
        ChoicePolicy::Random(seed) => {
            let mut rng = SimRng::new(seed);
            env.set_tie_chooser(move |k| {
                let pick = rng.index(k);
                rec.borrow_mut().push((k, pick));
                pick
            })
        }
    }

    let result = scenario.run(&mut env);
    let mut violations: Vec<String> = result
        .violations
        .iter()
        .map(|v| format!("scenario: {v}"))
        .collect();
    if let Some(rec) = env.disable_tracing() {
        violations.extend(check_recorder(&rec).iter().map(|v| format!("span: {v}")));
    }

    let choices = choices.borrow().clone();
    ScheduleOutcome {
        choices,
        digest: result.digest,
        violations,
    }
}

/// Structural check of a traced run's flight recorder: the recorder's own
/// invariants ([`FlightRecorder::validate`], every span closed), and every
/// event inside its span's lifetime.
fn check_recorder(rec: &FlightRecorder) -> Vec<String> {
    let mut problems = rec.validate(true);
    for span in rec.spans() {
        for ev in &span.events {
            if ev.at_ns < span.start_ns || ev.at_ns > span.end_ns {
                problems.push(format!(
                    "span '{}': event '{}' outside the span's lifetime",
                    span.name, ev.name
                ));
            }
        }
    }
    problems
}

/// Re-run the FIFO schedule with tracing on: the trace plane must be an
/// observer, never an actor, so the traced run must reach the plain run's
/// digest and choices, and report nothing the plain run did not (its
/// flight recorder is checked). Returns the first difference.
pub fn trace_transparency(scenario: &dyn Scenario) -> Option<String> {
    let plain = run_one(scenario, ChoicePolicy::Prefix(Vec::new()), false);
    let traced = run_one(scenario, ChoicePolicy::Prefix(Vec::new()), true);
    if plain.digest != traced.digest || plain.choices != traced.choices {
        return Some(format!(
            "scenario '{}' diverges under tracing: digest {:#x} vs {:#x}, {} vs {} choice points",
            scenario.name(),
            plain.digest,
            traced.digest,
            plain.choices.len(),
            traced.choices.len(),
        ));
    }
    let extra = traced
        .violations
        .iter()
        .find(|v| !plain.violations.contains(v))?;
    Some(format!(
        "scenario '{}' under tracing: {extra}",
        scenario.name()
    ))
}

/// Exploration strategy and budget.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Depth-first over the whole choice tree when `true`; seeded random
    /// sampling otherwise.
    pub exhaustive: bool,
    /// Maximum schedules to run (DFS truncates, sampling stops).
    pub max_schedules: usize,
    /// Sampling seed (ignored for exhaustive).
    pub seed: u64,
    /// Also verify trace transparency on the FIFO schedule.
    pub check_tracing: bool,
}

impl ExploreConfig {
    pub fn exhaustive(max_schedules: usize) -> ExploreConfig {
        ExploreConfig {
            exhaustive: true,
            max_schedules,
            seed: 0,
            check_tracing: true,
        }
    }

    pub fn sample(seed: u64, schedules: usize) -> ExploreConfig {
        ExploreConfig {
            exhaustive: false,
            max_schedules: schedules,
            seed,
            check_tracing: true,
        }
    }
}

/// What one exploration found.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    pub scenario: String,
    pub schedules_run: usize,
    pub distinct_schedules: usize,
    /// Total choice points crossed, summed over runs.
    pub choice_points: u64,
    /// Widest choice point seen (max co-scheduled timers).
    pub max_width: usize,
    /// Deduplicated violations with the choice vector that produced the
    /// first occurrence of each.
    pub violations: Vec<String>,
    /// DFS ran out of budget before closing the tree.
    pub truncated: bool,
    /// [`schedule_hash`] of every distinct schedule run — lets callers
    /// union coverage across explorations without double counting.
    pub schedule_hashes: Vec<u64>,
}

impl ExploreReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Explore one scenario's schedule tree under `cfg`.
pub fn explore(scenario: &dyn Scenario, cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport {
        scenario: scenario.name().to_string(),
        ..Default::default()
    };
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut seen_violations: BTreeSet<String> = BTreeSet::new();

    let absorb = |report: &mut ExploreReport,
                  seen: &mut BTreeSet<u64>,
                  seen_violations: &mut BTreeSet<String>,
                  out: &ScheduleOutcome| {
        report.schedules_run += 1;
        if seen.insert(schedule_hash(&out.choices)) {
            report.distinct_schedules += 1;
        }
        report.choice_points += out.choices.len() as u64;
        report.max_width = report
            .max_width
            .max(out.choices.iter().map(|&(k, _)| k).max().unwrap_or(0));
        for v in &out.violations {
            if seen_violations.insert(v.clone()) {
                report.violations.push(format!(
                    "{v} [schedule {:?}]",
                    out.choices.iter().map(|&(_, c)| c).collect::<Vec<_>>()
                ));
            }
        }
    };

    if cfg.exhaustive {
        // DFS over choice prefixes. A run's free suffix (positions beyond
        // the replayed prefix) always picks 0, so each alternative pick at
        // each free position spawns exactly one new prefix — every leaf of
        // the tree is visited once.
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(prefix) = stack.pop() {
            if report.schedules_run >= cfg.max_schedules {
                report.truncated = true;
                break;
            }
            let depth = prefix.len();
            let out = run_one(scenario, ChoicePolicy::Prefix(prefix), false);
            for i in depth..out.choices.len() {
                let (k, _) = out.choices[i];
                for alt in 1..k {
                    let mut next: Vec<usize> = out.choices[..i].iter().map(|&(_, c)| c).collect();
                    next.push(alt);
                    stack.push(next);
                }
            }
            absorb(&mut report, &mut seen, &mut seen_violations, &out);
        }
    } else {
        let mut seeds = SimRng::new(cfg.seed);
        // FIFO first — the baseline order is always in the sample.
        let fifo = run_one(scenario, ChoicePolicy::Prefix(Vec::new()), false);
        absorb(&mut report, &mut seen, &mut seen_violations, &fifo);
        while report.schedules_run < cfg.max_schedules {
            let out = run_one(scenario, ChoicePolicy::Random(seeds.next_u64()), false);
            absorb(&mut report, &mut seen, &mut seen_violations, &out);
        }
    }

    if cfg.check_tracing {
        if let Some(v) = trace_transparency(scenario) {
            report.violations.push(format!("trace-transparency: {v}"));
        }
    }
    report.schedule_hashes = seen.into_iter().collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sim::time::SimDuration;

    /// Three timers co-scheduled at t=1s appending to a shared log; the
    /// digest encodes the order, so 3! = 6 distinct schedules exist.
    struct Permutable;

    impl Scenario for Permutable {
        fn name(&self) -> &'static str {
            "permutable"
        }

        fn run(&self, env: &mut Env) -> ScenarioResult {
            let log: Rc<RefCell<Vec<u64>>> = Rc::default();
            for i in 0..3u64 {
                let l = Rc::clone(&log);
                env.schedule(SimDuration::from_secs(1), move |_env| {
                    l.borrow_mut().push(i)
                });
            }
            env.run_for(SimDuration::from_secs(2));
            let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
            for &v in log.borrow().iter() {
                digest ^= v + 1;
                digest = digest.wrapping_mul(0x1_0000_0000_01b3);
            }
            ScenarioResult {
                digest,
                violations: Vec::new(),
            }
        }
    }

    #[test]
    fn exhaustive_visits_every_permutation_once() {
        let report = explore(&Permutable, &ExploreConfig::exhaustive(100));
        assert_eq!(report.schedules_run, 6, "3! leaf schedules");
        assert_eq!(report.distinct_schedules, 6);
        assert!(!report.truncated);
        assert!(report.passed());
        assert_eq!(report.max_width, 3);
    }

    #[test]
    fn truncation_is_reported() {
        let report = explore(
            &Permutable,
            &ExploreConfig {
                check_tracing: false,
                ..ExploreConfig::exhaustive(2)
            },
        );
        assert!(report.truncated);
        assert_eq!(report.schedules_run, 2);
    }

    #[test]
    fn sampling_finds_multiple_distinct_schedules() {
        let report = explore(&Permutable, &ExploreConfig::sample(42, 40));
        assert_eq!(report.schedules_run, 40);
        assert!(
            report.distinct_schedules >= 4,
            "got {}",
            report.distinct_schedules
        );
        assert!(report.passed());
    }

    /// A scenario whose invariant fails only when timer 1 beats timer 0.
    struct OrderSensitive;

    impl Scenario for OrderSensitive {
        fn name(&self) -> &'static str {
            "order-sensitive"
        }

        fn run(&self, env: &mut Env) -> ScenarioResult {
            let first: Rc<RefCell<Option<u64>>> = Rc::default();
            for i in 0..2u64 {
                let f = Rc::clone(&first);
                env.schedule(SimDuration::from_secs(1), move |_env| {
                    f.borrow_mut().get_or_insert(i);
                });
            }
            env.run_for(SimDuration::from_secs(2));
            let won = first.borrow().unwrap_or(0);
            let violations = if won == 1 {
                vec!["timer 1 overtook timer 0".to_string()]
            } else {
                Vec::new()
            };
            ScenarioResult {
                digest: won,
                violations,
            }
        }
    }

    #[test]
    fn explorer_finds_the_order_bug_fifo_misses() {
        let fifo = run_one(&OrderSensitive, ChoicePolicy::Prefix(Vec::new()), false);
        assert!(fifo.violations.is_empty(), "FIFO hides the bug");
        let report = explore(&OrderSensitive, &ExploreConfig::exhaustive(10));
        assert!(
            !report.passed(),
            "exploration must surface the reordering bug"
        );
        assert!(report.violations.iter().any(|v| v.contains("overtook")));
    }

    #[test]
    fn trace_transparency_holds_for_simple_scenarios() {
        assert_eq!(trace_transparency(&Permutable), None);
    }

    /// A world that acts on whether it is traced. Its own invariants hold
    /// either way, so only the trace-transparency check sees it.
    struct TraceSensitive;

    impl Scenario for TraceSensitive {
        fn name(&self) -> &'static str {
            "trace-sensitive"
        }

        fn run(&self, env: &mut Env) -> ScenarioResult {
            ScenarioResult {
                digest: env.tracing_enabled() as u64,
                violations: Vec::new(),
            }
        }
    }

    #[test]
    fn trace_transparency_flags_a_world_that_acts_on_its_tracing() {
        let traced = run_one(&TraceSensitive, ChoicePolicy::Prefix(Vec::new()), true);
        assert!(traced.violations.is_empty(), "{:?}", traced.violations);
        let v = trace_transparency(&TraceSensitive).expect("the digests differ");
        assert!(v.contains("diverges under tracing"), "{v}");
    }

    /// A world that opens a span and never ends it: the same digest traced
    /// or not, and no invariant of its own broken.
    struct LeakySpan;

    impl Scenario for LeakySpan {
        fn name(&self) -> &'static str {
            "leaky-span"
        }

        fn run(&self, env: &mut Env) -> ScenarioResult {
            let h = env.add_host("h", sensorcer_sim::topology::HostKind::Server);
            env.span_start("leak", "never ended", h);
            ScenarioResult::default()
        }
    }

    #[test]
    fn trace_transparency_flags_a_span_left_open() {
        let plain = run_one(&LeakySpan, ChoicePolicy::Prefix(Vec::new()), false);
        assert!(plain.violations.is_empty(), "{:?}", plain.violations);
        assert_eq!(
            trace_transparency(&LeakySpan).as_deref(),
            Some("scenario 'leaky-span' under tracing: span: 1 spans still open")
        );
    }
}
