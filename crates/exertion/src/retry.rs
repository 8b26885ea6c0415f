//! Retry budgets for exertion dispatch.
//!
//! A transient `NetError` — a dropped packet, a partition that a scheduled
//! heal is about to close, a host mid-restart — should not fail a whole
//! federated read. A [`RetryPolicy`] bounds how hard the dispatch path
//! tries: up to `attempts` total tries, exponential backoff between them
//! (waited against *sim* time, so lease renewals, monitors and scheduled
//! heals run during the wait), all within a `deadline` of virtual time.
//!
//! [`exert_in_place_rearmed`] is the one retry loop; it wraps
//! [`exert_in_place`] without changing it, so the raw hop stays a single
//! network hop. Its one production caller is the composite's child hop:
//! jobs, bare tasks and the rendezvous hop are fail-fast.

use sensorcer_sim::conn::Connection;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::SimDuration;
use sensorcer_sim::topology::{HostId, NetError};

use crate::exertion::Exertion;
use crate::servicer::exert_in_place;

/// Metric keys bumped by [`exert_in_place_rearmed`].
pub mod keys {
    /// Re-dispatches performed after a transient failure.
    pub const RETRY_ATTEMPTS: &str = "exertion.retry.attempts";
    /// Dispatches that succeeded only thanks to a retry.
    pub const RETRY_SUCCESS: &str = "exertion.retry.success";
    /// Dispatches that exhausted their budget on a transient error.
    pub const RETRY_EXHAUSTED: &str = "exertion.retry.exhausted";
}

/// Bounded-retry budget for one dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries, including the first (`1` = no retry).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub backoff: SimDuration,
    /// Virtual-time budget: no retry starts after `deadline` has elapsed
    /// since the first try.
    pub deadline: SimDuration,
}

impl RetryPolicy {
    /// No retries: one try, fail-fast. The default everywhere.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            backoff: SimDuration::ZERO,
            deadline: SimDuration::from_nanos(u64::MAX),
        }
    }

    /// A budget sized for transient faults: 4 tries, 100 ms initial
    /// backoff (so 100/200/400 ms waits), all within 10 s.
    pub fn transient() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            backoff: SimDuration::from_millis(100),
            deadline: SimDuration::from_secs(10),
        }
    }

    /// Whether this policy never retries.
    pub fn is_none(&self) -> bool {
        self.attempts <= 1
    }

    /// Whether an error class is worth retrying. Lost packets, timeouts,
    /// partitions and crashed hosts can all clear up; a missing host or
    /// service, or a re-entrant call cycle, cannot.
    pub fn retryable(e: NetError) -> bool {
        matches!(
            e,
            NetError::Lost | NetError::Timeout | NetError::Partitioned | NetError::HostDown
        )
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// [`exert_in_place`] under a retry budget — the one retry loop. Transient
/// errors are retried with exponential backoff waited against sim time
/// (timers fire during the wait, so a scheduled heal or restart can land
/// mid-read); permanent errors and exhausted budgets return the *last*
/// error seen.
///
/// A failed attempt may have reached the provider (a lost response comes
/// after it ran), so before every repeated attempt `rearm` must put the
/// lent exertion back to the request the first attempt sent. Every attempt
/// rides `link`; a failed one closes it, so the next opens it again.
pub fn exert_in_place_rearmed(
    env: &mut Env,
    from: HostId,
    provider: ServiceId,
    exertion: &mut Exertion,
    link: &mut Connection,
    policy: &RetryPolicy,
    mut rearm: impl FnMut(&mut Exertion),
) -> Result<(), NetError> {
    if policy.is_none() {
        return exert_in_place(env, from, provider, exertion, link);
    }
    let start = env.now();
    // Retry traffic is attributed to the provider under pressure: its host
    // (so availability can be broken down by mote) and its registered name
    // (so it can be broken down by servicer). The global counters are
    // bumped by `add_host`, so totals are unchanged. Resolved on the first
    // failure only: a dispatch that succeeds first time attributes nothing.
    let mut target: Option<(HostId, String)> = None;
    let mut attempt: u32 = 0;
    loop {
        match exert_in_place(env, from, provider, exertion, link) {
            Ok(()) => {
                if let Some((provider_host, label)) = &target {
                    env.metrics.add_host(*provider_host, keys::RETRY_SUCCESS, 1);
                    env.metrics.add_labeled(keys::RETRY_SUCCESS, label, 1);
                }
                return Ok(());
            }
            Err(e) => {
                let (provider_host, label) = target.get_or_insert_with(|| {
                    (
                        env.service_host(provider).unwrap_or(from),
                        env.service_name(provider).unwrap_or("?").to_string(),
                    )
                });
                let (provider_host, label) = (*provider_host, label.as_str());
                attempt += 1;
                let out_of_budget =
                    attempt >= policy.attempts || env.now() - start >= policy.deadline;
                if !RetryPolicy::retryable(e) || out_of_budget {
                    if RetryPolicy::retryable(e) {
                        env.metrics
                            .add_host(provider_host, keys::RETRY_EXHAUSTED, 1);
                        env.metrics.add_labeled(keys::RETRY_EXHAUSTED, label, 1);
                        let cur = env.current_span();
                        if cur.is_valid() {
                            env.span_event(
                                cur,
                                "retry.exhausted",
                                vec![
                                    ("attempts", attempt.into()),
                                    ("error", e.to_string().into()),
                                    ("elapsed_ns", (env.now() - start).as_nanos().into()),
                                ],
                            );
                        }
                    }
                    return Err(e);
                }
                let backoff = policy.backoff * 2u64.pow(attempt - 1);
                // An attempt must not be *launched* when the remaining
                // deadline is smaller than the backoff it would first have
                // to sleep: the wait would overshoot the deadline and the
                // caller would see a late failure instead of an eager one.
                let remaining = policy.deadline.saturating_sub(env.now() - start);
                if remaining < backoff {
                    env.metrics
                        .add_host(provider_host, keys::RETRY_EXHAUSTED, 1);
                    env.metrics.add_labeled(keys::RETRY_EXHAUSTED, label, 1);
                    let cur = env.current_span();
                    if cur.is_valid() {
                        env.span_event(
                            cur,
                            "retry.deadline_exhausted",
                            vec![
                                ("attempts", attempt.into()),
                                ("error", e.to_string().into()),
                                ("remaining_ns", remaining.as_nanos().into()),
                                ("backoff_ns", backoff.as_nanos().into()),
                            ],
                        );
                    }
                    return Err(NetError::DeadlineExhausted);
                }
                env.metrics.add_host(provider_host, keys::RETRY_ATTEMPTS, 1);
                env.metrics.add_labeled(keys::RETRY_ATTEMPTS, label, 1);
                let cur = env.current_span();
                if cur.is_valid() {
                    // Latency attribution: how long this dispatch has been
                    // stuck so far, and how long it is about to sleep.
                    env.span_event(
                        cur,
                        "retry.attempt",
                        vec![
                            ("attempt", attempt.into()),
                            ("error", e.to_string().into()),
                            ("elapsed_ns", (env.now() - start).as_nanos().into()),
                            ("backoff_ns", backoff.as_nanos().into()),
                        ],
                    );
                }
                // Exponential backoff against sim time; scheduled events
                // (heals, restarts, renewals) fire during the wait.
                env.run_for(backoff);
                rearm(exertion);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{paths, Context};
    use crate::exertion::{Signature, Task};
    use crate::servicer::{ServicerBox, Tasker};
    use sensorcer_sim::prelude::*;

    fn adder_world() -> (Env, HostId, HostId, ServiceId) {
        let mut env = Env::with_seed(21);
        let host = env.add_host("h", HostKind::Server);
        let client = env.add_host("c", HostKind::Workstation);
        let tasker = Tasker::new("Adder", "Arithmetic").on("add", |_env, ctx| {
            let a = ctx.get_f64("arg/a").ok_or("missing arg/a")?;
            let b = ctx.get_f64("arg/b").ok_or("missing arg/b")?;
            ctx.put(paths::RESULT, a + b);
            Ok(())
        });
        let svc = env.deploy(host, "Adder", ServicerBox::new(tasker));
        (env, host, client, svc)
    }

    fn add_task() -> Exertion {
        Task::new(
            "add",
            Signature::new("Arithmetic", "add"),
            Context::new().with("arg/a", 2.0).with("arg/b", 3.0),
        )
        .into()
    }

    /// Lend a fresh `add` task under `policy`, re-armed by rebuilding it.
    fn add_under(
        env: &mut Env,
        client: HostId,
        svc: ServiceId,
        policy: &RetryPolicy,
    ) -> Result<Exertion, NetError> {
        let mut sent = add_task();
        exert_in_place_rearmed(
            env,
            client,
            svc,
            &mut sent,
            &mut Connection::closed(),
            policy,
            |r| *r = add_task(),
        )?;
        Ok(sent)
    }

    #[test]
    fn retry_rides_out_a_scheduled_heal() {
        let (mut env, host, client, svc) = adder_world();
        env.topo.partition(client, host);
        env.schedule(SimDuration::from_millis(150), move |env| {
            env.topo.heal(client, host);
        });
        let done = add_under(&mut env, client, svc, &RetryPolicy::transient())
            .expect("read survives the partition window");
        assert!(done.status().is_done());
        assert_eq!(done.context().get_f64(paths::RESULT), Some(5.0));
        assert!(env.metrics.get(keys::RETRY_ATTEMPTS) >= 1);
        assert_eq!(env.metrics.get(keys::RETRY_SUCCESS), 1);
        assert_eq!(env.metrics.get(keys::RETRY_EXHAUSTED), 0);
    }

    #[test]
    fn permanent_errors_fail_immediately_without_retries() {
        let (mut env, _host, client, _svc) = adder_world();
        let err =
            add_under(&mut env, client, ServiceId(999), &RetryPolicy::transient()).unwrap_err();
        assert_eq!(err, NetError::NoSuchService);
        assert_eq!(env.metrics.get(keys::RETRY_ATTEMPTS), 0);
        assert_eq!(env.metrics.get(keys::RETRY_EXHAUSTED), 0);
    }

    #[test]
    fn budget_exhausts_against_a_permanent_partition() {
        let (mut env, host, client, svc) = adder_world();
        env.topo.partition(client, host);
        let err = add_under(&mut env, client, svc, &RetryPolicy::transient()).unwrap_err();
        assert_eq!(err, NetError::Partitioned);
        assert_eq!(
            env.metrics.get(keys::RETRY_ATTEMPTS),
            3,
            "attempts - 1 retries"
        );
        assert_eq!(env.metrics.get(keys::RETRY_EXHAUSTED), 1);
        assert_eq!(env.metrics.get(keys::RETRY_SUCCESS), 0);
    }

    #[test]
    fn retries_are_attributed_per_host_and_per_servicer() {
        let (mut env, host, client, svc) = adder_world();
        env.topo.partition(client, host);
        env.enable_tracing(64);
        let root = env.span_start("read", "test", client);
        let err = add_under(&mut env, client, svc, &RetryPolicy::transient()).unwrap_err();
        env.span_end(root, Outcome::Error);
        assert_eq!(err, NetError::Partitioned);
        // Global totals unchanged from the unattributed counters...
        assert_eq!(env.metrics.get(keys::RETRY_ATTEMPTS), 3);
        assert_eq!(env.metrics.get(keys::RETRY_EXHAUSTED), 1);
        // ...and now broken down by the provider's host and name.
        assert_eq!(env.metrics.get_host(host, keys::RETRY_ATTEMPTS), 3);
        assert_eq!(env.metrics.get_host(host, keys::RETRY_EXHAUSTED), 1);
        assert_eq!(env.metrics.get_labeled(keys::RETRY_ATTEMPTS, "Adder"), 3);
        assert_eq!(env.metrics.get_labeled(keys::RETRY_EXHAUSTED, "Adder"), 1);
        assert_eq!(env.metrics.get_labeled(keys::RETRY_ATTEMPTS, "Other"), 0);
        // Each attempt (and the final exhaustion) shows on the open span.
        let rec = env.disable_tracing().unwrap();
        let root_span = rec.spans().find(|s| s.name == "read").expect("root span");
        assert_eq!(
            root_span
                .events
                .iter()
                .filter(|e| e.name == "retry.attempt")
                .count(),
            3
        );
        assert!(root_span.has_event("retry.exhausted"));
    }

    #[test]
    fn deadline_cuts_the_budget_short() {
        let (mut env, host, client, svc) = adder_world();
        env.topo.partition(client, host);
        // Each failed try costs call_timeout (2 s), so a 1 s deadline is
        // already spent after the first failure.
        let policy = RetryPolicy {
            attempts: 10,
            backoff: SimDuration::from_millis(10),
            deadline: SimDuration::from_secs(1),
        };
        let err = add_under(&mut env, client, svc, &policy).unwrap_err();
        assert_eq!(err, NetError::Partitioned);
        assert_eq!(
            env.metrics.get(keys::RETRY_ATTEMPTS),
            0,
            "deadline beat the attempts"
        );
        assert_eq!(env.metrics.get(keys::RETRY_EXHAUSTED), 1);
    }

    #[test]
    fn backoff_never_overshoots_the_deadline() {
        let (mut env, host, client, svc) = adder_world();
        env.topo.partition(client, host);
        env.enable_tracing(64);
        let root = env.span_start("read", "test", client);
        // First failed try costs call_timeout (2 s), leaving 1 s of the
        // 3 s deadline — less than the 5 s backoff the retry would have
        // to sleep. The wrapper must return eagerly at t=2 s instead of
        // sleeping to t=7 s and dispatching again past the deadline.
        let policy = RetryPolicy {
            attempts: 10,
            backoff: SimDuration::from_secs(5),
            deadline: SimDuration::from_secs(3),
        };
        let t0 = env.now();
        let err = add_under(&mut env, client, svc, &policy).unwrap_err();
        env.span_end(root, Outcome::Error);
        assert_eq!(err, NetError::DeadlineExhausted);
        assert_eq!(
            env.now() - t0,
            env.config.call_timeout,
            "no sleep, no second dispatch: the failure is eager"
        );
        assert_eq!(env.metrics.get(keys::RETRY_ATTEMPTS), 0);
        assert_eq!(env.metrics.get(keys::RETRY_EXHAUSTED), 1);
        let rec = env.disable_tracing().unwrap();
        let root_span = rec.spans().find(|s| s.name == "read").expect("root span");
        assert!(
            root_span.has_event("retry.deadline_exhausted"),
            "eager exhaustion must be explainable from the trace"
        );
    }

    #[test]
    fn none_policy_is_a_single_fail_fast_hop() {
        let (mut env, host, client, svc) = adder_world();
        env.topo.partition(client, host);
        let t0 = env.now();
        let err = add_under(&mut env, client, svc, &RetryPolicy::none()).unwrap_err();
        assert_eq!(err, NetError::Partitioned);
        assert_eq!(
            env.now() - t0,
            env.config.call_timeout,
            "exactly one try's cost"
        );
        assert_eq!(env.metrics.get(keys::RETRY_ATTEMPTS), 0);
        assert!(RetryPolicy::default().is_none());
    }
}
