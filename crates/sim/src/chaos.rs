//! Deterministic chaos injection.
//!
//! A [`ChaosSchedule`] is a seeded, pre-generated list of topology events —
//! pairwise partition/heal, host isolate/reconnect, crash/restart, slow-link
//! windows — that is installed as ordinary [`Env`] timers. Because the
//! schedule is fully materialised before the run starts and every event is
//! applied through the same deterministic timer queue as the middleware's
//! own leases and renewals, a soak run is exactly reproducible from its
//! seed: a passing seed passes always.
//!
//! Every fault drawn by [`ChaosSchedule::generate`] is paired with its
//! inverse (heal, reconnect, restart, restore-link) before the horizon so
//! the world converges back to a clean topology once the last event fires —
//! the precondition for asserting post-heal reconvergence. All fault and
//! inverse operations are idempotent set operations, so overlapping windows
//! on the same target still end clean.

use crate::env::Env;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, LinkModel};

/// Metric keys bumped by [`apply_event`].
pub mod keys {
    /// Pairwise partitions injected.
    pub const CHAOS_PARTITIONS: &str = "chaos.faults.partition";
    /// Host isolations injected.
    pub const CHAOS_ISOLATES: &str = "chaos.faults.isolate";
    /// Host crashes injected.
    pub const CHAOS_CRASHES: &str = "chaos.faults.crash";
    /// Slow-link windows injected.
    pub const CHAOS_SLOW_LINKS: &str = "chaos.faults.slow_link";
    /// Tenant request-storm level changes above baseline injected.
    pub const CHAOS_BURSTS: &str = "chaos.faults.burst";
    /// Total events applied (faults and inverses).
    pub const CHAOS_EVENTS: &str = "chaos.events.applied";
}

/// Gauge key for the live request-rate multiplier of one tenant storm
/// (`1.0` = baseline). Written by [`apply_event`] so load generators can
/// read the current level straight from the metrics registry.
pub fn burst_gauge_key(tenant: u32) -> String {
    format!("chaos.burst.level_t{tenant}")
}

/// One topology mutation at a point in virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosEvent {
    /// Sever the pair `a`–`b`.
    Partition { a: HostId, b: HostId },
    /// Heal the pair `a`–`b`.
    Heal { a: HostId, b: HostId },
    /// Pull `host`'s cable (severed from everything).
    Isolate { host: HostId },
    /// Plug `host` back in.
    Reconnect { host: HostId },
    /// Crash `host` (services stay deployed, come back on restart).
    Crash { host: HostId },
    /// Restart a crashed `host`.
    Restart { host: HostId },
    /// Override the `a`–`b` link with a degraded model (latency window).
    SlowLink {
        a: HostId,
        b: HostId,
        model: LinkModel,
    },
    /// Drop the `a`–`b` link override, reverting to kind defaults.
    RestoreLink { a: HostId, b: HostId },
    /// Set tenant `tenant`'s request-rate multiplier to
    /// `level_x100 / 100` (100 = baseline). Overload as a first-class
    /// injectable fault: a storm is a ramp of rising levels, a hold at
    /// the peak, and a decay back to baseline — see
    /// [`ChaosSchedule::generate_burst`]. Applying one only writes the
    /// [`burst_gauge_key`] gauge; load generators poll it (or read the
    /// schedule directly via [`ChaosSchedule::burst_level_at`]) to decide
    /// how many requests to issue per round.
    BurstLoad { tenant: u32, level_x100: u32 },
}

/// Apply one event to the world, counting it in the `chaos.*` metrics.
pub fn apply_event(env: &mut Env, ev: &ChaosEvent) {
    env.metrics.add(keys::CHAOS_EVENTS, 1);
    match *ev {
        ChaosEvent::Partition { a, b } => {
            env.metrics.add(keys::CHAOS_PARTITIONS, 1);
            env.topo.partition(a, b);
        }
        ChaosEvent::Heal { a, b } => env.topo.heal(a, b),
        ChaosEvent::Isolate { host } => {
            env.metrics.add(keys::CHAOS_ISOLATES, 1);
            env.topo.isolate(host);
        }
        ChaosEvent::Reconnect { host } => env.topo.reconnect(host),
        ChaosEvent::Crash { host } => {
            env.metrics.add(keys::CHAOS_CRASHES, 1);
            env.crash_host(host);
        }
        ChaosEvent::Restart { host } => env.restart_host(host),
        ChaosEvent::SlowLink { a, b, model } => {
            env.metrics.add(keys::CHAOS_SLOW_LINKS, 1);
            env.topo.set_link(a, b, model);
        }
        ChaosEvent::RestoreLink { a, b } => env.topo.clear_link(a, b),
        ChaosEvent::BurstLoad { tenant, level_x100 } => {
            if level_x100 > 100 {
                env.metrics.add(keys::CHAOS_BURSTS, 1);
            }
            env.metrics
                .set_gauge(&burst_gauge_key(tenant), level_x100 as f64 / 100.0);
        }
    }
}

/// Knobs for [`ChaosSchedule::generate`]. Probabilities are per fault
/// class per period, evaluated in order (partition, isolate, crash,
/// slow-link); at most one fault is injected per period.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Virtual-time length of the chaos window, measured from `start`.
    pub horizon: SimDuration,
    /// One fault draw per period.
    pub period: SimDuration,
    /// Probability of a pairwise hub–target partition this period.
    pub partition_prob: f64,
    /// Probability of a target isolation this period.
    pub isolate_prob: f64,
    /// Probability of a target crash this period.
    pub crash_prob: f64,
    /// Probability of a hub–target slow-link window this period.
    pub slow_prob: f64,
    /// Shortest outage before the paired inverse event.
    pub min_outage: SimDuration,
    /// Longest outage before the paired inverse event.
    pub max_outage: SimDuration,
    /// Fault-free tail before the horizon: every inverse event is clamped
    /// to land at least this long before `start + horizon`, giving the
    /// system time to reconverge.
    pub quiesce: SimDuration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            horizon: SimDuration::from_secs(600),
            period: SimDuration::from_secs(5),
            partition_prob: 0.25,
            isolate_prob: 0.10,
            crash_prob: 0.08,
            slow_prob: 0.15,
            min_outage: SimDuration::from_secs(2),
            max_outage: SimDuration::from_secs(20),
            quiesce: SimDuration::from_secs(60),
        }
    }
}

/// How many faults of each class a schedule contains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    pub partitions: u64,
    pub isolates: u64,
    pub crashes: u64,
    pub slow_links: u64,
    /// Burst steps above baseline (return-to-baseline steps not counted).
    pub bursts: u64,
}

impl ChaosCounts {
    pub fn total(&self) -> u64 {
        self.partitions + self.isolates + self.crashes + self.slow_links + self.bursts
    }
}

/// Shape of one tenant request storm: the level ramps from baseline to
/// `peak_x100` over `ramp` in `steps` increments, holds at the peak for
/// `hold`, then decays back down over `decay` in the same number of steps.
#[derive(Clone, Copy, Debug)]
pub struct BurstConfig {
    pub ramp: SimDuration,
    pub hold: SimDuration,
    pub decay: SimDuration,
    /// Peak request-rate multiplier ×100 (must be > 100).
    pub peak_x100: u32,
    /// Level increments per ramp/decay phase (≥ 1).
    pub steps: u32,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            ramp: SimDuration::from_secs(30),
            hold: SimDuration::from_secs(60),
            decay: SimDuration::from_secs(30),
            peak_x100: 800,
            steps: 4,
        }
    }
}

/// A materialised, time-sorted list of chaos events.
#[derive(Clone, Debug, Default)]
pub struct ChaosSchedule {
    /// `(fire_at, event)` pairs, sorted by time (stable for equal times).
    pub events: Vec<(SimTime, ChaosEvent)>,
}

impl ChaosSchedule {
    /// Draw a schedule from `rng`. Faults target pairs `hub`–`target` or
    /// single hosts from `targets`; the hub itself is never faulted (it
    /// models the LAN core that stays up, like the paper's lab server).
    ///
    /// Every fault is paired with its inverse after a uniform outage in
    /// `[min_outage, max_outage]`, clamped so the inverse lands no later
    /// than `start + horizon - quiesce`.
    pub fn generate(
        rng: &mut SimRng,
        hub: HostId,
        targets: &[HostId],
        start: SimTime,
        cfg: &ChaosConfig,
    ) -> Self {
        assert!(!targets.is_empty(), "chaos needs at least one target host");
        assert!(
            cfg.horizon > cfg.quiesce,
            "horizon must leave room for the quiesce tail"
        );
        let deadline = start + (cfg.horizon - cfg.quiesce);
        let mut events: Vec<(SimTime, ChaosEvent)> = Vec::new();

        let mut at = start + cfg.period;
        while at < deadline {
            let target = targets[rng.index(targets.len())];
            let outage_ns = rng.range_u64(
                cfg.min_outage.as_nanos(),
                cfg.max_outage.as_nanos().max(cfg.min_outage.as_nanos() + 1),
            );
            let end = (at + SimDuration::from_nanos(outage_ns)).min(deadline);

            // One cumulative draw selects at most one fault class.
            let roll = rng.unit();
            let mut acc = cfg.partition_prob;
            if roll < acc {
                events.push((at, ChaosEvent::Partition { a: hub, b: target }));
                events.push((end, ChaosEvent::Heal { a: hub, b: target }));
            } else if roll < {
                acc += cfg.isolate_prob;
                acc
            } {
                events.push((at, ChaosEvent::Isolate { host: target }));
                events.push((end, ChaosEvent::Reconnect { host: target }));
            } else if roll < {
                acc += cfg.crash_prob;
                acc
            } {
                events.push((at, ChaosEvent::Crash { host: target }));
                events.push((end, ChaosEvent::Restart { host: target }));
            } else if roll < {
                acc += cfg.slow_prob;
                acc
            } {
                // Latency-only degradation: loss stays at the default so
                // reachability invariants remain crisp under slow links.
                let slow = LinkModel {
                    base_latency: SimDuration::from_millis(250),
                    bandwidth_bps: 4_000.0,
                    ..env_default_link()
                };
                events.push((
                    at,
                    ChaosEvent::SlowLink {
                        a: hub,
                        b: target,
                        model: slow,
                    },
                ));
                events.push((end, ChaosEvent::RestoreLink { a: hub, b: target }));
            }
            at += cfg.period;
        }

        events.sort_by_key(|&(t, _)| t);
        ChaosSchedule { events }
    }

    /// Draw one seeded ramp/hold/decay request storm for `tenant`,
    /// starting at `start`. Step firing times are jittered by up to a
    /// quarter of the step interval so concurrent storms do not align,
    /// but the sequence of levels is fixed by `cfg`: the final event
    /// always returns the tenant to baseline (level 100) at
    /// `start + ramp + hold + decay`.
    pub fn generate_burst(
        rng: &mut SimRng,
        tenant: u32,
        start: SimTime,
        cfg: &BurstConfig,
    ) -> Self {
        assert!(cfg.peak_x100 > 100, "a burst must rise above baseline");
        assert!(cfg.steps >= 1, "a burst needs at least one step");
        let steps = cfg.steps as u64;
        let rise = (cfg.peak_x100 - 100) as u64;
        let jitter = |rng: &mut SimRng, span: SimDuration| {
            let q = span.as_nanos() / (4 * steps);
            SimDuration::from_nanos(if q == 0 { 0 } else { rng.range_u64(0, q) })
        };

        let mut events: Vec<(SimTime, ChaosEvent)> = Vec::new();
        // Ramp: step i (1..=steps) fires at start + i·(ramp/steps) + jitter
        // and raises the level toward the peak; the last step is pinned to
        // exactly the peak so `hold` really holds at `peak_x100`.
        for i in 1..=steps {
            let at = start
                + SimDuration::from_nanos(cfg.ramp.as_nanos() / steps * i)
                + jitter(rng, cfg.ramp);
            let level = 100 + (rise * i / steps) as u32;
            events.push((
                at,
                ChaosEvent::BurstLoad {
                    tenant,
                    level_x100: level,
                },
            ));
        }
        // Decay mirrors the ramp downward; the final event lands exactly at
        // the storm end with level 100 (no jitter) so callers can rely on
        // the tenant being back at baseline from `start + ramp + hold + decay`.
        let decay_start = start + cfg.ramp + cfg.hold;
        for i in 1..=steps {
            let (at, level) = if i == steps {
                (decay_start + cfg.decay, 100)
            } else {
                (
                    decay_start
                        + SimDuration::from_nanos(cfg.decay.as_nanos() / steps * i)
                        + jitter(rng, cfg.decay),
                    100 + (rise * (steps - i) / steps) as u32,
                )
            };
            events.push((
                at,
                ChaosEvent::BurstLoad {
                    tenant,
                    level_x100: level,
                },
            ));
        }
        events.sort_by_key(|&(t, _)| t);
        ChaosSchedule { events }
    }

    /// The request-rate multiplier `tenant` is subject to at time `t`
    /// under this schedule (1.0 = baseline): the level set by the last
    /// `BurstLoad` event for the tenant at or before `t`.
    pub fn burst_level_at(&self, tenant: u32, t: SimTime) -> f64 {
        let mut level = 1.0;
        for &(at, ev) in &self.events {
            if at > t {
                break;
            }
            if let ChaosEvent::BurstLoad {
                tenant: tn,
                level_x100,
            } = ev
            {
                if tn == tenant {
                    level = level_x100 as f64 / 100.0;
                }
            }
        }
        level
    }

    /// Combine two schedules into one time-sorted schedule (stable for
    /// equal times, `self`'s events first).
    pub fn merge(mut self, other: ChaosSchedule) -> Self {
        self.events.extend(other.events);
        self.events.sort_by_key(|&(t, _)| t);
        self
    }

    /// Fault-class totals (inverse events are not counted).
    pub fn counts(&self) -> ChaosCounts {
        let mut c = ChaosCounts::default();
        for (_, ev) in &self.events {
            match ev {
                ChaosEvent::Partition { .. } => c.partitions += 1,
                ChaosEvent::Isolate { .. } => c.isolates += 1,
                ChaosEvent::Crash { .. } => c.crashes += 1,
                ChaosEvent::SlowLink { .. } => c.slow_links += 1,
                ChaosEvent::BurstLoad { level_x100, .. } if *level_x100 > 100 => c.bursts += 1,
                _ => {}
            }
        }
        c
    }

    /// When the last event fires, if any.
    pub fn end(&self) -> Option<SimTime> {
        self.events.last().map(|&(t, _)| t)
    }

    /// Install every event as an [`Env`] timer. The schedule is consumed;
    /// events in the past fire immediately on the next `run_*`.
    pub fn install(self, env: &mut Env) {
        for (at, ev) in self.events {
            env.schedule_at(at, move |env| apply_event(env, &ev));
        }
    }
}

/// The kind-agnostic default used as the base for slow-link overrides.
/// (Free function so `generate` stays independent of any `Env`.)
fn env_default_link() -> LinkModel {
    LinkModel::mote_radio()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::topology::HostKind;

    fn world() -> (Env, HostId, Vec<HostId>) {
        let mut env = Env::with_seed(0xCAFE);
        let hub = env.add_host("hub", HostKind::Server);
        let targets: Vec<HostId> = (0..4)
            .map(|i| env.add_host(format!("m{i}"), HostKind::SensorMote))
            .collect();
        (env, hub, targets)
    }

    fn quick_cfg() -> ChaosConfig {
        ChaosConfig {
            horizon: SimDuration::from_secs(120),
            period: SimDuration::from_secs(2),
            quiesce: SimDuration::from_secs(20),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn same_seed_generates_identical_schedule() {
        let (_, hub, targets) = world();
        let cfg = quick_cfg();
        let s1 = ChaosSchedule::generate(&mut SimRng::new(99), hub, &targets, SimTime::ZERO, &cfg);
        let s2 = ChaosSchedule::generate(&mut SimRng::new(99), hub, &targets, SimTime::ZERO, &cfg);
        assert!(
            !s1.events.is_empty(),
            "a 2s period over 100s should draw faults"
        );
        assert_eq!(s1.events, s2.events);
        let s3 = ChaosSchedule::generate(&mut SimRng::new(100), hub, &targets, SimTime::ZERO, &cfg);
        assert_ne!(s1.events, s3.events, "different seeds should diverge");
    }

    #[test]
    fn every_fault_has_an_inverse_before_the_quiesce_tail() {
        let (_, hub, targets) = world();
        let cfg = quick_cfg();
        let s = ChaosSchedule::generate(&mut SimRng::new(7), hub, &targets, SimTime::ZERO, &cfg);
        let deadline = SimTime::ZERO + (cfg.horizon - cfg.quiesce);
        let counts = s.counts();
        let mut inverses = 0u64;
        for &(t, ev) in &s.events {
            assert!(t <= deadline, "event at {t} past deadline {deadline}");
            if matches!(
                ev,
                ChaosEvent::Heal { .. }
                    | ChaosEvent::Reconnect { .. }
                    | ChaosEvent::Restart { .. }
                    | ChaosEvent::RestoreLink { .. }
            ) {
                inverses += 1;
            }
        }
        assert_eq!(
            counts.total(),
            inverses,
            "each fault pairs with one inverse"
        );
    }

    #[test]
    fn installed_schedule_leaves_topology_clean_after_horizon() {
        let (mut env, hub, targets) = world();
        let cfg = quick_cfg();
        let mut rng = env.fork_rng();
        let s = ChaosSchedule::generate(&mut rng, hub, &targets, env.now(), &cfg);
        assert!(s.counts().total() > 0);
        let expected_events = s.events.len() as u64;
        s.install(&mut env);
        env.run_for(cfg.horizon);
        assert_eq!(env.metrics.get(keys::CHAOS_EVENTS), expected_events);
        for &t in &targets {
            assert!(env.topo.is_alive(t), "{t} restarted by horizon");
            assert!(!env.topo.is_isolated(t), "{t} reconnected by horizon");
            assert!(
                env.topo.check_path(hub, t).is_ok(),
                "{t} reachable by horizon"
            );
            // Slow-link overrides removed: back to the kind default.
            assert_eq!(
                env.topo.link(hub, t).base_latency,
                LinkModel::mote_radio().base_latency
            );
        }
    }

    #[test]
    fn apply_event_is_idempotent_per_pairing() {
        let (mut env, hub, targets) = world();
        let t = targets[0];
        for _ in 0..2 {
            apply_event(&mut env, &ChaosEvent::Crash { host: t });
            apply_event(&mut env, &ChaosEvent::Isolate { host: t });
            apply_event(&mut env, &ChaosEvent::Partition { a: hub, b: t });
        }
        apply_event(&mut env, &ChaosEvent::Restart { host: t });
        apply_event(&mut env, &ChaosEvent::Reconnect { host: t });
        apply_event(&mut env, &ChaosEvent::Heal { a: hub, b: t });
        assert!(env.topo.is_alive(t));
        assert!(env.topo.check_path(hub, t).is_ok());
        assert_eq!(env.metrics.get(keys::CHAOS_CRASHES), 2);
        assert_eq!(env.metrics.get(keys::CHAOS_EVENTS), 9);
    }

    #[test]
    fn burst_schedule_is_deterministic_and_shaped() {
        let cfg = BurstConfig {
            ramp: SimDuration::from_secs(20),
            hold: SimDuration::from_secs(40),
            decay: SimDuration::from_secs(20),
            peak_x100: 900,
            steps: 4,
        };
        let start = SimTime::ZERO + SimDuration::from_secs(10);
        let mut r1 = crate::rng::SimRng::new(7);
        let mut r2 = crate::rng::SimRng::new(7);
        let a = ChaosSchedule::generate_burst(&mut r1, 3, start, &cfg);
        let b = ChaosSchedule::generate_burst(&mut r2, 3, start, &cfg);
        assert_eq!(a.events, b.events, "same seed, same storm");

        // 2·steps events; only the above-baseline ones count as faults.
        assert_eq!(a.events.len(), 8);
        assert_eq!(a.counts().bursts, 7, "final return-to-baseline not a fault");

        // Baseline before, peak during hold, baseline at/after the end.
        assert_eq!(a.burst_level_at(3, start), 1.0);
        let mid_hold = start + cfg.ramp + SimDuration::from_secs(20);
        assert_eq!(a.burst_level_at(3, mid_hold), 9.0);
        let end = start + cfg.ramp + cfg.hold + cfg.decay;
        assert_eq!(a.burst_level_at(3, end), 1.0);
        assert_eq!(a.end(), Some(end), "last event pinned to the storm end");
        // Another tenant is untouched by this storm.
        assert_eq!(a.burst_level_at(4, mid_hold), 1.0);

        // Levels are monotone up through the ramp, down through the decay.
        let levels: Vec<u32> = a
            .events
            .iter()
            .map(|&(_, ev)| match ev {
                ChaosEvent::BurstLoad { level_x100, .. } => level_x100,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(levels, vec![300, 500, 700, 900, 700, 500, 300, 100]);
    }

    #[test]
    fn applied_bursts_write_the_level_gauge() {
        let (mut env, _hub, _targets) = world();
        let cfg = BurstConfig::default();
        let mut rng = env.fork_rng();
        let start = env.now();
        let s = ChaosSchedule::generate_burst(&mut rng, 0, start, &cfg);
        let horizon = cfg.ramp + cfg.hold + cfg.decay;
        let expected_bursts = s.counts().bursts;
        let expected_events = s.events.len() as u64;
        s.install(&mut env);
        env.run_for(cfg.ramp + cfg.hold.mul_f64(0.5));
        assert_eq!(
            env.metrics.gauge(&burst_gauge_key(0)),
            Some(8.0),
            "holding at the peak mid-storm"
        );
        env.run_until(start + horizon);
        assert_eq!(env.metrics.gauge(&burst_gauge_key(0)), Some(1.0));
        assert_eq!(env.metrics.get(keys::CHAOS_BURSTS), expected_bursts);
        assert_eq!(env.metrics.get(keys::CHAOS_EVENTS), expected_events);
    }

    #[test]
    fn merged_schedules_stay_time_sorted() {
        let (mut env, hub, targets) = world();
        let cfg = quick_cfg();
        let mut rng = env.fork_rng();
        let faults = ChaosSchedule::generate(&mut rng, hub, &targets, env.now(), &cfg);
        let storm = ChaosSchedule::generate_burst(&mut rng, 1, env.now(), &BurstConfig::default());
        let fault_count = faults.counts();
        let burst_count = storm.counts().bursts;
        let merged = faults.merge(storm);
        assert!(merged.events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(merged.counts().bursts, burst_count);
        assert_eq!(merged.counts().total(), fault_count.total() + burst_count);
    }
}
